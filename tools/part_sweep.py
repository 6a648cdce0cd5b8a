"""Build and strict-verify every distinct family part of the key step up to N, once each.

    PYTHONPATH=src python3 tools/part_sweep.py 4000

The key step covers every m with phi(m) <= 2N. Each m is split into the
parts `certify._core` joins: the prime or prime power p^e of its largest
prime and, in turn, those of its cofactor, where an index of the explicit
table stops the split. Each distinct family part is built by
`certify._part`, never the held copy, and strict-verified once; the script
prints the part count, the variables they hold and the seconds from the
enumeration to the last verdict, and exits 1 if a part fails. It is the
yardstick of ROADMAP items 2, 8 and 19; run it on two checkouts, one
after the other in one session, to compare them.
"""

from __future__ import annotations

import sys
import time

from cyindex.certify import _EXPLICIT, _part
from cyindex.numtheory import factorize, indices_with_phi_at_most
from cyindex.verify import verify_certificate


def parts(m: int) -> list[tuple[int, int]]:
    """The (p, e) family parts of m as _core splits it, explicit ones left out."""
    out = []
    while m != 1 and m not in _EXPLICIT:
        p, e = factorize(m)[-1]
        if p**e not in _EXPLICIT:
            out.append((p, e))
        m //= p**e
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    n = int(args[0]) if args else 4000
    start = time.perf_counter()
    distinct = sorted({part for m in indices_with_phi_at_most(2 * n) for part in parts(m)})
    variables = 0
    for p, e in distinct:
        node = _part(p, e)
        report = verify_certificate(node, "strict")
        if not report.passed or report.index != p**e:
            print(f"part {p}^{e} fails: {report.failing_checks()}")
            return 1
        variables += len(node.leaf.space.weights)
    print(f"N = {n}: {len(distinct)} parts, {variables} variables, {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
