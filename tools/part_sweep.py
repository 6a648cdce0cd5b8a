"""Build and strict-verify every distinct family part of the key step up to N, once each.

    PYTHONPATH=src python3 tools/part_sweep.py 4000

The key step covers every m with phi(m) <= 2N. Each m is split by
`certify._parts`, the split realize uses. Each distinct family part is
built by `certify._part`, never the held copy, and strict-verified once;
the script prints the part count, the variables they hold and the seconds
from the enumeration to the last verdict, and exits 1 if a part fails. It is the
yardstick of ROADMAP items 2 and 19; run it on two checkouts, one
after the other in one session, to compare them.
"""

from __future__ import annotations

import sys
import time

from cyindex.certify import _EXPLICIT, _part, _parts
from cyindex.numtheory import factorize, indices_with_phi_at_most
from cyindex.verify import verify_certificate


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    n = int(args[0]) if args else 4000
    start = time.perf_counter()
    distinct = sorted({(p, e) for m in indices_with_phi_at_most(2 * n) for p, e in _parts(m, factorize(m))
                       if p**e not in _EXPLICIT})
    variables = 0
    for p, e in distinct:
        leaf = _part(p, e)
        report = verify_certificate(leaf)
        if not report.passed or report.index != p**e:
            print(f"part {p}^{e} fails: {report.failing_checks()}")
            return 1
        variables += len(leaf.space.weights)
    print(f"N = {n}: {len(distinct)} parts, {variables} variables, {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
