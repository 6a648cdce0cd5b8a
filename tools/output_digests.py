"""Print the sha256 of every certificate and strict report the realizer and
the base catalogue emit, one line each.

    python3 tools/output_digests.py > digests.txt

Lines are `realize N M CERT REPORT` for each 3 <= n <= 60 and each m with
phi(m) <= 2n, then `base 1 M CERT REPORT` for each entry of the
dimension-1 catalogue. The dimension-2 catalogue is realize(3, m) by
definition, so the `realize 3 M` lines stand for it. CERT is the sha256 of
`certificate_dumps`, and REPORT the sha256 of the strict verification
report as JSON with sorted keys. The package is imported from the `src`
directory beside this file, so running the tool in two checkouts and
diffing the outputs shows exactly which outputs a change alters.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyindex.certify import (  # noqa: E402
    BASE_DIM1_INDICES,
    base_leaf,
    certificate_dumps,
    realize,
    verify_certificate,
)
from cyindex.numtheory import indices_with_phi_at_most  # noqa: E402


def _line(label: str, cert) -> str:
    text = certificate_dumps(cert)
    report = json.dumps(verify_certificate(cert, "strict").as_obj(), sort_keys=True)
    digests = (hashlib.sha256(s.encode()).hexdigest() for s in (text, report))
    return f"{label} {' '.join(digests)}"


def main() -> int:
    for n in range(3, 61):
        for m in indices_with_phi_at_most(2 * n):
            print(_line(f"realize {n} {m}", realize(n, m)))
    for m in BASE_DIM1_INDICES:
        print(_line(f"base 1 {m}", base_leaf(1, m)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
