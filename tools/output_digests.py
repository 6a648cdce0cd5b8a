"""Print the sha256 of every certificate and strict report the realizer,
the base catalogue and the plane search emit, and of the index table, one
line each.

    python3 tools/output_digests.py > digests.txt

Lines are `realize N M CERT REPORT` for each 3 <= n <= 60 and each m with
phi(m) <= 2n, then `base 1 M CERT REPORT` for each entry of the
dimension-1 catalogue. The dimension-2 catalogue is realize(3, m) by
definition, so the `realize 3 M` lines stand for it. Then
`search D M K CERT REPORT` for each hit of search_plane_pair(D, M, K) with
D in (1, 2), 2 <= M < 400 and K in (4, 7), the CLI default and the
table's value, and last `table 1,2 SHA` for the stdout of
`cyindex table --dims 1,2`. CERT is the sha256 of `certificate_dumps`,
REPORT the sha256 of the strict verification report as JSON with sorted
keys, and SHA the sha256 of the table. The package is imported from the
`src` directory beside this file, so running the tool in two checkouts and
diffing the outputs shows exactly which outputs a change alters.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyindex.certify import (  # noqa: E402
    BASE_DIM1_INDICES,
    WpsLeaf,
    base_leaf,
    certificate_dumps,
    realize,
    search_plane_pair,
    verify_certificate,
)
from cyindex.cli import main as cli_main  # noqa: E402
from cyindex.numtheory import indices_with_phi_at_most  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _line(label: str, cert) -> str:
    report = json.dumps(verify_certificate(cert, "strict").as_obj(), sort_keys=True)
    return f"{label} {_sha(certificate_dumps(cert))} {_sha(report)}"


def main() -> int:
    for n in range(3, 61):
        for m in indices_with_phi_at_most(2 * n):
            print(_line(f"realize {n} {m}", realize(n, m)))
    for m in BASE_DIM1_INDICES:
        print(_line(f"base 1 {m}", base_leaf(1, m)))
    for d in (1, 2):
        for m in range(2, 400):
            for k in (4, 7):
                leaf = search_plane_pair(d, m, k)
                if leaf is not None:
                    print(_line(f"search {d} {m} {k}", WpsLeaf(leaf)))
    table = io.StringIO()
    with redirect_stdout(table):
        cli_main(["table", "--dims", "1,2"])
    print(f"table 1,2 {_sha(table.getvalue())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
