"""Print the sha256 of every certificate and strict report the realizer,
the base catalogue and the plane search emit, and of the index table, one
line each.

    python3 tools/output_digests.py > digests.txt

Lines are `realize N M CERT REPORT RELOADED` for each 3 <= n <= 60 and
each m with phi(m) <= 2n, RELOADED being the sha256 of the strict report of
`certificate_loads(certificate_dumps(cert))`, verified after the original,
so that its small leaves come from the verifier's leaf-verdict memo; then
`base 1 M CERT REPORT` for each entry of the dimension-1 catalogue. The dimension-2 catalogue is realize(3, m) by
definition, so the `realize 3 M` lines stand for it. Then
`reload LABEL REPORT REDUMP` for bare builder leaves read back from their
own text: `build_index_prime(M)` for every odd 5 <= M <= 401 and for 997,
1999 and 2001, `build_prime_power(M, E)` for 2 <= M <= 11 and 2 <= E <= 6,
`build_sylvester(K)` for 2 <= K <= 5 and each leaf of the explicit table;
REPORT is the sha256 of the strict report of
`certificate_loads(certificate_dumps(leaf))` and REDUMP that of its
`certificate_dumps`. Then the general reader, json.loads and the
field-by-field walk, which the writer's own text never reaches:
`general reload LABEL REPORT` for each leaf above, REPORT being the
sha256 of the strict report of its text re-dumped with
`json.dumps(obj, indent=1)`; and `general edit M KIND OUTCOME` for
`build_index_prime(M)`, odd 5 <= M <= 61, and each one-field edit of
`_EDITS`, the malformed and tampered files of the verify_corpus benchmark,
OUTCOME being the `CertificateParseError` text (its location, then its
message) or the sha256 of the strict report. Then
`search D M K CERT REPORT` for search_plane_pair(D, M, K) with D in
(1, 2), 1 <= M < 400 and 1 <= K <= 8, or `search D M K none` where it
finds nothing, and `table 1,2 SHA` for the stdout of
`cyindex table --dims 1,2`. CERT is the sha256 of `certificate_dumps`,
REPORT the sha256 of the strict verification report as JSON with sorted
keys, and SHA the sha256 of the table.

Then the library functions that restate the verifier's leaf facts:
`lib LABEL FACTS TEXT` for every leaf of the selftest family grids
(`build_index_prime(M)`, `build_prime_power(M, E)`), of the explicit table
(`explicit M`) and of the search hits above (`search D M K`). FACTS is the
sha256 of `log_degree` and `pair_index` (or the exception each raises),
TEXT that of the space and the coefficients as text; the text of a space
is bounded, so it lists at most 16 weights. Last `plane P1 FORMS VERDICT`
for `plane_arrangement_snc` on each multiset of at most 4 of the forms
on P^1 named in `_P1_FORMS`. The package is imported from the
`src` directory beside this file, so running the tool in two checkouts and
diffing the outputs shows exactly which outputs a change alters.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyindex.certify import (  # noqa: E402
    _EXPLICIT,
    BASE_DIM1_INDICES,
    CertificateParseError,
    WpsLeaf,
    base_leaf,
    build_index_prime,
    build_prime_power,
    build_sylvester,
    certificate_dumps,
    certificate_loads,
    realize,
    search_plane_pair,
    verify_certificate,
)
from cyindex.cli import main as cli_main  # noqa: E402
from cyindex.numtheory import indices_with_phi_at_most  # noqa: E402
from cyindex.selftest import _family_leaves  # noqa: E402
from cyindex.sncklt import plane_arrangement_snc  # noqa: E402
from cyindex.wpspairs import SparsePoly, log_degree, pair_index  # noqa: E402

_P1_FORMS = {
    "x0": SparsePoly.linear_form((1, 0)),
    "x1": SparsePoly.linear_form((0, 1)),
    "x0+x1": SparsePoly.linear_form((1, 1)),
    "x0-x1": SparsePoly.linear_form((1, -1)),
    "2x0": SparsePoly.linear_form((2, 0)),
    "x0^2": SparsePoly.from_pairs(2, [(1, ((0, 2),))]),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_sha(cert) -> str:
    return _sha(json.dumps(verify_certificate(cert, "strict").as_obj(), sort_keys=True))


def _line(label: str, cert) -> str:
    return f"{label} {_sha(certificate_dumps(cert))} {_report_sha(cert)}"


def _reload_leaves() -> list:
    """(label, leaf) for each bare builder leaf the `reload` lines read back."""
    leaves = [(f"index_prime {m}", build_index_prime(m)) for m in [*range(5, 402, 2), 997, 1999, 2001]]
    leaves += [(f"prime_power {m} {e}", build_prime_power(m, e)) for m in range(2, 12) for e in range(2, 7)]
    leaves += [(f"sylvester {k}", build_sylvester(k)) for k in range(2, 6)]
    return leaves + [(f"explicit {m}", cert.leaf) for m, cert in _EXPLICIT.items()]


def _reload_line(label: str, leaf) -> str:
    back = certificate_loads(certificate_dumps(WpsLeaf(leaf)))
    return f"reload {label} {_report_sha(back)} {_sha(certificate_dumps(back))}"


def _general_line(label: str, leaf) -> str:
    text = json.dumps(json.loads(certificate_dumps(WpsLeaf(leaf))), indent=1)
    return f"general reload {label} {_report_sha(certificate_loads(text))}"


def _edited(text: str, kind: str) -> str:
    """A leaf text with one edit, written as the verify_corpus benchmark
    writes its malformed and tampered files."""
    if kind == "truncated":
        return text[: len(text) // 2]
    obj = json.loads(text)
    first = obj["entries"][0]
    match kind:
        case "missing-weights":
            del obj["weights"]
        case "version-2":
            obj["v"] = 2
        case "zero-denominator":
            first["eq"][0]["c"] = [1, 0]
        case "negative-exponent":
            first["eq"][0]["e"][0] = -1
        case "unknown-node":
            obj["node"] = "mystery_leaf"
        case "short-exponents":
            first["eq"][0]["e"].pop()
        case "b-one":
            first["b"] = 1
        case "weight-bump":
            obj["weights"][0] += 1
        case "b-change":
            first["b"] += 2
        case "entry-duplicated":
            obj["entries"][1]["eq"] = first["eq"]
        case "strategy-swap":
            obj["strategy"] = "family_B" if obj["strategy"] == "family_A" else "family_A"
        case "constant-equation":
            first["eq"] = [{"c": [1, 1], "e": [0] * len(obj["weights"])}]
        case "single-factor-product":
            obj = {"v": 1, "node": "product", "factors": [obj]}
        case "unformed-weights":
            obj["weights"] = [2] * len(obj["weights"])
        case _:
            raise ValueError(f"unknown edit {kind!r}")
    return json.dumps(obj, sort_keys=True)


_EDITS = ("truncated", "missing-weights", "version-2", "zero-denominator", "negative-exponent", "unknown-node",
          "short-exponents", "b-one", "weight-bump", "b-change", "entry-duplicated", "strategy-swap",
          "constant-equation", "single-factor-product", "unformed-weights")


def _edit_line(m: int, kind: str) -> str:
    try:
        outcome = _report_sha(certificate_loads(_edited(certificate_dumps(WpsLeaf(build_index_prime(m))), kind)))
    except CertificateParseError as err:
        outcome = str(err)  # the location, then the message
    return f"general edit {m} {kind} {outcome}"


def _outcome(fn, *args) -> str:
    try:
        return str(fn(*args))
    except Exception as err:  # the exception is part of the digested behaviour
        return f"{type(err).__name__}: {err}"


def _lib_line(label: str, leaf) -> str:
    facts = f"{_outcome(log_degree, leaf)}|{_outcome(pair_index, leaf)}"
    text = f"{leaf.space}|{' '.join(str(c) for c, _ in leaf.entries)}"
    return f"lib {label} {_sha(facts)} {_sha(text)}"


def main() -> int:
    for n in range(3, 61):
        for m in indices_with_phi_at_most(2 * n):
            cert = realize(n, m)
            line = _line(f"realize {n} {m}", cert)  # the original first, then its reloaded copy
            print(f"{line} {_report_sha(certificate_loads(certificate_dumps(cert)))}")
    for m in BASE_DIM1_INDICES:
        print(_line(f"base 1 {m}", base_leaf(1, m)))
    reloaded = _reload_leaves()
    for label, leaf in reloaded:
        print(_reload_line(label, leaf))
    for label, leaf in reloaded:
        print(_general_line(label, leaf))
    for m in range(5, 62, 2):
        for kind in _EDITS:
            print(_edit_line(m, kind))
    hits = []
    for d in (1, 2):
        for m in range(1, 400):
            for k in range(1, 9):
                label = f"search {d} {m} {k}"
                leaf = search_plane_pair(d, m, k)
                if leaf is None:
                    print(f"{label} none")
                else:
                    hits.append((label, leaf))
                    print(_line(label, WpsLeaf(leaf)))
    table = io.StringIO()
    with redirect_stdout(table):
        cli_main(["table", "--dims", "1,2"])
    print(f"table 1,2 {_sha(table.getvalue())}")
    for call, leaf, _ in _family_leaves():
        print(_lib_line(call.replace(" ", ""), leaf))
    for m, cert in _EXPLICIT.items():
        print(_lib_line(f"explicit {m}", cert.leaf))
    for label, leaf in hits:
        print(_lib_line(label, leaf))
    for k in range(5):
        for names in combinations_with_replacement(_P1_FORMS, k):
            verdict = _outcome(plane_arrangement_snc, [_P1_FORMS[n] for n in names])
            print(f"plane P1 {','.join(names) or '-'} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
