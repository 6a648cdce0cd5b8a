"""Print the sha256 of every certificate and strict report the realizer,
the base catalogue and the plane search emit, and of the index table, one
line each.

    python3 tools/output_digests.py > digests.txt

Lines are `enumerate B SHA` for each 1 <= B <= 2000, SHA being the
sha256 of `indices_with_phi_at_most(B)` joined by spaces; then
`realize N M CERT REPORT RELOADED` for each 3 <= n <= 60 and
each m with phi(m) <= 2n, RELOADED being the sha256 of the strict report of
`certificate_loads(certificate_dumps(cert))`, verified after the original,
so that a leaf the reader memo hands back again reports the verdict it
kept; then
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
is bounded, so it lists at most 16 weights. Then `plane P1 FORMS VERDICT`
for `plane_arrangement_snc` on each multiset of at most 4 of the forms
on P^1 named in `_P1_FORMS`, and `plane P2 FORMS VERDICT` on each
multiset of at most 3 of the forms on P^2 named in `_P2_FORMS`: the six
catalogue lines, a smooth and a singular conic, a tangent line, and a
smooth and a nodal cubic. Last the hyperplane check:
`hyperplane vandermonde NV K REPORT` for the leaf of K hyperplanes
sum_i t^i x_i, t = 10, ..., 9 + K, on P^(NV-1), each with b = 2, for
2 <= NV <= 6 and NV <= K <= 2 NV, REPORT the sha256 of its strict report;
then `hyperplane VECTORS VERDICT` for `hyperplane_arrangement_snc` on each
multiset of at most 4 of the 3-vectors of `_HYPERPLANE_VECTORS`, which
holds proportional and dependent ones and a zero one.

Then the command line's JSON bytes: `cli verify LABEL MODE SHA` for each
reload file above (LABEL `reload` and its label) and each general edit
file (LABEL `edit M KIND`), SHA being the sha256 of the stdout of
`cyindex verify FILE --mode MODE --format json` for MODE strict and
trusting; then `cli realize N M SHA` for the stdout of
`cyindex realize --dim N --index M` (its JSON) for N in (3, 10) and each m
with phi(m) <= 2N; then `cli enumerate B SHA` for the stdout of
`cyindex enumerate --phi-bound B --format json` for B in (1, 2, 444, 100000).

Last the coefficient budget: `budget LABEL REPORT` for leaves whose b
values are over `COEFF_BITS_BUDGET` counted once per entry, REPORT being
the sha256 of the strict report: `realize 16386 32771`, whose 8,193
entries share one 16-bit b; `repeated 4`, four coordinate hyperplanes on
P^3 sharing b = 3^25000; and `distinct 400`, 400 coordinate hyperplanes
on P^399 with the distinct b values 10^3999 + i. The package is imported from the
`src` directory beside this file, so running the tool in two checkouts and
diffing the outputs shows exactly which outputs a change alters.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyindex import (  # noqa: E402
    CertificateParseError,
    LogLeaf,
    SparsePoly,
    StdCoeff,
    Wps,
    base_leaf,
    build_index_prime,
    build_prime_power,
    build_sylvester,
    certificate_dumps,
    certificate_loads,
    hyperplane_arrangement_snc,
    indices_with_phi_at_most,
    log_degree,
    pair_index,
    plane_arrangement_snc,
    realize,
    search_plane_pair,
    verify_certificate,
)
from cyindex.certify import _EXPLICIT, _P2_LINES, BASE_DIM1_INDICES  # noqa: E402
from cyindex.cli import main as cli_main  # noqa: E402
from cyindex.selftest import _family_leaves  # noqa: E402

_P1_FORMS = {
    "x0": SparsePoly.linear_form((1, 0)),
    "x1": SparsePoly.linear_form((0, 1)),
    "x0+x1": SparsePoly.linear_form((1, 1)),
    "x0-x1": SparsePoly.linear_form((1, -1)),
    "2x0": SparsePoly.linear_form((2, 0)),
    "x0/2": SparsePoly.linear_form((Fraction(1, 2), 0)),
    "-x1": SparsePoly.linear_form((0, -1)),
    "x0^2": SparsePoly.from_pairs(2, [(1, ((0, 2),))]),
}

_P2_FORMS = {
    **{f"line{j}": line for j, line in enumerate(_P2_LINES)},
    "x0x2-x1^2": SparsePoly.from_terms(3, [(1, (1, 0, 1)), (-1, (0, 2, 0))]),
    "x0x1": SparsePoly.from_terms(3, [(1, (1, 1, 0))]),
    "x0": SparsePoly.linear_form((1, 0, 0)),  # tangent to x0x2-x1^2 at [0:0:1]
    "x0^3+x1^3+x2^3": SparsePoly.from_terms(3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))]),
    "x1^2x2-x0^3-x0^2x2": SparsePoly.from_terms(3, [(1, (0, 2, 1)), (-1, (3, 0, 0)), (-1, (2, 0, 1))]),
}

_HYPERPLANE_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, 1), (1, 1, 1), (2, 2, 2),
                       (1, 2, 3), (2, 4, 6), (Fraction(1, 2), 1, 0), (0, 0, 0))


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
    return leaves + [(f"explicit {m}", leaf) for m, leaf in _EXPLICIT.items()]


def _reload_line(label: str, leaf) -> str:
    back = certificate_loads(certificate_dumps(leaf))
    return f"reload {label} {_report_sha(back)} {_sha(certificate_dumps(back))}"


def _general_line(label: str, leaf) -> str:
    text = json.dumps(json.loads(certificate_dumps(leaf)), indent=1)
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
        outcome = _report_sha(certificate_loads(_edited(certificate_dumps(build_index_prime(m)), kind)))
    except CertificateParseError as err:
        outcome = str(err)  # the location, then the message
    return f"general edit {m} {kind} {outcome}"


def _cli_sha(*argv: str) -> str:
    """The sha256 of what `cyindex ARGV` writes to stdout; its stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli_main(list(argv))
    return _sha(out.getvalue())


def _cli_verify_lines(label: str, text: str, path: Path) -> list[str]:
    """The `cli verify` lines of `text`, written to `path` and verified in both modes."""
    path.write_text(text, encoding="utf-8")
    return [f"cli verify {label} {mode} {_cli_sha('verify', str(path), '--mode', mode, '--format', 'json')}"
            for mode in ("strict", "trusting")]


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
    for bound in range(1, 2001):
        print(f"enumerate {bound} {_sha(' '.join(map(str, indices_with_phi_at_most(bound))))}")
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
                    print(_line(label, leaf))
    table = io.StringIO()
    with redirect_stdout(table):
        cli_main(["table", "--dims", "1,2"])
    print(f"table 1,2 {_sha(table.getvalue())}")
    for call, leaf, _ in _family_leaves():
        print(_lib_line(call.replace(" ", ""), leaf))
    for m, leaf in _EXPLICIT.items():
        print(_lib_line(f"explicit {m}", leaf))
    for label, leaf in hits:
        print(_lib_line(label, leaf))
    for k in range(5):
        for names in combinations_with_replacement(_P1_FORMS, k):
            verdict = _outcome(plane_arrangement_snc, [_P1_FORMS[n] for n in names])
            print(f"plane P1 {','.join(names) or '-'} {verdict}")
    for k in range(4):
        for names in combinations_with_replacement(_P2_FORMS, k):
            verdict = _outcome(plane_arrangement_snc, [_P2_FORMS[n] for n in names])
            print(f"plane P2 {','.join(names) or '-'} {verdict}")
    for nv in range(2, 7):
        for k in range(nv, 2 * nv + 1):
            eqs = [SparsePoly.linear_form([t**i for i in range(nv)]) for t in range(10, 10 + k)]
            leaf = LogLeaf(Wps((1,) * nv), tuple((StdCoeff(2), eq) for eq in eqs), "hyperplane_arrangement")
            print(f"hyperplane vandermonde {nv} {k} {_report_sha(leaf)}")
    for k in range(5):
        for vectors in combinations_with_replacement(_HYPERPLANE_VECTORS, k):
            verdict = _outcome(hyperplane_arrangement_snc, vectors)
            print(f"hyperplane {';'.join(','.join(map(str, v)) for v in vectors) or '-'} {verdict}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        for label, leaf in reloaded:
            print(*_cli_verify_lines(f"reload {label}", certificate_dumps(leaf), path), sep="\n")
        for m in range(5, 62, 2):
            text = certificate_dumps(build_index_prime(m))
            for kind in _EDITS:
                print(*_cli_verify_lines(f"edit {m} {kind}", _edited(text, kind), path), sep="\n")
    for n in (3, 10):
        for m in indices_with_phi_at_most(2 * n):
            print(f"cli realize {n} {m} {_cli_sha('realize', '--dim', str(n), '--index', str(m))}")
    for bound in (1, 2, 444, 100_000):
        print(f"cli enumerate {bound} {_cli_sha('enumerate', '--phi-bound', str(bound), '--format', 'json')}")
    print(f"budget realize 16386 32771 {_report_sha(realize(16386, 32771))}")
    for label, bs in (("repeated 4", [3**25000] * 4), ("distinct 400", [10**3999 + i for i in range(400)])):
        leaf = LogLeaf(Wps((1,) * len(bs)), tuple((StdCoeff(b), j) for j, b in enumerate(bs)), "family_A")
        print(f"budget {label} {_report_sha(leaf)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
