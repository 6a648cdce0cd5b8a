"""Batch command line front end.

Commands: realize, verify, enumerate, table, search, selftest. Output is
deterministic (byte-identical across identical invocations); JSON uses
sorted keys and exact integer fractions.

Exit codes, fixed for scriptability:
  0   success (certificate verifies / search ran / selftest green)
  1   verification failed in the requested mode
  2   precondition failure (for example phi(m) > 2n)
  3   internal checker disagreement (also selftest failure)
  64  usage error
  65  parse error in an input file (reported with a location)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certify, numtheory
from .certify import (
    BASE_DIM1_INDICES,
    CertificateParseError,
    Product,
    base_leaf,
    build_index_prime,
    build_prime_power,
    certificate_dumps,
    certificate_index,
    certificate_loads,
    check_dim_inequality,
    logleaf_to_obj,
    realize,
    search_plane_pair,
    verify_certificate,
)
from .numtheory import euler_phi, indices_with_phi_at_most
from .sncklt import is_klt_leaf
from .wpspairs import log_degree, pair_index

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64
EXIT_PARSE = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cyindex", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize",
                       help="build and verify a certificate of dimension N-1 and index M "
                            "(requires phi(M) <= 2N)")
    p.add_argument("--dim", type=int, required=True, metavar="N",
                   help="N >= 3 (the certificate has dimension N-1)")
    p.add_argument("--index", type=int, required=True, metavar="M")
    p.add_argument("--mode", choices=("strict", "trusting"), default="trusting")
    p.add_argument("--out", metavar="FILE", help="also write the certificate JSON to FILE")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("verify", help="verify a certificate file (schema v1)")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--mode", choices=("strict", "trusting"), default="trusting")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("enumerate", help="print {m : phi(m) <= B}")
    p.add_argument("--phi-bound", type=int, required=True, metavar="B")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("table", help="print the known index tables per dimension")
    p.add_argument("--dims", default="1,2", metavar="CSV",
                   help="comma separated dimensions, default 1,2")

    p = sub.add_parser("search", help="search plane arrangements realizing an index")
    p.add_argument("--dim", type=int, required=True, choices=(1, 2))
    p.add_argument("--index", type=int, required=True, metavar="M")
    p.add_argument("--max-components", type=int, default=4, metavar="K")

    sub.add_parser("selftest", help="run the invariant suite of every module")
    return parser


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _print_report_table(report) -> None:
    print(f"verification: {'PASSED' if report.passed else 'FAILED'} (mode {report.mode})")
    print(f"dim: {report.dim}")
    print(f"index: {report.index}")
    print(f"cited leaves: {len(report.cited_leaves)}")
    for cited in report.cited_leaves:
        print(f"  {cited['path']}: index {cited['index']} in dimension {cited['dim']}: {cited['cite']}")
    total = sum(len(r.checks) for r in report.leaf_reports)
    failed = report.failing_checks()
    print(f"checks: {total - len(failed)} passed, {len(failed)} failed")
    for rep in report.leaf_reports:
        for name, ok, detail in rep.checks:
            if not ok:
                print(f"  FAIL {rep.path} [{rep.kind}] {name}: {detail}")
        if rep.klt is not None and not rep.klt.passed:
            for step in rep.klt.steps:
                if not step.passed:
                    print(f"  FAIL {rep.path} [klt step] {step.description}: {step.detail}")


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_realize(args) -> int:
    n, m = args.dim, args.index
    if n < 3:
        print(f"precondition failed: dim must be >= 3, got {n}", file=sys.stderr)
        return EXIT_PRECONDITION
    if m < 1:
        print(f"precondition failed: index must be >= 1, got {m}", file=sys.stderr)
        return EXIT_PRECONDITION
    phi = euler_phi(m)
    if phi > 2 * n:
        print(f"precondition failed: phi({m}) = {phi} > 2*dim = {2 * n}", file=sys.stderr)
        return EXIT_PRECONDITION
    cert = realize(n, m)
    report = verify_certificate(cert, args.mode)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certificate_dumps(cert) + "\n")
    if args.format == "json":
        _dump_json({"certificate": certify.certificate_to_obj(cert), "report": report.as_obj()})
    else:
        print(f"certificate: dimension {n - 1}, index {m}")
        _print_report_table(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"parse error: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cert = certificate_loads(text)
    except CertificateParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    report = verify_certificate(cert, args.mode)
    if args.format == "json":
        _dump_json(report.as_obj())
    else:
        _print_report_table(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_enumerate(args) -> int:
    if args.phi_bound < 1:
        raise _UsageError(f"--phi-bound must be >= 1, got {args.phi_bound}")
    members = indices_with_phi_at_most(args.phi_bound)
    if args.format == "json":
        _dump_json(members)
    else:
        print(" ".join(str(m) for m in members))
    return EXIT_OK


_DIM2_STATUS = {
    1: "constructed: abelian surface",
    2: "constructed: P1 pair x elliptic curve",
    3: "constructed: P1 pair x elliptic curve",
    4: "constructed: P1 pair x elliptic curve",
    6: "constructed: P1 pair x elliptic curve",
    5: "constructed: weighted projective plane pair",
    7: "constructed: weighted projective plane pair",
    8: "constructed: prime power family (2^3)",
    9: "constructed: prime power family (3^2)",
    10: "constructed: plane arrangement 1/2 L + 4/5 C + 9/10 L'",
    12: "constructed: product of P1 pairs (4 x 3)",
    18: "constructed: plane arrangement, four lines",
    14: "cited: K3 quotient (Machida-Oguiso)",
}

_DIM1_STATUS = {
    1: "elliptic curve",
    2: "P1, 1/2(P1+P2+P3+P4)",
    3: "P1, 2/3(P1+P2+P3)",
    4: "P1, 1/2 P1 + 3/4(P2+P3)",
    6: "P1, 1/2 P1 + 2/3 P2 + 5/6 P3",
}


def _print_dim_table(d: int) -> None:
    if d == 1:
        members = BASE_DIM1_INDICES
        print(f"I(1) members ({len(members)}): " + " ".join(map(str, members)))
        print("   m  phi(m)  realization")
        for m in members:
            print(f"  {m:>2}  {euler_phi(m):>6}  {_DIM1_STATUS[m]}")
        print("  complete by the classification of curve pairs")
        return
    if d == 2:
        members = [m for m in indices_with_phi_at_most(20) if m != 60]
        print(f"I(2) members ({len(members)}): " + " ".join(map(str, members)))
        print("    m  phi(m)  realization")
        for m in members:
            status = _DIM2_STATUS.get(m, "cited: K3 quotient (Machida-Oguiso, Main Theorem 3)")
            print(f"  {m:>3}  {euler_phi(m):>6}  {status}")
        print("  rule: 60 is excluded (phi(60) = 16, but 60 is not the index of any")
        print("  K3 automorphism, Machida-Oguiso); membership above is not decided here.")
        return
    members = indices_with_phi_at_most(2 * (d + 1))
    print(f"I({d}) certified lower bound ({len(members)}): " + " ".join(map(str, members)))
    print(f"  every m with phi(m) <= {2 * (d + 1)} has an explicit certificate of")
    print(f"  dimension {d}; completeness above dimension 2 is open.")


def _cmd_table(args) -> int:
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--dims must be a comma separated list of integers, got {args.dims!r}")
    if not dims or any(d < 1 for d in dims):
        raise _UsageError("--dims needs positive dimensions")
    for i, d in enumerate(dims):
        if i:
            print()
        _print_dim_table(d)
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.index < 1:
        raise _UsageError(f"--index must be >= 1, got {args.index}")
    if args.max_components < 1:
        raise _UsageError(f"--max-components must be >= 1, got {args.max_components}")
    leaf = search_plane_pair(args.dim, args.index, args.max_components)
    if leaf is None:
        print("none")
        return EXIT_OK
    report = is_klt_leaf(leaf)
    if not report.passed:
        print("internal disagreement: search accepted an arrangement the klt checker rejects",
              file=sys.stderr)
        return EXIT_INTERNAL
    print(json.dumps(logleaf_to_obj(leaf), sort_keys=True, separators=(",", ":")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest_totients():
    assert euler_phi(1) == 1 and euler_phi(60) == 16 and euler_phi(12) == 4
    from math import gcd

    for a in (3, 4, 7, 9, 16, 25, 99, 128, 243, 1000):
        for b in (5, 8, 11, 27, 49, 121, 625):
            if gcd(a, b) == 1:
                assert euler_phi(a * b) == euler_phi(a) * euler_phi(b), (a, b)
    for m in range(1, 2001):
        phi = euler_phi(m)
        assert phi == 1 or phi % 2 == 0, m
    prev: list[int] = []
    for bound in range(1, 25):
        members = indices_with_phi_at_most(bound)
        if bound <= 12:
            naive = [m for m in range(1, 2 * bound * bound + 1) if euler_phi(m) <= bound]
            assert members == naive, bound
        assert set(prev) <= set(members), bound
        prev = members
    assert numtheory.sylvester_bound(2) == 6 and numtheory.sylvester_bound(3) == 66


def _selftest_degree_sweeps():
    for m in range(5, 402, 2):
        leaf = build_index_prime(m)
        assert log_degree(leaf) == 0, m
        assert pair_index(leaf) == m, m
    for m in range(2, 13):
        for e in range(2, 13):
            leaf = build_prime_power(m, e)
            assert log_degree(leaf) == 0, (m, e)
            assert pair_index(leaf) == m**e, (m, e)


def _selftest_inequality():
    for m in range(2, 51):
        for e in range(2, 51):
            if (m, e) not in ((2, 2), (2, 3)):
                assert check_dim_inequality(m, e, 1), (m, e)
            if m >= 3 and (m, e) != (3, 2):
                assert check_dim_inequality(m, e, 2), (m, e)
    for bad, variant in (((2, 2), 1), ((2, 3), 1), ((3, 2), 2)):
        try:
            check_dim_inequality(*bad, variant)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{bad} variant {variant} not rejected")


def _selftest_klt():
    for m in (2, 3, 4, 6):
        assert is_klt_leaf(base_leaf(1, m).leaf).passed, m
    for m in (5, 7, 9, 13, 401):
        assert is_klt_leaf(build_index_prime(m)).passed, m
    for m, e in ((2, 3), (3, 2), (2, 12), (5, 4)):
        assert is_klt_leaf(build_prime_power(m, e)).passed, (m, e)
    assert is_klt_leaf(base_leaf(2, 10).leaf).passed
    assert is_klt_leaf(base_leaf(2, 18).leaf).passed
    # tampered: coincident points, tangent line-conic, concurrent lines
    from .wpspairs import LogLeaf, SparsePoly, StdCoeff, Wps

    twice = LogLeaf(
        Wps((1, 1)),
        ((StdCoeff(2), SparsePoly.linear_form((0, 1))),
         (StdCoeff(3), SparsePoly.linear_form((0, 2)))),
        "hyperplane_arrangement",
    )
    assert not is_klt_leaf(twice).passed
    tangent = LogLeaf(
        Wps((1, 1, 1)),
        ((StdCoeff(2), SparsePoly.linear_form((1, 0, 0))),
         (StdCoeff(3), SparsePoly.from_terms(3, [(1, (1, 0, 1)), (-1, (0, 2, 0))]))),
        "plane_arrangement",
    )
    assert not is_klt_leaf(tangent).passed
    concurrent = LogLeaf(
        Wps((1, 1, 1)),
        ((StdCoeff(2), SparsePoly.linear_form((1, 0, 0))),
         (StdCoeff(3), SparsePoly.linear_form((0, 1, 0))),
         (StdCoeff(6), SparsePoly.linear_form((1, 1, 0)))),
        "plane_arrangement",
    )
    assert not is_klt_leaf(concurrent).passed


def _selftest_realize():
    for n in range(3, 9):
        for m in indices_with_phi_at_most(2 * n):
            cert = realize(n, m)
            report = verify_certificate(cert, "trusting")
            assert report.passed and report.dim == n - 1 and report.index == m, (n, m)
            strict = verify_certificate(cert, "strict")
            assert strict.passed == (m != 14), (n, m)
            _assert_coprime_products(cert)


def _assert_coprime_products(cert):
    from math import gcd

    if isinstance(cert, Product):
        idxs = [certificate_index(f) for f in cert.factors]
        for i in range(len(idxs)):
            for j in range(i + 1, len(idxs)):
                assert gcd(idxs[i], idxs[j]) == 1, idxs
        for f in cert.factors:
            _assert_coprime_products(f)


def _selftest_search():
    hits = {m for m in range(2, 13) if search_plane_pair(1, m) is not None}
    assert hits == {2, 3, 4, 6}, hits
    assert search_plane_pair(2, 10) == base_leaf(2, 10).leaf
    assert search_plane_pair(2, 18) == base_leaf(2, 18).leaf


def _selftest_serialization():
    cert = realize(5, 15)
    assert certificate_loads(certificate_dumps(cert)) == cert
    try:
        certificate_loads("{\"v\": 1, \"node\": \"wps_leaf\"}")
    except CertificateParseError:
        pass
    else:
        raise AssertionError("missing fields not rejected")


_SELFTESTS = (
    ("totients and enumeration", _selftest_totients),
    ("degree and index sweeps", _selftest_degree_sweeps),
    ("dimension inequality", _selftest_inequality),
    ("klt corpus", _selftest_klt),
    ("realize round-trip (n <= 8)", _selftest_realize),
    ("plane search ground truth", _selftest_search),
    ("certificate serialization", _selftest_serialization),
)


def _cmd_selftest(_args) -> int:
    for name, fn in _SELFTESTS:
        try:
            fn()
        except AssertionError as err:
            print(f"FAIL: {name}: {err}")
            return EXIT_INTERNAL
        print(f"ok: {name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_COMMANDS = {
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "table": _cmd_table,
    "search": _cmd_search,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
