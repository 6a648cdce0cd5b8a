"""Batch command line front end.

Commands: realize, verify, enumerate, table, search, selftest. Output is
deterministic (byte-identical across identical invocations); JSON uses
sorted keys and exact integer fractions; `realize` embeds the certificate
as the compact text that --out writes.

`table` renders each row from the certificate the base catalogue or, for
the other dimension-2 rows, the plane search builds, and calls it
constructed only when it strict-verifies; `selftest` runs the invariant
corpus cyindex.selftest, which the test suite runs too, and it checks under
-O as well.

Exit codes, fixed for scriptability:
  0   success (certificate verifies / search ran / selftest green)
  1   verification failed
  2   precondition failure (for example phi(m) > 2n)
  3   selftest failure
  64  usage error (also enumerations whose bounds total more than 10^6,
      a verify file of more than 2^27 bytes, and a realize --out
      file that cannot be written)
  65  parse error in an input file (reported with a location)

A reader that closes stdout early ends the command by SIGPIPE (status 141
in a shell), as it ends other Unix filters.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import signal
import sys

from .certify import BASE_DIM1_INDICES, BASE_DIM2_INDICES, base_leaf, realize, search_plane_pair
from .codec import CertificateParseError, certificate_dumps, certificate_loads
from .numtheory import euler_phi, indices_with_phi_at_most
from .selftest import CHECKS
from .verify import EllipticLeaf, Product, WpsLeaf, verify_certificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3
EXIT_USAGE = 64
EXIT_PARSE = 65

# the largest total of the bounds B for which one `enumerate` or `table` lists
# {m : phi(m) <= B}; at B = 10^6 the list has 1,943,930 members and takes
# 1.9 s and 105 MB peak RSS (Python 3.11, one core of a shared Intel Xeon),
# and the cost grows linearly with B
ENUMERATION_BUDGET = 10**6

# the most bytes `verify` reads from one file: 2^27 = 134,217,728, about twice
# the 64.3 MB text of build_index_prime(16001); a longer file is a usage error
# before any decode or parse, found by reading at most one byte past the budget
INPUT_BUDGET = 2**27


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The command line parser, built on first use; parse_args does not change it."""
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


def _printable(x: int | None) -> int | str | None:
    """x, or `<N-bit integer>` when it is past the int-to-str digit limit."""
    try:
        str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"
    return x


def _report_obj(report) -> dict:
    return {**report.as_obj(), "dim": _printable(report.dim), "index": _printable(report.index)}


def _print_report_table(report) -> None:
    print(f"verification: {'PASSED' if report.passed else 'FAILED'} (mode {report.mode})")
    print(f"dim: {_printable(report.dim)}")
    print(f"index: {_printable(report.index)}")
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


def _check_enumeration_budget(bounds: list[int], what: str) -> None:
    """A usage error, before anything is enumerated, when `what` would list
    {m : phi(m) <= B} for bounds B summing to more than the enumeration
    budget; the work of each listing grows linearly with its B."""
    total = sum(bounds)
    if total > ENUMERATION_BUDGET:
        raise _UsageError(f"{what} enumerates phi(m) up to bounds totalling {total}, "
                          f"above the enumeration budget of {ENUMERATION_BUDGET}")


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_realize(args) -> int:
    n, m = args.dim, args.index
    try:
        cert = realize(n, m)
    except ValueError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    report = verify_certificate(cert, args.mode)
    text = certificate_dumps(cert)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise _UsageError(f"cannot write {args.out}: {err.strerror or err}")
    if args.format == "json":
        # {"certificate": ..., "report": ...}: the text written above, and the
        # report as json.dumps(..., indent=2) indents it inside the payload
        report_text = json.dumps(_report_obj(report), sort_keys=True, indent=2).replace("\n", "\n  ")
        print(f'{{\n  "certificate": {text},\n  "report": {report_text}\n}}')
    else:
        print(f"certificate: dimension {n - 1}, index {m}")
        _print_report_table(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            # a first read sized by the file's length (0 for a pipe), so that a
            # file under the budget allocates no buffer of the budget's size
            want = min(os.fstat(fh.fileno()).st_size, INPUT_BUDGET) + 1
            data = fh.read(want)
            if len(data) == want:
                data += fh.read(INPUT_BUDGET + 1 - want)
        if len(data) > INPUT_BUDGET:
            raise _UsageError(f"{args.file} holds more than the input budget of {INPUT_BUDGET} bytes")
        # decoded as a file opened in text mode reads it, universal newlines included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # not held through the parse, which would add the file's size to peak memory
    except (OSError, UnicodeDecodeError) as err:
        print(f"parse error: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cert = certificate_loads(text)
    except CertificateParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    report = verify_certificate(cert, args.mode)
    if args.format == "json":
        _dump_json(_report_obj(report))
    else:
        _print_report_table(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_enumerate(args) -> int:
    if args.phi_bound < 1:
        raise _UsageError(f"--phi-bound must be >= 1, got {args.phi_bound}")
    _check_enumeration_budget([args.phi_bound], f"--phi-bound {args.phi_bound}")
    members = indices_with_phi_at_most(args.phi_bound)
    if args.format == "json":
        _dump_json(members)
    else:
        print(" ".join(str(m) for m in members))
    return EXIT_OK


def _describe(cert) -> str:
    """The node kinds of a certificate in one line, with the space, klt
    strategy and coefficients of each explicit leaf."""
    match cert:
        case WpsLeaf(leaf):
            coeffs = " ".join(str(c) for c, _ in leaf.entries)
            return f"wps_leaf {leaf.space} {leaf.klt_strategy} [{coeffs}]"
        case EllipticLeaf(dim):
            return f"elliptic_leaf dim {dim}"
        case Product(factors):
            return " x ".join(_describe(f) for f in factors)
    raise TypeError(f"not a certificate node: {cert!r}")


def _realization(d: int, m: int) -> str:
    """The row of m in dimension d, read off the base catalogue and, for the
    other dimension-2 rows, the plane search: "constructed" only when the
    certificate strict-verifies with dimension d and index m. A row with no
    certificate is cited from the K3 classification."""
    if d == 1 or m in BASE_DIM2_INDICES:
        cert = base_leaf(d, m)
    else:
        leaf = search_plane_pair(2, m, 7)
        if leaf is None:
            return "cited: K3 quotient (Machida-Oguiso, Main Theorem 3)"
        cert = WpsLeaf(leaf)
    report = verify_certificate(cert, "strict")
    checked = report.passed and (report.dim, report.index) == (d, m)
    return f"{'constructed' if checked else 'unverified'}: {_describe(cert)}"


def _print_dim_table(d: int) -> None:
    if d > 2:
        members = indices_with_phi_at_most(2 * (d + 1))
        print(f"I({d}) certified lower bound ({len(members)}): " + " ".join(map(str, members)))
        print(f"  every m with phi(m) <= {2 * (d + 1)} has an explicit certificate of")
        print(f"  dimension {d}; completeness above dimension 2 is open.")
        return
    members = BASE_DIM1_INDICES if d == 1 else [m for m in indices_with_phi_at_most(20) if m != 60]
    print(f"I({d}) members ({len(members)}): " + " ".join(map(str, members)))
    print("    m  phi(m)  realization")
    for m in members:
        print(f"  {m:>3}  {euler_phi(m):>6}  {_realization(d, m)}")
    if d == 1:
        print("  complete by the classification of curve pairs")
    else:
        print("  rule: 60 is excluded (phi(60) = 16, but 60 is not the index of any")
        print("  K3 automorphism, Machida-Oguiso); membership above is not decided here.")


def _cmd_table(args) -> int:
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--dims must be a comma separated list of integers, got {args.dims!r}")
    if not dims or any(d < 1 for d in dims):
        raise _UsageError("--dims needs positive dimensions")
    # each dimension d > 2 lists phi(m) <= 2(d + 1); dimensions 1 and 2 print fixed tables
    _check_enumeration_budget([2 * (d + 1) for d in dims if d > 2], f"--dims {args.dims}")
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
    print(certificate_dumps(WpsLeaf(leaf)))
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    for name, check in CHECKS:
        try:
            check()
        except Exception as err:  # a failed check, or a library call raising on corpus input
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
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)


def console_main() -> None:
    # a closed stdout ends the process by SIGPIPE, not by a traceback and
    # exit 1, which would read as a failed verification
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
