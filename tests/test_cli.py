import copy
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyindex.certify
import cyindex.cli
import cyindex.numtheory
import cyindex.verify
from cyindex.certify import (
    BASE_DIM2_INDICES,
    base_leaf,
    build_index_prime,
    build_prime_power,
    realize,
    search_plane_pair,
)
from cyindex.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ENUMERATION_BUDGET,
    INPUT_BUDGET,
    _printable,
    _report_text,
    main,
)
from cyindex.codec import certificate_dumps, certificate_loads
from cyindex.numtheory import euler_phi, indices_with_phi_at_most
from cyindex.selftest import CHECKS
from cyindex.sncklt import KltReport, KltStep
from cyindex.verify import NodeReport, VerificationReport, verify_certificate
from cyindex.wpspairs import KLT_STRATEGIES, LogLeaf, SparsePoly, StdCoeff, Wps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- realize -----------------------------------------------------------------


def test_realize_ok(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "realize", "--dim", "4", "--index", "16", "--out", str(out_file))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["passed"] is True
    assert payload["report"]["dim"] == 3 and payload["report"]["index"] == 16
    assert payload["certificate"]["node"] == "wps_leaf"
    stored = json.loads(out_file.read_text())
    assert stored == payload["certificate"]


def test_realize_json_embeds_the_certificate_text_it_writes(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "realize", "--dim", "6", "--index", "42", "--out", str(out_file))
    assert code == EXIT_OK
    text = certificate_dumps(realize(6, 42))
    lines = out.split("\n")
    assert lines[:2] == ["{", f'  "certificate": {text},']
    assert out_file.read_text() == text + "\n"
    # the report block is the report as json.dumps indents it inside the payload
    report = json.dumps(verify_certificate(realize(6, 42), "trusting").as_obj(), sort_keys=True, indent=2)
    assert "\n".join(lines[2:]) == '  "report": ' + report.replace("\n", "\n  ") + "\n}\n"


def test_realize_json_bytes(capsys):
    # the payload is printed in three pieces, head, certificate text and report,
    # with the bytes it had as one string; re-recorded when the report lost its
    # mode key, as the old bytes with the line `    "mode": "trusting",` deleted
    code, out, _ = run(capsys, "realize", "--dim", "6", "--index", "42", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "56a2fcaa05dd22679ce82e18855e32ce7ec6dcaabef496475e8cfe685db48d75"
    )


def test_realize_table_without_out_writes_no_text(capsys, monkeypatch):
    code, want, _ = run(capsys, "realize", "--dim", "6", "--index", "42", "--format", "table")

    def refuse(cert):
        raise AssertionError("the certificate text is neither printed nor saved")

    monkeypatch.setattr(cyindex.cli, "certificate_dumps", refuse)
    assert run(capsys, "realize", "--dim", "6", "--index", "42", "--format", "table") == (code, want, "")
    assert code == EXIT_OK


def test_realize_json_output_grows_with_the_certificate(capsys):
    # one line per exponent made this 10.7 MB; the compact certificate is 1.04 MB
    code, out, _ = run(capsys, "realize", "--dim", "1000", "--index", "1999")
    assert code == EXIT_OK
    assert len(out.encode()) <= 1_100_000
    assert json.loads(out)["report"]["index"] == 1999


def test_realize_strict_14(capsys):
    # realize takes no --mode: there is one verification, and it is strict
    code, out, err = run(capsys, "realize", "--dim", "3", "--index", "14", "--mode", "strict")
    assert (code, out) == (EXIT_USAGE, "") and "--mode" in err
    code, out, _ = run(capsys, "realize", "--dim", "3", "--index", "14")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["passed"] is True
    assert (payload["report"]["dim"], payload["report"]["index"]) == (2, 14)
    assert payload["certificate"]["node"] == "wps_leaf"
    assert "cited_leaves" not in payload["report"]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", ["passing", "failing"])
def test_verify_prints_one_report_whatever_the_mode(capsys, tmp_path, name, fmt):
    path = tmp_path / "cert.json"
    path.write_text(certificate_dumps(realize(4, 14)) if name == "passing"
                    else json.dumps(_tampered("b-change")))
    code, out, err = run(capsys, "verify", str(path), "--format", fmt)
    assert code == (EXIT_OK if name == "passing" else EXIT_VERIFY_FAILED) and err == ""
    for mode in ("strict", "trusting"):
        assert run(capsys, "verify", str(path), "--mode", mode, "--format", fmt) == (code, out, err)
    assert "mode" not in out
    if fmt == "table":
        assert out.startswith("verification: PASSED\n" if name == "passing" else "verification: FAILED\n")


def test_realize_trusting_14(capsys):
    code, out, _ = run(capsys, "realize", "--dim", "3", "--index", "14")
    assert code == EXIT_OK


def test_realize_precondition(capsys):
    code, _, err = run(capsys, "realize", "--dim", "3", "--index", "23")
    assert code == EXIT_PRECONDITION
    assert "phi(23) = 22" in err and "6" in err


def test_realize_huge_index_is_a_precondition_failure(capsys, monkeypatch):
    # factoring 2^89 - 1 would take days, so realize must reject it without factorize
    monkeypatch.setattr(cyindex.certify, "factorize", None)
    with pytest.raises(ValueError, match="out of range"):
        realize(3, 2**89 - 1)
    code, out, err = run(capsys, "realize", "--dim", "3", "--index", str(2**89 - 1))
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("precondition failed: ") and "out of range" in err


def test_realize_decides_an_index_over_the_factoring_limit_without_factoring(capsys, monkeypatch):
    # m = 1000000007 * 1000000009 needs trial division up to 10^9; at most 15
    # distinct primes give phi(m) >= 0.138 m, far over 2n
    monkeypatch.setattr(cyindex.certify, "factorize", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "realize", "--dim", "1000000000", "--index", "1000000016000000063")
    assert time.perf_counter() - start < 1
    assert code == EXIT_PRECONDITION and out == ""
    assert err == ("precondition failed: 1000000016000000063 has at most 15 distinct prime factors, so "
                   "phi(1000000016000000063) > 2n = 2000000000: index out of range\n")


def test_realize_refuses_what_the_bound_cannot_decide_over_the_factoring_limit(capsys, monkeypatch):
    # phi(10^14 + 1) >= 0.1487 (10^14 + 1), which does not exceed 2n = 2 * 10^13
    monkeypatch.setattr(cyindex.certify, "factorize", None)
    with pytest.raises(ValueError, match=r"^resource budget: 100000000000001 is over the factoring limit "
                                         r"100000000000000, and without factoring it phi\(100000000000001\) > "
                                         r"2n = 20000000000000 is not decided$"):
        realize(10**13, 10**14 + 1)
    code, out, err = run(capsys, "realize", "--dim", str(10**13), "--index", str(10**14 + 1))
    assert code == EXIT_PRECONDITION and out == "" and "factoring limit" in err
    monkeypatch.undo()
    # at the limit m is factored, as before
    with pytest.raises(ValueError, match=r"^phi\(100000000000000\) = 40000000000000 > 2n = 20000000000000: "
                                         "index out of range$"):
        realize(10**13, 10**14)


def test_realize_high_dimension(capsys):
    code, out, _ = run(capsys, "realize", "--dim", "600", "--index", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["dim"] == 599 and payload["report"]["index"] == 1


def test_realize_dim_too_small(capsys):
    code, _, err = run(capsys, "realize", "--dim", "2", "--index", "3")
    assert code == EXIT_PRECONDITION


def test_realize_usage_error(capsys):
    code, _, err = run(capsys, "realize", "--dim", "four", "--index", "16")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("target,reason", [("missing/cert.json", "No such file or directory"),
                                           ("", "Is a directory")], ids=["missing-dir", "directory"])
def test_realize_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, "realize", "--dim", "4", "--index", "16", "--out", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"usage error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("argv", [("enumerate", "--phi-bound", "100000"),
                                  ("realize", "--dim", "1000", "--index", "1999")])
def test_a_closed_stdout_is_not_a_failed_verification(argv):
    proc = subprocess.Popen([sys.executable, "-m", "cyindex.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    # ended by SIGPIPE like other Unix filters, not by a traceback and exit 1
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert "Traceback" not in err


# -- verify ------------------------------------------------------------------


def test_verify_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "4", "--index", "16", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == EXIT_OK
    assert "PASSED" in out


def test_verify_tampered_b(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "6", "--index", "13", "--out", str(out_file))
    obj = json.loads(out_file.read_text())
    leaf = obj
    while leaf["node"] == "product":
        leaf = leaf["factors"][0]
    entry = next(e for e in leaf["entries"] if e["b"] == 13)
    entry["b"] = 14
    out_file.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == EXIT_VERIFY_FAILED
    assert "degree-zero" in out


def test_verify_lying_citation_fails_in_trusting_mode(capsys, tmp_path):
    # 5 is not an index in dimension 1: I(1) = {1, 2, 3, 4, 6}. No node kind
    # takes a citation, so trusting mode rejects the file before any report
    out_file = tmp_path / "lie.json"
    out_file.write_text('{"v":1,"node":"cited_leaf","dim":1,"index":5,"cite":"trust me"}')
    code, out, err = run(capsys, "verify", str(out_file), "--mode", "trusting", "--format", "json")
    assert code == EXIT_PARSE
    assert (out, err) == ("", "parse error: $.node: unknown node kind 'cited_leaf'\n")


def test_verify_index_14_report_bytes(capsys, tmp_path):
    # index 14 is the explicit P(3,1,1) family_C leaf padded by one elliptic
    # curve; re-recorded when the klt report lost its unchecked_hypotheses key,
    # and when it lost its mode key (the old bytes without `  "mode": "trusting",`)
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "4", "--index", "14", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert [r["kind"] for r in report["leaf_reports"]] == ["product", "wps_leaf", "elliptic_leaf"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "20366d9aa9ec410c46e366057f6584340e5e13535f017c60ea9eeacb234cc308"
    )


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int-to-str digits")
def test_verify_integer_over_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    # json.loads refuses the literal with a plain ValueError, not a JSONDecodeError
    digits = sys.get_int_max_str_digits() + 1
    out_file = tmp_path / "huge.json"
    out_file.write_text('{"entries":[],"node":"wps_leaf","strategy":"family_A","v":1,"weights":[1,%s]}'
                        % ("9" * digits))
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_PARSE and out == ""
    assert err == f"parse error: $: invalid JSON: an integer has more than {digits - 1} digits\n"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int-to-str digits")
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_prints_a_dimension_past_the_digit_limit_by_its_bit_length(capsys, tmp_path, fmt):
    # two elliptic factors whose dimensions are each at the digit limit: their
    # sum, the certificate's dimension, has one digit more
    dim = 10 ** sys.get_int_max_str_digits() - 1
    factor = '{"dim":%d,"node":"elliptic_leaf","v":1}' % dim
    out_file = tmp_path / "wide.json"
    out_file.write_text('{"factors":[%s,%s],"node":"product","v":1}' % (factor, factor))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", fmt)
    assert code == EXIT_OK
    want = f"<{(2 * dim).bit_length()}-bit integer>"
    if fmt == "json":
        report = json.loads(out)
        assert (report["dim"], report["index"]) == (want, 1)
        assert report["leaf_reports"][1]["checks"][0]["detail"] == f"<{dim.bit_length()}-bit integer>"
    else:
        assert f"\ndim: {want}\nindex: 1\n" in out


def test_verify_degree_zero_detail_is_bounded_for_huge_b(capsys, tmp_path):
    # two coprime 4,001-digit b values on the points x0 and x1 of P^1: the log
    # degree -(b1 + b2)/(b1 b2) has an 8,001-digit denominator, which str() refuses
    b1 = 10**4000
    entries = [{"b": b, "eq": [{"c": [1, 1], "e": e}]} for b, e in ((b1, [1, 0]), (b1 + 1, [0, 1]))]
    obj = {"entries": entries, "node": "wps_leaf", "strategy": "hyperplane_arrangement", "v": 1, "weights": [1, 1]}
    out_file = tmp_path / "bigb.json"
    out_file.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_VERIFY_FAILED
    checks = {c["name"]: c for c in json.loads(out)["leaf_reports"][0]["checks"]}
    assert not checks["degree-zero"]["passed"]
    assert checks["degree-zero"]["detail"] == "log degree -<13289-bit integer>/<26576-bit integer>"
    assert len(checks["degree-zero"]["detail"]) <= 100


def test_verify_over_the_coefficient_budget_exits_1(capsys, monkeypatch, tmp_path):
    # the budget is tested by its arithmetic: the b values of realize(4, 16),
    # a bare leaf with b 2, 4, 8, 16 and 16, are charged once per distinct value, 14 bits in all
    # written with indent, so the general reader builds a fresh node, which has
    # no verdict kept from the real budget
    out_file = tmp_path / "cert.json"
    out_file.write_text(json.dumps(json.loads(certificate_dumps(realize(4, 16))), indent=1))
    monkeypatch.setattr(cyindex.verify, "COEFF_BITS_BUDGET", 13)
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == EXIT_VERIFY_FAILED
    assert "\n  FAIL $ [wps_leaf] degree-zero: resource budget: the distinct b values have 14 bits in all, above 13\n" in out


def test_realize_of_the_prime_32771_passes_its_own_verifier(capsys):
    code, out, _ = run(capsys, "realize", "--dim", "16386", "--index", "32771", "--format", "table")
    assert code == EXIT_OK
    assert "verification: PASSED" in out


def _refuse_to_parse(text):
    raise AssertionError(f"parsed {len(text)} characters")


def _read_as_from_a_pipe(monkeypatch):
    """fstat gives a pipe the size 0, so all of its text comes from the second read."""
    monkeypatch.setattr(cyindex.cli, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=0)))


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
def test_verify_file_over_the_input_budget_is_a_usage_error(capsys, monkeypatch, tmp_path, pipe):
    # the budget is tested by its arithmetic: a small budget, a file one byte over it
    text = certificate_dumps(realize(4, 16)) + "\n"
    monkeypatch.setattr(cyindex.cli, "INPUT_BUDGET", len(text) - 1)
    monkeypatch.setattr(cyindex.cli, "certificate_loads", _refuse_to_parse)
    if pipe:
        _read_as_from_a_pipe(monkeypatch)
    out_file = tmp_path / "cert.json"
    out_file.write_text(text)
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_USAGE and out == ""
    assert err == f"usage error: {out_file} holds more than the input budget of {len(text) - 1} bytes\n"


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
def test_verify_input_budget_counts_bytes(capsys, monkeypatch, tmp_path, pipe):
    # 100 three-byte characters: within a budget of 299 in characters, but 300 bytes
    text = "\u20ac" * 100
    out_file = tmp_path / "cert.json"
    out_file.write_bytes(text.encode("utf-8"))
    read = []

    def loads(text):
        read.append(text)
        raise cyindex.cli.CertificateParseError("not a certificate")

    monkeypatch.setattr(cyindex.cli, "certificate_loads", loads)
    if pipe:
        _read_as_from_a_pipe(monkeypatch)
    monkeypatch.setattr(cyindex.cli, "INPUT_BUDGET", 299)
    code, out, err = run(capsys, "verify", str(out_file))
    assert (code, out, read) == (EXIT_USAGE, "", [])
    assert err == f"usage error: {out_file} holds more than the input budget of 299 bytes\n"
    monkeypatch.setattr(cyindex.cli, "INPUT_BUDGET", 300)  # at the budget, decoded whole
    assert run(capsys, "verify", str(out_file))[0] == EXIT_PARSE and read == [text]


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
def test_verify_file_at_the_input_budget_reads_as_before(capsys, monkeypatch, tmp_path, pipe):
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "4", "--index", "16", "--out", str(out_file))
    _, want, _ = run(capsys, "verify", str(out_file))
    monkeypatch.setattr(cyindex.cli, "INPUT_BUDGET", len(out_file.read_bytes()))
    if pipe:
        _read_as_from_a_pipe(monkeypatch)
    assert run(capsys, "verify", str(out_file)) == (EXIT_OK, want, "")
    # the budget admits the 64.3 MB text of build_index_prime(16001)
    assert INPUT_BUDGET == 2**27 > 64.3e6


def test_verify_file_that_is_not_utf8(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    out_file.write_bytes(b'\xff\xfe{"v": 1}')
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith(f"parse error: cannot read {out_file}: 'utf-8' codec can't decode byte 0xff")


def test_verify_reads_line_breaks_as_text_mode_does(capsys, tmp_path):
    # "\r" and "\r\n" are line breaks, so the fault is on line 3
    out_file = tmp_path / "cert.json"
    out_file.write_bytes(b'{"v": 1,\r"node":\r\n}')
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_PARSE and "line 3 column 1" in err


def test_verify_truncated_json(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    out_file.write_text('{"v": 1, "node": "prod')
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_PARSE
    assert "parse error" in err and "line 1" in err


def _nested_products(depth):
    """Certificate text of `depth` nested products, each beside one elliptic curve."""
    leaf = '{"v":1,"node":"elliptic_leaf","dim":1}'
    return '{"v":1,"node":"product","factors":[' * depth + leaf + ("," + leaf + "]}") * depth


def test_verify_deep_file_is_a_parse_error(capsys, tmp_path):
    out_file = tmp_path / "deep.json"
    out_file.write_text(_nested_products(3000))
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_PARSE
    assert "parse error: $:" in err


def test_verify_moderately_deep_file(capsys, tmp_path):
    out_file = tmp_path / "deep.json"
    out_file.write_text(_nested_products(300))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == EXIT_OK
    assert "dim: 301" in out


@pytest.mark.parametrize("v", ["true", "1.0"])
def test_verify_schema_version_must_be_the_integer_1(capsys, tmp_path, v):
    out_file = tmp_path / "cert.json"
    out_file.write_text('{"v": %s, "node": "elliptic_leaf", "dim": 1}' % v)
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == EXIT_PARSE and out == ""
    assert err == f"parse error: $.v: unsupported schema version {json.loads(v)!r}\n"


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == EXIT_PARSE


def test_verify_json_format(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "3", "--index", "8", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True and report["index"] == 8


# -- verify report bytes -------------------------------------------------------
# sha256 of `verify FILE --mode M --format json` stdout. Re-recorded when
# family_A and family_C leaves moved to the one coordinate-diagonal klt step,
# tamper-strategy-swap again when family_B moved to its one pattern step, and
# every family report when all three tags moved to the one chain step:
# against the checks they replaced, each report kept its exit code and
# changed only in its klt steps. tamper-weight-bump was re-recorded when the
# quasi-homogeneous detail became bounded: it names the entry and the range
# and count of its monomial degrees instead of printing the equation. Every
# entry was re-recorded when the klt report lost its unchecked_hypotheses
# key: against the parent, each report kept its exit code and equals the old
# report with that key deleted, except tamper-unformed-weights, whose input
# base_leaf(1, 2) became the chain leaf x0, x1, x0^2 + x1^2 (it still fails
# well-formed and index-computed only). Every entry was re-recorded again,
# with one hash for both modes, when the report lost its mode key: each is
# the parent's stdout in either mode with the line `  "mode": "...",` deleted.


def _tampered(kind, m=41):
    """The index-prime leaf of index m as JSON, with one field mutated."""
    if kind == "unformed-weights":
        obj = json.loads(certificate_dumps(base_leaf(1, 2)))
        obj["weights"] = [2, 2]
        return obj
    obj = json.loads(certificate_dumps(build_index_prime(m)))
    entries = obj["entries"]
    if kind == "weight-bump":
        obj["weights"][0] += 1
    elif kind == "b-change":
        entries[0]["b"] += 2
    elif kind == "entry-duplicated":
        entries[1]["eq"] = entries[0]["eq"]
    elif kind == "entry-scaled-copy":  # 2 * x_0 beside x_0
        entries[1]["eq"] = [{"c": [2 * mono["c"][0], mono["c"][1]], "e": mono["e"]}
                            for mono in entries[0]["eq"]]
    elif kind == "h-scaled-copy":  # -3/2 * H beside H
        entries[0]["eq"] = [{"c": [-3 * mono["c"][0], 2 * mono["c"][1]], "e": mono["e"]}
                            for mono in entries[-1]["eq"]]
    elif kind == "h-linear-term-removed":  # H loses x_0, its leading monomial
        entries[-1]["eq"] = entries[-1]["eq"][1:]
    elif kind == "strategy-swap":
        obj["strategy"] = "family_B" if obj["strategy"] == "family_A" else "family_A"
    elif kind == "constant-equation":
        entries[0]["eq"] = [{"c": [1, 1], "e": [0] * len(obj["weights"])}]
    elif kind == "no-entries":
        obj["entries"] = []
    elif kind == "single-factor-product":
        obj = {"v": 1, "node": "product", "factors": [obj]}
    else:
        raise ValueError(kind)
    return obj


def _vandermonde(ts, nv):
    """len(ts) hyperplanes sum_i t^i x_i on P^(nv-1), each with coefficient 1 - 1/3."""
    eqs = [SparsePoly.linear_form([t**i for i in range(nv)]) for t in ts]
    return LogLeaf(Wps((1,) * nv), tuple((StdCoeff(3), eq) for eq in eqs), "hyperplane_arrangement")


def _report_input(name):
    if name == "index_prime-41":
        return certificate_dumps(build_index_prime(41))
    if name == "prime_power-3-5":
        return certificate_dumps(build_prime_power(3, 5))
    if name == "vandermonde-6-in-4":
        return certificate_dumps(_vandermonde((10, 13, 17, 22, 28, 35), 4))
    return json.dumps(_tampered(name.removeprefix("tamper-")), sort_keys=True)


# name -> (exit code, sha256)
REPORT_SHA256 = {
    "index_prime-41": (0, "f9f7180d4aa75b122419a7451366d3c183faa677a53e79fce7b3e8e1a1254510"),
    "prime_power-3-5": (0, "3d64441fed4e0917d55e31e8119b6e8fd231221c1dc17c0457d4306c5b9946cc"),
    "vandermonde-6-in-4": (0, "dd8fca6433808d8459ce54e30a3cf50be26d092e610690c4266209bfeb54eb43"),
    "tamper-weight-bump": (1, "f9ab8a8189b52aa8bae6781632f685e2ced6eb088cf5f8613885ec83ac33d8bf"),
    "tamper-b-change": (1, "976cd93d47d1c1d937494f4af2d88fee7e480f67833ad24493711a6e6f368b67"),
    "tamper-entry-duplicated": (1, "36c4334d373f39e35a970da896c9868fdb45853c148c6b48b069d3df1ca4cadf"),
    "tamper-entry-scaled-copy": (1, "36c4334d373f39e35a970da896c9868fdb45853c148c6b48b069d3df1ca4cadf"),
    "tamper-h-scaled-copy": (1, "1e14400f5739d1439a4090618db8d3b654f589fc1da950d28b820d22d3f205f4"),
    "tamper-h-linear-term-removed": (1, "8c6be840ab0cb9adb45be88e2c1be2a33aecfb7ad4124c8d2d19b3aa50e63c4b"),
    "tamper-strategy-swap": (1, "fcd29e449cd37be87d045d1d72cd69a6c34b2d74e34cd9d49a9bc8256daa9a5b"),
    "tamper-constant-equation": (1, "f303f64d0d02478af60ef81086212592606bb575133a898100c9eb36584b7daa"),
    "tamper-no-entries": (1, "5b2e0ef325106e458fe7dbc8fe68f846cff82d2c211e0033ac1b26dd3d265cce"),
    "tamper-single-factor-product": (1, "6954e9a3a130bfd8c23312c2205182ef42077c5082db746b23fd40ec31fa7849"),
    "tamper-unformed-weights": (1, "2cabb4de64bf76473804cd0a5aac22d25b1e3863ad7e77339fb8f4bbc53e20e4"),
}


@pytest.mark.parametrize("mode", ["strict", "trusting"])
@pytest.mark.parametrize("name", list(REPORT_SHA256))
def test_verify_report_bytes(capsys, tmp_path, name, mode):
    path = tmp_path / "cert.json"
    path.write_text(_report_input(name))
    code, out, _ = run(capsys, "verify", str(path), "--mode", mode, "--format", "json")
    want_code, sha = REPORT_SHA256[name]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha
    # the mode selects nothing: without it, and in the table, the bytes are the same
    assert run(capsys, "verify", str(path), "--format", "json")[:2] == (code, out)
    assert (run(capsys, "verify", str(path), "--mode", mode)
            == run(capsys, "verify", str(path)))


# -- verify on mutated files ---------------------------------------------------
# Whatever the file holds, `verify FILE --format json` ends in a report (exit 0
# or 1) or a parse error (exit 65), never a traceback, and within
# _FUZZ_SECONDS. The plane check's work budget bounds the slowest leaf at
# about 1.3 s; on a 2-vCPU x86_64 host the files below take a few ms each and
# a thousand coordinate hyperplanes in a thousand variables (2 MB) about 30 ms.

_FUZZ_SECONDS = 5.0

# family leaves bare and padded by products of elliptic curves, and plane search hits
_FUZZ_SEEDS = [certificate_dumps(cert) for cert in (
    realize(3, 7), realize(4, 16), realize(5, 14), realize(6, 13), base_leaf(2, 14),
    search_plane_pair(1, 6), search_plane_pair(2, 10))]

# values of every JSON type, copied on each draw so that no edit reaches a shared one
_FUZZ_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 2, 1.5, "", "x", [], {}, [1, 1], [0, 1, 0], {"v": 1}, 10**30]).map(copy.deepcopy)


def _coordinate_hyperplanes(k, nv):
    """A hyperplane_arrangement leaf of k coordinate hyperplanes x_(j mod nv) in nv variables."""
    entries = ",".join('{"b":2,"eq":[{"c":[1,1],"e":[%s]}]}' % ",".join("1" if i == j % nv else "0" for i in range(nv))
                       for j in range(k))
    return ('{"entries":[%s],"node":"wps_leaf","strategy":"hyperplane_arrangement","v":1,"weights":[%s]}'
            % (entries, ",".join(["1"] * nv)))


@st.composite
def _truncated(draw):
    text = draw(st.sampled_from(_FUZZ_SEEDS))
    return text[:draw(st.integers(0, len(text) - 1))]


@st.composite
def _past_the_digit_limit(draw):
    """A seed with one of its integers replaced by one of more digits than int() reads."""
    text = draw(st.sampled_from(_FUZZ_SEEDS))
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"\d+", text)]))
    digits = max(sys.get_int_max_str_digits(), 4300) + draw(st.integers(1, 50))
    return text[:start] + "9" * digits + text[end:]


@st.composite
def _huge_b_values(draw):
    """About 50 lines x0 + j x1 through one point, under any tag, each b of about 4,000 digits."""
    entries = [{"b": 10 ** draw(st.integers(3900, 4100)) + draw(st.integers(0, 99)),
                "eq": [{"c": [1, 1], "e": [1, 0, 0]}, {"c": [j, 1], "e": [0, 1, 0]}]}
               for j in range(1, draw(st.integers(45, 55)))]
    return json.dumps({"entries": entries, "node": "wps_leaf", "strategy": draw(st.sampled_from(KLT_STRATEGIES)),
                       "v": 1, "weights": [1, 1, 1]})


@st.composite
def _lying(draw):
    """A seed whose first strategy tag is swapped for another, or whose first node is a citation."""
    text = draw(st.sampled_from(_FUZZ_SEEDS))
    if draw(st.booleans()):
        return re.sub(r'"node":"\w+"', '"cite":"trust me","node":"cited_leaf"', text, count=1)
    tag = re.search(r'"strategy":"(\w+)"', text).group(1)
    other = draw(st.sampled_from([t for t in KLT_STRATEGIES if t != tag]))
    return text.replace(f'"strategy":"{tag}"', f'"strategy":"{other}"', 1)


@st.composite
def _edited(draw):
    """A seed with one to three fields, at any depth, deleted or swapped for a value of another type."""
    obj = json.loads(draw(st.sampled_from(_FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        node = obj
        while keys := list(node) if isinstance(node, dict) else list(range(len(node))):
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(_FUZZ_VALUES)
            break
    return json.dumps(obj)


_mutated_files = st.one_of(
    _truncated(),
    st.integers(sys.getrecursionlimit(), 4 * sys.getrecursionlimit()).map(_nested_products),
    _past_the_digit_limit(),
    _huge_b_values(),
    st.builds(_coordinate_hyperplanes, st.integers(1000, 3000), st.integers(2, 64)),
    _lying(),
    _edited(),
)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_mutated_files)
@example(_coordinate_hyperplanes(1000, 1000))
def test_verify_ends_every_mutated_file_in_a_report_or_a_parse_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    assert elapsed < _FUZZ_SECONDS, (elapsed, text[:200])
    if code == EXIT_PARSE:
        assert out.getvalue() == "" and err.getvalue().startswith("parse error: "), text[:200]
    else:
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED), (code, text[:200])
        assert json.loads(out.getvalue())["passed"] is (code == EXIT_OK) and err.getvalue() == ""


# -- the report writer ---------------------------------------------------------
# _report_text writes the JSON report in one pass; its reference is json.dumps
# of the library's object form, the way the report was written before.


def _json_dumps_report(report):
    return json.dumps({**report.as_obj(), "dim": _printable(report.dim), "index": _printable(report.index)},
                      sort_keys=True, indent=2)


# any code point, surrogates and control characters included, and the
# characters json escapes
_report_strs = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ['', '"', "\\", '\\"', "\n\t\r\b\f\x00\x1f\x7f", "é ∞ 𝔽", "\ud800", "\u2028", "</script>"])
_klt_steps = st.builds(KltStep, _report_strs, st.booleans(), _report_strs)
_klt_reports = st.builds(KltReport, st.booleans(), _report_strs, st.lists(_klt_steps, max_size=3).map(tuple))
_node_reports = st.builds(NodeReport, _report_strs, _report_strs,
                          st.lists(st.tuples(_report_strs, st.booleans(), _report_strs), max_size=3),
                          st.none() | _klt_reports)
# None, small ints, and ints past the int-to-str digit limit (4300 digits)
_report_ints = st.none() | st.integers(-10**6, 10**30) | st.sampled_from([10**4300, -(7**6000), 2**20000])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.builds(VerificationReport, _report_ints, _report_ints, st.booleans(),
                 st.lists(_node_reports, max_size=4)))
def test_report_text_is_the_bytes_of_json_dumps(report):
    assert _report_text(report) == _json_dumps_report(report)


def _plane_leaf(*lines):
    """Lines sum_i c_i x_i on P^2, each with coefficient 1 - 1/2, tagged plane_arrangement."""
    return LogLeaf(Wps((1, 1, 1)), tuple((StdCoeff(2), SparsePoly.linear_form(c)) for c in lines),
                   "plane_arrangement")


_WRITER_CORPUS = {
    **{f"realize {n} {m}": (lambda n=n, m=m: realize(n, m))
       for n in (3, 4, 5) for m in indices_with_phi_at_most(2 * n)},
    **{name: (lambda name=name: certificate_loads(_report_input(name))) for name in REPORT_SHA256},
    "three concurrent lines": lambda: _plane_leaf((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    "nested 200 deep": lambda: certificate_loads(_nested_products(200)),
}


@pytest.mark.parametrize("name", list(_WRITER_CORPUS))
def test_report_text_matches_json_dumps_on_the_corpus(name):
    cert = _WRITER_CORPUS[name]()
    for mode in ("strict", "trusting"):
        report = verify_certificate(cert, mode)
        assert _report_text(report) == _json_dumps_report(report)
    if name == "three concurrent lines":
        assert not report.passed and not report.leaf_reports[0].klt.passed
    if name == "nested 200 deep":
        assert len(report.leaf_reports) == 401 and report.passed


# -- enumerate ---------------------------------------------------------------


def test_enumerate_bound_2(capsys):
    code, out, _ = run(capsys, "enumerate", "--phi-bound", "2")
    assert code == EXIT_OK
    assert out.strip() == "1 2 3 4 6"


def test_enumerate_bound_zero_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--phi-bound", "0")
    assert code == EXIT_USAGE


def _refuse_to_enumerate(bound):
    raise AssertionError(f"enumerated phi(m) <= {bound}")


@pytest.mark.parametrize("argv, what", [
    (("enumerate", "--phi-bound", "1000001"), "--phi-bound 1000001 enumerates phi(m) up to bounds totalling 1000001"),
    (("table", "--dims", "1,500000,2"), "--dims 1,500000,2 enumerates phi(m) up to bounds totalling 1000002"),
    # each listed dimension is charged, so repeating one within the budget is over it
    (("table", "--dims", "250000,250000"), "--dims 250000,250000 enumerates phi(m) up to bounds totalling 1000004"),
])
def test_enumeration_above_the_budget_is_a_usage_error(capsys, monkeypatch, argv, what):
    # the enumeration is never run: the budget is checked before anything is listed or printed
    monkeypatch.setattr(cyindex.cli, "indices_with_phi_at_most", _refuse_to_enumerate)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert what in err and "above the enumeration budget of 1000000" in err, err


@pytest.mark.parametrize("argv, want", [
    (("enumerate", "--phi-bound", "1000000"), [10**6]),
    (("table", "--dims", "499999"), [10**6]),
    (("table", "--dims", "249999,249999"), [500000, 500000]),
])
def test_enumeration_at_the_budget_runs(capsys, monkeypatch, argv, want):
    bounds = []
    monkeypatch.setattr(cyindex.cli, "indices_with_phi_at_most", lambda bound: bounds.append(bound) or [1])
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK and bounds == want and sum(want) == ENUMERATION_BUDGET == 10**6


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--phi-bound", "4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [1, 2, 3, 4, 5, 6, 8, 10, 12]


@pytest.mark.parametrize("bound", [1, 4, 5000])
def test_enumerate_json_is_the_bytes_of_json_dumps(capsys, bound):
    code, out, _ = run(capsys, "enumerate", "--phi-bound", str(bound), "--format", "json")
    assert code == EXIT_OK
    assert out == json.dumps(indices_with_phi_at_most(bound), indent=2) + "\n"


def test_enumerate_large_bound_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--phi-bound", "5000", "--format", "json")
    assert code == EXIT_OK
    members = json.loads(out)
    assert members == indices_with_phi_at_most(5000)
    assert all(euler_phi(m) <= 5000 for m in members)


# -- table -------------------------------------------------------------------


def _members_line(out, label):
    for line in out.splitlines():
        if line.startswith(label):
            return [int(tok) for tok in line.split(":", 1)[1].split()]
    raise AssertionError(f"no line starting with {label!r} in output")


def test_table_dim1_and_dim2(capsys):
    code, out, _ = run(capsys, "table", "--dims", "1,2")
    assert code == EXIT_OK
    assert _members_line(out, "I(1) members") == [1, 2, 3, 4, 6]
    i2 = _members_line(out, "I(2) members")
    expected = [m for m in indices_with_phi_at_most(20) if m != 60]
    assert i2 == expected
    assert 66 in i2 and 60 not in i2 and 64 not in i2
    assert "Machida-Oguiso" in out
    # the rows are rendered from the base catalogue and the plane search; row 8
    # names family_C since base-2 prime powers took the family path, and the
    # rows 2, 3, 4 and 6 of both tables and 10, 12 and 18 of dimension 2 name
    # family_A since the P^1 pairs and the plane leaves became chain leaves
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c3bc6438d3cf84b7007b6b4b2fe061d04995fe67752accbf3372ba85dfbec129"
    )


def test_table_constructed_rows_are_the_strictly_verified_base_leaves(capsys):
    code, out, _ = run(capsys, "table", "--dims", "2")
    assert code == EXIT_OK
    constructed = {int(line.split()[0]) for line in out.splitlines() if "  constructed: " in line}
    reports = {m: verify_certificate(base_leaf(2, m), "strict") for m in BASE_DIM2_INDICES}
    for m in _members_line(out, "I(2) members"):
        leaf = None if m in BASE_DIM2_INDICES else search_plane_pair(2, m, 7)
        if leaf is not None:
            reports[m] = verify_certificate(leaf, "strict")
    verified = {m for m, r in reports.items() if r.passed and (r.dim, r.index) == (2, m)}
    assert constructed == verified == set(BASE_DIM2_INDICES) | {20, 24, 30, 42}
    assert BASE_DIM2_INDICES == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)


def test_table_pins_the_17_constructed_dimension_2_rows(capsys):
    # the 13 base catalogue rows and the plane search hits 20, 24, 30 and 42;
    # the other 23 of the 40 rows are cited
    code, out, _ = run(capsys, "table", "--dims", "2")
    assert code == EXIT_OK
    rows = {int(line.split()[0]): line.split(None, 2)[2] for line in out.splitlines()[2:-2]}
    assert sorted(rows) == _members_line(out, "I(2) members")
    constructed = sorted(m for m, row in rows.items() if row.startswith("constructed: "))
    assert constructed == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18, 20, 24, 30, 42]
    assert rows[14] == "constructed: wps_leaf P(3,1,1) family_C [6/7 13/14 1/2]"
    assert rows[42] == "constructed: wps_leaf P(1,1,1) plane_arrangement [1/2 2/3 6/7 41/42]"
    cited = [m for m, row in rows.items() if row == "cited: K3 quotient (Machida-Oguiso, Main Theorem 3)"]
    assert len(cited) == 23 and len(constructed) + len(cited) == len(rows) == 40


def test_table_dim3_lower_bound(capsys):
    code, out, _ = run(capsys, "table", "--dims", "3")
    assert code == EXIT_OK
    assert _members_line(out, "I(3) certified lower bound") == indices_with_phi_at_most(8)


def test_table_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--dims", "zero")
    assert code == EXIT_USAGE


# -- search ------------------------------------------------------------------


def test_search_found(capsys):
    code, out, _ = run(capsys, "search", "--dim", "2", "--index", "10")
    assert code == EXIT_OK
    leaf = json.loads(out)
    assert leaf["node"] == "wps_leaf" and leaf["strategy"] == "plane_arrangement"
    assert out == certificate_dumps(search_plane_pair(2, 10)) + "\n"


def test_search_none(capsys):
    code, out, _ = run(capsys, "search", "--dim", "1", "--index", "5")
    assert code == EXIT_OK
    assert out.strip() == "none"


def test_search_p1_rejects_impossible_indices_before_factoring(capsys, monkeypatch):
    # only 2, 3, 4 and 6 occur on P^1; trial division of a large prime would take seconds to days
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(cyindex.numtheory, "factorize", no_factoring)
    monkeypatch.setattr(cyindex.certify, "factorize", no_factoring)
    for index in (1, 5, 12, 100000000000031, 2**89 - 1):
        assert search_plane_pair(1, index, 10**9) is None, index
    code, out, _ = run(capsys, "search", "--dim", "1", "--index", "100000000000031")
    assert code == EXIT_OK and out.strip() == "none"


def test_search_p2_rejects_impossible_indices_before_factoring(capsys, monkeypatch):
    # a P^2 pair has lcm(b) <= 42; a large prime took 1 s of trial division and
    # the primorial 223092870 (512 divisors) 44 s of search
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(cyindex.numtheory, "factorize", no_factoring)
    monkeypatch.setattr(cyindex.certify, "factorize", no_factoring)
    for index in (1, 14, 60, 223092870, 100000000000031, 2**89 - 1):
        assert search_plane_pair(2, index, 7) is None, index
    code, out, _ = run(capsys, "search", "--dim", "2", "--index", "223092870", "--max-components", "7")
    assert code == EXIT_OK and out.strip() == "none"


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "--dim", "5", "--index", "15"),
        ("enumerate", "--phi-bound", "6"),
        ("table", "--dims", "1,2"),
        ("search", "--dim", "2", "--index", "18"),
    ],
)
def test_output_byte_identical(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_one_parser_serves_every_call(capsys, tmp_path):
    # a usage error, --help and a verify in one process, each through the
    # parser built by the first call: the same exit code and bytes as a call
    # that builds its own
    path = tmp_path / "cert.json"
    path.write_text(certificate_dumps(realize(4, 16)))
    calls = [
        (("realize", "--dim", "x", "--index", "16"), EXIT_USAGE),
        (("--help",), EXIT_OK),
        (("verify", str(path)), EXIT_OK),
    ]
    cyindex.cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv, _ in calls]
    assert cyindex.cli._parser.cache_info().misses == 1
    for (argv, code), got in zip(calls, shared):
        assert got[0] == code
        cyindex.cli._parser.cache_clear()
        assert run(capsys, *argv) == got


# -- selftest ----------------------------------------------------------------


def test_selftest_green(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert all(l.startswith("ok: ") for l in lines)
    assert len(lines) == 9
    assert "ok: realize round-trip (n <= 10)" in lines


def _python_O(*args):
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_selftest_green_under_O():
    proc = _python_O("-m", "cyindex.cli", "selftest")
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"ok: {name}" for name, _ in CHECKS]


@pytest.mark.parametrize("patch,fail", [
    ("phi = corpus.euler_phi; corpus.euler_phi = lambda m: phi(m) + (m == 12)",
     "FAIL: totients and enumeration: euler_phi(12) = 5, expected 4"),
    # a leaf whose one equation x0 + x1 on P(2, 1, 1) is not quasi-homogeneous,
    # on which log_degree raises ValueError
    ("build = corpus.build_index_prime; corpus.build_index_prime = lambda m: "
     "c.LogLeaf(c.Wps((2, 1, 1)), ((c.StdCoeff(5), c.SparsePoly.linear_form((1, 1, 0))),), 'family_A') "
     "if m == 5 else build(m)",
     "FAIL: log degree zero on both families: monomial degrees disagree: 2 distinct degrees from 1 to 2"),
    # realize(n, 14) padded by a zero-dimensional elliptic factor: the realize
    # check names the first failing pair and its failing checks
    ("realize = corpus.realize; corpus.realize = lambda n, m: "
     "c.Product((c.base_leaf(2, 14), c.EllipticLeaf(n - 3))) if m == 14 else realize(n, m)",
     "FAIL: realize round-trip (n <= 10): realize(3, 14) fails strict verification: "
     "[('$.factors[1]', 'elliptic-dim')]"),
], ids=["wrong-value", "library-raises", "realize-fails"])
def test_selftest_fails_under_O_with_a_message(patch, fail):
    setup = "import sys; import cyindex.certify as c; import cyindex.selftest as corpus"
    proc = _python_O("-c", f"{setup}; {patch}; from cyindex.cli import main; sys.exit(main(['selftest']))")
    assert proc.returncode == EXIT_INTERNAL, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == fail
