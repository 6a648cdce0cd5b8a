import hashlib
import json
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import pytest

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
    main,
)
from cyindex.codec import certificate_dumps
from cyindex.numtheory import euler_phi, indices_with_phi_at_most
from cyindex.selftest import CHECKS
from cyindex.verify import WpsLeaf, verify_certificate
from cyindex.wpspairs import LogLeaf, SparsePoly, StdCoeff, Wps


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


def test_realize_json_output_grows_with_the_certificate(capsys):
    # one line per exponent made this 10.7 MB; the compact certificate is 1.04 MB
    code, out, _ = run(capsys, "realize", "--dim", "1000", "--index", "1999")
    assert code == EXIT_OK
    assert len(out.encode()) <= 1_100_000
    assert json.loads(out)["report"]["index"] == 1999


def test_realize_strict_14(capsys):
    code, out, _ = run(capsys, "realize", "--dim", "3", "--index", "14", "--mode", "strict")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["passed"] is True
    assert (payload["report"]["dim"], payload["report"]["index"]) == (2, 14)
    assert payload["certificate"]["node"] == "wps_leaf"
    assert "cited_leaves" not in payload["report"]


@pytest.mark.parametrize("argv", [
    ("realize", "--dim", "4", "--index", "14", "--format", "json"),
    ("realize", "--dim", "6", "--index", "42", "--format", "table"),
    ("verify", "TAMPERED", "--format", "json"),
    ("verify", "TAMPERED", "--format", "table"),
], ids=["realize-json", "realize-table", "verify-failing-json", "verify-failing-table"])
def test_strict_and_trusting_reports_differ_only_in_mode(capsys, tmp_path, argv):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(_tampered("b-change")))
    argv = [str(path) if a == "TAMPERED" else a for a in argv]
    code_s, strict, _ = run(capsys, *argv, "--mode", "strict")
    code_t, trusting, _ = run(capsys, *argv, "--mode", "trusting")
    assert code_s == code_t == (EXIT_OK if argv[0] == "realize" else EXIT_VERIFY_FAILED)
    mode_s, mode_t = (('"mode": "strict"', '"mode": "trusting"') if argv[-1] == "json"
                      else ("(mode strict)", "(mode trusting)"))
    assert strict.count(mode_s) == trusting.count(mode_t) == 1
    assert strict.replace(mode_s, mode_t) == trusting


def test_realize_trusting_14(capsys):
    code, out, _ = run(capsys, "realize", "--dim", "3", "--index", "14")
    assert code == EXIT_OK


def test_realize_precondition(capsys):
    code, _, err = run(capsys, "realize", "--dim", "3", "--index", "23")
    assert code == EXIT_PRECONDITION
    assert "phi(23) = 22" in err and "6" in err


def test_realize_huge_index_is_a_precondition_failure(capsys, monkeypatch):
    # factoring 2^89 - 1 would take days, so realize must reject it without euler_phi
    monkeypatch.setattr(cyindex.certify, "euler_phi", None)
    with pytest.raises(ValueError, match="out of range"):
        realize(3, 2**89 - 1)
    code, out, err = run(capsys, "realize", "--dim", "3", "--index", str(2**89 - 1))
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("precondition failed: ") and "out of range" in err


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
    # curve; re-recorded when the klt report lost its unchecked_hypotheses key
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "4", "--index", "14", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert [r["kind"] for r in report["leaf_reports"]] == ["product", "wps_leaf", "elliptic_leaf"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e737fea7e7f5556709babac546a76ad8473a4eb16c1ce8f1812c077d71949e43"
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
    # a bare leaf with b 2, 4, 8, 16 and 16, have 19 bits in all
    out_file = tmp_path / "cert.json"
    out_file.write_text(certificate_dumps(realize(4, 16)) + "\n")
    cyindex.verify._leaf_verdict.cache_clear()
    monkeypatch.setattr(cyindex.verify, "COEFF_BITS_BUDGET", 18)
    code, out, _ = run(capsys, "verify", str(out_file))
    cyindex.verify._leaf_verdict.cache_clear()
    assert code == EXIT_VERIFY_FAILED
    assert "\n  FAIL $ [wps_leaf] degree-zero: resource budget: the b values have 19 bits in all, above 18\n" in out


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
# well-formed and index-computed only).


def _tampered(kind, m=41):
    """The index-prime leaf of index m as JSON, with one field mutated."""
    if kind == "unformed-weights":
        obj = json.loads(certificate_dumps(base_leaf(1, 2)))
        obj["weights"] = [2, 2]
        return obj
    obj = json.loads(certificate_dumps(WpsLeaf(build_index_prime(m))))
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
        return certificate_dumps(WpsLeaf(build_index_prime(41)))
    if name == "prime_power-3-5":
        return certificate_dumps(WpsLeaf(build_prime_power(3, 5)))
    if name == "vandermonde-6-in-4":
        return certificate_dumps(WpsLeaf(_vandermonde((10, 13, 17, 22, 28, 35), 4)))
    return json.dumps(_tampered(name.removeprefix("tamper-")), sort_keys=True)


# name -> (exit code, sha256 in strict mode, sha256 in trusting mode)
REPORT_SHA256 = {
    "index_prime-41": (0, "5a368343941091a30e54149b6c6ae0689c02b027bfe2b2c7d0b602d83c2ddcca",
        "f13acaec69ecbe6c4b3b88afbc38bf4a6d29558124fa52a0dd848f4d6c154411"),
    "prime_power-3-5": (0, "0a4ba1abbaae6f4163ce164d88194352f767d3242e01e955329e685a92e4f33d",
        "d165d7c019cc6cf9f3a51b906faef34553daf19636e51ba3e2a6e9a903e1bfcc"),
    "vandermonde-6-in-4": (0, "b7fc6a31cef6f3031f4e0d0fe0ec609cfd356c6d7087e2b33de724deceb6e091",
        "26ca4d9fcd08fc130ba64afb74e770a2a288e6086cbd722aff9922a8c1cdc808"),
    "tamper-weight-bump": (1, "2650d39c9213518bcc868201d64f8b567e2c6c9028ac2e14cb22af95fd25f34e",
        "c577da9950e294450a0eb7dc7481f2273f8ec4cd83c8890dd3093d2121c36138"),
    "tamper-b-change": (1, "dd92f2227d1146d8a8e26f92d75f49a0b68d6178eb4eed3b05a6691149a827f1",
        "a3ce360be73a55784828ecf17d0cbec121a1559aede79fdef4c3978da5278439"),
    "tamper-entry-duplicated": (1, "7cfa6e869dfbccd40be5b7ed9ab60e4e95290622b11a9427cde48cb15e076fbe",
        "55babe02546d8706b3f35928d0b77f6d35d94c417e7638656acc617a2de8dbb3"),
    "tamper-entry-scaled-copy": (1, "7cfa6e869dfbccd40be5b7ed9ab60e4e95290622b11a9427cde48cb15e076fbe",
        "55babe02546d8706b3f35928d0b77f6d35d94c417e7638656acc617a2de8dbb3"),
    "tamper-h-scaled-copy": (1, "be0bd7115d12469a130bb90e05647dece70aecfc440a86bf9b3835700bce3fd8",
        "ec94a4ac7f2ba055d9830942a2e9a00f2882ef9c69adf6ff41a7f6a4817b21ea"),
    "tamper-h-linear-term-removed": (1, "f60cee3a789b88485b0d3ed6a40ecdd981a8c597739f86719fc2712a91d0d41a",
        "d80e42d6db88598f0dd759c682933fe3c316f5e5ca79def17c1002f5a983c1df"),
    "tamper-strategy-swap": (1, "b0ba425ac4829e993436305b42ea5fb695a2cc3373e64e5c6d6f944297b35e52",
        "82963103d1ff3f947dfbc4f77f97ce82e44c361f1183dda53cc78d3c892b3359"),
    "tamper-constant-equation": (1, "f8997d020e9cae2ce1ede88f398a01ef170f6e568efe1de3d849719d1c28f985",
        "1909b95929fd1786d66fdc79866766875187335dc1aabf2cb3a6dd456c553f2c"),
    "tamper-no-entries": (1, "141b3982fd20d81715974fdb9e5fb84bb8c3dcb7afaa92cb1f9e21fca5bc3460",
        "d02772f33919be85db04246e332e55f733e9909f6c3979b047b40d93c3528d1c"),
    "tamper-single-factor-product": (1, "357d916b31e89d3a86adf6957141e9e4123eab1ab245d3a7bebada2ba15ac52e",
        "256e316f975cd3b7f3599f575762910f6484bc03bf5342c61dcbf1c154a39c9c"),
    "tamper-unformed-weights": (1, "c26b542c40435c1a07ea40bbbb003fdc2d5685e3aed1583ea35aa8e9b745ce12",
        "edb22c0d090127dffd8b5357016861b97d271ba583cb3dfa9da5d5d11b0e4759"),
}


@pytest.mark.parametrize("mode", ["strict", "trusting"])
@pytest.mark.parametrize("name", list(REPORT_SHA256))
def test_verify_report_bytes(capsys, tmp_path, name, mode):
    path = tmp_path / "cert.json"
    path.write_text(_report_input(name))
    code, out, _ = run(capsys, "verify", str(path), "--mode", mode, "--format", "json")
    want_code, strict_sha, trusting_sha = REPORT_SHA256[name]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == (strict_sha if mode == "strict" else trusting_sha)


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
            reports[m] = verify_certificate(WpsLeaf(leaf), "strict")
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
    assert out == certificate_dumps(WpsLeaf(search_plane_pair(2, 10))) + "\n"


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
    assert len(lines) == 8
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
    # a P^1 leaf of log degree 2/5, on which pair_index raises ValueError
    ("search = corpus.search_plane_pair; corpus.search_plane_pair = lambda d, m: "
     "c._instantiate_plane(1, [(5, 1)] * 3) if (d, m) == (1, 5) else search(d, m)",
     "FAIL: plane search ground truth: pair_index requires log degree 0, got 2/5"),
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
