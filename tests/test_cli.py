import hashlib
import json
import os
import subprocess
import sys

import pytest

import cyindex.certify
import cyindex.cli
import cyindex.numtheory
from cyindex.certify import (
    BASE_DIM2_INDICES,
    WpsLeaf,
    base_leaf,
    build_index_prime,
    build_prime_power,
    certificate_dumps,
    realize,
    search_plane_pair,
    verify_certificate,
)
from cyindex.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from cyindex.numtheory import euler_phi, indices_with_phi_at_most
from cyindex.selftest import CHECKS
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
    # index 14 is the explicit P(3,1,1) family_C leaf padded by one elliptic curve
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "4", "--index", "14", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert [r["kind"] for r in report["leaf_reports"]] == ["product", "wps_leaf", "elliptic_leaf"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "711a61299a6dc24e41c48e72e0ae190eb894a049f54734907b18a31f1d73f566"
    )


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
# changed only in its klt steps.


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
    "index_prime-41": (0, "3cb95e5c42cac15118c2ffd1a546ed227b96cd3ece655ec793d22a86e2399d4e",
        "0567fbee74975a74689c1b478a58f683d52d74ea1521ad24f45d1c6f8250184b"),
    "prime_power-3-5": (0, "bf2a4d966d2e08097d5c2b99dd430a2d8766a0ee2f167d85196e6d24b6f1de23",
        "1bef1337bb54bb583e4b51bb44f2007145af55f4eec968759fd4df14c4fc8f1e"),
    "vandermonde-6-in-4": (0, "a2cbaf44b9d6325334a6df2a1912f7a7a5aec81da79ee5cd28c443facd7f6086",
        "b46dd3dde18c43841ab52048f4d48457d2d7c42bbae22debe7e68ac197a87296"),
    "tamper-weight-bump": (1, "f81180fe21f6f4d890b842f0a49511a601e6392f60f4cfe799abf3da4f076166",
        "d822609f4b89edf763802f3f0bd7960698a74cd746e0b1101b27e1b114a8c0e5"),
    "tamper-b-change": (1, "67b9c52beec8e2b5cd6a1bcf1a813b4b8a274eb506031b5d8f5e17bc979eaede",
        "ae9aeefde41fab69e45caf5f175200d275e5efc222ca49270370b6c2cd4f6d40"),
    "tamper-entry-duplicated": (1, "b8c72a8817fd2a4cfd41b90627af5b771e79fc531b06afb7619cab499fa99889",
        "187dccf498b61fcb59c608238fabc85ab216b312c0e1766231176690207e1f72"),
    "tamper-entry-scaled-copy": (1, "b8c72a8817fd2a4cfd41b90627af5b771e79fc531b06afb7619cab499fa99889",
        "187dccf498b61fcb59c608238fabc85ab216b312c0e1766231176690207e1f72"),
    "tamper-h-scaled-copy": (1, "a9043e89ee2634729da1b93cdd6a6262ad5f0d08c84060925bd01d4f776c6896",
        "31836a65babb6c54e6bbc041f6c26d104925916c667dd9c221cf74d5245da379"),
    "tamper-h-linear-term-removed": (1, "b2a3b13f0c73081c96a0ac9ea58810f8a9e76ef41972035ca200f15c48b86a8f",
        "3c7af0e93df8976a7cbbe0af4d62d354e4e3c396ea97384544034f34a06d80b2"),
    "tamper-strategy-swap": (1, "ff080999eb833a7c2a67f163e94d4638f0898a6ff6b316bcbbe7df4dd01942fd",
        "e3bc9aa957c1f92e4057223506fdfbaad3ccf4ab123b216b837ddd7770000b95"),
    "tamper-constant-equation": (1, "9a6aba4c6c1a32d995a0152e4350b4b2987a3f8b372258549b698a8ae91c47e6",
        "c09b4b61155d59647280723ef33a0879f4eca1f4c77d1bdfd8cb9ffba35d6ab3"),
    "tamper-single-factor-product": (1, "b1ed917387d0dc79584b5dd7c0684dfa8dc62e08f43e7f55ab40f7c035cb9a57",
        "fd9eb50e689c3bbc8af0e64f6453bafc15e6f3fd1e632062142d282e242c5219"),
    "tamper-unformed-weights": (1, "05ddf1ca1dd6f3a038c4e9d2f6184dd4e8633fade8219b0b65301b0d5825094f",
        "08323c27382ae533259a421661a42163ee1a60c360e6a1f78da8648a860a9a05"),
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
    # names family_C since base-2 prime powers took the family path
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3562a4e4d257b57c5f8c243bc72734cb5c00eb08ebc3a9b2a5f814d0bc55b7b"
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
