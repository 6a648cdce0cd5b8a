import hashlib
import json
import os
import subprocess
import sys

import pytest

import cyindex.certify
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
    assert code == EXIT_VERIFY_FAILED
    payload = json.loads(out)
    assert payload["report"]["passed"] is False
    assert payload["report"]["cited_leaves"]


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
    # 5 is not an index in dimension 1: I(1) = {1, 2, 3, 4, 6}
    out_file = tmp_path / "lie.json"
    out_file.write_text('{"v":1,"node":"cited_leaf","dim":1,"index":5,"cite":"trust me"}')
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c["name"] for r in report["leaf_reports"] for c in r["checks"] if not c["passed"]]
    assert failing == ["cited-leaf-registered"]


def test_verify_registered_citation_report_bytes(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    run(capsys, "realize", "--dim", "4", "--index", "14", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file), "--format", "json")
    assert code == EXIT_OK
    # the report bytes from before the citation registry existed
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f71271b006168b5e3287f746fee60b7129a07b76384aca17324861dcc8c1dfb9"
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
# sha256 of `verify FILE --mode M --format json` stdout, recorded while the
# verifier still compared every pair of entries and computed each degree three
# times: making the checks linear in the leaf size must not move a byte.


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
    "index_prime-41": (0, "c47b53bdc5c10e01aa7915e083c7723693d62c0ffaa39edacd9a868b3acc14fd",
        "4878922eb5b5035e2112140a46084bcbeb85de7147fac1244d98224cd976219b"),
    "prime_power-3-5": (0, "0c41bbe7728666bc585a7391e69cf590dd1360a2ae25d98b3539afd80382f4a7",
        "b8912a7db6cf5bbed57b5391a7664b6693ce9fa72171351a096d61dd04fcc1a6"),
    "vandermonde-6-in-4": (0, "84e850d7591ade8f36bf3ee75d4c00939733a38b1cf50de988fc5bd395f02731",
        "13fa6643e24966a21479cc3b447ed24c15826ed6c89adef6740875b0aaf5dd0e"),
    "tamper-weight-bump": (1, "0b02ff7bfe1aecd0ed9086a02511d905598305bc3c6684d68642ab4b0a97e77f",
        "e02dfe179c35e63ea59599cac69f7ddb6c5a105813b776450d3a7682bb74f9c6"),
    "tamper-b-change": (1, "e89c06c399689d88a0e31d073736ff15f5deab42e31c8c5495c68d008c71eeb8",
        "acb0ef2e7b89d04e20084a9b749c82ed0ede810a8dbc5597d919596b4809c95c"),
    "tamper-entry-duplicated": (1, "f7ed27b3338f33794473b4a5adb417e1bbb160d40289db1c62a6139a81d4e494",
        "65240e8bcb1764966ec3a988a6dc808532383c02d22e9f4c13c7e04b6b4a4af2"),
    "tamper-entry-scaled-copy": (1, "f7ed27b3338f33794473b4a5adb417e1bbb160d40289db1c62a6139a81d4e494",
        "65240e8bcb1764966ec3a988a6dc808532383c02d22e9f4c13c7e04b6b4a4af2"),
    "tamper-h-scaled-copy": (1, "793fd41d4841b39952ae214cafdfaf9e0bb31ee35628698b0b4264b259d8fa19",
        "13306594c4a9da42b8eedf3630c9d0d73ff562f357323a53c3ad0a5765b3aa7f"),
    "tamper-h-linear-term-removed": (1, "872790d3bea3679b0e2b433921e67c6c59377e6852730aad30529ca943be7208",
        "791688c5cde836536654264ab1effb5c7245c1441dd6c58eb8b6c3ac6bbfa458"),
    "tamper-strategy-swap": (1, "3683bf526ef81157f4fa75d6f2da48e06511dd1308331c79496841e30662d4de",
        "f808b0094774cfa261c19c12869a761b4ee99de8021f6621c0a34e8ae2e1d70c"),
    "tamper-constant-equation": (1, "ee373ddba15b3b41ef4d5bf5fa5d326f3531c7562406d1a077d2c5d76269433b",
        "de245f83fdd24408a96d60887ae09f79379b05e43acf284c5afa1b584e4cc919"),
    "tamper-single-factor-product": (1, "998737a2fc77c9081d5e6a76fa6e7a7d5ba65abfe536f6360a4679269bf9b3b2",
        "030d358988446b405cd8a7937ba7e7ef9f68f3ff41207ed198aa4a9d5c79d605"),
    "tamper-unformed-weights": (1, "e33dabc901243250ef465f76dfd24b0e13c1d86fd53f8000011c42f45ef08fcf",
        "b2fbbc690cc931d4f88df3190a885799406ca028d255817d3f3a478f254c2846"),
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
    # the rows are rendered from the base catalogue
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca018566262c9bc0edb967634b2f1b00fad5826322e6da984e14c054c416003f"
    )


def test_table_constructed_rows_are_the_strictly_verified_base_leaves(capsys):
    code, out, _ = run(capsys, "table", "--dims", "2")
    assert code == EXIT_OK
    constructed = {int(line.split()[0]) for line in out.splitlines() if "  constructed: " in line}
    reports = {m: verify_certificate(base_leaf(2, m), "strict") for m in BASE_DIM2_INDICES}
    verified = {m for m, r in reports.items() if r.passed and (r.dim, r.index) == (2, m)}
    assert constructed == verified == set(BASE_DIM2_INDICES) - {14}
    assert BASE_DIM2_INDICES == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)


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


# -- selftest ----------------------------------------------------------------


def test_selftest_green(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert all(l.startswith("ok: ") for l in lines)
    assert len(lines) == 8


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
], ids=["wrong-value", "library-raises"])
def test_selftest_fails_under_O_with_a_message(patch, fail):
    setup = "import sys; import cyindex.certify as c; import cyindex.selftest as corpus"
    proc = _python_O("-c", f"{setup}; {patch}; from cyindex.cli import main; sys.exit(main(['selftest']))")
    assert proc.returncode == EXIT_INTERNAL, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == fail
