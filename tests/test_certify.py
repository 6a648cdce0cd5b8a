import copy
import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyindex.certify import (
    BASE_DIM1_INDICES,
    BASE_DIM2_INDICES,
    CertificateParseError,
    EllipticLeaf,
    Product,
    WpsLeaf,
    base_leaf,
    build_index_prime,
    build_prime_power,
    certificate_dim,
    certificate_dumps,
    certificate_from_obj,
    certificate_index,
    certificate_loads,
    certificate_to_obj,
    check_dim_inequality,
    realize,
    search_plane_pair,
    verify_certificate,
)
from cyindex.numtheory import euler_phi, indices_with_phi_at_most
import cyindex.certify
import cyindex.cli
import cyindex.sncklt
import cyindex.wpspairs
from cyindex.sncklt import STEP_CHAINS, KltReport, is_klt_leaf
from cyindex.wpspairs import (
    KLT_STRATEGIES,
    LogLeaf,
    SparsePoly,
    StdCoeff,
    Wps,
    dense_exponents,
    log_degree,
    pair_index,
    weighted_degree,
)


# -- builders ----------------------------------------------------------------


def test_build_index_prime_5():
    leaf = build_index_prime(5)
    assert leaf.space.weights == (2, 1, 1)
    assert leaf.dim == 2 and pair_index(leaf) == 5
    assert {str(eq) for _, eq in leaf.entries} == {"x2", "x0^2 + x1^4 + x2^4"}
    assert all(c.value() == Fraction(4, 5) for c, _ in leaf.entries)


def test_build_index_prime_7():
    leaf = build_index_prime(7)
    assert leaf.space.weights == (3, 2, 1)
    assert leaf.dim == 2 and pair_index(leaf) == 7
    assert {str(eq) for _, eq in leaf.entries} == {"x0", "x0*x2 + x1^2 + x2^4"}


def test_build_index_prime_13():
    leaf = build_index_prime(13)
    assert leaf.space.weights == (4, 4, 2, 1, 1)
    assert leaf.dim == 4 and log_degree(leaf) == 0 and pair_index(leaf) == 13


def test_build_index_prime_rejects():
    for bad in (4, 3, 1, 6):
        with pytest.raises(ValueError):
            build_index_prime(bad)


def test_build_and_strict_verify_never_read_dense_vectors(monkeypatch):
    # build_index_prime(16001) lives in dimension 4001. Stored as dense vectors its
    # entries would hold about 32 million exponent slots; as pairs they hold about 8,000.
    def dense_view(self):
        raise AssertionError("the dense monomials view was read")

    monkeypatch.setattr(SparsePoly, "monomials", property(dense_view))
    leaf = build_index_prime(16001)
    report = verify_certificate(WpsLeaf(leaf), "strict")
    assert report.passed and (report.dim, report.index) == (4001, 16001)
    assert sum(len(pairs) for _, eq in leaf.entries for _, pairs in eq.terms) < 16001


def test_build_prime_power_23():
    leaf = build_prime_power(2, 3)
    assert leaf.space.weights == (1, 1, 1)
    assert sorted(c.b for c, _ in leaf.entries) == [2, 4, 8, 8]
    assert pair_index(leaf) == 8 and leaf.dim == 2
    # H = x0 + x1 + x2 is a Fermat sum, so base 2 takes the family_C path too
    assert leaf.klt_strategy == "family_C"
    assert str(leaf.entries[-1][1]) == "x0 + x1 + x2"


def test_build_prime_power_32():
    leaf = build_prime_power(3, 2)
    assert leaf.space.weights == (2, 1, 1)
    assert pair_index(leaf) == 9 and leaf.dim == 2
    assert leaf.klt_strategy == "family_C"


def test_build_prime_power_22_matches_p1_pair():
    leaf = build_prime_power(2, 2)
    assert leaf.dim == 1 and leaf.space.weights == (1, 1)
    assert sorted(c.value() for c, _ in leaf.entries) == [
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(3, 4),
    ]
    assert pair_index(leaf) == 4


def test_build_prime_power_rejects():
    with pytest.raises(ValueError):
        build_prime_power(1, 3)
    with pytest.raises(ValueError):
        build_prime_power(3, 1)


# Pinned leaf bytes: sha256 of certificate_dumps for each builder input and
# every catalogue entry. Any change here changes every certificate that
# contains the leaf. Re-recorded for prime_power-2-3, prime_power-2-12 and
# base-2-8 when base-2 prime powers became family_C: only "strategy" changed.
GOLDEN_SHA256 = {
    ("index_prime", 5): "b5276b91cf1fcc2c249c2902562afa44b2d51912219a6c7bd1aa1f182ba5fe3b",
    ("index_prime", 7): "4ad61bd220f89d6a9fcafefb58c702eb764bb0cc756f2bba6e961091456686b8",
    ("index_prime", 13): "9962a0d7e11e4573723c6cc0a667bdb94526e0cde7761fc68b93323f7f76a5c0",
    ("index_prime", 401): "b97c411c33cd4a9cf10188e421098ea001affa3c3a7241f490eacc53248a940a",
    ("index_prime", 403): "f3f1da9fcb012a5960bbbda3677cca311b5f02e540f3cf9f14e8724cb47430ee",
    ("prime_power", 2, 3): "19449f20c328903b606080517bc42162f6d5e31b9d9985a6393d8f0a7f91a54a",
    ("prime_power", 3, 2): "86b0b9fd8e1bb25702bf7475769e564d302c4ac5916132d084efd8082c2513b8",
    ("prime_power", 5, 4): "d6f8c19f347ce093db3543afac0587e6af39a6c3ab13d0b676acc1134d655f89",
    ("prime_power", 2, 12): "6f494d0e77084292153113adb1d449137e31d2a983bd49fa83e37c209c5fd91f",
    ("base", 1, 1): "0d3bc8b2370a96e026f06456b53aa8f683594202963de82765325a9915727c30",
    ("base", 1, 2): "aaa0a80585514ecf44ba7816f0c2f11213876486c95baa5a5a78f853abcbf3ab",
    ("base", 1, 3): "74b8db5376e5f71bed17d3b0a2fb6c5301b68f4dd40dcbba82ca6705f13834d2",
    ("base", 1, 4): "6ce4b417532e48fc5d57be73a7822d957268f1888f90e91c6fb5e2f551565571",
    ("base", 1, 6): "b15365a65ab060e9b9c76c2916f572655f43523fd9261e4ba524f7c009fca193",
    ("base", 2, 1): "db2799846211aae5c07f7d6ba76ba771c17d8750b09bf897b4548a499113a96a",
    ("base", 2, 2): "221b428719dbcf9fc3b914d01772e9ea08240061bd52c873a0174f7fea34a4a2",
    ("base", 2, 3): "d354d6171bf03d2c49fe5c222b129e36c9af548329b0321303740bf392159da4",
    ("base", 2, 4): "5956f243542eea962623331d1fb9dd7b246ec705275f7cdbbf44ccb4d78684b2",
    ("base", 2, 5): "b5276b91cf1fcc2c249c2902562afa44b2d51912219a6c7bd1aa1f182ba5fe3b",
    ("base", 2, 6): "50f6405df88bcee5fc2ec0deac27c09f5c3a97cebe68ea2860a0859dcab4d7fb",
    ("base", 2, 7): "4ad61bd220f89d6a9fcafefb58c702eb764bb0cc756f2bba6e961091456686b8",
    ("base", 2, 8): "19449f20c328903b606080517bc42162f6d5e31b9d9985a6393d8f0a7f91a54a",
    ("base", 2, 9): "86b0b9fd8e1bb25702bf7475769e564d302c4ac5916132d084efd8082c2513b8",
    ("base", 2, 10): "5601032b94f9bade9927b4159ed99abab4cc3e9a5b6dfc7d3bd28770881604b8",
    ("base", 2, 12): "b05a1b88953d512a5bcc9254cdf8b8f37ad74586d8fa9db4e5ed9cd7fa65a932",
    ("base", 2, 14): "99ce9b7fe36771647a6698754ea5bb824c2abf018b46bb132d2a75730f367be9",
    ("base", 2, 18): "0c770c849f31d7baacff37a434ce9c79309d2fb6f83eb80426c83cbb48d7178c",
}


def _golden_cert(key):
    kind, *args = key
    if kind == "index_prime":
        return WpsLeaf(build_index_prime(*args))
    if kind == "prime_power":
        return WpsLeaf(build_prime_power(*args))
    return base_leaf(*args)


def test_golden_covers_the_whole_catalogue():
    assert {k[1:] for k in GOLDEN_SHA256 if k[0] == "base"} == {
        (1, m) for m in BASE_DIM1_INDICES
    } | {(2, m) for m in BASE_DIM2_INDICES}


@pytest.mark.parametrize("key", list(GOLDEN_SHA256), ids=lambda k: "-".join(map(str, k)))
def test_golden_leaf_bytes(key):
    text = certificate_dumps(_golden_cert(key))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[key]


# -- base catalogue ----------------------------------------------------------


def test_base_dim1_catalogue():
    assert base_leaf(1, 1) == EllipticLeaf(1)
    leaf = base_leaf(1, 6).leaf
    assert [c.value() for c, _ in leaf.entries] == [
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(5, 6),
    ]
    for m in (2, 3, 4, 6):
        cert = base_leaf(1, m)
        assert certificate_dim(cert) == 1 and certificate_index(cert) == m
        assert verify_certificate(cert, "strict").passed
    with pytest.raises(ValueError):
        base_leaf(1, 5)


def test_base_dim2_catalogue():
    assert BASE_DIM2_INDICES == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)
    for m in BASE_DIM2_INDICES:
        cert = base_leaf(2, m)
        assert certificate_dim(cert) == 2 and certificate_index(cert) == m
        report = verify_certificate(cert, "strict")
        assert report.passed, (m, report.failing_checks())
        assert (report.dim, report.index) == (2, m)
    # index 14: 6/7 {x0 = 0} + 13/14 {x1 = 0} + 1/2 {x0 + x1^3 + x2^3 = 0} on P(3,1,1)
    leaf = base_leaf(2, 14).leaf
    assert leaf.space.weights == (3, 1, 1) and leaf.klt_strategy == "family_C"
    assert [c.b for c, _ in leaf.entries] == [7, 14, 2]
    assert [sorted(eq.monomials) for _, eq in leaf.entries] == [
        [(1, (1, 0, 0))], [(1, (0, 1, 0))], [(1, (0, 0, 3)), (1, (0, 3, 0)), (1, (1, 0, 0))]]
    assert log_degree(leaf) == 0 and is_klt_leaf(leaf).passed
    with pytest.raises(ValueError):
        base_leaf(2, 11)  # phi(11) = 10 > 6
    with pytest.raises(ValueError):
        base_leaf(3, 1)


def test_base_dim2_10_and_18_are_plane_arrangements():
    for m in (10, 18):
        leaf = base_leaf(2, m).leaf
        assert leaf.klt_strategy == "plane_arrangement"
        assert log_degree(leaf) == 0 and pair_index(leaf) == m
        assert is_klt_leaf(leaf).passed


# -- dimension inequality ----------------------------------------------------


def test_inequality_examples():
    # (3, 2) meets variant 1 with equality: m + e - 3 = 2 = n - 1
    assert check_dim_inequality(3, 2, 1) is True
    assert check_dim_inequality(2, 4, 1) is True  # 3 <= 3
    with pytest.raises(ValueError):
        check_dim_inequality(2, 2, 1)
    with pytest.raises(ValueError):
        check_dim_inequality(2, 3, 1)
    with pytest.raises(ValueError):
        check_dim_inequality(3, 2, 2)
    with pytest.raises(ValueError):
        check_dim_inequality(2, 5, 2)  # variant 2 needs m >= 3


# -- realize -----------------------------------------------------------------


def test_realize_4_16_is_a_single_leaf():
    cert = realize(4, 16)
    assert isinstance(cert, WpsLeaf)
    assert certificate_dim(cert) == 3 and certificate_index(cert) == 16


def test_realize_4_15_splits_coprime():
    cert = realize(4, 15)
    assert isinstance(cert, Product) and len(cert.factors) == 2
    assert sorted(certificate_index(f) for f in cert.factors) == [3, 5]
    assert certificate_dim(cert) == 3 and certificate_index(cert) == 15


def test_realize_3_6_pads_the_p1_pair():
    cert = realize(3, 6)
    assert isinstance(cert, Product)
    kinds = sorted(type(f).__name__ for f in cert.factors)
    assert kinds == ["EllipticLeaf", "WpsLeaf"]
    assert certificate_dim(cert) == 2 and certificate_index(cert) == 6


def test_realize_rejects_out_of_range():
    with pytest.raises(ValueError):
        realize(3, 23)  # phi(23) = 22 > 6
    with pytest.raises(ValueError):
        realize(2, 3)


def test_realize_deterministic():
    assert certificate_dumps(realize(9, 27)) == certificate_dumps(realize(9, 27))


def test_realize_far_cases():
    # split cases that only appear beyond the desk grid
    cases = [
        (16, 80),  # phi1 = 8 >= 6, phi2 = 4 (m2 = 5)
        (12, 70),  # phi1 = 4 with m1 = 10 (needs the plane-arrangement leaf)
        (8, 48),  # phi1 = 8, phi2 = 2 (m2 = 3)
        (10, 50),  # m = 2 * 5^2, inequality variant 2
        (6, 26),  # m = 2p, p = 13 = 1 mod 4
        (5, 22),  # m = 2p, p = 11 = 3 mod 4
        (8, 85),  # phi1 = phi2 = 4 does not occur; 85 = 5*17: phi = 64... skip
    ]
    for n, m in cases:
        if euler_phi(m) > 2 * n:
            continue
        cert = realize(n, m)
        assert certificate_dim(cert) == n - 1
        assert certificate_index(cert) == m
        assert verify_certificate(cert, "trusting").passed


def test_realize_is_flat_with_one_trailing_elliptic_leaf():
    for n in range(3, 41):
        for m in indices_with_phi_at_most(2 * n):
            cert = realize(n, m)
            assert certificate_dim(cert) == n - 1 and certificate_index(cert) == m, (n, m)
            if not isinstance(cert, Product):
                continue
            factors = cert.factors
            assert len(factors) >= 2, (n, m)
            assert not any(isinstance(f, Product) for f in factors), (n, m)
            elliptic = [i for i, f in enumerate(factors) if isinstance(f, EllipticLeaf)]
            assert elliptic in ([], [len(factors) - 1]), (n, m)


def test_realize_far_beyond_the_recursion_limit():
    cert = realize(2000, 1)
    back = certificate_loads(certificate_dumps(cert))
    assert back == cert
    report = verify_certificate(back, "strict")
    assert report.passed and report.dim == 1999 and report.index == 1


def test_monotone_padding():
    inner = realize(3, 8)
    padded = Product((inner, EllipticLeaf(3)))
    assert certificate_index(padded) == certificate_index(inner) == 8
    assert certificate_dim(padded) == certificate_dim(inner) + 3


# -- verify ------------------------------------------------------------------


def test_verify_cited_leaf_reporting():
    # index 14 is an explicit leaf: both modes pass it with the same checks,
    # and a report has no field for cited leaves
    strict = verify_certificate(realize(3, 14), "strict")
    trusting = verify_certificate(realize(3, 14), "trusting")
    assert strict.passed and (strict.dim, strict.index) == (2, 14)
    assert [r.kind for r in strict.leaf_reports] == ["wps_leaf"]
    assert {**strict.as_obj(), "mode": "trusting"} == trusting.as_obj()
    assert set(strict.as_obj()) == {"mode", "dim", "index", "passed", "leaf_reports"}


@pytest.mark.parametrize("leaf", [
    {"dim": 1, "index": 5, "cite": "trust me"},  # 5 is not an index in dimension 1
    {"dim": 2, "index": 14, "cite": "trust me"},
    {"dim": 2, "index": 13, "cite": "Machida-Oguiso, Main Theorem 3"},
])
@pytest.mark.parametrize("mode", ["strict", "trusting"])
def test_verify_unregistered_citation_fails(capsys, tmp_path, leaf, mode):
    # no citation is registered: a cited_leaf file, bare or as a factor, is a
    # parse error at its node in both modes
    cited = {"v": 1, "node": "cited_leaf", **leaf}
    product = {"v": 1, "node": "product", "factors": [cited, {"v": 1, "node": "elliptic_leaf", "dim": 1}]}
    for obj, location in ((cited, "$.node"), (product, "$.factors[0].node")):
        path = tmp_path / "cited.json"
        path.write_text(json.dumps(obj))
        assert cyindex.cli.main(["verify", str(path), "--mode", mode, "--format", "json"]) == cyindex.cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"parse error: {location}: unknown node kind 'cited_leaf'\n")


def test_verify_product_of_elliptics():
    report = verify_certificate(Product((EllipticLeaf(1), EllipticLeaf(1))), "strict")
    assert report.passed and report.dim == 2 and report.index == 1


def test_elliptic_dim_must_be_an_exact_int():
    # the loader rejects a bool dimension, so the verifier must not pass it either
    cert = Product((base_leaf(1, 3), EllipticLeaf(True)))
    report = verify_certificate(cert, "strict")
    assert not report.passed and (report.dim, report.index) == (None, None)
    assert report.failing_checks() == [("$.factors[1]", "elliptic-dim")]
    assert report.leaf_reports[-1].checks == [("elliptic-dim", False, "True")]
    with pytest.raises(CertificateParseError, match=r"^\$\.factors\[1\]\.dim: expected an integer, got True$"):
        certificate_loads(certificate_dumps(cert))


_SUPPORTS = [(), ((0, 1),), ((1, 1),), ((0, 2),), ((0, 1), (1, 1)), ((2, 3),), ((1, 2), (2, 1))]
_NONZERO = st.integers(-3, 3).filter(bool)


@st.composite
def _equation_lists(draw):
    """Equations in 3 or 4 variables, some of them scaled copies of earlier
    ones and some with an earlier support and fresh coefficients."""
    eqs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "scaled", "same-support"])) if eqs else "new"
        if kind == "new":
            support = draw(st.lists(st.sampled_from(_SUPPORTS), min_size=1, max_size=3, unique=True))
            eqs.append(SparsePoly.from_pairs(draw(st.integers(3, 4)), [(draw(_NONZERO), p) for p in support]))
        elif kind == "scaled":
            eqs.append(draw(st.sampled_from(eqs)).scaled(Fraction(draw(_NONZERO), draw(st.integers(1, 3)))))
        else:
            base = draw(st.sampled_from(eqs))
            eqs.append(SparsePoly.from_pairs(base.nvars, [(draw(_NONZERO), p) for _, p in base.terms]))
    return draw(st.permutations(eqs))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_equation_lists())
def test_entries_distinct_agrees_with_the_projective_keys(eqs):
    want = len({eq.projective_key() for eq in eqs}) == len(eqs)
    assert cyindex.certify._distinct_up_to_scaling(eqs) is want


def test_verify_leaf_work_is_linear_by_call_counts(monkeypatch):
    """One degree per entry, one well-formedness test and no pairwise
    comparison of entries: call counts, not clocks."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("weighted_degree", "is_well_formed"):
        wrapper = counted(name, getattr(cyindex.wpspairs, name))
        for module in (cyindex.wpspairs, cyindex.certify, cyindex.sncklt):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(SparsePoly, "proportional_to",
                        counted("proportional_to", SparsePoly.proportional_to))
    leaf = build_index_prime(401)
    report = verify_certificate(WpsLeaf(leaf), "strict")
    assert report.passed and report.index == 401
    assert counts == {"weighted_degree": len(leaf.entries), "is_well_formed": 1}


def test_verify_rejects_bad_mode():
    with pytest.raises(ValueError):
        verify_certificate(EllipticLeaf(1), "lenient")


# -- tamper suite ------------------------------------------------------------
# every mutation of a passing certificate must be detected with the correct
# failing check named


def _mutate(obj, path, value):
    obj = copy.deepcopy(obj)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def _delete(obj, path):
    obj = copy.deepcopy(obj)
    node = obj
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return obj


def _verify_obj(obj, mode="strict"):
    return verify_certificate(certificate_from_obj(obj), mode)


def _failing_names(report):
    return {name for _, name in report.failing_checks()}


A_OBJ = certificate_to_obj(realize(4, 16))  # P(1,1,1,1) arrangement leaf
B_OBJ = certificate_to_obj(WpsLeaf(build_index_prime(13)))  # family_A
# a nested product, in the shape realize emitted before it padded once
C_OBJ = certificate_to_obj(Product((realize(4, 15), EllipticLeaf(1))))
D_OBJ = certificate_to_obj(base_leaf(2, 10))  # plane arrangement
E_OBJ = certificate_to_obj(base_leaf(1, 3))  # P^1 pair
F_OBJ = certificate_to_obj(WpsLeaf(build_prime_power(3, 2)))  # family_C


def _h_entry_index(obj):
    return max(range(len(obj["entries"])), key=lambda i: len(obj["entries"][i]["eq"]))


TAMPER_CASES = []


def _case(name, build, expected_check):
    TAMPER_CASES.append(pytest.param(build, expected_check, id=name))


_case("A-weight-bump", lambda: _mutate(A_OBJ, ["weights", 0], 2), "quasi-homogeneous")
_case("A-weight-bump-last", lambda: _mutate(A_OBJ, ["weights", 3], 3), "quasi-homogeneous")
_case("A-b-change", lambda: _mutate(A_OBJ, ["entries", 0, "b"], 3), "degree-zero")
_case("A-exponent-double", lambda: _mutate(A_OBJ, ["entries", 0, "eq", 0, "e"], [2, 0, 0, 0]), "degree-zero")
_case("A-entry-removed", lambda: _delete(A_OBJ, ["entries", 0]), "degree-zero")
_case(
    "A-entry-duplicated",
    lambda: _mutate(A_OBJ, ["entries", 1, "eq"], copy.deepcopy(A_OBJ["entries"][0]["eq"])),
    "entries-distinct",
)
_case("A-strategy-swap", lambda: _mutate(A_OBJ, ["strategy"], "family_B"), "klt")
_case(
    "A-h-monomial-exponent",
    lambda: _mutate(A_OBJ, ["entries", 4, "eq", 3, "e"], [0, 0, 0, 2]),
    "quasi-homogeneous",
)
_case("B-weight-bump", lambda: _mutate(B_OBJ, ["weights", 2], 3), "quasi-homogeneous")
_case("B-weight-last", lambda: _mutate(B_OBJ, ["weights", 4], 2), "quasi-homogeneous")
_case("B-b-change", lambda: _mutate(B_OBJ, ["entries", 0, "b"], 14), "degree-zero")
_case(
    "B-h-exponent-bump",
    lambda: _mutate(
        B_OBJ,
        ["entries", _h_entry_index(B_OBJ), "eq", 0, "e"],
        [0, 0, 0, 0, 5],
    ),
    "quasi-homogeneous",
)
_case(
    "B-h-monomial-removed",
    lambda: _delete(B_OBJ, ["entries", _h_entry_index(B_OBJ), "eq", 0]),
    "klt",
)
_case("B-strategy-swap", lambda: _mutate(B_OBJ, ["strategy"], "family_B"), "klt")
_case("B-coordinate-entry-removed", lambda: _delete(B_OBJ, ["entries", 2]), "degree-zero")
_case("C-single-child", lambda: _mutate(C_OBJ, ["factors"], [copy.deepcopy(C_OBJ["factors"][0])]), "product-arity")
_case(
    "C-nested-point-coincide",
    lambda: _mutate(C_OBJ, ["factors", 0, "factors", 0, "entries", 1, "eq"], [{"c": [1, 1], "e": [0, 1]}]),
    "entries-distinct",
)
_case(
    "C-nested-b-change",
    lambda: _mutate(C_OBJ, ["factors", 0, "factors", 1, "entries", 0, "b"], 6),
    "degree-zero",
)
_case("D-weights", lambda: _mutate(D_OBJ, ["weights"], [1, 1, 2]), "quasi-homogeneous")
_case(
    "D-line-through-conic-point",
    lambda: _mutate(D_OBJ, ["entries", 2, "eq"], [{"c": [-1, 1], "e": [1, 0, 0]}, {"c": [1, 1], "e": [0, 1, 0]}]),
    "klt",
)
_case("D-b-change", lambda: _mutate(D_OBJ, ["entries", 1, "b"], 4), "degree-zero")
_case("D-strategy-swap", lambda: _mutate(D_OBJ, ["strategy"], "hyperplane_arrangement"), "klt")
_case("E-weights-unformed", lambda: _mutate(E_OBJ, ["weights"], [2, 2]), "well-formed")
_case(
    "F-coordinate-exponent",
    lambda: _mutate(F_OBJ, ["entries", 1, "eq", 0, "e"], [0, 2, 0]),
    "degree-zero",
)
_case(
    "F-h-monomial-removed",
    lambda: _delete(F_OBJ, ["entries", _h_entry_index(F_OBJ), "eq", 0]),
    "klt",
)
_case("F-strategy-swap", lambda: _mutate(F_OBJ, ["strategy"], "family_B"), "klt")
# H := x0 + x1*x2 on P(2,1,1): still quasi-homogeneous of degree 2, so the
# log degree stays 0, but {x0 = 0} and {H = 0} are tangent at [0:0:1]
_case(
    "F-h-mixed-monomial",
    lambda: _mutate(F_OBJ, ["entries", _h_entry_index(F_OBJ), "eq"],
                    [{"c": [1, 1], "e": [1, 0, 0]}, {"c": [1, 1], "e": [0, 1, 1]}]),
    "klt",
)
_case(
    "F-coordinate-duplicated",
    lambda: _mutate(F_OBJ, ["entries", 1, "eq"], copy.deepcopy(F_OBJ["entries"][0]["eq"])),
    "klt",
)
_case(
    "A-constant-equation",
    lambda: _mutate(A_OBJ, ["entries", 0, "eq"], [{"c": [1, 1], "e": [0, 0, 0, 0]}]),
    "entry-shape",
)


@pytest.mark.parametrize("build,expected_check", TAMPER_CASES)
def test_tamper_detected_with_named_check(build, expected_check):
    obj = build()
    report = _verify_obj(obj)
    assert not report.passed
    assert expected_check in _failing_names(report), sorted(_failing_names(report))


def test_a_constant_monomial_beside_another_is_shaped_but_not_quasi_homogeneous():
    # 1 + x0: only an equation whose every monomial is constant cuts out nothing
    obj = _mutate(A_OBJ, ["entries", 0, "eq"], [{"c": [1, 1], "e": [0, 0, 0, 0]}, {"c": [1, 1], "e": [1, 0, 0, 0]}])
    failing = _failing_names(_verify_obj(obj))
    assert "quasi-homogeneous" in failing and "entry-shape" not in failing, sorted(failing)


def test_tamper_suite_is_large_enough():
    assert len(TAMPER_CASES) >= 20


def test_tamper_originals_all_pass():
    for obj in (A_OBJ, B_OBJ, D_OBJ, E_OBJ, F_OBJ):
        assert _verify_obj(obj, "strict").passed
    assert _verify_obj(C_OBJ, "strict").passed


def test_tamper_h_monomial_removed_names_the_pattern_step():
    # without the pure power x_{n-1}^2, H no longer involves x_{n-1} and is
    # tangent to the coordinate hyperplanes along the x_{n-1}-axis
    obj = certificate_to_obj(WpsLeaf(build_index_prime(15)))
    h = obj["entries"][_h_entry_index(obj)]["eq"]
    h[:] = [mono for mono in h if mono["e"] != [0, 0, 0, 2, 0]]
    report = _verify_obj(obj)
    assert _failing_names(report) == {"klt"}
    (leaf_report,) = report.leaf_reports
    failed = [(s.description, s.detail) for s in leaf_report.klt.steps if not s.passed]
    assert failed == [(STEP_CHAINS, "H has no term in x3")]


# -- search ------------------------------------------------------------------


def _multiset(leaf):
    return sorted((c.b, weighted_degree(eq, leaf.space)) for c, eq in leaf.entries)


def oracle_multisets(dim, index, max_components):
    """Independent enumeration of admissible (b, degree) multisets."""
    from itertools import combinations_with_replacement

    target = Fraction(2 if dim == 1 else 3)
    degrees = (1,) if dim == 1 else (1, 2)
    divisors = [b for b in range(2, index + 1) if index % b == 0]
    pairs = sorted((b, d) for b in divisors for d in degrees)
    out = []
    for count in range(1, max_components + 1):
        for combo in combinations_with_replacement(pairs, count):
            total = sum(Fraction(b - 1, b) * d for b, d in combo)
            the_lcm = 1
            for b, _ in combo:
                the_lcm = lcm(the_lcm, b)
            if total == target and the_lcm == index:
                out.append(sorted(combo))
    return out


def test_search_dim1_ground_truth():
    for m in range(2, 21):
        leaf = search_plane_pair(1, m)
        if m in (2, 3, 4, 6):
            assert leaf is not None and pair_index(leaf) == m, m
            assert is_klt_leaf(leaf).passed
        else:
            assert leaf is None, m
            assert oracle_multisets(1, m, 4) == []


def test_search_dim1_matches_base_catalogue():
    for m in (2, 3, 4, 6):
        assert search_plane_pair(1, m) == base_leaf(1, m).leaf


def test_search_2_10_finds_the_conic_arrangement():
    leaf = search_plane_pair(2, 10, 4)
    assert leaf == base_leaf(2, 10).leaf
    assert _multiset(leaf) == [(2, 1), (5, 2), (10, 1)]
    # the oracle confirms this is the unique minimal-count solution
    assert oracle_multisets(2, 10, 3) == [[(2, 1), (5, 2), (10, 1)]]


def test_search_2_18_finds_four_lines():
    leaf = search_plane_pair(2, 18, 4)
    assert leaf == base_leaf(2, 18).leaf
    assert _multiset(leaf) == [(2, 1), (3, 1), (9, 1), (18, 1)]


def test_search_2_14_has_no_plane_solution():
    # the dimension-2 index 14 lives on P(3,1,1), not P^2: no arrangement on
    # P^2 with denominators dividing 14 reaches degree 3 with lcm 14
    assert oracle_multisets(2, 14, 6) == []
    assert search_plane_pair(2, 14, 6) is None


def test_search_rejects_bad_dim():
    with pytest.raises(ValueError):
        search_plane_pair(3, 4)


def reference_search(dim, index, max_components=4):
    """The search as first written, kept as the reference: every multiset
    from combinations_with_replacement, the degree sum in Fractions, and
    over-capacity multisets dropped only when instantiation fails."""
    from itertools import combinations_with_replacement

    target = Fraction(2) if dim == 1 else Fraction(3)
    degrees = (1,) if dim == 1 else (1, 2)
    candidates = sorted((b, d) for b in range(2, index + 1) if index % b == 0 for d in degrees)
    for count in range(1, max_components + 1):
        for combo in combinations_with_replacement(candidates, count):
            if sum(Fraction(b - 1, b) * d for b, d in combo) != target:
                continue
            if lcm(*[b for b, _ in combo]) != index:
                continue
            leaf = cyindex.certify._instantiate_plane(dim, combo)
            if leaf is None:
                continue
            if cyindex.sncklt.plane_arrangement_snc(leaf.equations()):
                return leaf
    return None


def _dumps_or_none(leaf):
    return None if leaf is None else certificate_dumps(WpsLeaf(leaf))


# (dim, indices, component counts): hits and misses, about 3 s of reference work
SEARCH_GRID = (
    (1, range(1, 61), range(1, 6)),
    (2, range(1, 49), range(1, 5)),
    (2, range(1, 43), (5,)),
)


def test_search_matches_the_reference_byte_for_byte():
    hits = misses = 0
    for dim, indices, counts in SEARCH_GRID:
        for k in counts:
            for m in indices:
                want = _dumps_or_none(reference_search(dim, m, k))
                assert _dumps_or_none(search_plane_pair(dim, m, k)) == want, (dim, m, k)
                hits += want is not None
                misses += want is None
    assert (hits, misses) == (37, 497)


def _fits_catalogue(dim, combo):
    lines = sum(1 for _, d in combo if d == 1)
    return lines <= (4 if dim == 1 else 6) and len(combo) - lines <= (0 if dim == 1 else 1)


def test_search_p2_hits_match_the_oracle():
    # the P^2 ground truth of `cyindex selftest` below 43, where the oracle stays fast
    admissible = {m for m in range(2, 43) if any(_fits_catalogue(2, c) for c in oracle_multisets(2, m, 5))}
    found = {m for m in range(2, 43) if search_plane_pair(2, m, 5) is not None}
    assert admissible == found == {2, 4, 6, 8, 10, 12, 18, 20, 24, 30, 42}


def test_search_accepts_nothing_the_snc_check_rejects(monkeypatch):
    queries = [(1, m, 4) for m in (2, 3, 4, 6)] + [(2, m, 7) for m in (2, 4, 10, 18, 30, 42)]
    assert all(search_plane_pair(*q) is not None for q in queries)
    monkeypatch.setattr(cyindex.certify, "is_klt_leaf", lambda leaf: KltReport(False, leaf.klt_strategy, (), ()))
    for q in queries:
        assert search_plane_pair(*q) is None, q


def test_search_instantiates_only_admissible_multisets(monkeypatch):
    tried = []
    instantiate = cyindex.certify._instantiate_plane

    def recording(dim, combo):
        tried.append(sorted(combo))
        return instantiate(dim, combo)

    monkeypatch.setattr(cyindex.certify, "_instantiate_plane", recording)
    for dim, m, k in ((1, 6, 4), (1, 5, 4), (2, 10, 4), (2, 14, 6), (2, 24, 5), (2, 42, 5)):
        tried.clear()
        leaf = search_plane_pair(dim, m, k)
        # the oracle admits only multisets of degree sum dim + 1 and lcm m; every catalogue
        # arrangement is SNC, so the first admissible multiset that fits is the only one tried
        first = [c for c in oracle_multisets(dim, m, k) if _fits_catalogue(dim, c)][:1]
        assert tried == first, (dim, m, k)
        assert (leaf is None) == (first == []), (dim, m, k)


def test_search_component_count_stops_at_catalogue_capacity(monkeypatch):
    seen = []
    multisets = cyindex.certify._plane_multisets

    def counted(candidates, weights, target, count, capacity):
        if count > sum(capacity.values()):
            raise AssertionError(f"component count {count} exceeds the catalogue")
        seen.append(count)
        return multisets(candidates, weights, target, count, capacity)

    monkeypatch.setattr(cyindex.certify, "_plane_multisets", counted)
    assert search_plane_pair(2, 60, 10**9) is None and seen == []  # the P^2 guard answers 60
    # open the guard for 60, so that the miss still enumerates every count
    monkeypatch.setattr(cyindex.certify, "_P2_SEARCH_INDICES", cyindex.certify._P2_SEARCH_INDICES | {60})
    for dim, m, cap in ((1, 6, 4), (2, 42, 7), (2, 60, 7)):
        seen.clear()
        want = _dumps_or_none(search_plane_pair(dim, m, cap))
        calls = list(seen)
        seen.clear()
        assert _dumps_or_none(search_plane_pair(dim, m, 10**9)) == want, (dim, m)
        assert seen == calls, (dim, m)
    assert calls == list(range(1, 8))  # the miss at 60 tries every count up to 7


def _unit_fraction_multisets(count, total, smallest=2):
    """Non-decreasing (b_1, ..., b_count), b_i >= smallest, with sum 1/b_i = total."""
    if count == 0:
        if total == 0:
            yield ()
        return
    if total <= 0:
        return
    # 1/b <= total keeps b >= 1/total, and count/b >= total keeps b <= count/total
    for b in range(max(smallest, -(-1 // total)), int(count / total) + 1):
        for rest in _unit_fraction_multisets(count - 1, total - Fraction(1, b), b):
            yield (b, *rest)


def test_search_index_guards_match_the_unit_fraction_enumeration():
    # a curve of degree d carries d unit fractions 1/b; on P^dim the D of them
    # sum to D - (dim + 1), and as each is at most 1/2, D <= 2(dim + 1)
    for dim, guard in ((1, cyindex.certify._P1_SEARCH_INDICES), (2, cyindex.certify._P2_SEARCH_INDICES)):
        found = {}
        for count in range(1, 2 * (dim + 1) + 3):
            found[count] = list(_unit_fraction_multisets(count, Fraction(count - dim - 1)))
        assert not any(found[c] for c in found if c > 2 * (dim + 1)), dim
        assert {lcm(*bs) for sols in found.values() for bs in sols} == guard, dim
    assert len(found[4]) == 14 and (2, 3, 7, 42) in found[4]  # the Egyptian fractions of 1


def test_search_p2_hits_below_400_equal_the_guard(monkeypatch):
    # with the guard open for every index below 400, the search finds exactly the guard's indices
    monkeypatch.setattr(cyindex.certify, "_P2_SEARCH_INDICES", frozenset(range(400)))
    hits = {m for m in range(1, 400) if search_plane_pair(2, m, 7) is not None}
    monkeypatch.undo()
    assert hits == cyindex.certify._P2_SEARCH_INDICES


# -- serialization -----------------------------------------------------------


def test_serialization_roundtrip():
    for cert in (realize(4, 16), realize(5, 15), realize(3, 14), base_leaf(2, 18)):
        assert certificate_loads(certificate_dumps(cert)) == cert


def _reference_to_obj(cert):
    """The schema v1 object of a certificate, built as dicts and dense
    exponent lists: the byte-identity reference of the one-pass writer."""
    match cert:
        case WpsLeaf(leaf):
            return {
                "v": 1,
                "node": "wps_leaf",
                "weights": list(leaf.space.weights),
                "strategy": leaf.klt_strategy,
                "entries": [
                    {
                        "b": coeff.b,
                        "eq": [{"c": [c.numerator, c.denominator], "e": dense_exponents(eq.nvars, pairs)}
                               for c, pairs in eq.terms],
                    }
                    for coeff, eq in leaf.entries
                ],
            }
        case EllipticLeaf(dim):
            return {"v": 1, "node": "elliptic_leaf", "dim": dim}
        case Product(factors):
            return {"v": 1, "node": "product", "factors": [_reference_to_obj(f) for f in factors]}
    raise TypeError(f"not a certificate node: {cert!r}")


def _reference_dumps(cert):
    return json.dumps(_reference_to_obj(cert), sort_keys=True, separators=(",", ":"))


@st.composite
def _equations(draw, nvars):
    """A polynomial in nvars variables with up to 4 monomials: random pairs,
    possibly the constant monomial, and signed multi-digit coefficients."""
    monos = draw(st.lists(
        st.lists(st.tuples(st.integers(0, nvars - 1), st.integers(1, 10**6)),
                 max_size=min(nvars, 4), unique_by=lambda p: p[0]).map(sorted).map(tuple),
        min_size=1, max_size=4, unique=True))
    coeffs = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**12))
    return SparsePoly.from_pairs(nvars, [(draw(coeffs), p) for p in monos])


@st.composite
def _wps_leaves(draw):
    """Leaves whose equations have 1 to 60 variables, one per weight about
    half the time: a certificate that fails its entry-shape check can still
    be written."""
    nvars = draw(st.integers(1, 60))
    arity = nvars if nvars >= 2 and draw(st.booleans()) else draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 10**4), min_size=arity, max_size=arity))
    entries = [(StdCoeff(draw(st.integers(2, 10**9))), draw(_equations(nvars)))
               for _ in range(draw(st.integers(0, 4)))]
    return WpsLeaf(LogLeaf(Wps(tuple(weights)), tuple(entries), draw(st.sampled_from(KLT_STRATEGIES))))


_CERTIFICATES = st.recursive(
    _wps_leaves() | st.builds(EllipticLeaf, st.integers(-3, 10**20) | st.booleans()),
    lambda children: st.lists(children, max_size=3).map(lambda fs: Product(tuple(fs))),
    max_leaves=5,
)


def _loadable(cert):
    match cert:
        case WpsLeaf(leaf):
            return all(eq.nvars == len(leaf.space.weights) for _, eq in leaf.entries)
        case EllipticLeaf(dim):
            return type(dim) is int and dim >= 1
        case Product(factors):
            return all(map(_loadable, factors))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_CERTIFICATES)
def test_writer_matches_the_reference_bytes(cert):
    text = certificate_dumps(cert)
    assert text == _reference_dumps(cert)
    assert certificate_to_obj(cert) == _reference_to_obj(cert)
    if _loadable(cert):
        assert certificate_loads(text) == cert
    else:
        with pytest.raises(CertificateParseError):
            certificate_loads(text)


def test_writer_matches_the_reference_on_realized_certificates():
    certs = [realize(n, m) for n in range(3, 21) for m in indices_with_phi_at_most(2 * n)]
    certs += [WpsLeaf(build_index_prime(1999)), WpsLeaf(build_prime_power(7, 4))]
    for cert in certs:
        assert certificate_dumps(cert) == _reference_dumps(cert)


def test_serialization_deterministic():
    cert = realize(6, 36)
    assert certificate_dumps(cert) == certificate_dumps(realize(6, 36))


def test_parse_errors_carry_location():
    with pytest.raises(CertificateParseError, match="line 1"):
        certificate_loads("{not json")
    with pytest.raises(CertificateParseError, match=r"\$\.v"):
        certificate_loads('{"v": 2, "node": "elliptic_leaf", "dim": 1}')
    with pytest.raises(CertificateParseError, match="node"):
        certificate_loads('{"v": 1, "node": "mystery"}')
    with pytest.raises(CertificateParseError, match="dim"):
        certificate_loads('{"v": 1, "node": "elliptic_leaf", "dim": 0}')
    obj = copy.deepcopy(A_OBJ)
    obj["entries"][0]["b"] = 1
    with pytest.raises(CertificateParseError, match="entries"):
        certificate_from_obj(obj)
    obj = copy.deepcopy(A_OBJ)
    obj["entries"][0]["eq"][0]["c"] = [0, 1]
    with pytest.raises(CertificateParseError, match="zero coefficient"):
        certificate_from_obj(obj)


_DELETE = object()


def _with_h_edits(*edits):
    """B_OBJ with edits (j, key, value) to monomial j of its H entry: key an
    exponent position, a field name, or None to replace the monomial; the
    value _DELETE removes the field."""
    obj = copy.deepcopy(B_OBJ)
    eq = obj["entries"][3]["eq"]
    for j, key, value in edits:
        if key is None:
            eq[j] = value
        elif isinstance(key, int):
            eq[j]["e"][key] = value
        elif value is _DELETE:
            del eq[j][key]
        else:
            eq[j][key] = value
    return obj


_H_EQ = B_OBJ["entries"][3]["eq"]  # five monomials in five variables


@pytest.mark.parametrize("edits,location,message", [
    pytest.param(((2, 4, True),), "$.entries[3].eq[2].e[4]", "expected an integer, got True", id="true"),
    pytest.param(((2, 4, False),), "$.entries[3].eq[2].e[4]", "expected an integer, got False", id="false"),
    pytest.param(((2, 4, -1),), "$.entries[3].eq[2].e[4]", "integer -1 below minimum 0", id="negative"),
    pytest.param(((2, 4, 1.5),), "$.entries[3].eq[2].e[4]", "expected an integer, got 1.5", id="float"),
    pytest.param(((2, 4, "1"),), "$.entries[3].eq[2].e[4]", "expected an integer, got '1'", id="string"),
    pytest.param(((2, 4, None),), "$.entries[3].eq[2].e[4]", "expected an integer, got None", id="null"),
    pytest.param(((2, 0, [1]),), "$.entries[3].eq[2].e[0]", "expected an integer, got [1]", id="list"),
    pytest.param(((2, "e", _H_EQ[2]["e"][:4]),), "$.entries[3].eq[2].e",
                 "exponent vector of length 4, expected 5", id="short"),
    pytest.param(((2, "e", _H_EQ[2]["e"] + [0]),), "$.entries[3].eq[2].e",
                 "exponent vector of length 6, expected 5", id="long"),
    pytest.param(((3, None, copy.deepcopy(_H_EQ[2])),), "$.entries[3].eq",
                 "repeated exponent vector (0, 0, 2, 0, 0)", id="repeated"),
    # two faults, reported as before: the exponent before the length in one
    # vector, and exponents and lengths in monomial order
    pytest.param(((2, "e", [True, 0, 0, 0]),), "$.entries[3].eq[2].e[0]",
                 "expected an integer, got True", id="bool-and-short"),
    pytest.param(((1, 0, -1), (2, "e", _H_EQ[2]["e"] + [0])), "$.entries[3].eq[1].e[0]",
                 "integer -1 below minimum 0", id="negative-then-long"),
    pytest.param(((3, None, copy.deepcopy(_H_EQ[0])), (4, 0, -1)), "$.entries[3].eq[4].e[0]",
                 "integer -1 below minimum 0", id="repeated-then-negative"),
    # two faults whose first reported fault changed: a later monomial's c or
    # e-is-a-list fault is now found before an earlier monomial's exponent
    pytest.param(((1, 0, -1), (2, "c", [0, 1])), "$.entries[3].eq[2].c",
                 "zero coefficient monomial", id="negative-then-zero-c"),
    pytest.param(((1, 0, -1), (2, "e", 3)), "$.entries[3].eq[2].e",
                 "e must be a list", id="negative-then-e-not-a-list"),
    # one fault in each part of a monomial that the one-test accept path skips
    pytest.param(((2, None, [1, 1]),), "$.entries[3].eq[2]", "expected an object", id="not-an-object"),
    pytest.param(((2, "c", _DELETE),), "$.entries[3].eq[2]", "missing field 'c'", id="c-missing"),
    pytest.param(((2, "c", 1),), "$.entries[3].eq[2].c", "c must be [numerator, denominator]", id="c-not-a-list"),
    pytest.param(((2, "c", [1, 1, 1]),), "$.entries[3].eq[2].c", "c must be [numerator, denominator]",
                 id="c-of-length-3"),
    pytest.param(((2, "c", [True, 1]),), "$.entries[3].eq[2].c[0]", "expected an integer, got True",
                 id="c-bool-numerator"),
    pytest.param(((2, "c", [1, False]),), "$.entries[3].eq[2].c[1]", "expected an integer, got False",
                 id="c-bool-denominator"),
    pytest.param(((2, "c", [1, 0]),), "$.entries[3].eq[2].c", "zero denominator", id="c-zero-denominator"),
    pytest.param(((2, "c", [0, 1]),), "$.entries[3].eq[2].c", "zero coefficient monomial", id="c-zero-numerator"),
    pytest.param(((2, "e", _DELETE),), "$.entries[3].eq[2]", "missing field 'e'", id="e-missing"),
    pytest.param(((2, "e", {"0": 1}),), "$.entries[3].eq[2].e", "e must be a list", id="e-not-a-list"),
])
def test_malformed_exponents_are_located(edits, location, message):
    with pytest.raises(CertificateParseError) as info:
        certificate_from_obj(_with_h_edits(*edits))
    assert (info.value.location, str(info.value)) == (location, f"{location}: {message}")


@pytest.mark.parametrize("weights,location,message", [
    pytest.param([2, True, 1, 1, 1], "$.weights[1]", "expected an integer, got True", id="bool"),
    pytest.param([2, 2, "1", 1, 1], "$.weights[2]", "expected an integer, got '1'", id="string"),
    pytest.param([2, 2, 1, 1.0, 1], "$.weights[3]", "expected an integer, got 1.0", id="float"),
    pytest.param([2, 2, 1, 1, 0], "$.weights", "weights must be positive", id="zero"),
    pytest.param([2, 2, 1, 1, -1], "$.weights", "weights must be positive", id="negative"),
    pytest.param([4], "$.weights", "weights must be a list of at least 2 integers", id="one"),
])
def test_malformed_weights_are_located(weights, location, message):
    obj = copy.deepcopy(B_OBJ)
    obj["weights"] = weights
    with pytest.raises(CertificateParseError) as info:
        certificate_from_obj(obj)
    assert (info.value.location, str(info.value)) == (location, f"{location}: {message}")


def test_int_subclass_coefficients_load_as_their_values():
    # an object handed to certificate_from_obj may hold int subclasses; they
    # take the walked path and give the same certificate as exact ints
    class Int(int):
        pass

    obj = _with_h_edits((2, "c", [Int(1), Int(1)]))
    assert certificate_from_obj(obj) == certificate_from_obj(B_OBJ)


def test_schema_shape_matches_contract():
    obj = certificate_to_obj(realize(4, 16))
    assert obj["v"] == 1 and obj["node"] == "wps_leaf"
    assert obj["weights"] == [1, 1, 1, 1]
    assert obj["strategy"] == "family_C"
    assert {"b", "eq"} <= set(obj["entries"][0].keys())
    assert {"c", "e"} == set(obj["entries"][0]["eq"][0].keys())
    obj = json.loads(certificate_dumps(realize(3, 14)))
    assert obj["node"] == "wps_leaf" and obj["weights"] == [3, 1, 1] and obj["strategy"] == "family_C"
    assert set(obj) == {"v", "node", "weights", "strategy", "entries"}
