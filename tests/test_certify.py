import copy
import hashlib
import json
import pickle
import re
import sys
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyindex.certify import (
    BASE_DIM1_INDICES,
    BASE_DIM2_INDICES,
    base_leaf,
    build_index_prime,
    build_prime_power,
    build_sylvester,
    certificate_dim,
    certificate_index,
    check_dim_inequality,
    realize,
    search_plane_pair,
)
from cyindex.codec import CertificateParseError, certificate_dumps, certificate_from_obj, certificate_loads
from cyindex.verify import EllipticLeaf, Product, WpsLeaf, verify_certificate
from cyindex.numtheory import euler_phi, factorize, indices_with_phi_at_most, sylvester_bound
import cyindex
import cyindex.certify
import cyindex.cli
import cyindex.codec
import cyindex.sncklt
import cyindex.verify
import cyindex.wpspairs
from cyindex.sncklt import STEP_CHAINS, KltReport, is_klt_leaf
from cyindex.wpspairs import (
    KLT_STRATEGIES,
    LogLeaf,
    SparsePoly,
    StdCoeff,
    Wps,
    dense_exponents,
    exponent_pairs,
    log_degree,
    pair_index,
    weighted_degree,
)


# -- builders ----------------------------------------------------------------


def test_build_index_prime_5():
    leaf = build_index_prime(5)
    assert leaf.space.weights == (2, 1, 1)
    assert leaf.dim == 2 and pair_index(leaf) == 5
    # x2 and x0^2 + x1^4 + x2^4
    assert {eq.terms for _, eq in leaf.entries} == {((1, ((2, 1),)),),
                                                    ((1, ((0, 2),)), (1, ((1, 4),)), (1, ((2, 4),)))}
    assert all(c.b == 5 for c, _ in leaf.entries)


def test_build_index_prime_7():
    leaf = build_index_prime(7)
    assert leaf.space.weights == (3, 2, 1)
    assert leaf.dim == 2 and pair_index(leaf) == 7
    # x0 and x0*x2 + x1^2 + x2^4
    assert {eq.terms for _, eq in leaf.entries} == {((1, ((0, 1),)),),
                                                    ((1, ((0, 1), (2, 1))), (1, ((1, 2),)), (1, ((2, 4),)))}


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
    assert leaf.entries[-1][1].terms == ((1, ((0, 1),)), (1, ((1, 1),)), (1, ((2, 1),)))  # x0 + x1 + x2


def test_build_prime_power_32():
    leaf = build_prime_power(3, 2)
    assert leaf.space.weights == (2, 1, 1)
    assert pair_index(leaf) == 9 and leaf.dim == 2
    assert leaf.klt_strategy == "family_C"


def test_build_prime_power_22_matches_p1_pair():
    leaf = build_prime_power(2, 2)
    assert leaf.dim == 1 and leaf.space.weights == (1, 1)
    assert sorted(c.b for c, _ in leaf.entries) == [2, 4, 4]
    assert pair_index(leaf) == 4


@pytest.mark.parametrize("k", range(2, 8))
def test_sylvester_extremal_leaf_is_a_chain_leaf(k):
    report = verify_certificate(WpsLeaf(build_sylvester(k)), "strict")
    assert report.passed, report.failing_checks()
    assert (report.dim, report.index) == (k, sylvester_bound(k + 1))
    if k <= 4:
        assert report.index == (66, 3486, 6521466)[k - 2]


@pytest.mark.parametrize("k", [1, 0, -2, 2.0, "3", None])
def test_build_sylvester_rejects(k):
    with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
        build_sylvester(k)


def test_build_prime_power_rejects():
    with pytest.raises(ValueError):
        build_prime_power(1, 3)
    with pytest.raises(ValueError):
        build_prime_power(3, 1)


# Pinned leaf bytes: sha256 of certificate_dumps for each builder input,
# every catalogue entry and the plane search hits that serve as arrangement
# fixtures. Any change here changes every certificate that contains the
# leaf. Re-recorded for prime_power-2-3, prime_power-2-12 and base-2-8 when
# base-2 prime powers became family_C: only "strategy" changed. Re-recorded
# for base-1-{2,3,4,6} and base-2-{2,3,4,6,10,12,18} when the P^1 pairs and
# the plane leaves of 10 and 18 became chain leaves; the search entries keep
# the hashes those catalogue entries had before, so the arrangements the
# search finds are byte-identical to the old catalogue leaves.
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
    ("base", 1, 2): "070383b90896ce8ca803794b688470672a80f085886901b90f077228b52dfe77",
    ("base", 1, 3): "3ef7d1092d4bafea811619ac7dce2c6d9e59cef9d6494a6b008da55cfb182d2a",
    ("base", 1, 4): "1d194dc63052a47fd6367376e7eee560af99b84f92fa15756da178f8ce17598a",
    ("base", 1, 6): "6fa4f5abef258412097906cf665422ba57fecf547aeac01fb3895406966bbdbb",
    ("base", 2, 1): "db2799846211aae5c07f7d6ba76ba771c17d8750b09bf897b4548a499113a96a",
    ("base", 2, 2): "3b31dbfb53a220b72af84da6c268362ae6ef45f126a4568d67472b41e7853f38",
    ("base", 2, 3): "99d9ab27be28f7601a2e679ffbfba8727b182dfa8e64166034aee0af485cafff",
    ("base", 2, 4): "3d709ccaf38e76dd310e664dbc6d8ce0e06527cad58f899748d783269ca08ccc",
    ("base", 2, 5): "b5276b91cf1fcc2c249c2902562afa44b2d51912219a6c7bd1aa1f182ba5fe3b",
    ("base", 2, 6): "ba5aeb2ab5447f8adc2564fe1d68ee0237492b6f4e5b383f2cd40f263558ed0a",
    ("base", 2, 7): "4ad61bd220f89d6a9fcafefb58c702eb764bb0cc756f2bba6e961091456686b8",
    ("base", 2, 8): "19449f20c328903b606080517bc42162f6d5e31b9d9985a6393d8f0a7f91a54a",
    ("base", 2, 9): "86b0b9fd8e1bb25702bf7475769e564d302c4ac5916132d084efd8082c2513b8",
    ("base", 2, 10): "eb5b16c826c241f98cf0c93b3cff1b30117bf6bc954c672cf47ac07cd8805142",
    ("base", 2, 12): "acbd88dd07e0b1188b8575a255f5eb84740933bfe1f773054d9a3aba46fae6d1",
    ("base", 2, 14): "99ce9b7fe36771647a6698754ea5bb824c2abf018b46bb132d2a75730f367be9",
    ("base", 2, 18): "c9eae9bb3e0d54837046055aa09bf0c7db524c7095df4a54d6419542c1193195",
    ("search", 1, 2): "aaa0a80585514ecf44ba7816f0c2f11213876486c95baa5a5a78f853abcbf3ab",
    ("search", 1, 3): "74b8db5376e5f71bed17d3b0a2fb6c5301b68f4dd40dcbba82ca6705f13834d2",
    ("search", 1, 4): "6ce4b417532e48fc5d57be73a7822d957268f1888f90e91c6fb5e2f551565571",
    ("search", 1, 6): "b15365a65ab060e9b9c76c2916f572655f43523fd9261e4ba524f7c009fca193",
    ("search", 2, 10): "5601032b94f9bade9927b4159ed99abab4cc3e9a5b6dfc7d3bd28770881604b8",
    ("search", 2, 18): "0c770c849f31d7baacff37a434ce9c79309d2fb6f83eb80426c83cbb48d7178c",
}


def _golden_cert(key):
    kind, *args = key
    if kind == "index_prime":
        return WpsLeaf(build_index_prime(*args))
    if kind == "prime_power":
        return WpsLeaf(build_prime_power(*args))
    if kind == "search":
        return WpsLeaf(search_plane_pair(*args))
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
    assert [c.b for c, _ in leaf.entries] == [2, 3, 6]
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


def test_padding_lemma_at_the_least_dimension_for_phi_up_to_1000():
    # n0 = max(3, phi(m)/2) is the least n the theorem allows for m
    indices = indices_with_phi_at_most(1000)
    assert len(indices) == 1941
    for m in indices:
        n0 = max(3, euler_phi(m) // 2)
        cert = realize(n0, m)
        assert certificate_dim(cert) == n0 - 1 and certificate_index(cert) == m, (n0, m)
        factors = cert.factors if isinstance(cert, Product) else (cert,)
        idxs = [certificate_index(f) for f in factors]
        assert lcm(*idxs) == prod(idxs), (n0, m, idxs)
        # every leaf is a chain leaf, checked by the one family criterion
        assert all(f.leaf.klt_strategy in ("family_A", "family_B", "family_C")
                   for f in factors if isinstance(f, WpsLeaf)), (n0, m)


def test_realize_refuses_a_core_wider_than_the_padding(monkeypatch):
    # realize's pad check is the one guard of the padding lemma: a core of
    # two dimension-2 leaves cannot fit in dimension n - 1 = 2
    leaves = [base_leaf(2, 10), base_leaf(2, 18)]
    assert [certificate_dim(leaf) for leaf in leaves] == [2, 2]
    monkeypatch.setattr(cyindex.certify, "_core", lambda m: list(leaves))
    with pytest.raises(RuntimeError, match="dimension 4 > 2"):
        realize(3, 10)


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


def _scaled(f: SparsePoly, c) -> SparsePoly:
    """c * f for a nonzero c, built by from_pairs."""
    return SparsePoly.from_pairs(f.nvars, [(coeff * c, pairs) for coeff, pairs in f.terms])


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
            eqs.append(_scaled(draw(st.sampled_from(eqs)), Fraction(draw(_NONZERO), draw(st.integers(1, 3)))))
        else:
            base = draw(st.sampled_from(eqs))
            eqs.append(SparsePoly.from_pairs(base.nvars, [(draw(_NONZERO), p) for _, p in base.terms]))
    return draw(st.permutations(eqs))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_equation_lists())
def test_entries_distinct_agrees_with_the_projective_keys(eqs):
    want = len({eq.projective_key() for eq in eqs}) == len(eqs)
    assert cyindex.wpspairs._distinct_up_to_scaling(eqs) is want


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
        for module in (cyindex.wpspairs, cyindex.verify, cyindex.sncklt):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(SparsePoly, "proportional_to",
                        counted("proportional_to", SparsePoly.proportional_to))
    leaf = build_index_prime(401)
    report = verify_certificate(WpsLeaf(leaf), "strict")
    assert report.passed and report.index == 401
    assert counts == {"weighted_degree": len(leaf.entries), "is_well_formed": 1}


# -- the leaf-verdict memo ------------------------------------------------------
# each test clears the memo first, so the order tests run in does not matter


def test_verify_reports_the_same_bytes_from_the_memo(monkeypatch):
    verdicts = cyindex.verify._leaf_verdict
    certs = [certificate_loads(certificate_dumps(realize(n, m)))
             for n in range(3, 11) for m in indices_with_phi_at_most(2 * n)]
    cold = []
    for cert in certs:
        verdicts.cache_clear()
        cold.append(verify_certificate(cert).as_obj())
    hits = verdicts.cache_info().hits
    warm = [[verify_certificate(cert) for _ in range(2)][-1].as_obj() for cert in certs]
    assert verdicts.cache_info().hits >= hits + len(certs)
    monkeypatch.setattr(cyindex.verify, "_leaf_verdict", verdicts.__wrapped__)
    direct = [verify_certificate(cert).as_obj() for cert in certs]
    assert cold == warm == direct


_SMALL_LEAVES = [cert.leaf for cert in cyindex.certify._EXPLICIT.values()] + [
    build_index_prime(m) for m in (5, 7, 13, 15)] + [build_prime_power(2, 3), build_prime_power(3, 2)]


def _with_entry(leaf, i, coeff, eq):
    entries = list(leaf.entries)
    entries[i] = (coeff, eq)
    return LogLeaf(leaf.space, tuple(entries), leaf.klt_strategy)


@st.composite
def _leaf_and_one_field_changed(draw):
    """A small family leaf and a copy that differs in one field: one b, one
    coefficient (1 -> 2), one exponent, one weight or the strategy."""
    leaf = draw(st.sampled_from(_SMALL_LEAVES))
    changed = draw(st.sampled_from(["b", "coefficient", "exponent", "weight", "strategy"]))
    if changed == "weight":
        w = list(leaf.space.weights)
        w[draw(st.integers(0, len(w) - 1))] += draw(st.integers(1, 3))
        return leaf, LogLeaf(Wps(tuple(w)), leaf.entries, leaf.klt_strategy)
    if changed == "strategy":
        strategy = draw(st.sampled_from([s for s in KLT_STRATEGIES if s != leaf.klt_strategy]))
        return leaf, LogLeaf(leaf.space, leaf.entries, strategy)
    i = draw(st.integers(0, len(leaf.entries) - 1))
    coeff, eq = leaf.entries[i]
    if changed == "b":
        return leaf, _with_entry(leaf, i, StdCoeff(coeff.b + draw(st.integers(1, 3))), eq)
    terms = list(eq.terms)
    k = draw(st.integers(0, len(terms) - 1))
    c, pairs = terms[k]
    if changed == "coefficient":
        assert c == 1
        terms[k] = (2 * c, pairs)
    else:
        v = draw(st.integers(0, len(pairs) - 1))
        pairs = pairs[:v] + ((pairs[v][0], pairs[v][1] + 1),) + pairs[v + 1:]
        assume(all(pairs != p for _, p in terms))
        terms[k] = (c, pairs)
    return leaf, _with_entry(leaf, i, coeff, SparsePoly.from_pairs(eq.nvars, terms))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_leaf_and_one_field_changed())
def test_the_memo_tells_apart_leaves_that_differ_in_one_field(pair):
    verdicts = cyindex.verify._leaf_verdict
    leaf, changed = pair
    assert changed != leaf
    verdicts.cache_clear()
    cold = verify_certificate(WpsLeaf(changed)).as_obj()
    verdicts.cache_clear()
    verify_certificate(WpsLeaf(leaf))
    assert verify_certificate(WpsLeaf(changed)).as_obj() == cold


def test_a_memo_hit_does_no_leaf_work(monkeypatch):
    verdicts = cyindex.verify._leaf_verdict
    verdicts.cache_clear()
    leaf = build_index_prime(13)
    want = verify_certificate(WpsLeaf(leaf)).as_obj()
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, home in (("weighted_degree", cyindex.wpspairs), ("is_klt_leaf", cyindex.sncklt)):
        wrapper = counted(name, getattr(home, name))
        for module in (cyindex.wpspairs, cyindex.verify, cyindex.sncklt):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    copy = certificate_loads(certificate_dumps(WpsLeaf(leaf)))
    assert copy.leaf == leaf and copy.leaf is not leaf
    assert verify_certificate(copy).as_obj() == want
    assert counts == {}
    verdicts.cache_clear()
    assert verify_certificate(copy).as_obj() == want
    assert counts == {"weighted_degree": len(leaf.entries), "is_klt_leaf": 1}


def test_the_memo_holds_at_most_128_leaves_of_at_most_64_monomials():
    verdicts = cyindex.verify._leaf_verdict
    chain_leaf = cyindex.certify._chain_leaf
    verdicts.cache_clear()
    for b in range(2, 302):  # 300 distinct small leaves
        verify_certificate(WpsLeaf(chain_leaf((1, 1), [(0, b)], 2, [((0, 1),), ((1, 1),)], "family_A")))
    assert verdicts.cache_info().currsize <= 128
    h = [((j, 1),) for j in range(33)]  # 33 monomials
    verdicts.cache_clear()
    verify_certificate(WpsLeaf(chain_leaf((1,) * 33, [(j, 2) for j in range(32)], 2, h, "family_A")))
    assert verdicts.cache_info().currsize == 0  # 65 monomials in all: checked afresh
    verify_certificate(WpsLeaf(chain_leaf((1,) * 33, [(j, 2) for j in range(31)], 2, h, "family_A")))
    assert verdicts.cache_info().currsize == 1  # 64 in all: held


def test_an_unhashable_leaf_is_verified_without_the_memo():
    cyindex.verify._leaf_verdict.cache_clear()
    leaf = cyindex.certify._EXPLICIT[14].leaf
    listed = LogLeaf(leaf.space, tuple((c, SparsePoly._canonical(eq.nvars, [list(t) for t in eq.terms]))
                                       for c, eq in leaf.entries), leaf.klt_strategy)
    with pytest.raises(TypeError):
        hash(listed)
    assert verify_certificate(WpsLeaf(listed)).as_obj() == verify_certificate(WpsLeaf(leaf)).as_obj()


# -- the build and writer memos, and the leaf's hash --------------------------


def test_a_small_part_is_built_once_and_a_bigger_one_afresh():
    held = cyindex.certify._held_part
    held.cache_clear()
    leaf13 = realize(6, 13).factors[0]  # 8 monomials
    assert realize(9, 13).factors[0] is leaf13 and realize(12, 26).factors[1] is leaf13
    assert realize(63, 127).factors[0] is realize(64, 127).factors[0]  # 64 monomials: held
    first, again = realize(65, 131).factors[0], realize(66, 131).factors[0]  # 66 monomials
    assert first == again and first is not again
    assert held.cache_info().currsize == 2


def test_a_parts_monomials_are_counted_before_it_is_built():
    for q in range(5, 400):
        (p, e), *rest = factorize(q)
        if not rest and q not in cyindex.certify._EXPLICIT:
            leaf = cyindex.certify._part(p, e).leaf
            assert cyindex.certify._part_monomials(p, e) == sum(len(eq.terms) for _, eq in leaf.entries), q


def test_the_writer_holds_the_text_of_every_small_leaf():
    held = cyindex.codec._held_leaf_text
    held.cache_clear()
    for n in range(3, 41):
        for m in indices_with_phi_at_most(2 * n):
            cert = realize(n, m)
            for node in cert.factors if isinstance(cert, Product) else (cert,):
                if isinstance(node, WpsLeaf):
                    assert cyindex.codec._node_text(node) == cyindex.codec._leaf_text(node.leaf), (n, m)
    assert held.cache_info().hits > 0 and held.cache_info().currsize <= 128


def test_a_held_leaf_is_written_once_and_read_back_unheld(monkeypatch):
    cyindex.codec._held_leaf_text.cache_clear()
    _read_leaf_text.cache_clear()
    calls = _counted(monkeypatch, "_leaf_text")
    cert = realize(10, 30)  # the explicit leaf of 6, the family leaf of 5 and padding
    text = certificate_dumps(cert)
    assert len(calls) == 2
    assert certificate_dumps(realize(11, 30)) == text.replace('"dim":6', '"dim":7') and len(calls) == 2
    assert certificate_loads(text) == cert and len(calls) == 4  # the read-back test writes each leaf
    assert cyindex.codec._held_leaf_text.cache_info().currsize == 2


def test_a_leaf_hashes_as_its_value_once_per_object():
    leaf, fresh = build_index_prime(13), build_index_prime(13)
    assert leaf is not fresh and leaf == fresh
    assert hash(leaf) == hash(fresh) == hash((leaf.space, leaf.entries, leaf.klt_strategy))
    assert hash(WpsLeaf(leaf)) == hash(WpsLeaf(fresh))
    unpickled = pickle.loads(pickle.dumps(leaf))  # another process hashes a str differently
    assert "_hash" in vars(leaf) and "_hash" not in vars(unpickled)
    assert unpickled == leaf and hash(unpickled) == hash(leaf)


# -- the coefficient budget ----------------------------------------------------


def test_the_coefficient_budget_fails_degree_zero_before_its_arithmetic(monkeypatch):
    leaf = build_index_prime(13)
    bits = sum(coeff.b.bit_length() for coeff, _ in leaf.entries)
    cyindex.verify._leaf_verdict.cache_clear()  # it holds verdicts given under the real budget
    monkeypatch.setattr(cyindex.verify, "COEFF_BITS_BUDGET", bits)
    assert verify_certificate(WpsLeaf(leaf)).passed
    cyindex.verify._leaf_verdict.cache_clear()
    monkeypatch.setattr(cyindex.verify, "COEFF_BITS_BUDGET", bits - 1)
    monkeypatch.setattr(cyindex.verify, "_scaled_log_degree", None)
    report = verify_certificate(WpsLeaf(leaf))
    cyindex.verify._leaf_verdict.cache_clear()
    failed = {name: detail for name, ok, detail in report.leaf_reports[0].checks if not ok}
    assert failed == {"degree-zero": f"resource budget: the b values have {bits} bits in all, above {bits - 1}",
                      "index-computed": "preconditions failed"}


def test_build_sylvester_verifies_to_16_and_writes_to_14():
    for k, passed in ((16, True), (17, False)):
        report = verify_certificate(WpsLeaf(build_sylvester(k)))
        assert report.passed is passed and (passed or report.failing_checks() == [
            ("$", "degree-zero"), ("$", "index-computed")])
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        certificate_dumps(WpsLeaf(build_sylvester(14)))
        with pytest.raises(ValueError, match="4300 digits"):
            certificate_dumps(WpsLeaf(build_sylvester(15)))
        sys.set_int_max_str_digits(0)  # no limit: written, and held under this limit only
        certificate_dumps(WpsLeaf(build_sylvester(15)))
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError, match="4300 digits"):
            certificate_dumps(WpsLeaf(build_sylvester(15)))
    finally:
        sys.set_int_max_str_digits(limit)


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


def _obj(cert):
    """The schema v1 object of a certificate, as json.loads reads its text."""
    return json.loads(certificate_dumps(cert))


A_OBJ = _obj(realize(4, 16))  # family_C on P(1,1,1,1): four coordinates plus their sum
B_OBJ = _obj(WpsLeaf(build_index_prime(13)))  # family_A
# a nested product of a P^1 point arrangement and the index-5 leaf, in the
# shape realize emitted before it padded once
C_OBJ = _obj(Product((Product((WpsLeaf(search_plane_pair(1, 3)), WpsLeaf(build_index_prime(5)))),
                      EllipticLeaf(1))))
D_OBJ = _obj(WpsLeaf(search_plane_pair(2, 10)))  # plane arrangement
E_OBJ = _obj(WpsLeaf(search_plane_pair(1, 3)))  # P^1 point arrangement
F_OBJ = _obj(WpsLeaf(build_prime_power(3, 2)))  # family_C


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


def test_quasi_homogeneous_detail_is_bounded_on_a_large_leaf():
    # a weight bump on the dimension-1001 index-prime leaf breaks only H, entry 1000
    obj = _obj(WpsLeaf(build_index_prime(4001)))
    obj["weights"][0] += 1
    report = _verify_obj(obj, "strict")
    [detail] = [d for name, ok, d in report.leaf_reports[0].checks if name == "quasi-homogeneous" and not ok]
    assert detail == "entry 1000: monomial degrees disagree: 2 distinct degrees from 4 to 5"
    assert len(detail) <= 100


@pytest.mark.parametrize("cert", [
    WpsLeaf(build_index_prime(4001)),  # 1,002 weights and 1,001 entries
    WpsLeaf(build_sylvester(14)),  # weights of 11,080 bits, index of 22,159
    WpsLeaf(build_sylvester(15)),  # past the int-to-str digit limit in every integer it names
], ids=["index-prime-4001", "sylvester-14", "sylvester-15"])
def test_verifier_details_are_bounded(cert):
    report = verify_certificate(cert, "strict")
    assert report.passed and report.index == certificate_index(cert)
    details = {name: d for name, _, d in report.leaf_reports[0].checks}
    assert max(map(len, details.values())) <= 500, {k: len(d) for k, d in details.items()}
    if cert.leaf.dim == 1001:
        assert details["weights-valid"] == details["well-formed"] == "P(" + "4," * 16 + "... (1002 in all))"
        assert details["standard-coefficients"] == "4000/4001 " * 16 + "... (1001 in all)"
        assert details["quasi-homogeneous"] == "degrees [" + "4, " * 16 + "... (1001 in all)]"
    else:
        assert details["index-computed"] == f"<{report.index.bit_length()}-bit integer>"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int-to-str digits")
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_prints_an_index_past_the_digit_limit_by_its_bit_length(capsys, tmp_path, fmt):
    # the k = 14 Sylvester leaf passes, and its 22,159-bit index has more
    # decimal digits than Python converts by default
    path = tmp_path / "sylvester14.json"
    path.write_text(certificate_dumps(WpsLeaf(build_sylvester(14))) + "\n")
    code = cyindex.cli.main(["verify", str(path), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["index"] == "<22159-bit integer>"
    else:
        assert "\nindex: <22159-bit integer>\n" in out


def test_non_homogeneous_detail_is_bounded_for_huge_weights():
    # x0 + x1 on P(1, 2^20000): the degrees 1 and 2^20000 disagree, and the
    # larger has more decimal digits than str() converts by default
    leaf = LogLeaf(Wps((1, 2**20000)), ((StdCoeff(2), SparsePoly.variable(2, 0)),
                                        (StdCoeff(2), SparsePoly.linear_form((1, 1)))), "family_A")
    report = verify_certificate(WpsLeaf(leaf), "strict")
    [detail] = [d for name, ok, d in report.leaf_reports[0].checks if name == "quasi-homogeneous" and not ok]
    assert detail == "entry 1: monomial degrees disagree: 2 distinct degrees from 1 to <20001-bit integer>"


def test_entry_shape_detail_bounds_the_variable_count():
    # x0 on P(1, 1), but in 10^5000 variables: more decimal digits than str()
    # converts by default
    leaf = LogLeaf(Wps((1, 1)), ((StdCoeff(2), SparsePoly.variable(10**5000, 0)),), "family_A")
    report = verify_certificate(WpsLeaf(leaf), "strict")
    assert not report.passed
    [detail] = [d for name, ok, d in report.leaf_reports[0].checks if name == "entry-shape" and not ok]
    assert detail == "equation in <16610-bit integer> variables on P(1,1)"


def test_entry_shape_names_an_equation_that_cancels_to_zero():
    # x0 - x0, which from_terms keeps as the zero polynomial
    eq = SparsePoly.from_terms(2, [(1, (1, 0)), (-1, (1, 0))])
    assert eq.terms == ()
    report = verify_certificate(WpsLeaf(LogLeaf(Wps((1, 1)), ((StdCoeff(2), eq),), "family_A")), "strict")
    assert not report.passed and ("entry-shape", False, "zero divisor equation") in report.leaf_reports[0].checks


def test_elliptic_dim_detail_is_bounded():
    report = verify_certificate(EllipticLeaf(2**20000), "strict")
    assert report.passed and report.leaf_reports[0].checks == [("elliptic-dim", True, "<20001-bit integer>")]


def test_tamper_suite_is_large_enough():
    assert len(TAMPER_CASES) >= 20


def test_tamper_originals_all_pass():
    for obj in (A_OBJ, B_OBJ, D_OBJ, E_OBJ, F_OBJ):
        assert _verify_obj(obj, "strict").passed
    assert _verify_obj(C_OBJ, "strict").passed


def test_tamper_h_monomial_removed_names_the_pattern_step():
    # without the pure power x_{n-1}^2, H no longer involves x_{n-1} and is
    # tangent to the coordinate hyperplanes along the x_{n-1}-axis
    obj = _obj(WpsLeaf(build_index_prime(15)))
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


def test_search_dim1_finds_the_catalogue_points():
    # the four solutions of sum (1 - 1/b) = 2 on P^1, placed at the catalogue points 0, 1, oo, 2
    for m, bs in {2: (2, 2, 2, 2), 3: (3, 3, 3), 4: (2, 4, 4), 6: (2, 3, 6)}.items():
        leaf = search_plane_pair(1, m)
        assert leaf == cyindex.certify._instantiate_plane(1, [(b, 1) for b in bs])
        assert leaf.klt_strategy == "hyperplane_arrangement" and is_klt_leaf(leaf).passed


def test_search_2_10_finds_the_conic_arrangement():
    leaf = search_plane_pair(2, 10, 4)
    assert leaf.klt_strategy == "plane_arrangement"
    assert log_degree(leaf) == 0 and pair_index(leaf) == 10 and is_klt_leaf(leaf).passed
    assert _multiset(leaf) == [(2, 1), (5, 2), (10, 1)]
    # the oracle confirms this is the unique minimal-count solution
    assert oracle_multisets(2, 10, 3) == [[(2, 1), (5, 2), (10, 1)]]


def test_search_2_18_finds_four_lines():
    leaf = search_plane_pair(2, 18, 4)
    assert leaf.klt_strategy == "plane_arrangement"
    assert log_degree(leaf) == 0 and pair_index(leaf) == 18 and is_klt_leaf(leaf).passed
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
    over-capacity multisets dropped by counting their curves of each degree."""
    from itertools import combinations_with_replacement

    target = Fraction(2) if dim == 1 else Fraction(3)
    degrees = (1,) if dim == 1 else (1, 2)
    candidates = sorted((b, d) for b in range(2, index + 1) if index % b == 0 for d in degrees)
    for count in range(1, max_components + 1):
        for combo in combinations_with_replacement(candidates, count):
            if sum(Fraction(b - 1, b) * d for b, d in combo) != target:
                continue
            if lcm(*[b for b, _ in combo]) != index or not _fits_catalogue(dim, combo):
                continue
            leaf = cyindex.certify._instantiate_plane(dim, combo)
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
    monkeypatch.setattr(cyindex.certify, "is_klt_leaf", lambda leaf: KltReport(False, leaf.klt_strategy, ()))
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


def test_search_component_count_stops_at_catalogue_capacity():
    # no multiset holds more parts than the catalogue has curves, so any
    # max_components from the catalogue's size on answers alike
    for dim, capacity in ((1, 4), (2, 7)):
        assert max(len(c) for combos in cyindex.certify._PLANE_MULTISETS[dim].values() for c in combos) <= capacity
    for dim, m in ((1, 6), (2, 42), (2, 60)):
        want = _dumps_or_none(search_plane_pair(dim, m, 7))
        assert _dumps_or_none(search_plane_pair(dim, m, 10**9)) == want, (dim, m)
    assert search_plane_pair(2, 60, 10**9) is None


def test_instantiate_plane_raises_past_the_catalogue():
    # five P^1 points when the catalogue holds four: no truncated leaf
    with pytest.raises(StopIteration):
        cyindex.certify._instantiate_plane(1, [(2, 1)] * 5)
    with pytest.raises(StopIteration):
        cyindex.certify._instantiate_plane(2, [(2, 2)] * 2)


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
    for dim, size in ((1, 4), (2, 33)):
        table = cyindex.certify._PLANE_MULTISETS[dim]
        found = {}
        for count in range(1, 2 * (dim + 1) + 3):
            found[count] = list(_unit_fraction_multisets(count, Fraction(count - dim - 1)))
        assert not any(found[c] for c in found if c > 2 * (dim + 1)), dim
        assert set(table) == {lcm(*bs) for sols in found.values() for bs in sols}, dim
        combos = [c for combos in table.values() for c in combos]
        assert len(combos) == len(set(combos)) == size, dim
        for m, combos in table.items():
            assert combos == sorted(combos, key=lambda c: (len(c), c)), (dim, m)
            for combo in combos:
                assert sum(Fraction(b - 1, b) * d for b, d in combo) == dim + 1, (dim, combo)
                assert lcm(*[b for b, _ in combo]) == m and _fits_catalogue(dim, combo), (dim, combo)
    assert len(found[4]) == 14 and (2, 3, 7, 42) in found[4]  # the Egyptian fractions of 1


def test_search_p2_hits_below_400_equal_the_guard():
    # every index the table holds is a hit, and no other index below 400 is
    hits = {m for m in range(1, 400) if search_plane_pair(2, m, 7) is not None}
    assert hits == set(cyindex.certify._PLANE_MULTISETS[2])


# -- serialization -----------------------------------------------------------


def test_serialization_roundtrip():
    for cert in (realize(4, 16), realize(5, 15), realize(3, 14), base_leaf(2, 18),
                 WpsLeaf(search_plane_pair(2, 10))):
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
    assert json.loads(text) == _reference_to_obj(cert)
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
    # the version is the exact integer 1, at the top and inside products
    for v in ("true", "1.0"):
        with pytest.raises(CertificateParseError, match=r"^\$\.v: unsupported schema version"):
            certificate_loads('{"v": %s, "node": "elliptic_leaf", "dim": 1}' % v)
        with pytest.raises(CertificateParseError, match=r"^\$\.factors\[1\]\.v: unsupported schema version"):
            certificate_loads('{"v": 1, "node": "product", "factors": [%s, {"v": %s, "node": "elliptic_leaf", "dim": 1}]}'
                              % ('{"v": 1, "node": "elliptic_leaf", "dim": 1}', v))
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


def _with_field(obj, key, value):
    """A copy of obj with its field key set to value."""
    obj = copy.deepcopy(obj)
    obj[key] = value
    return obj


@pytest.mark.parametrize("obj,location,message", [
    pytest.param(_with_field(B_OBJ, "weights", [2, True, 1, 1, 1]), "$.weights[1]", "expected an integer, got True",
                 id="bool"),
    pytest.param(_with_field(B_OBJ, "weights", [2, 2, "1", 1, 1]), "$.weights[2]", "expected an integer, got '1'",
                 id="string"),
    pytest.param(_with_field(B_OBJ, "weights", [2, 2, 1, 1.0, 1]), "$.weights[3]", "expected an integer, got 1.0",
                 id="float"),
    pytest.param(_with_field(B_OBJ, "weights", [2, 2, 1, 1, 0]), "$.weights", "weights must be positive", id="zero"),
    pytest.param(_with_field(B_OBJ, "weights", [2, 2, 1, 1, -1]), "$.weights", "weights must be positive",
                 id="negative"),
    pytest.param(_with_field(B_OBJ, "weights", [4]), "$.weights", "weights must be a list of at least 2 integers",
                 id="one"),
    # the other lists the walk reads besides the weights and a monomial's
    pytest.param(_with_field(B_OBJ, "entries", {}), "$.entries", "entries must be a list", id="entries-not-a-list"),
    pytest.param(_with_field(B_OBJ, "entries", [{"b": 2, "eq": []}]), "$.entries[0].eq",
                 "eq must be a nonempty monomial list", id="eq-empty"),
    pytest.param(_with_field(C_OBJ, "factors", [1, C_OBJ["factors"][1]]), "$.factors[0]", "expected an object",
                 id="factor-not-an-object"),
    pytest.param(_with_field(C_OBJ, "factors", {}), "$.factors", "factors must be a list", id="factors-not-a-list"),
])
def test_malformed_weights_are_located(obj, location, message):
    with pytest.raises(CertificateParseError) as info:
        certificate_from_obj(obj)
    assert (info.value.location, str(info.value)) == (location, f"{location}: {message}")


def test_int_subclass_coefficients_load_as_their_values():
    # an object handed to certificate_from_obj may hold int subclasses; they
    # give the same certificate as exact ints
    class Int(int):
        pass

    obj = _with_h_edits((2, "c", [Int(1), Int(1)]))
    assert certificate_from_obj(obj) == certificate_from_obj(B_OBJ)


def _reference_entry_fields(ent, loc: str) -> tuple[int, list]:
    """b and the monomial list of an entry object, or the parse error of
    its first fault."""
    codec = cyindex.codec
    b = codec._need_int(codec._need(ent, "b", loc), f"{loc}.b", minimum=2)
    eq_obj = codec._need(ent, "eq", loc)
    if not isinstance(eq_obj, list) or not eq_obj:
        raise CertificateParseError("eq must be a nonempty monomial list", f"{loc}.eq")
    return b, eq_obj


def _reference_monomial_fields(mono, loc: str) -> tuple[int, int, list]:
    """Numerator, denominator and exponent list of a monomial object, or the
    parse error of its first fault."""
    codec = cyindex.codec
    c = codec._need(mono, "c", loc)
    if not isinstance(c, list) or len(c) != 2:
        raise CertificateParseError("c must be [numerator, denominator]", f"{loc}.c")
    num = codec._need_int(c[0], f"{loc}.c[0]")
    den = codec._need_int(c[1], f"{loc}.c[1]")
    if den == 0:
        raise CertificateParseError("zero denominator", f"{loc}.c")
    if num == 0:
        raise CertificateParseError("zero coefficient monomial", f"{loc}.c")
    e = codec._need(mono, "e", loc)
    if not isinstance(e, list):
        raise CertificateParseError("e must be a list", f"{loc}.e")
    return num, den, e


def _reference_logleaf_from_obj(obj: dict, loc: str = "$") -> LogLeaf:
    """The v1 leaf reader written plainly, with a new Fraction per monomial
    and a seen set and a StdCoeff per entry: the reference of the reader's
    results, error locations and messages."""
    codec = cyindex.codec
    weights = codec._need(obj, "weights", loc)
    if not isinstance(weights, list) or len(weights) < 2:
        raise CertificateParseError("weights must be a list of at least 2 integers", f"{loc}.weights")
    if not {int}.issuperset(map(type, weights)):
        weights = [codec._need_int(w, f"{loc}.weights[{i}]") for i, w in enumerate(weights)]
    if min(weights) < 1:
        raise CertificateParseError("weights must be positive", f"{loc}.weights")
    strategy = codec._need(obj, "strategy", loc)
    if strategy not in KLT_STRATEGIES:
        raise CertificateParseError(f"unknown strategy {strategy!r}", f"{loc}.strategy")
    entries_obj = codec._need(obj, "entries", loc)
    if not isinstance(entries_obj, list):
        raise CertificateParseError("entries must be a list", f"{loc}.entries")
    nv = len(weights)
    variables = tuple(range(nv))
    entries = []
    for i, ent in enumerate(entries_obj):
        if not (type(ent) is dict and type(b := ent.get("b")) is int and b >= 2
                and type(eq_obj := ent.get("eq")) is list and eq_obj):
            b, eq_obj = _reference_entry_fields(ent, f"{loc}.entries[{i}]")
        terms = []
        bad = None
        for j, mono in enumerate(eq_obj):
            if not (type(mono) is dict and type(c := mono.get("c")) is list and len(c) == 2
                    and type(num := c[0]) is int and type(den := c[1]) is int and num and den
                    and type(e := mono.get("e")) is list):
                num, den, e = _reference_monomial_fields(mono, f"{loc}.entries[{i}].eq[{j}]")
            pairs = exponent_pairs(e, variables) if len(e) == nv else None
            if pairs is None and bad is None:
                bad = j
            terms.append((Fraction(num, den), pairs))
        if bad is not None:
            eloc = f"{loc}.entries[{i}]"
            e, mloc = eq_obj[bad]["e"], f"{eloc}.eq[{bad}].e"
            for k, x in enumerate(e):
                codec._need_int(x, f"{mloc}[{k}]", minimum=0)
            if len(e) != nv:
                raise CertificateParseError(f"exponent vector of length {len(e)}, expected {nv}", mloc)
            raise CertificateParseError(f"exponents must be nonnegative integers, got {tuple(e)}", f"{eloc}.eq")
        seen = set()
        for _, pairs in terms:
            if pairs in seen:
                raise CertificateParseError(f"repeated exponent vector {tuple(dense_exponents(nv, pairs))}",
                                            f"{loc}.entries[{i}].eq")
            seen.add(pairs)
        eq = SparsePoly._canonical(nv, cyindex.wpspairs._sorted(terms))
        entries.append((StdCoeff(b), eq))
    try:
        return LogLeaf(Wps(tuple(weights)), tuple(entries), strategy)
    except ValueError as err:
        raise CertificateParseError(str(err), loc) from err


class _Int(int):
    """An int subclass: only an object handed to the reader, never JSON text, holds one."""


@st.composite
def _mutated_leaf_objs(draw):
    """The v1 object of a generated leaf, most of them loadable (one weight
    per variable), with at most one field changed: an
    exponent made a bool, a float, negative or an int subclass, a vector
    made shorter or longer, a monomial repeated, a coefficient made [1, 1],
    [2, 2], [-3, 6] or int subclasses, b or a weight made an int subclass,
    or b made true."""
    nvars = draw(st.integers(2, 12))
    entries = [(StdCoeff(draw(st.integers(2, 30))), draw(_equations(nvars))) for _ in range(draw(st.integers(0, 4)))]
    leaf = LogLeaf(Wps(tuple(draw(st.lists(st.integers(1, 9), min_size=nvars, max_size=nvars)))), tuple(entries),
                   draw(st.sampled_from(KLT_STRATEGIES)))
    obj = json.loads(certificate_dumps(WpsLeaf(leaf) if draw(st.integers(0, 3)) else draw(_wps_leaves())))
    kind = draw(st.sampled_from(["none", "exp-true", "exp-false", "exp-float", "exp-negative", "exp-int",
                                 "exp-short", "exp-long", "repeat", "c-1-1", "c-2-2", "c-minus-3-6",
                                 "c-int", "b-int", "b-true", "weight-int"]))
    if kind == "weight-int":
        k = draw(st.integers(0, len(obj["weights"]) - 1))
        obj["weights"][k] = _Int(obj["weights"][k])
    if kind in ("none", "weight-int") or not obj["entries"]:
        return obj
    ent = draw(st.sampled_from(obj["entries"]))
    if kind in ("b-int", "b-true"):
        ent["b"] = _Int(ent["b"]) if kind == "b-int" else True
        return obj
    mono = draw(st.sampled_from(ent["eq"]))
    e = mono["e"]
    k = draw(st.integers(0, len(e) - 1))
    if kind == "repeat":
        c = draw(st.sampled_from([mono["c"], [1, 1], [-5, 2]]))
        ent["eq"].insert(draw(st.integers(0, len(ent["eq"]))), {"c": list(c), "e": list(e)})
    elif kind == "exp-short":
        del e[k]
    elif kind == "exp-long":
        e.insert(k, draw(st.integers(0, 2)))
    elif kind.startswith("exp-"):
        e[k] = {"exp-true": True, "exp-false": False, "exp-float": float(e[k]),
                "exp-negative": -draw(st.integers(1, 3)), "exp-int": _Int(e[k])}[kind]
    else:
        mono["c"] = {"c-1-1": [1, 1], "c-2-2": [2, 2], "c-minus-3-6": [-3, 6],
                     "c-int": [_Int(x) for x in mono["c"]]}[kind]
    return obj


def _read(reader, obj):
    """The leaf reader returns, or the location and message of its parse error."""
    try:
        return reader(copy.deepcopy(obj))
    except CertificateParseError as err:
        return err.location, str(err)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_mutated_leaf_objs())
def test_the_leaf_reader_matches_the_reference_reader(obj):
    assert _read(cyindex.codec.logleaf_from_obj, obj) == _read(_reference_logleaf_from_obj, obj)


def test_the_leaf_reader_matches_the_reference_on_realized_and_tampered_leaves():
    objs = [_obj(WpsLeaf(leaf)) for leaf in (build_index_prime(401), build_prime_power(7, 3), base_leaf(2, 14).leaf,
                                              search_plane_pair(2, 10))]
    objs += [obj for obj in (case.values[0]() for case in TAMPER_CASES) if obj.get("node") == "wps_leaf"]
    for obj in objs:
        assert _read(cyindex.codec.logleaf_from_obj, obj) == _read(_reference_logleaf_from_obj, obj)


def test_the_removed_wrappers_are_not_exported():
    assert "certificate_to_obj" not in cyindex.__all__ and "Factorization" not in cyindex.__all__
    assert not any(hasattr(module, "certificate_to_obj") for module in (cyindex.certify, cyindex.codec))
    assert not hasattr(cyindex.numtheory, "Factorization")


def test_schema_shape_matches_contract():
    obj = _obj(realize(4, 16))
    assert obj["v"] == 1 and obj["node"] == "wps_leaf"
    assert obj["weights"] == [1, 1, 1, 1]
    assert obj["strategy"] == "family_C"
    assert {"b", "eq"} <= set(obj["entries"][0].keys())
    assert {"c", "e"} == set(obj["entries"][0]["eq"][0].keys())
    obj = json.loads(certificate_dumps(realize(3, 14)))
    assert obj["node"] == "wps_leaf" and obj["weights"] == [3, 1, 1] and obj["strategy"] == "family_C"
    assert set(obj) == {"v", "node", "weights", "strategy", "entries"}


# -- the reader memo -----------------------------------------------------------
# each test clears the memo first, so the order tests run in does not matter

_read_leaf_text = cyindex.codec._read_leaf_text
_HEAD, _TAIL = cyindex.codec._PRODUCT_HEAD, cyindex.codec._PRODUCT_TAIL
_EXPLICIT_2 = cyindex.certify._EXPLICIT[2]


def _outcome(text):
    """What certificate_loads makes of a text: the certificate, or the
    exception's type, message and location."""
    try:
        return certificate_loads(text)
    except Exception as err:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(err), str(err), getattr(err, "location", None)


def _general_outcome(text):
    """What certificate_loads makes of a text with the one fast-path entry closed."""
    with mock.patch.object(cyindex.codec, "_read_writer_text", lambda text: None):
        return _outcome(text)


def _product_text(*pieces):
    return _HEAD + ",".join(pieces) + _TAIL


def _b_leaf(b):
    """A small P^1 leaf whose text grows by one character per digit of b."""
    return cyindex.certify._chain_leaf((1, 1), [(0, b)], 2, [((0, 1),), ((1, 1),)], "family_A")


def test_the_reader_memo_reads_the_same_certificates_and_reports(monkeypatch):
    certs = [realize(n, m) for n in range(3, 41) for m in indices_with_phi_at_most(2 * n)]
    texts = [certificate_dumps(cert) for cert in certs]
    cold = []
    for text in texts:
        _read_leaf_text.cache_clear()
        cold.append(certificate_loads(text))
    hits = _read_leaf_text.cache_info().hits
    warm = [[certificate_loads(text) for _ in range(2)][-1] for text in texts]
    assert _read_leaf_text.cache_info().hits >= hits + sum(isinstance(cert, Product) for cert in certs)
    monkeypatch.setattr(cyindex.codec, "_read_writer_text", lambda text: None)
    general = [certificate_loads(text) for text in texts]
    assert cold == warm == general == certs
    reports = [[verify_certificate(cert).as_obj() for cert in side] for side in (cold, warm, general)]
    assert reports[0] == reports[1] == reports[2]


_EDIT_CERTS = [realize(n, m) for n, m in ((3, 6), (4, 10), (10, 30), (12, 35), (20, 66), (30, 210), (40, 120))]
assert all(isinstance(cert, Product) and len(cert.factors) >= 2 for cert in _EDIT_CERTS)
_EDIT_CERTS += [_EXPLICIT_2, WpsLeaf(build_index_prime(13)), WpsLeaf(build_index_prime(97))]  # bare leaves


@st.composite
def _one_edit(draw):
    """A realized product text or a bare leaf text, and a copy with one
    edit: one character replaced, inserted or deleted, a false cut (the text
    between two pieces) inserted, two factors swapped, a space after a
    comma, or one factor, or the bare leaf, nested in a one-factor product."""
    cert = draw(st.sampled_from(_EDIT_CERTS))
    text = certificate_dumps(cert)
    pieces = [cyindex.codec._node_text(f) for f in cert.factors] if isinstance(cert, Product) else [text]
    edits = ["replace", "insert", "delete", "cut", "space", "nest"]
    edit = draw(st.sampled_from(edits + ["swap"] if isinstance(cert, Product) else edits))
    at = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from('0123456789{}[],:" ebnv'))
    if edit == "replace":
        return text, text[:at] + char + text[at + 1:]
    if edit == "insert":
        return text, text[:at] + char + text[at:]
    if edit == "cut":
        return text, text[:at] + draw(st.sampled_from(['},{"entries":[', '},{"dim":'])) + text[at:]
    if edit == "delete":
        return text, text[:at] + text[at + 1:]
    if edit == "space":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == ","]))
        return text, text[:at + 1] + " " + text[at + 1:]
    if edit == "swap":
        i, j = draw(st.lists(st.integers(0, len(pieces) - 1), min_size=2, max_size=2, unique=True))
        pieces[i], pieces[j] = pieces[j], pieces[i]
    else:
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = _product_text(pieces[i])
    return text, _product_text(*pieces) if isinstance(cert, Product) else pieces[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_one_edit())
def test_one_edit_reads_as_on_the_general_path(pair):
    text, edited = pair
    _read_leaf_text.cache_clear()
    assert certificate_loads(text) == _general_outcome(text)
    assert _outcome(edited) == _general_outcome(edited)


def test_the_reader_memo_holds_only_the_writers_text():
    text = cyindex.codec._node_text(_EXPLICIT_2)
    digits = sys.get_int_max_str_digits()
    _read_leaf_text.cache_clear()
    assert _read_leaf_text(text, digits) == _EXPLICIT_2
    reordered = json.dumps(dict(reversed(json.loads(text).items())), separators=(",", ":"))
    for other in (text.replace(",", ", "), text[:-1] + ',"x":1}', reordered, text.replace('"c":[1,1]', '"c":[2,2]')):
        assert other != text and certificate_from_obj(json.loads(other)) == _EXPLICIT_2
        assert _read_leaf_text(other, digits) is None
        assert certificate_loads(_product_text(other, '{"dim":1,"node":"elliptic_leaf","v":1}')) == Product(
            (_EXPLICIT_2, EllipticLeaf(1)))


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int-to-str digits")
def test_a_memo_hit_keeps_the_digit_limit():
    text = certificate_dumps(Product((WpsLeaf(_b_leaf(10**699 + 1)), EllipticLeaf(1))))
    assert len(text) < cyindex.codec._MEMO_MAX_CHARS
    _read_leaf_text.cache_clear()
    assert certificate_loads(text) == _general_outcome(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        want = _general_outcome(text)
        assert want[0] is CertificateParseError and "more than 640 digits" in want[1]
        assert _outcome(text) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_reader_reads_bytes_on_the_general_path():
    _read_leaf_text.cache_clear()
    text = certificate_dumps(realize(10, 30))
    want = certificate_loads(text)
    assert certificate_loads(text.encode()) == certificate_loads(bytearray(text.encode())) == want


def test_the_reader_memo_holds_at_most_128_leaf_texts():
    _read_leaf_text.cache_clear()
    for b in range(2, 302):  # 300 distinct small leaf texts
        certificate_loads(certificate_dumps(Product((WpsLeaf(_b_leaf(b)), EllipticLeaf(1)))))
    assert _read_leaf_text.cache_info().currsize <= 128


def test_the_reader_memo_holds_leaf_texts_of_at_most_4096_characters():
    gate = cyindex.codec._MEMO_MAX_CHARS
    base = len(cyindex.codec._leaf_text(_b_leaf(10))) - 2
    for size, held in ((gate, 1), (gate + 1, 0)):
        leaf = WpsLeaf(_b_leaf(10 ** (size - base - 1)))
        assert len(cyindex.codec._node_text(leaf)) == size
        for cert in (leaf, Product((leaf, EllipticLeaf(1)))):  # bare, and a factor
            _read_leaf_text.cache_clear()
            assert certificate_loads(certificate_dumps(cert)) == cert
            assert _read_leaf_text.cache_info().currsize == held


def test_the_reader_memo_never_holds_an_elliptic_factor():
    _read_leaf_text.cache_clear()
    certs = [realize(n, 2) for n in range(3, 41)]  # one leaf, 38 padding dimensions
    certs += [EllipticLeaf(1), EllipticLeaf(38)]  # bare
    assert [certificate_loads(certificate_dumps(cert)) for cert in certs] == certs
    assert _read_leaf_text.cache_info().currsize == 1


def _counted(monkeypatch, name):
    calls = []
    fn = getattr(cyindex.codec, name)
    monkeypatch.setattr(cyindex.codec, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_a_leading_oversize_leaf_is_read_unheld(monkeypatch):
    _read_leaf_text.cache_clear()
    cert = Product((WpsLeaf(build_index_prime(401)), _EXPLICIT_2, EllipticLeaf(3)))
    calls = _counted(monkeypatch, "_read_leaf_text")
    with mock.patch.object(cyindex.codec.json, "loads", _no_json_loads):
        assert certificate_loads(certificate_dumps(cert)) == cert
    assert [piece for piece, _ in calls] == [cyindex.codec._node_text(_EXPLICIT_2)]


def test_a_nested_product_sends_the_text_to_the_general_path_unread(monkeypatch):
    _read_leaf_text.cache_clear()
    pieces = [cyindex.codec._node_text(f) for f in (Product((_EXPLICIT_2,)), EllipticLeaf(2))]
    calls = _counted(monkeypatch, "_read_piece")
    assert certificate_loads(_product_text(*pieces)) == Product((Product((_EXPLICIT_2,)), EllipticLeaf(2)))
    assert calls == [] and _read_leaf_text.cache_info().currsize == 0


# -- the leaf scanner ----------------------------------------------------------
# each test clears the memo first, as above


def _no_json_loads(*args, **kwargs):
    raise AssertionError("json.loads ran")


def _vandermonde_leaf(nv, ts):
    """Linear forms with coefficients t^i, multi-digit and of both signs."""
    eqs = [SparsePoly.linear_form([(-t) ** i for i in range(nv)]) for t in ts]
    return LogLeaf(Wps((1,) * nv), tuple((StdCoeff(2 + i), eq) for i, eq in enumerate(eqs)), "hyperplane_arrangement")


_SCAN_LEAVES = [
    _EXPLICIT_2.leaf,
    base_leaf(2, 14).leaf,
    build_index_prime(13),
    build_index_prime(97),
    build_index_prime(401),
    build_prime_power(3, 4),
    build_sylvester(3),
    search_plane_pair(2, 10),
    _vandermonde_leaf(4, (3, 11, 25)),
    LogLeaf(Wps((2, 3)), ((StdCoeff(5), SparsePoly.from_pairs(
        2, [(Fraction(-3, 2), ((0, 3),)), (Fraction(7, 10**9), ((1, 2),))])),), "family_C"),
    LogLeaf(Wps((1, 1)), (), "family_A"),
]
assert any(len(cyindex.codec._leaf_text(leaf)) > 4096 for leaf in _SCAN_LEAVES)
assert any(sum(len(eq.terms) for _, eq in leaf.entries) > 64 for leaf in _SCAN_LEAVES)


@st.composite
def _one_leaf_edit(draw):
    """A bare leaf text and a copy with one edit: a character replaced,
    inserted or deleted; a leading zero, a '+' or a space before a number;
    a digit made the Unicode digit one; a coefficient [1,1] made [2,2]; two
    monomials of an equation swapped; a monomial duplicated; or a vector
    one entry shorter or longer."""
    leaf = draw(st.sampled_from(_SCAN_LEAVES))
    text = cyindex.codec._leaf_text(leaf)
    edit = draw(st.sampled_from(["replace", "insert", "delete", "zero", "plus", "space", "unicode", "c22",
                                 "swap", "duplicate", "shorter", "longer"]))
    numbers = [m.start() for m in re.finditer(r"(?<![0-9])-?[0-9]", text)]
    if edit in ("replace", "insert", "delete"):
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from('0123456789{}[],:" -+.ebnv\u0661'))
        return text, text[:at] + {"replace": char, "insert": char + text[at], "delete": ""}[edit] + text[at + 1:]
    if edit in ("zero", "plus", "space"):
        at = draw(st.sampled_from(numbers))
        return text, text[:at] + {"zero": "0", "plus": "+", "space": " "}[edit] + text[at:]
    if edit == "unicode":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == "1"]))
        return text, text[:at] + "\u0661" + text[at + 1:]
    if edit == "c22":
        ones = [m.start() for m in re.finditer(re.escape('"c":[1,1]'), text)] or [0]
        at = draw(st.sampled_from(ones))
        return text, text[:at] + text[at:].replace('"c":[1,1]', '"c":[2,2]', 1)
    obj = json.loads(text)
    assume(obj["entries"])
    eq = draw(st.sampled_from(obj["entries"]))["eq"]
    i = draw(st.integers(0, len(eq) - 1))
    if edit == "swap":
        assume(len(eq) >= 2)
        j = draw(st.integers(0, len(eq) - 1).filter(lambda j: j != i))
        eq[i], eq[j] = eq[j], eq[i]
    elif edit == "duplicate":
        eq.insert(draw(st.integers(0, len(eq))), copy.deepcopy(eq[i]))
    else:
        e = eq[i]["e"]
        k = draw(st.integers(0, len(e) - (edit == "shorter")))
        if edit == "shorter":
            del e[k]
        else:
            e.insert(k, draw(st.sampled_from([0, 0, 1, 3])))
    return text, json.dumps(obj, sort_keys=True, separators=(",", ":"))  # the writer's form


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_one_leaf_edit())
def test_one_leaf_edit_reads_as_on_the_general_path(pair):
    text, edited = pair
    _read_leaf_text.cache_clear()
    assume(edited != text)
    assert certificate_loads(text) == _general_outcome(text)
    assert _outcome(edited) == _general_outcome(edited)


def test_the_scanner_reads_every_sample_leaf_without_json_loads():
    _read_leaf_text.cache_clear()
    with mock.patch.object(cyindex.codec.json, "loads", _no_json_loads):
        for leaf in _SCAN_LEAVES:
            assert certificate_loads(cyindex.codec._leaf_text(leaf)) == WpsLeaf(leaf)


def test_builder_leaves_and_oversize_pieces_are_read_without_json_loads():
    _read_leaf_text.cache_clear()
    ms = [5, 7, 9, 13, 15, 41, 97, 101, 399, 401, 1001, 1901, 1997, 1999, 2001]
    leaves = [WpsLeaf(build_index_prime(m)) for m in ms]
    cert = realize(400, 3 * 401)  # the index-3 leaf, build_index_prime(401) and padding
    assert len(cyindex.codec._node_text(cert.factors[1])) > cyindex.codec._MEMO_MAX_CHARS
    texts = [certificate_dumps(c) for c in leaves + [cert]]
    with mock.patch.object(cyindex.codec.json, "loads", _no_json_loads):
        assert [certificate_loads(text) for text in texts] == leaves + [cert]


def test_a_file_that_realize_writes_takes_the_fast_path(tmp_path, capsys):
    _read_leaf_text.cache_clear()
    path = tmp_path / "cert.json"
    assert cyindex.cli.main(["realize", "--dim", "30", "--index", "60", "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    assert text == certificate_dumps(realize(30, 60)) + "\n"
    with mock.patch.object(cyindex.codec.json, "loads", _no_json_loads):
        assert certificate_loads(text) == realize(30, 60)
        assert certificate_loads(certificate_dumps(_EXPLICIT_2) + "\n") == _EXPLICIT_2


@pytest.mark.parametrize("suffix", ["\n", "\n\n", " ", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"])
def test_only_whitespace_json_allows_follows_a_text(suffix):
    _read_leaf_text.cache_clear()
    for cert in (_EXPLICIT_2, realize(10, 30), EllipticLeaf(2)):
        text = certificate_dumps(cert) + suffix
        want = _general_outcome(text)
        assert _outcome(text) == want
        assert (want == cert) == (suffix.strip(" \t\r\n") == "")


@pytest.mark.parametrize("dim", ["0", "-1", "01", "+1", "1.0", "true", "\u0661", "2 "])
def test_an_elliptic_piece_reads_as_on_the_general_path(dim):
    _read_leaf_text.cache_clear()
    piece = '{"dim":%s,"node":"elliptic_leaf","v":1}' % dim
    for text in (piece, _product_text(cyindex.codec._node_text(_EXPLICIT_2), piece)):
        assert _outcome(text) == _general_outcome(text)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on int-to-str digits")
def test_the_scanner_keeps_the_digit_limit():
    wide = cyindex.certify._chain_leaf((1,) * 40, [(0, 10**699 + 1)], 2, [((i, 1),) for i in range(40)], "family_A")
    texts = [certificate_dumps(WpsLeaf(_b_leaf(10**699 + 1))),
             certificate_dumps(Product((WpsLeaf(wide), EllipticLeaf(1))))]
    assert len(cyindex.codec._leaf_text(wide)) > cyindex.codec._MEMO_MAX_CHARS
    limit = sys.get_int_max_str_digits()
    for text in texts:
        _read_leaf_text.cache_clear()
        assert certificate_loads(text) == _general_outcome(text)
        sys.set_int_max_str_digits(640)
        try:
            want = _general_outcome(text)
            assert want[0] is CertificateParseError and "more than 640 digits" in want[1]
            assert _outcome(text) == want
        finally:
            sys.set_int_max_str_digits(limit)
