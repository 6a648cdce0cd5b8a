import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyindex.certify import (
    base_leaf,
    build_index_prime,
    build_prime_power,
    certificate_index,
    search_plane_pair,
)
from cyindex.selftest import _family_leaves
from cyindex.verify import WpsLeaf
from cyindex.wpspairs import (
    LogLeaf,
    NotQuasiHomogeneous,
    SparsePoly,
    StdCoeff,
    Wps,
    canonical_degree,
    dense_exponents,
    is_well_formed,
    log_degree,
    pair_index,
    weighted_degree,
)


def P(*weights) -> Wps:
    return Wps(tuple(weights))


def scaled(f: SparsePoly, c) -> SparsePoly:
    """c * f for a nonzero c, built by from_pairs."""
    return SparsePoly.from_pairs(f.nvars, [(coeff * c, pairs) for coeff, pairs in f.terms])


def subs_zero(f: SparsePoly, kill) -> SparsePoly:
    """f with the named variables set to 0: the monomials that avoid them."""
    kill = set(kill)
    return SparsePoly.from_pairs(f.nvars, [t for t in f.terms if kill.isdisjoint([v for v, _ in t[1]])])


def restrict_to(f: SparsePoly, keep) -> SparsePoly:
    """f projected onto the listed variables, in that order; a monomial in
    any other variable raises ValueError."""
    keep = list(keep)
    positions: dict[int, list[int]] = {}  # old variable -> its places in keep
    for i, v in enumerate(keep):
        positions.setdefault(v, []).append(i)
    mons = []
    for c, pairs in f.terms:
        if any(v not in positions for v, _ in pairs):
            raise ValueError("restrict_to: monomial uses a dropped variable")
        mons.append((c, sorted((i, x) for v, x in pairs for i in positions[v])))
    return SparsePoly.from_pairs(len(keep), mons)


# -- types -------------------------------------------------------------------


def test_wps_validation():
    assert P(2, 1, 1).dim == 2
    with pytest.raises(ValueError):
        Wps((3,))
    with pytest.raises(ValueError):
        Wps((2, 0))


@pytest.mark.parametrize("make", [
    lambda: Wps((True, 1)),
    lambda: Wps((1, 1, False)),
    lambda: SparsePoly(True, ()),
    lambda: SparsePoly(True, ((1, (1,)),)),
], ids=["wps-true", "wps-false", "nvars-true", "nvars-true-monomial"])
def test_bool_is_no_weight_and_no_nvars(make):
    # exponents already reject bool; Wps((True, 1)) used to print as P(True,1)
    with pytest.raises(ValueError):
        make()


def test_std_coeff():
    with pytest.raises(ValueError):
        StdCoeff(1)  # coefficient 0 is not a divisor entry
    with pytest.raises(ValueError):
        StdCoeff(0)


def test_sparse_poly_invariants():
    with pytest.raises(ValueError):
        SparsePoly(2, ((Fraction(0), (1, 0)),))  # zero coefficient
    with pytest.raises(ValueError):
        SparsePoly(2, ((Fraction(1), (1, 0)), (Fraction(2), (1, 0))))  # repeat
    with pytest.raises(ValueError):
        SparsePoly(2, ((Fraction(1), (1, 0, 0)),))  # arity
    merged = SparsePoly.from_terms(2, [(1, (1, 0)), (2, (1, 0)), (-3, (1, 0))])
    assert merged.is_zero()


# -- exponent validation and the stored pairs ---------------------------------


def _exponents_rejected_before(exps) -> bool:
    """The constructor's exponent test before it kept supports: a generator
    over the vector, kept as the reference (it let a bool through)."""
    return any(not isinstance(e, int) or e < 0 for e in exps)


def _support_scan(exps) -> tuple[int, ...]:
    """The per-consumer support scan that stored supports replaced, kept as the reference."""
    return tuple(j for j, e in enumerate(exps) if e > 0)


def _degree_reference(eq: SparsePoly, space: Wps) -> set[int]:
    """The monomial degrees as weighted_degree summed them before it read supports."""
    return {sum(map(mul, space.weights, exps)) for _, exps in eq.monomials}


def _linear_coefficients_by_sum(f: SparsePoly):
    """linear_coefficients as it read total degrees before it read supports."""
    coeffs = [Fraction(0)] * f.nvars
    for c, exps in f.monomials:
        if sum(exps) != 1:
            return None
        coeffs[exps.index(1)] = c
    return coeffs


def _assert_supports(f: SparsePoly):
    """f's pairs are the support scans of its dense vectors with their exponents,
    in the order the dense constructor gives, and f equals the dense build."""
    assert [p for _, p in f.terms] == [tuple((j, e[j]) for j in _support_scan(e)) for _, e in f.monomials], f
    assert f.monomials == _reference_dense_poly(f.nvars, f.monomials), f
    dense = SparsePoly(f.nvars, f.monomials)
    assert (dense.terms, hash(dense)) == (f.terms, hash(f)), f
    assert f.linear_coefficients() == _linear_coefficients_by_sum(f), f


@st.composite
def _sparse_polys(draw, nvars=None):
    """Polynomials whose vectors are often unit or all-zero vectors."""
    nvars = nvars or draw(st.integers(1, 5))
    unit = st.integers(0, nvars - 1).map(lambda j: tuple(int(i == j) for i in range(nvars)))
    dense = st.tuples(*[st.integers(0, 3)] * nvars)
    vectors = st.one_of(unit, st.just((0,) * nvars), dense)
    exps = draw(st.lists(vectors, max_size=5, unique=True))
    return SparsePoly(nvars, tuple((draw(_coeffs), e) for e in exps))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_sparse_polys(), st.data())
def test_supports_match_the_scan_after_every_derivation(f, data):
    nv = f.nvars
    _assert_supports(f)
    _assert_supports(SparsePoly.from_terms(nv, list(f.monomials) + list(scaled(f, -1).monomials[:1])))
    _assert_supports(SparsePoly.linear_form(data.draw(st.lists(_coeffs | st.just(0), min_size=1, max_size=5))))
    _assert_supports(SparsePoly.variable(nv, data.draw(st.integers(0, nv - 1)), 3))
    if not f.is_zero():
        _assert_supports(scaled(f, Fraction(-2, 3)))
    kill = data.draw(st.sets(st.integers(0, nv - 1)))
    killed = subs_zero(f, kill)
    _assert_supports(killed)
    assert killed.monomials == tuple(t for t in f.monomials if all(t[1][j] == 0 for j in kill))
    keep = [j for j in range(nv) if j not in kill]
    if keep:
        restricted = restrict_to(killed, keep)
        _assert_supports(restricted)
        assert [e for _, e in restricted.monomials] == [tuple(e[j] for j in keep) for _, e in killed.monomials]
    if kill and keep and any(any(e[j] for j in kill) for _, e in f.monomials):
        with pytest.raises(ValueError, match="dropped variable"):
            restrict_to(f, keep)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from((1, 1, 2, 3)), min_size=n, max_size=n), _sparse_polys(n))))
def test_weighted_degree_matches_the_reference(case):
    weights, f = case
    space = Wps(tuple(weights))
    if f.is_zero():
        with pytest.raises(ValueError, match="zero polynomial"):
            weighted_degree(f, space)
        return
    want = _degree_reference(f, space)
    if len(want) == 1:
        assert weighted_degree(f, space) == want.pop()
    else:
        with pytest.raises(NotQuasiHomogeneous):
            weighted_degree(f, space)


def test_weighted_degree_of_the_family_leaves_matches_the_reference():
    for leaf in (build_index_prime(401), build_index_prime(403), build_prime_power(5, 4)):
        for _, eq in leaf.entries:
            assert {weighted_degree(eq, leaf.space)} == _degree_reference(eq, leaf.space)
            _assert_supports(eq)


_exponent_values = st.one_of(
    st.integers(-3, 3), st.booleans(), st.just(0.0), st.floats(-2, 2, allow_nan=False),
    st.just("1"), st.none(), st.just(Fraction(1)), st.just([1]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.lists(_exponent_values, min_size=3, max_size=3), min_size=1, max_size=3, unique_by=repr))
@example([[True, 0, 0]])
@example([[False, 1, 0]])
@example([[0, 0.0, 1]])
@example([[0, 0, 0], [0, 2, -1]])
def test_constructor_rejects_the_old_set_plus_bool(vectors):
    want = any(_exponents_rejected_before(e) or any(type(x) is bool for x in e) for e in vectors)
    # vectors of exact ints are distinct here, so a rejection can only be an exponent's
    terms = tuple((k + 1, tuple(e)) for k, e in enumerate(vectors))
    try:
        SparsePoly(3, terms)
    except ValueError as err:
        assert want and "exponents must be nonnegative integers" in str(err), (vectors, err)
    else:
        assert not want, vectors


def test_constructor_names_the_first_bad_vector():
    with pytest.raises(ValueError, match=r"exponents must be nonnegative integers, got \(0, True\)"):
        SparsePoly(2, ((1, (1, 0)), (1, (0, True))))
    with pytest.raises(ValueError, match=r"got \(-1, 2\)"):
        SparsePoly(2, ((1, (-1, 2)), (0, (1, 0))))


def test_equality_hash_and_repr_read_the_pairs():
    f = build_index_prime(13).entries[-1][1]
    g = SparsePoly(f.nvars, tuple(reversed(f.monomials)))
    assert f == g and hash(f) == hash(g) == hash((f.nvars, f.terms))
    assert repr(f) == f"SparsePoly.from_pairs({f.nvars!r}, {f.terms!r})" and eval(repr(f)) == f
    assert f != SparsePoly(f.nvars, f.monomials[1:])
    with pytest.raises(FrozenInstanceError):
        f.terms = ()


# -- the pairs against the dense constructor they replaced --------------------


def _reference_dense_poly(nvars, monomials):
    """SparsePoly's constructor from when it stored dense exponent vectors,
    kept as the reference: its canonical monomials, or the error it raised."""
    if type(nvars) is not int or nvars < 1:
        raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
    seen = set()
    canon = []
    for coeff, exps in monomials:
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ValueError(f"exponent vector {exps} has length != {nvars}")
        if not frozenset({int}).issuperset(map(type, exps)) or min(exps) < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {exps}")
        if coeff == 0:
            raise ValueError("zero coefficient monomial not allowed")
        if exps in seen:
            raise ValueError(f"repeated exponent vector {exps}")
        seen.add(exps)
        canon.append((coeff, exps))
    canon.sort(key=itemgetter(1), reverse=True)
    return tuple(canon)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as err:  # noqa: BLE001 -- the exception type and message are compared
        return type(err), str(err)


@st.composite
def _dense_inputs(draw):
    """nvars (sometimes a bool, 0 or negative) and dense monomials whose
    coefficients and exponents are sometimes zero, a bool, negative or a
    float, whose vectors sometimes have the wrong length, and which
    sometimes repeat a vector."""
    odd = st.integers(0, 5).map(lambda k: k == 0)  # a rare fault
    nvars = draw(st.sampled_from((True, False, 0, -1))) if draw(odd) else draw(st.integers(1, 4))
    n = nvars if type(nvars) is int and nvars > 0 else 2
    value = st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from((0.0, 1.0, 2.5)))
    mons = []
    for _ in range(draw(st.integers(0, 5))):
        coeff = draw(st.sampled_from((0, True, 0.5)) if draw(odd) else _coeffs)
        if draw(odd):
            exps = draw(st.lists(value, min_size=max(n - 1, 1), max_size=n + 1))
        else:
            exps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if mons and draw(odd):
            exps = list(draw(st.sampled_from(mons))[1])
        mons.append((coeff, tuple(exps) if draw(st.booleans()) else exps))
    return nvars, mons


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_dense_inputs(), _dense_inputs())
@example((3, [(1, (0, 0, 2)), (2, (0, 0, 2))]), (3, []))
@example((2, [(1, (1, 0)), (1, (0, True))]), (2, [(1, (0, 1)), (1, (1, 0))]))
@example((2, [(0, (1, 0)), (1, (0, -1))]), (2, [(1, (0, 0.0))]))
def test_constructor_matches_the_dense_reference(first, second):
    polys = []
    for nvars, mons in (first, second):
        want = _outcome(_reference_dense_poly, nvars, mons)
        got = _outcome(SparsePoly, nvars, mons)
        if isinstance(got, SparsePoly):
            assert got.monomials == want, (nvars, mons)
            assert got == SparsePoly(nvars, list(reversed(mons))) and hash(got) == hash(SparsePoly(nvars, mons[::-1]))
            _assert_supports(got)
            polys.append((got, (nvars, want)))
        else:
            assert got == want, (nvars, mons)
    if len(polys) == 2:
        (f, f_ref), (g, g_ref) = polys
        assert (f == g) is (f_ref == g_ref)
        assert f != g or hash(f) == hash(g)


@st.composite
def _pair_terms(draw):
    """nvars and (coefficient, pairs) terms with distinct supports."""
    nvars = draw(st.integers(1, 6))
    supports = draw(st.lists(st.sets(st.integers(0, nvars - 1), max_size=3), max_size=5,
                             unique_by=lambda v: tuple(sorted(v))))
    return nvars, [(draw(_coeffs), tuple((v, draw(st.integers(1, 4))) for v in sorted(vs))) for vs in supports]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_pair_terms())
def test_pairs_build_the_polynomial_the_dense_vectors_build(case):
    nvars, terms = case
    f = SparsePoly.from_pairs(nvars, terms)
    dense = SparsePoly(nvars, [(c, dense_exponents(nvars, p)) for c, p in terms])
    assert f == dense and hash(f) == hash(dense) and f.terms == dense.terms
    _assert_supports(f)


@pytest.mark.parametrize("pairs", [((1, 1), (0, 1)), ((0, 1), (0, 2)), ((3, 1),), ((-1, 1),), ((0, 0),),
                                   ((0, -1),), ((0, True),), ((True, 1),), ((0, 1.0),)],
                         ids=["unsorted", "repeated-variable", "variable-too-large", "negative-variable",
                              "zero-exponent", "negative-exponent", "bool-exponent", "bool-variable", "float-exponent"])
def test_from_pairs_rejects_bad_pairs(pairs):
    with pytest.raises(ValueError, match="pairs need increasing int variables below 3"):
        SparsePoly.from_pairs(3, ((1, pairs),))


def test_from_pairs_checks_coefficients_and_repeats_like_the_dense_constructor():
    with pytest.raises(ValueError, match="zero coefficient monomial not allowed"):
        SparsePoly.from_pairs(3, ((0, ((0, 1),)),))
    with pytest.raises(ValueError, match=r"repeated exponent vector \(0, 0, 2\)"):
        SparsePoly.from_pairs(3, ((1, ((2, 2),)), (2, [(2, 2)])))
    with pytest.raises(ValueError, match="nvars must be a positive integer, got True"):
        SparsePoly.from_pairs(True, ())


class _Int(int):
    pass


_ODD_VALUES = st.one_of(st.integers(-2, 5), st.booleans(), st.none(), st.floats(allow_nan=False),
                        st.sampled_from([_Int(1), "1", 10**30, Fraction(1, 2), Fraction(0)]))


@pytest.mark.parametrize("nvars,j,coeff", [
    (3, 0, 1), (3, 2, Fraction(-2, 3)), (1, 0, 5), (3, 1, 1.5), (10**30, 10**29, -1),
    (3, True, 1), (3, False, 1), (3, -1, 1), (3, 3, 1), (3, 10**30, 1), (3, 1.0, 1), (3, "1", 1),
    (3, _Int(1), 1), (3, None, 1),
    (0, 0, 1), (True, 0, 1), (False, 0, 1), (-1, 0, 1), (2.0, 0, 1), (_Int(2), 0, 1),
    (3, 0, 0), (3, 0, Fraction(0)), (3, 0, 0.0), (3, 0, "x"), (3, 0, None),
    (0, True, 0), (3, 5, 0), (3, 5, "x"),
])
def test_variable_matches_from_pairs(nvars, j, coeff):
    got = _outcome(SparsePoly.variable, nvars, j, coeff)
    assert got == _outcome(SparsePoly.from_pairs, nvars, ((coeff, ((j, 1),)),))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ODD_VALUES, _ODD_VALUES, _ODD_VALUES)
def test_variable_matches_from_pairs_on_any_values(nvars, j, coeff):
    got = _outcome(SparsePoly.variable, nvars, j, coeff)
    assert got == _outcome(SparsePoly.from_pairs, nvars, ((coeff, ((j, 1),)),))
    assert _outcome(SparsePoly.variable, nvars, j) == _outcome(SparsePoly.from_pairs, nvars, ((1, ((j, 1),)),))


def test_builders_make_the_polynomials_the_dense_constructor_makes():
    leaves = [build_index_prime(m) for m in (5, 7, 13, 15, 401, 403)]
    leaves += [build_prime_power(m, e) for m, e in ((2, 2), (2, 12), (3, 2), (5, 4), (12, 12))]
    leaves += [search_plane_pair(1, 6), search_plane_pair(2, 10), base_leaf(2, 14).leaf]
    eqs = [eq for leaf in leaves for _, eq in leaf.entries]
    eqs += [SparsePoly.linear_form((0, 3, Fraction(-1, 2), 0)), SparsePoly.variable(5, 4, coeff=-2)]
    for eq in eqs:
        dense = SparsePoly(eq.nvars, eq.monomials)
        assert eq == dense and hash(eq) == hash(dense) and eq.terms == dense.terms, eq
        _assert_supports(eq)


# -- proportionality ---------------------------------------------------------


def _proportional_pairwise(f: SparsePoly, g: SparsePoly) -> bool:
    """The library's proportional_to before it compared projective keys: a
    common ratio over matching exponent vectors, kept as the reference."""
    if f.nvars != g.nvars or len(f.monomials) != len(g.monomials):
        return False
    if f.is_zero():
        return g.is_zero()
    mine = dict((e, c) for c, e in f.monomials)
    theirs = dict((e, c) for c, e in g.monomials)
    if set(mine) != set(theirs):
        return False
    ratio = None
    for e, c in mine.items():
        r = c / theirs[e]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


_coeffs = st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=6)).filter(lambda c: c != 0)


@st.composite
def _polys(draw, nvars):
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * nvars), max_size=4, unique=True))
    return SparsePoly(nvars, tuple((draw(_coeffs), e) for e in exps))


@st.composite
def _poly_pairs(draw):
    """Two polynomials that are often scaled copies, near copies (one
    coefficient changed, or a monomial dropped) or in different nvars."""
    nvars = draw(st.integers(1, 3))
    f = draw(_polys(nvars))
    kind = draw(st.sampled_from(("scaled", "scaled", "tweaked", "dropped", "fresh", "other-nvars")))
    if kind == "scaled" and not f.is_zero():
        return f, scaled(f, draw(_coeffs))
    if kind == "tweaked" and not f.is_zero():
        (c, e), *rest = f.monomials
        return f, scaled(SparsePoly(nvars, ((c + 1 if c != -1 else Fraction(2), e), *rest)), draw(_coeffs))
    if kind == "dropped" and not f.is_zero():
        return f, SparsePoly(nvars, f.monomials[1:])
    if kind == "other-nvars":
        return f, draw(_polys(nvars + 1))
    return f, draw(_polys(nvars))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_poly_pairs())
def test_projective_key_equality_is_proportionality(pair):
    f, g = pair
    want = _proportional_pairwise(f, g)
    assert (f.projective_key() == g.projective_key()) is want
    assert f.proportional_to(g) is want
    if want:
        assert hash(f.projective_key()) == hash(g.projective_key())


def test_projective_key_examples():
    h = build_index_prime(13).entries[-1][1]
    assert h.projective_key() == scaled(h, Fraction(-3, 2)).projective_key()
    assert scaled(h, 7).proportional_to(scaled(h, Fraction(1, 5)))
    x0 = SparsePoly.variable(3, 0)
    assert x0.projective_key() == SparsePoly.variable(3, 0, coeff=2).projective_key() == (3, ((1, ((0, 1),)),))
    assert x0.projective_key() != SparsePoly.variable(4, 0).projective_key()
    assert x0.projective_key() != SparsePoly.variable(3, 1).projective_key()
    zero = SparsePoly(3, ())
    assert zero.projective_key() == (3, ()) and zero.proportional_to(SparsePoly(3, ()))
    assert not zero.proportional_to(x0) and not x0.proportional_to(zero)


# -- well-formedness ---------------------------------------------------------


def test_well_formed_examples():
    assert is_well_formed(P(2, 1, 1)) is True
    assert is_well_formed(P(2, 2, 1)) is False  # omit the 1: gcd(2, 2) = 2
    assert is_well_formed(P(4, 4, 2, 1, 1)) is True


def test_well_formed_with_two_units():
    random.seed(7)
    for _ in range(50):
        weights = [random.randint(1, 9) for _ in range(random.randint(1, 4))] + [1, 1]
        assert is_well_formed(Wps(tuple(weights)))


def _well_formed_by_definition(weights) -> bool:
    """The quadratic reference: drop each weight in turn and take the gcd of the rest."""
    for i in range(len(weights)):
        g = 0
        for a in weights[:i] + weights[i + 1 :]:
            g = gcd(g, a)
        if g != 1:
            return False
    return True


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.one_of(st.just(1), st.integers(1, 36)), min_size=2, max_size=12))
@example([1, 1])
@example([6, 10, 15])
@example([4, 4, 2, 1, 1])
def test_well_formed_matches_the_definition(weights):
    assert is_well_formed(Wps(tuple(weights))) == _well_formed_by_definition(tuple(weights))


# -- degrees -----------------------------------------------------------------


def test_weighted_degree_examples():
    eq = SparsePoly.from_terms(3, [(1, (2, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4))])
    assert weighted_degree(eq, P(2, 1, 1)) == 4
    eq = SparsePoly.from_terms(3, [(1, (1, 0, 1)), (1, (0, 2, 0)), (1, (0, 0, 4))])
    assert weighted_degree(eq, P(3, 2, 1)) == 4
    with pytest.raises(NotQuasiHomogeneous):
        weighted_degree(SparsePoly.linear_form((1, 1)), P(2, 1))


def test_canonical_degree_examples():
    assert canonical_degree(P(2, 1, 1)) == -4
    assert canonical_degree(P(1, 1, 1)) == -3
    assert canonical_degree(P(4, 4, 2, 1, 1)) == -12


def _power_leaf_23() -> LogLeaf:
    return build_prime_power(2, 3)


def test_log_degree_examples():
    assert log_degree(build_index_prime(5)) == 0
    leaf = _power_leaf_23()
    # coefficients 1/2, 3/4, 7/8 on the coordinate lines and 7/8 on the sum
    assert sorted(Fraction(c.b - 1, c.b) for c, _ in leaf.entries) == [
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(7, 8),
        Fraction(7, 8),
    ]
    assert log_degree(leaf) == 0
    # dropping the 7/8 sum-hyperplane entry leaves degree -7/8
    trimmed = LogLeaf(leaf.space, leaf.entries[:-1], leaf.klt_strategy)
    assert log_degree(trimmed) == Fraction(-7, 8)


# -- pair index --------------------------------------------------------------


def test_pair_index_examples():
    assert pair_index(build_index_prime(13)) == 13
    leaf = build_prime_power(3, 2)
    assert {c.b for c, _ in leaf.entries} == {3, 9}
    assert pair_index(leaf) == 9
    single = LogLeaf(
        P(1, 1),
        ((StdCoeff(2), SparsePoly.linear_form((0, 1))),),
        "hyperplane_arrangement",
    )
    # degree is not 0 here, so build a degree-zero one-entry example instead
    with pytest.raises(ValueError):
        pair_index(single)


def test_pair_index_requires_well_formed():
    # P(2, 2) is P^1 in disguise but not well-formed; the degree-grading
    # justification fails, so the index is refused
    leaf = LogLeaf(
        P(2, 2),
        (
            (StdCoeff(3), SparsePoly.linear_form((0, 1))),
            (StdCoeff(3), SparsePoly.linear_form((1, 0))),
            (StdCoeff(3), SparsePoly.linear_form((1, 1))),
        ),
        "hyperplane_arrangement",
    )
    assert log_degree(leaf) == 0
    with pytest.raises(ValueError, match="well-formed"):
        pair_index(leaf)


def test_pair_index_requires_degree_zero():
    leaf = build_prime_power(2, 3)
    trimmed = LogLeaf(leaf.space, leaf.entries[:-1], leaf.klt_strategy)
    with pytest.raises(ValueError, match="degree"):
        pair_index(trimmed)


def test_pair_index_invariances():
    random.seed(20240501)
    leaf = build_index_prime(13)
    idx = pair_index(leaf)
    deg = log_degree(leaf)
    for _ in range(10):
        entries = list(leaf.entries)
        random.shuffle(entries)
        scale = Fraction(random.randint(1, 7), random.randint(1, 7))
        k = random.randrange(len(entries))
        coeff, eq = entries[k]
        entries[k] = (coeff, scaled(eq, scale))
        other = LogLeaf(leaf.space, tuple(entries), leaf.klt_strategy)
        assert log_degree(other) == deg
        assert pair_index(other) == idx


def test_log_degree_permutation_bit_identical():
    leaf = build_prime_power(5, 3)
    entries = list(leaf.entries)
    for rotation in range(len(entries)):
        rotated = entries[rotation:] + entries[:rotation]
        other = LogLeaf(leaf.space, tuple(rotated), leaf.klt_strategy)
        assert log_degree(other) == log_degree(leaf) == 0


# -- one log degree: the integer formula against the Fraction sum --------------


def _reference_log_degree(leaf: LogLeaf) -> Fraction:
    """log_degree as it was, a sum of Fractions, kept as the reference for
    the integer formula over lcm(b) that the library and the verifier share."""
    total = Fraction(canonical_degree(leaf.space))
    for coeff, eq in leaf.entries:
        total += Fraction(coeff.b - 1, coeff.b) * weighted_degree(eq, leaf.space)
    return total


def _reference_pair_index(leaf: LogLeaf) -> int:
    if not is_well_formed(leaf.space):
        raise ValueError(f"pair_index requires a well-formed space, got {leaf.space}")
    d = _reference_log_degree(leaf)
    if d != 0:
        raise ValueError(f"pair_index requires log degree 0, got {d}")
    return lcm(*[c.b for c, _ in leaf.entries]) if leaf.entries else 1


def _assert_degree_and_index_match_the_reference(leaf: LogLeaf):
    assert _outcome(log_degree, leaf) == _outcome(_reference_log_degree, leaf), leaf
    assert _outcome(pair_index, leaf) == _outcome(_reference_pair_index, leaf), leaf


_SMALL_GRID_LEAVES = [build_index_prime(m) for m in (5, 7, 9, 13, 15, 21)] + [
    build_prime_power(m, e) for m, e in ((2, 2), (2, 3), (3, 2), (4, 3), (5, 2), (6, 2))]


@st.composite
def _changed_leaves(draw):
    """A family leaf of degree zero, or one with an entry dropped, a b
    changed, the weights scaled by 2 or 3 (a space that is not
    well-formed, with every equation still quasi-homogeneous), a
    non-quasi-homogeneous or wrong-arity equation added, or no entries."""
    leaf = draw(st.sampled_from(_SMALL_GRID_LEAVES))
    entries, weights = list(leaf.entries), leaf.space.weights
    change = draw(st.sampled_from(("none", "drop", "b", "scale", "inhomogeneous", "arity", "empty")))
    k = draw(st.integers(0, len(entries) - 1))
    if change == "drop":
        del entries[k]
    elif change == "b":
        entries[k] = (StdCoeff(draw(st.integers(2, 40))), entries[k][1])
    elif change == "scale":
        weights = tuple(draw(st.sampled_from((2, 3))) * a for a in weights)
    elif change == "inhomogeneous":
        nv = len(weights)
        entries.insert(k, (StdCoeff(2), SparsePoly.from_pairs(nv, [(1, ((0, 1),)), (1, ((0, 1), (nv - 1, 1)))])))
    elif change == "arity":
        entries.insert(k, (StdCoeff(2), SparsePoly.variable(len(weights) + 1, 0)))
    elif change == "empty":
        entries = []
    return LogLeaf(Wps(weights), tuple(entries), leaf.klt_strategy)


@st.composite
def _random_leaves(draw):
    """Small weights and a few monomial entries: mostly of nonzero degree,
    sometimes of degree zero, sometimes on a space that is not well-formed."""
    weights = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)))
    nv = len(weights)
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        exps = draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
        pairs = tuple((v, x) for v, x in enumerate(exps) if x) or ((0, 1),)
        entries.append((StdCoeff(draw(st.integers(2, 12))), SparsePoly.from_pairs(nv, [(draw(_coeffs), pairs)])))
    return LogLeaf(Wps(weights), tuple(entries), "family_A")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(_changed_leaves(), _random_leaves()))
def test_log_degree_and_pair_index_match_the_fraction_reference(leaf):
    _assert_degree_and_index_match_the_reference(leaf)


def test_log_degree_and_pair_index_match_the_fraction_reference_on_the_family_grids():
    for _, leaf, index in _family_leaves():
        _assert_degree_and_index_match_the_reference(leaf)
        assert (log_degree(leaf), pair_index(leaf)) == (0, index)


# -- bounded text --------------------------------------------------------------


def test_space_and_coefficient_text_are_bounded():
    assert str(Wps((2**70,) * 20)) == "P(" + "<71-bit integer>," * 16 + "... (20 in all))"
    assert str(Wps((1, 2) * 8)) == "P(" + ",".join(["1,2"] * 8) + ")"
    assert str(StdCoeff(2**70)) == "<70-bit integer>/<71-bit integer>"
    assert str(StdCoeff(9)) == "8/9"


def test_pair_index_messages_are_bounded():
    x0 = SparsePoly.variable(3, 0)
    not_well_formed = LogLeaf(Wps((1, 2**20000, 2**20000)), ((StdCoeff(2), x0),), "family_A")
    with pytest.raises(ValueError, match=re.escape(
            "requires a well-formed space, got P(1,<20001-bit integer>,<20001-bit integer>)")):
        pair_index(not_well_formed)
    nonzero = LogLeaf(Wps((1, 1, 2**20000)), ((StdCoeff(2), x0),), "family_A")
    with pytest.raises(ValueError, match=re.escape("requires log degree 0, got -<20002-bit integer>/2")):
        pair_index(nonzero)


_HUGE = 10**5000  # more decimal digits than str() converts by default


@pytest.mark.parametrize("call,message", [
    (lambda: certificate_index(WpsLeaf(LogLeaf(
        Wps((1, 1)), ((StdCoeff(2), SparsePoly.variable(_HUGE, 0)),), "family_A"))),
     "equation in <16610-bit integer> variables on a space with 2 weights"),
    (lambda: SparsePoly.variable(_HUGE, -1),
     "bad exponent pair (-1, 1): pairs need increasing int variables below <16610-bit integer>"),
    (lambda: SparsePoly.from_pairs(_HUGE, [(1, ((-1, 1),))]),
     "bad exponent pair (-1, 1): pairs need increasing int variables below <16610-bit integer>"),
    (lambda: SparsePoly.from_pairs(3, [(1, ((0, -_HUGE),))]),
     "bad exponent pair (0, -<16610-bit integer>): pairs need increasing int variables below 3"),
    (lambda: SparsePoly(_HUGE, [(1, (1,))]), "exponent vector (1,) has length != <16610-bit integer>"),
    (lambda: SparsePoly.variable(-_HUGE, 0), "nvars must be a positive integer, got -<16610-bit integer>"),
    (lambda: Wps((-_HUGE, 1)), "weights must be positive integers, got -<16610-bit integer>"),
    (lambda: StdCoeff(-_HUGE), "standard coefficient needs integer b >= 2, got -<16610-bit integer>"),
    # anything but an int keeps its repr
    (lambda: Wps((1.5, 1)), "got 1.5"),
    (lambda: Wps((True, 1)), "got True"),
    (lambda: StdCoeff("3"), "got '3'"),
    (lambda: SparsePoly.variable(3, "1"), "bad exponent pair ('1', 1)"),
    (lambda: SparsePoly.from_pairs(2.0, ()), "got 2.0"),
], ids=["certificate-index-arity", "variable-pair", "from-pairs-pair", "from-pairs-exponent", "dense-length", "nvars",
        "weight", "std-coeff", "float-weight", "bool-weight", "str-b", "str-variable", "float-nvars"])
def test_library_messages_bound_huge_integers(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("nvars", [2**63, _HUGE], ids=["2**63", "10**5000"])
def test_dense_constructor_with_no_monomials_is_zero_for_any_nvars(nvars):
    assert SparsePoly(nvars, []) == SparsePoly.from_pairs(nvars, [])
