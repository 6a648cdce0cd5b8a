import cmath
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyindex.certify import base_leaf, build_index_prime, build_prime_power, realize, search_plane_pair
from cyindex.selftest import _family_leaves, _not_klt_leaves
import cyindex.sncklt
from cyindex.sncklt import (
    _HYPERPLANE_WORK_BUDGET,
    _PLANE_WORK_BUDGET,
    STEP_CHAINS,
    STEP_HYPERPLANES,
    STEP_KLT,
    STEP_PLANE,
    STEP_SHAPE,
    _conic_smooth,
    _coordinate_var,
    _cubic_smooth_certified,
    _gcd_degree,
    _integer_row,
    _integer_terms,
    _mul,
    _rank,
    _resultant_y,
    _sheared,
    _trim,
    coordinate_chains,
    family_snc_check,
    hyperplane_arrangement_snc,
    is_klt_leaf,
    plane_arrangement_snc,
)
from cyindex.wpspairs import LogLeaf, NotQuasiHomogeneous, SparsePoly, StdCoeff, Wps, weighted_degree
from test_wpspairs import restrict_to, scaled, subs_zero


def poly(nvars, *terms):
    return SparsePoly.from_terms(nvars, [(c, e) for c, e in terms])


def _without_supports(f, drop):
    """f without its monomials whose support, the tuple of their variables, is in drop."""
    return SparsePoly.from_pairs(f.nvars, [t for t in f.terms if tuple(v for v, _ in t[1]) not in drop])


# -- diagonal forms: H a sum of Fermat terms, the chains of length 1 ---------


def _chain_leaf(h, coords=(), strategy="family_C"):
    """The coordinate hyperplanes x_j (j in coords) plus H on P^(nv-1), all with b = 2."""
    entries = [(StdCoeff(2), SparsePoly.variable(h.nvars, j)) for j in coords] + [(StdCoeff(2), h)]
    return LogLeaf(Wps((1,) * h.nvars), tuple(entries), strategy)


def test_diagonal_examples():
    diagonal = poly(3, (1, (2, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)))
    assert coordinate_chains(_chain_leaf(diagonal, (0, 1, 2))) == (
        True, "3 coordinate hyperplanes and H a sum of 3 chains in 3 variables")
    assert coordinate_chains(_chain_leaf(poly(3, (1, (2, 0, 0)), (1, (0, 4, 0))))) == (
        False, "H has no term in x2")
    fermat = poly(4, (1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)), (1, (0, 0, 0, 4)))
    assert coordinate_chains(_chain_leaf(fermat, (3,), "family_A"))[0]


def test_diagonal_rejects_mixed():
    # x0*x2 + x1^2: x0*x2 leads to no pure power, so it is no chain
    assert coordinate_chains(_chain_leaf(poly(3, (1, (1, 0, 1)), (1, (0, 2, 0))))) == (
        False, "x0 is on no chain ending in a pure power")
    assert coordinate_chains(_chain_leaf(poly(2, (1, (2, 0)), (1, (3, 0))))) == (False, "two pure powers of x0")


# -- hyperplane arrangements -------------------------------------------------


def rank_of(rows):
    """Test-local exact rank, independent of the library implementation."""
    mat = [[Fraction(x) for x in row] for row in rows]
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def naive_hyperplane_snc(normals):
    """Oracle: check *every* subset, per the defining condition."""
    normals = [list(map(Fraction, v)) for v in normals]
    nv = len(normals[0]) if normals else 0
    for size in range(1, len(normals) + 1):
        for subset in combinations(normals, size):
            rk = rank_of(list(subset))
            meets_punctured_cone = rk < nv
            if meets_punctured_cone and rk != len(subset):
                return False
    return True


def test_hyperplane_examples():
    coords3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hyperplane_arrangement_snc(coords3 + [(1, 1, 1)]) is True
    assert hyperplane_arrangement_snc([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) is False
    assert hyperplane_arrangement_snc([(1, 2, 3), (2, 4, 6)]) is False


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        hyperplane_arrangement_snc([(0, 0, 0)])


def _forty_normals_in_twenty_variables():
    """40 hyperplanes sum_i t^i x_i on P^19: C(40, 20) ~ 1.4e11 subsets to rank."""
    eqs = [SparsePoly.linear_form([t**i for i in range(20)]) for t in range(2, 42)]
    return LogLeaf(Wps((1,) * 20), tuple((StdCoeff(3), eq) for eq in eqs), "hyperplane_arrangement")


def test_hyperplane_budget_fails_the_step_before_ranking(monkeypatch):
    def no_ranking(*_):
        raise AssertionError("a subset was enumerated")

    monkeypatch.setattr(cyindex.sncklt, "combinations", no_ranking)
    monkeypatch.setattr(cyindex.sncklt, "_rank", no_ranking)
    report = is_klt_leaf(_forty_normals_in_twenty_variables())
    assert not report.passed
    assert [(s.description, s.passed, s.detail) for s in report.steps] == [
        (STEP_SHAPE, True, ""),
        (STEP_HYPERPLANES, False,
         f"resource budget: ranking C(40, 20) subsets in 20 variables exceeds {_HYPERPLANE_WORK_BUDGET} entry updates"),
    ]


def test_hyperplane_budget_admits_the_largest_benchmark_arrangement():
    # 12 Vandermonde normals in 6 variables, the largest arrangement the benchmark
    # corpus builds, uses a fiftieth of the budget
    assert _HYPERPLANE_WORK_BUDGET // (comb(12, 6) * 6**3) >= 50
    normals = [[t**i for i in range(6)] for t in range(10, 22)]
    assert hyperplane_arrangement_snc(normals) is True
    # C(201, 200) = 201 subsets of 200 normals in 200 variables are over budget
    # too: the count of subsets alone does not bound the work
    with pytest.raises(ValueError, match="resource budget"):
        hyperplane_arrangement_snc([[int(i == j) for j in range(200)] for i in range(200)] + [[1] * 200])


def test_hyperplane_agrees_with_naive_oracle():
    random.seed(1234)
    for _ in range(150):
        nv = random.randint(2, 4)
        count = random.randint(1, nv + 2)
        normals = []
        while len(normals) < count:
            v = tuple(random.randint(-2, 2) for _ in range(nv))
            if any(v):
                normals.append(v)
        assert hyperplane_arrangement_snc(normals) == naive_hyperplane_snc(normals), normals


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    """The library's rank before it went fraction-free: forward elimination
    over Fraction, kept as the reference for the Bareiss rank."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for r in range(rank + 1, nrows):
            if mat[r][col] != 0:
                f = mat[r][col] / prow[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def _rational_matrices(draw):
    """Rows over a few columns, with zero rows, repeated rows and rows that
    are rational multiples of earlier ones; often more rows than columns."""
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "multiple")))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind != "fresh" and rows:
            row = draw(st.sampled_from(rows))
            scale = Fraction(1) if kind == "repeat" else draw(st.fractions(-5, 5, max_denominator=7))
            rows.append([scale * x for x in row])
        else:
            rows.append(draw(st.lists(_entries, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rational_matrices())
@example([[Fraction(0), Fraction(0)]])
@example([[Fraction(1, 2), Fraction(-1, 3)], [Fraction(3), Fraction(-2)], [Fraction(0), Fraction(5, 7)]])
def test_bareiss_rank_matches_the_fraction_rank(rows):
    ints = [_integer_row(row) for row in rows]
    assert all(type(x) is int for row in ints for x in row)
    assert _rank(ints) == _fraction_rank(rows)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_rational_matrices())
def test_bareiss_rank_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).rank()
    assert _rank([_integer_row(row) for row in rows]) == want


def test_integer_row_spans_the_same_line():
    row = [Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 4)]
    assert _integer_row(row) == [6, -8, 0, 15]
    assert _integer_row([Fraction(3), Fraction(-6)]) == [3, -6]


def test_prime_power_base2_arrangements():
    # coordinate hyperplanes of A^e plus the sum-of-coordinates hyperplane
    for e in (2, 3, 7, 12):
        normals = [tuple(1 if j == i else 0 for j in range(e)) for i in range(e)]
        normals.append((1,) * e)
        assert hyperplane_arrangement_snc(normals) is True


# -- plane arrangements: named examples --------------------------------------


def line(a, b, c):
    return SparsePoly.linear_form((a, b, c))


CONIC = poly(3, (1, (1, 0, 1)), (-1, (0, 2, 0)))  # x*z - y^2


def test_four_general_lines():
    lines = [line(-j, 1, -t) for j, t in zip(range(4), (0, 1, 3, 6))]
    assert plane_arrangement_snc(lines) is True


def test_tangent_line_conic_rejected():
    # {x = 0} is tangent to {xz - y^2 = 0} at (0:0:1)
    assert plane_arrangement_snc([line(1, 0, 0), CONIC]) is False


def test_transversal_line_conic_accepted():
    assert plane_arrangement_snc([line(-1, 1, -1), CONIC]) is True


def test_three_concurrent_lines_rejected():
    assert plane_arrangement_snc([line(1, 0, 0), line(0, 1, 0), line(1, 1, 0)]) is False


def test_coincident_components_rejected():
    assert plane_arrangement_snc([line(1, 2, 3), line(2, 4, 6)]) is False


def test_double_line_conic_rejected():
    assert plane_arrangement_snc([poly(3, (1, (2, 0, 0)))]) is False  # x^2: not reduced


def test_degree_cap():
    quartic = poly(3, (1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)))
    with pytest.raises(ValueError):
        plane_arrangement_snc([quartic])


def test_degree_zero_curve_rejected():
    # the constant 5 cuts out nothing, so it carries no coefficient
    five, x0 = poly(3, (5, (0, 0, 0))), poly(3, (1, (1, 0, 0)))
    with pytest.raises(ValueError, match="entry 0 is a nonzero constant"):
        plane_arrangement_snc([five, x0])
    leaf = LogLeaf(Wps((1, 1, 1)), ((StdCoeff(2), five), (StdCoeff(3), x0)), "plane_arrangement")
    assert [(s.description, s.passed, s.detail) for s in is_klt_leaf(leaf).steps] == [
        (STEP_PLANE, False, "entry 0 is a nonzero constant, which cuts out no curve")]


def test_degree_cap_detail_is_bounded_on_a_large_curve():
    # a line and one degree-40 curve with all 861 monomials of degree 40
    curve = SparsePoly(3, tuple((1, e) for e in [(a, b, 40 - a - b) for a in range(41) for b in range(41 - a)]))
    assert len(curve.terms) == 861
    leaf = LogLeaf(Wps((1, 1, 1)), ((StdCoeff(2), poly(3, (1, (1, 0, 0)))), (StdCoeff(3), curve)),
                   "plane_arrangement")
    (step,) = is_klt_leaf(leaf).steps
    assert (step.description, step.passed, step.detail) == (STEP_PLANE, False, "entry 1 is a curve of degree 40 > 3")
    assert len(step.detail) < 80


def test_non_homogeneous_curve_detail_names_the_entry():
    # entry 1 is x0^2 + x1, whose monomials have degrees 2 and 1
    x0, bad = poly(3, (1, (1, 0, 0))), poly(3, (1, (2, 0, 0)), (1, (0, 1, 0)))
    with pytest.raises(NotQuasiHomogeneous, match="^entry 1: "):
        plane_arrangement_snc([x0, bad])
    leaf = LogLeaf(Wps((1, 1, 1)), ((StdCoeff(2), x0), (StdCoeff(3), bad)), "plane_arrangement")
    assert [(s.description, s.passed, s.detail) for s in is_klt_leaf(leaf).steps] == [
        (STEP_PLANE, False, "entry 1: monomial degrees disagree: 2 distinct degrees from 1 to 2")]


def _no_plane_work(*_):
    raise AssertionError("a curve was sheared or a resultant computed")


def test_plane_budget_fails_the_step_before_any_curve_is_sheared(monkeypatch):
    monkeypatch.setattr(cyindex.sncklt, "_sheared", _no_plane_work)
    monkeypatch.setattr(cyindex.sncklt, "_resultant_y", _no_plane_work)
    # 85 lines need C(85, 2) + C(85, 3) = 102,340 tests, one more line than fits
    assert comb(84, 2) + comb(84, 3) <= _PLANE_WORK_BUDGET < comb(85, 2) + comb(85, 3)
    lines = [SparsePoly.linear_form((j, 1, j * j)) for j in range(85)]
    leaf = LogLeaf(Wps((1, 1, 1)), tuple((StdCoeff(2), eq) for eq in lines), "plane_arrangement")
    assert [(s.description, s.passed, s.detail) for s in is_klt_leaf(leaf).steps] == [
        (STEP_PLANE, False, "resource budget: 85 curves of total degree 85 need C(85, 2) + C(85, 3) "
                            f"resultant and triple tests, over {_PLANE_WORK_BUDGET}")]
    # a cubic counts as three lines: 29 cubics are over budget although C(29, 3) is small
    fermat3 = poly(3, (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)))
    with pytest.raises(ValueError, match="^resource budget: 29 curves of total degree 87 "):
        plane_arrangement_snc([fermat3] * 29)


def test_plane_budget_admits_the_largest_benchmark_arrangement():
    # a degree-zero arrangement has total degree D <= 6, as sum d_i (1 - 1/b_i) = 3
    # with each term >= d_i / 2: six lines, the benchmark's largest, need 35 tests
    assert comb(6, 2) + comb(6, 3) == 35 <= _PLANE_WORK_BUDGET
    lines = [SparsePoly.linear_form((-j, 1, -t)) for j, t in enumerate((0, 1, 3, 6, 10, 15))]
    assert plane_arrangement_snc(lines) is True


def test_smooth_cubic_accepted():
    fermat3 = poly(3, (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3)))
    assert plane_arrangement_snc([fermat3]) is True


def test_singular_cubic_rejected():
    nodal = poly(3, (1, (0, 2, 1)), (-1, (3, 0, 0)), (-1, (2, 0, 1)))  # y^2 z = x^3 + x^2 z
    assert plane_arrangement_snc([nodal]) is False


def test_selftest_corpus_reaches_the_cubic_and_triple_point_branches():
    cases = dict(_not_klt_leaves())
    nodal, triple = cases["a nodal cubic"], cases["two lines meeting on a conic"]
    (curve,) = nodal.equations()
    assert _cubic_smooth_certified(_sheared(_integer_terms(curve), 3, 1)[0]) is False
    assert [plane_arrangement_snc(pair) for pair in combinations(triple.equations(), 2)] == [True] * 3
    assert not is_klt_leaf(nodal).passed and not is_klt_leaf(triple).passed


def test_selftest_corpus_reaches_the_conic_branch():
    two_lines = dict(_not_klt_leaves())["a conic that is two lines"]
    (curve,) = two_lines.equations()
    assert weighted_degree(curve, Wps((1, 1, 1))) == 2 and _conic_smooth(_integer_terms(curve)) is False
    assert two_lines.klt_strategy == "plane_arrangement" and not is_klt_leaf(two_lines).passed


def test_p1_mode_distinct_points():
    pts = [SparsePoly.linear_form((0, 1)), SparsePoly.linear_form((-1, 1)), SparsePoly.linear_form((1, 0))]
    assert plane_arrangement_snc(pts) is True
    assert plane_arrangement_snc(pts + [SparsePoly.linear_form((0, 2))]) is False
    # every multiset of at most 4 forms, with proportional repeats and a nonlinear form,
    # against the pairwise check of the reference
    forms = [SparsePoly.linear_form(v) for v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (Fraction(-1, 3), 0),
                                                  (3, 3))]
    forms.append(SparsePoly.from_pairs(2, [(1, ((0, 2),))]))  # x0^2
    for k in range(5):
        for curves in combinations_with_replacement(forms, k):
            assert _outcome(plane_arrangement_snc, curves) == _outcome(_reference_plane_snc, curves), [
                str(c) for c in curves]


# -- plane arrangements: floating point sampler oracle -----------------------


def _line_vec(eq):
    return [float(c) for c in eq.linear_coefficients()]


def _conic_matrix(eq):
    m = [[0.0] * 3 for _ in range(3)]
    for c, exps in eq.monomials:
        nz = [j for j, e in enumerate(exps) if e > 0]
        if len(nz) == 1:
            m[nz[0]][nz[0]] = float(c)
        else:
            i, j = nz
            m[i][j] = m[j][i] = float(c) / 2.0
    return m


def _cross(u, v):
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def _norm(v):
    return max(abs(complex(x)) for x in v)


def _mat_apply(m, v):
    return [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]


def _quad_eval(m, v):
    return sum(v[i] * x for i, x in enumerate(_mat_apply(m, v)))


def _line_points(vec):
    """Two independent points spanning the line with normal vec."""
    candidates = [_cross(vec, e) for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    candidates.sort(key=_norm, reverse=True)
    a = candidates[0]
    b = next(c for c in candidates[1:] if _norm(_cross(a, c)) > 1e-9 * (_norm(a) * _norm(c) + 1))
    return a, b


TOL = 1e-9


def sampled_plane_snc(curves):
    """Naive floating point oracle: compute all intersection points and test
    smoothness, tangency, coincidence and triple points numerically."""
    kinds = []
    for eq in curves:
        lin = eq.linear_coefficients()
        if lin is not None:
            kinds.append(("line", _line_vec(eq)))
        else:
            kinds.append(("conic", _conic_matrix(eq)))

    for kind, data in kinds:
        if kind == "conic":
            m = data
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            scale = max(abs(x) for row in m for x in row) ** 3 + 1
            if abs(det) < TOL * scale:
                return False

    points = []  # (i, j, projective point as complex 3-vector)
    for (i, (k1, d1)), (j, (k2, d2)) in combinations(enumerate(kinds), 2):
        if k1 == "line" and k2 == "line":
            p = _cross(d1, d2)
            if _norm(p) < TOL * (_norm(d1) * _norm(d2) + 1):
                return False  # same line twice
            points.append((i, j, [complex(x) for x in p]))
        else:
            vec, mat = (d1, d2) if k1 == "line" else (d2, d1)
            a, b = _line_points(vec)
            qa = _quad_eval(mat, a)
            qab = sum(x * y for x, y in zip(_mat_apply(mat, a), b))
            qb = _quad_eval(mat, b)
            # intersection = roots of qb*t^2 + 2*qab*t + qa as a binary form
            scale = (max(abs(x) for row in mat for x in row) + 1) * (_norm(a) + _norm(b)) ** 2
            disc = 4 * qab * qab - 4 * qb * qa
            if abs(disc) < TOL * scale * scale:
                return False  # tangency (or worse)
            if abs(qb) > TOL * scale:
                for sign in (1, -1):
                    t = (-2 * qab + sign * cmath.sqrt(complex(disc))) / (2 * qb)
                    points.append((i, j, [ai + t * bi for ai, bi in zip(a, b)]))
            else:
                points.append((i, j, [complex(x) for x in b]))
                t = -qa / (2 * qab)
                points.append((i, j, [ai + t * bi for ai, bi in zip(a, b)]))

    for i, j, p in points:
        scale_p = _norm(p)
        if scale_p < TOL:
            return False
        p = [x / scale_p for x in p]
        for k, (kind, data) in enumerate(kinds):
            if k in (i, j):
                continue
            if kind == "line":
                value = sum(c * x for c, x in zip(data, p))
                scale = _norm(data) + 1
            else:
                value = _quad_eval(data, p)
                scale = max(abs(x) for row in data for x in row) + 1
            if abs(value) < TOL * scale:
                return False  # triple point
    return True


def _random_arrangement(rng):
    curves = []
    for _ in range(rng.randint(2, 4)):
        slope = rng.randint(-6, 6)
        intercept = rng.randint(-40, 40)
        if rng.random() < 0.15:
            curves.append(line(1, 0, -intercept))  # vertical line x = c*z
        else:
            curves.append(line(-slope, 1, -intercept))
    if rng.random() < 0.5:
        entries = {}
        while True:
            entries = {
                (i, j): rng.randint(-4, 4) for i in range(3) for j in range(i, 3)
            }
            if any(entries.values()):
                break
        conic = SparsePoly.from_terms(
            3,
            [
                (v, tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(3)))
                for (i, j), v in entries.items()
                if v
            ],
        )
        curves.append(conic)
    rng.shuffle(curves)
    return curves


def test_plane_checker_agrees_with_sampler_on_200_random_arrangements():
    rng = random.Random(20240229)
    agreements = 0
    for case in range(200):
        curves = _random_arrangement(rng)
        got = plane_arrangement_snc(curves)
        want = sampled_plane_snc(curves)
        assert got == want, (case, [str(c) for c in curves], got, want)
        agreements += 1
    assert agreements == 200


# -- plane arrangements: the Fraction implementation as reference ------------
# The library's plane check before it went to integers: Fraction polynomials,
# Euclid gcds and a Sylvester determinant per pair. Kept as the reference the
# integer check must agree with, outcome for outcome.


def _q_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _q_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _q_trim(out)


def _q_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _q_trim(out)


def _q_rem(a, b):
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        f = a[-1] / lb
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[i + shift] -= f * c
        _q_trim(a)
    return a


def _q_gcd_degree(a, b):
    a, b = a[:], b[:]
    while b:
        a, b = b, _q_rem(a, b)
    return len(a) - 1


def _q_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = []
    for j in range(n):
        head = mat[0][j]
        if not head:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        acc = _q_add(acc, _q_mul(head, _q_det(minor)), -1 if j % 2 else 1)
    return acc


def _q_partial(curve, j):
    terms = []
    for coeff, exps in curve.monomials:
        if exps[j] > 0:
            new = list(exps)
            new[j] -= 1
            terms.append((coeff * exps[j], tuple(new)))
    return SparsePoly.from_terms(curve.nvars, terms)


def _q_evaluate(curve, point):
    point = [Fraction(p) for p in point]
    total = Fraction(0)
    for c, exps in curve.monomials:
        term = c
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def _q_shear_x(curve, k):
    if k == 0:
        return curve
    terms = []
    for coeff, (a, b, c) in curve.monomials:
        for i in range(a + 1):
            terms.append((coeff * comb(a, i) * k ** (a - i), (i, b + a - i, c)))
    return SparsePoly.from_terms(3, terms)


def _q_y_coeff_polys(curve):
    dy = max((e[1] for _, e in curve.monomials), default=-1)
    if dy < 0:
        return []
    dx = max(e[0] for _, e in curve.monomials)
    coeffs = [[Fraction(0)] * (dx + 1) for _ in range(dy + 1)]
    for c, (a, b, _) in curve.monomials:
        coeffs[b][a] += c
    return [_q_trim(p) for p in coeffs]


def _q_resultant_y(f, g):
    fc, gc = _q_y_coeff_polys(f), _q_y_coeff_polys(g)
    p, q = len(fc) - 1, len(gc) - 1
    P = weighted_degree(f, Wps((1, 1, 1)))
    Q = weighted_degree(g, Wps((1, 1, 1)))
    if p < 0 or q < 0:
        raise ValueError("resultant of a zero polynomial")
    D = q * P + p * Q - p * q
    if p == 0 and q == 0:
        return [Fraction(1)], D
    size = p + q
    mat = []
    for r in range(q):
        row = [[] for _ in range(size)]
        for i, cp in enumerate(reversed(fc)):
            row[r + i] = cp
        mat.append(row)
    for r in range(p):
        row = [[] for _ in range(size)]
        for i, cp in enumerate(reversed(gc)):
            row[r + i] = cp
        mat.append(row)
    return _q_det(mat), D


def _q_binary_squarefree(r, d):
    if not r:
        return False
    if d - (len(r) - 1) > 1:
        return False
    return _q_gcd_degree(r, _q_trim([r[i] * i for i in range(1, len(r))])) <= 0


def _q_share_projective_root(r1, d1, r2, d2):
    if not r1 or not r2:
        return True
    if d1 - (len(r1) - 1) >= 1 and d2 - (len(r2) - 1) >= 1:
        return True
    return _q_gcd_degree(r1, r2) >= 1


def _q_cubic_smooth_certified(sheared):
    fy, fx, fz = (_q_partial(sheared, j) for j in (1, 0, 2))
    if fx.is_zero() or fz.is_zero():
        return False
    r1, d1 = _q_resultant_y(fy, fx)
    r2, d2 = _q_resultant_y(fy, fz)
    if not r1 or not r2:
        return False
    return not _q_share_projective_root(r1, d1, r2, d2)


def _reference_plane_snc(curves):
    """plane_arrangement_snc as it was, in Fraction arithmetic, with its
    rejection of a constant entry."""
    curves = list(curves)
    if not curves:
        return True
    nv = curves[0].nvars
    if any(c.nvars != nv for c in curves):
        raise ValueError("curves in a mixed number of variables")
    if any(c.is_zero() for c in curves):
        return False
    if nv == 2:
        if any(c.linear_coefficients() is None for c in curves):
            return False
        return not any(a.proportional_to(b) for a, b in combinations(curves, 2))
    if nv != 3:
        raise ValueError("plane arrangements live in 3 variables (or 2 for P^1)")
    degrees = []
    for i, c in enumerate(curves):
        try:
            d = weighted_degree(c, Wps((1, 1, 1)))
        except NotQuasiHomogeneous as err:
            raise NotQuasiHomogeneous(f"entry {i}: {err}") from None
        if d > 3:
            raise ValueError(f"entry {i} is a curve of degree {d} > 3")
        if d == 0:
            raise ValueError(f"entry {i} is a nonzero constant, which cuts out no curve")
        degrees.append(d)
    shear_k = next((k for k in range(101) if all(_q_evaluate(c, (k, 1, 0)) != 0 for c in curves)), None)
    if shear_k is None:
        return False
    sheared = [_q_shear_x(c, shear_k) for c in curves]
    for orig, sh, d in zip(curves, sheared, degrees):
        if d == 2 and not _conic_smooth_by_scan(orig):
            return False
        if d == 3 and not _q_cubic_smooth_certified(sh):
            return False
    res = {}
    for i, j in combinations(range(len(curves)), 2):
        r, dd = res[(i, j)] = _q_resultant_y(sheared[i], sheared[j])
        if not r or not _q_binary_squarefree(r, dd):
            return False
    for tri in combinations(range(len(curves)), 3):
        pivot = min(tri, key=lambda i: (degrees[i], i))
        a, b = [i for i in tri if i != pivot]
        if _q_share_projective_root(*res[tuple(sorted((pivot, a)))], *res[tuple(sorted((pivot, b)))]):
            return False
    return True


_FORMS = {d: [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)] for d in range(5)}
_CURVE_COEFFS = (0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(5, 7))


def _plane_curve(rng, homogeneous=True):
    """A nonzero form of degree 1 to 3 (rarely 0) in 3 variables, with many
    zero and small rational coefficients, so that tangencies, shared points
    and singular curves are common; unless homogeneous, sometimes a quartic
    or a stray monomial of another degree, for the ValueErrors."""
    d = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 3) + (() if homogeneous else (4,)))
    terms = [(rng.choice(_CURVE_COEFFS), e) for e in _FORMS[d]]
    if not homogeneous and rng.random() < 0.1:
        terms.append((1, rng.choice(_FORMS[(d + 1) % 4])))
    curve = SparsePoly.from_terms(3, [t for t in terms if t[0]])
    return curve if not curve.is_zero() else SparsePoly(3, [(rng.choice(_CURVE_COEFFS[4:]), _FORMS[d][-1])])


def _plane_arrangement(rng):
    """1 to 4 curves (up to 5 with an added one); sometimes a rational
    multiple of the first curve is added, sometimes every curve is made to
    pass through (0:0:1) and a line through it is added, so that shared
    components and triple points are common."""
    homogeneous = rng.random() < 0.95
    curves = [_plane_curve(rng, homogeneous) for _ in range(rng.randint(1, 4))]
    kind = rng.randint(0, 5)
    if kind == 0:
        curves.append(scaled(curves[0], rng.choice(_CURVE_COEFFS[4:])))
    elif kind == 1:
        through = [_without_supports(c, [(2,)]) for c in curves]
        curves = [c for c in through if not c.is_zero()] + [SparsePoly.linear_form((1, rng.choice(_CURVE_COEFFS), 0))]
    rng.shuffle(curves)
    return curves


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False))
def test_plane_check_agrees_with_the_fraction_reference(rng):
    # 10 arrangements per example, 2,000 in all: drawing each one through
    # hypothesis would cost more than both checks together
    for _ in range(10):
        curves = _plane_arrangement(rng)
        assert _outcome(plane_arrangement_snc, curves) == _outcome(_reference_plane_snc, curves), [
            str(c) for c in curves]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_integer_resultants_and_gcd_degrees_match_sympy(rng, k):
    # for two curves sheared by x -> x + k y: the integer y-resultant is a nonzero
    # rational multiple of sympy's, and the gcd degrees of the squarefree test match
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    curves = [_plane_curve(rng) for _ in range(2)]
    r, _ = _resultant_y(*[_sheared(_integer_terms(c), weighted_degree(c, Wps((1, 1, 1))), k) for c in curves])
    sym = [sum(sympy.Rational(c.numerator, c.denominator) * (x + k * y) ** a * y**b for c, (a, b, _) in curve.monomials)
           for curve in curves]
    want = sympy.Poly(sympy.resultant(*sym, y), x)
    if want.is_zero:
        assert r == []
        return
    coeffs = want.all_coeffs()[::-1]
    assert len(r) == len(coeffs) and all(ri * coeffs[-1] == ci * r[-1] for ri, ci in zip(r, coeffs))
    assert _gcd_degree(r, [i * c for i, c in enumerate(r)][1:]) == sympy.gcd(want, want.diff(x)).degree()


_small_polys = st.lists(st.integers(-3, 3), max_size=4).map(lambda p: _trim(list(p)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_small_polys, _small_polys, _small_polys)
def test_gcd_degree_matches_sympy(u, v, w):
    # u*w and v*w share w, so the gcd is often nontrivial
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    a, b = _mul(u, w), _mul(v, w)
    if not a:
        return
    want = sympy.Poly(a[::-1], x).gcd(sympy.Poly(b[::-1] or [0], x)).degree()
    assert _gcd_degree(a, b) == want


# -- family checks -----------------------------------------------------------


def test_family_a_passes_for_prime_13():
    report = family_snc_check(build_index_prime(13))
    assert report.passed
    assert [s.description for s in report.steps] == [STEP_CHAINS, STEP_KLT]
    assert sorted(report.as_obj()) == ["passed", "steps", "strategy"]


def test_family_b_passes_for_7():
    report = family_snc_check(build_index_prime(7))
    assert report.passed
    assert report.strategy == "family_B"
    assert [s.description for s in report.steps] == [STEP_CHAINS, STEP_KLT]


def test_family_c_passes_and_base2_retagged_passes():
    assert family_snc_check(build_prime_power(3, 4)).passed
    leaf = build_prime_power(2, 4)
    # H = x0 + x1 + x2 + x3 is a sum of four Fermat terms of exponent 1, and
    # the same hyperplanes pass as an arrangement
    assert leaf.klt_strategy == "family_C"
    report = family_snc_check(leaf)
    assert report.passed
    assert [s.description for s in report.steps] == [STEP_CHAINS, STEP_KLT]
    assert is_klt_leaf(LogLeaf(leaf.space, leaf.entries, "hyperplane_arrangement")).passed


def test_family_shape_mismatch_reported():
    # family_A's H on P(4, 4, 2, 1, 1) is a Fermat sum: SNC, but not the family_B shape
    leaf = build_index_prime(13)
    retagged = LogLeaf(leaf.space, leaf.entries, "family_B")
    report = family_snc_check(retagged)
    assert not report.passed
    assert [(s.description, s.passed, s.detail) for s in report.steps] == [
        (STEP_CHAINS, False, "family_B needs a chain of length >= 2 in H, but H is a Fermat sum")]


def test_family_missing_last_variable_fails_the_diagonal_step():
    # drop x_n^4 from H: quasi-homogeneity and degree still hold, but H has
    # no term in x_n, and {x_n = 0} and {H = 0} are tangent along the x_n-axis
    leaf = build_index_prime(13)
    coeff, h = leaf.entries[-1]
    h_missing = SparsePoly(h.nvars, tuple(t for t in h.monomials if t[1] != (0, 0, 0, 0, 4)))
    tampered = LogLeaf(leaf.space, leaf.entries[:-1] + ((coeff, h_missing),), leaf.klt_strategy)
    report = family_snc_check(tampered)
    assert not report.passed
    assert [(s.description, s.passed, s.detail) for s in report.steps] == [
        (STEP_CHAINS, False, "H has no term in x4")]


def test_family_exponent_change_still_evaluates():
    # raising the x_{n-1} exponent breaks degree bookkeeping upstream but H
    # is still a Fermat sum covering all variables: the SNC step itself
    # passes
    leaf = build_index_prime(13)
    coeff, h = leaf.entries[-1]
    terms = [(c, e if e != (0, 0, 0, 4, 0) else (0, 0, 0, 5, 0)) for c, e in h.monomials]
    h_mod = SparsePoly.from_terms(h.nvars, terms)
    tampered = LogLeaf(leaf.space, leaf.entries[:-1] + ((coeff, h_mod),), leaf.klt_strategy)
    report = family_snc_check(tampered)
    assert report.passed  # the degree failure is reported by the verifier, not here


# -- coordinate-diagonal leaves (family_A and family_C) against the old reduction


def _reference_family_ac(leaf):
    """The two-step reduction that checked family_A and family_C leaves
    before one criterion did, kept as the reference that coordinate_chains
    must dominate: a family shape frame,
    constant linear partials on the block, a diagonal residual smooth
    outside the origin and its restriction to the distinguished hyperplane;
    family_C with every entry a hyperplane went to the arrangement check.
    True iff every step passed."""
    coords, others = [], []
    for _, eq in leaf.entries:
        j = _coordinate_var_by_scan(eq)
        if j is None:
            others.append(eq)
        else:
            coords.append(j)
    if len(others) != 1 or others[0].is_zero():
        return False
    h = others[0]
    nv = h.nvars
    if leaf.klt_strategy == "family_A":
        n = nv - 1
        if n < 2 or sorted(coords) != sorted(list(range(n - 2)) + [n]):
            return False
        block, residual, distinguished = list(range(n - 2)), [n - 2, n - 1, n], n
    else:
        e = len(coords)
        if e < 2 or sorted(coords) != list(range(e)):
            return False
        if e == nv:
            normals = [eq.linear_coefficients() for _, eq in leaf.entries]
            return None not in normals and hyperplane_arrangement_snc(normals)
        if e > nv - 1:
            return False
        block, residual, distinguished = list(range(e - 1)), list(range(e - 1, nv)), e - 1
    if not _h_support_ok_by_scan(h, set(block), set(residual), None)[0]:
        return False
    if not _linear_partials_per_variable(h, block)[0]:
        return False
    rest = restrict_to(subs_zero(h, block), residual)
    local = residual.index(distinguished)
    restricted = restrict_to(subs_zero(rest, [local]), [j for j in range(len(residual)) if j != local])
    try:
        return _diagonal_by_scan(rest) and _diagonal_by_scan(restricted)
    except ValueError:
        return False


def test_coordinate_diagonal_passes_what_the_reference_passes_on_the_grids():
    leaves = [leaf for _, leaf, _ in _family_leaves()] + [base_leaf(2, 14).leaf]
    for leaf in leaves:
        for strategy in ("family_A", "family_C"):
            retagged = _retag(leaf, strategy)
            want = _reference_family_ac(retagged)
            assert want or strategy != leaf.klt_strategy, leaf  # the reference passes each leaf under its own tag
            if want:
                assert family_snc_check(retagged).passed, (strategy, leaf.space)


@st.composite
def _family_shaped_leaves(draw):
    """Leaves in N <= 5 variables near the family_A and family_C shapes:
    the coordinate entries are often exactly a family's and sometimes
    arbitrary (repeated, missing, extra); each variable of H mostly follows
    the family pattern (linear on the block, a power >= 2 beyond it) and is
    otherwise absent or of another exponent; a mixed monomial sometimes
    joins H."""
    nv = draw(st.integers(2, 5))
    strategy = draw(st.sampled_from(("family_A", "family_C")))
    n = nv - 1
    if strategy == "family_A":
        shaped, block = list(range(n - 2)) + [n], n - 2
    else:
        e = draw(st.integers(1, nv))
        shaped, block = list(range(e)), (e - 1 if e < nv else nv)
    coords = draw(st.just(shaped) | st.lists(st.integers(0, nv - 1), max_size=nv + 1))
    terms = []
    for j in range(nv):
        pattern = 1 if j < block else draw(st.integers(2, 4))
        k = pattern if draw(st.integers(0, 9)) < 8 else draw(st.integers(0, 3))
        if k:
            coeff = draw(st.sampled_from((1, -1, 3, Fraction(1, 2))))
            terms.append((coeff, tuple(k * (i == j) for i in range(nv))))
    if draw(st.integers(0, 9)) == 0:
        i, j = draw(st.lists(st.integers(0, nv - 1), min_size=2, max_size=2, unique=True))
        terms.append((1, tuple(int(v in (i, j)) for v in range(nv))))
    h = SparsePoly.from_terms(nv, terms)
    entries = [(StdCoeff(2), SparsePoly.variable(nv, j)) for j in coords] + [(StdCoeff(3), h)]
    return LogLeaf(Wps((1,) * nv), tuple(entries), strategy)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_family_shaped_leaves())
def test_coordinate_diagonal_passes_what_the_reference_passes_on_small_leaves(leaf):
    ok, _ = coordinate_chains(leaf)
    if _reference_family_ac(leaf):
        assert ok
    normals = [eq.linear_coefficients() for _, eq in leaf.entries]
    if ok and None not in normals:  # all hyperplanes: the rank criterion agrees
        assert hyperplane_arrangement_snc(normals)


def _retag(leaf, strategy):
    return LogLeaf(leaf.space, leaf.entries, strategy)


@pytest.mark.parametrize("leaf", [realize(4, 16).leaf, build_prime_power(3, 2)],
                         ids=["realize-4-16", "prime-power-3-2"])
def test_coordinate_diagonal_widens_the_reference(leaf):
    # the family_A frame wanted coordinates x_0..x_{n-3}, x_n; these shapes
    # are coordinate hyperplanes plus a diagonal H, which is all the proof uses
    assert not _reference_family_ac(_retag(leaf, "family_A"))
    assert family_snc_check(_retag(leaf, "family_A")).passed


_P211 = build_prime_power(3, 2)  # x0, x1 and H = x0 + x1^2 + x2^2 on P(2,1,1)
_X0 = poly(3, (1, (1, 0, 0)))


def _with_h(leaf, h):
    return LogLeaf(leaf.space, leaf.entries[:-1] + ((leaf.entries[-1][0], h),), leaf.klt_strategy)


@pytest.mark.parametrize("leaf,detail", [
    # family_B's H has the mixed monomial x_{n-2}x_n
    (_retag(build_index_prime(15), "family_A"), "family_A needs a Fermat sum H, but x4 ends a chain of length 2"),
    (_with_h(_P211, poly(3, (1, (1, 0, 0)), (1, (0, 2, 0)), (1, (0, 1, 0)), (1, (0, 0, 2)))),
     "two pure powers of x1"),
    (_with_h(_P211, poly(3, (1, (1, 0, 0)), (1, (0, 0, 2)))), "H has no term in x1"),
    (LogLeaf(_P211.space, ((StdCoeff(3), _X0), (StdCoeff(9), scaled(_X0, 2)), _P211.entries[-1]), "family_C"),
     "coordinate hyperplane x0 appears twice"),
    (_retag(LogLeaf(Wps((1, 1, 1)), tuple((StdCoeff(3), SparsePoly.variable(3, j)) for j in range(3)),
                    "hyperplane_arrangement"), "family_C"),
     "expected exactly one non-coordinate entry, found 0"),
    (LogLeaf(Wps((1, 1)), ((StdCoeff(2), poly(2, (1, (1, 0)))), (StdCoeff(2), poly(3, (1, (1, 0, 0)), (1, (0, 1, 1))))),
             "family_A"), "entries in different numbers of variables"),
], ids=["mixed-monomial", "two-powers", "missing-variable", "repeated-coordinate", "no-h", "mixed-nvars"])
def test_coordinate_diagonal_failure_details(leaf, detail):
    assert coordinate_chains(leaf) == (False, detail)


def test_coordinate_diagonal_detail_is_bounded_on_a_large_leaf():
    report = family_snc_check(_retag(build_index_prime(2003), "family_A"))  # family_B, n = 501
    (step,) = report.steps
    assert (step.description, step.passed) == (STEP_CHAINS, False)
    assert step.detail == "family_A needs a Fermat sum H, but x501 ends a chain of length 2"
    assert len(step.detail) < 200


def _linear_partials_per_variable(h, block):
    """The library's linear-partials step before it went one-pass: one scan
    of H per block variable, kept as the reference."""
    for i in block:
        unit = tuple(1 if j == i else 0 for j in range(h.nvars))
        if all(pairs != ((i, 1),) for _, pairs in h.terms):
            return False, f"x{i} does not appear linearly in H"
        for _, exps in h.monomials:
            if exps[i] > 0 and exps != unit:
                return False, f"partial of H in x{i} is not constant"
    return True, "" if block else "no linear block (deep stratum is everything)"


# -- family_B leaves against the old reduction -------------------------------


def _reference_family_b(leaf):
    """The four-step reduction that checked family_B leaves before one
    criterion did, kept as the reference that coordinate_chains must
    dominate: the shape frame (coordinate
    entries exactly x_0..x_{n-2}, H in the family pattern), constant linear
    partials on the block x_0..x_{n-3}, the residual
    a*x*z + b*y^j + c*z^k in (x, y, z) = (x_{n-2}, x_{n-1}, x_n) with its
    mixed term and its y power, and the restriction of the residual to
    {x = 0} diagonal in both remaining variables. True iff every step
    passed."""
    coords, others = [], []
    for _, eq in leaf.entries:
        j = _coordinate_var_by_scan(eq)
        if j is None:
            others.append(eq)
        else:
            coords.append(j)
    if len(others) != 1 or others[0].is_zero():
        return False
    h = others[0]
    n = h.nvars - 1
    if n < 2 or sorted(coords) != list(range(n - 1)):
        return False
    block = list(range(n - 2))
    if not _h_support_ok_by_scan(h, set(block), {n - 1, n}, (n - 2, n))[0]:
        return False
    if not _linear_partials_per_variable(h, block)[0]:
        return False
    residual = restrict_to(subs_zero(h, block), [n - 2, n - 1, n])
    if all(pairs != ((0, 1), (2, 1)) for _, pairs in residual.terms):
        return False
    if not any(ey >= 2 and ex == ez == 0 for _, (ex, ey, ez) in residual.monomials):
        return False
    return _diagonal_by_scan(restrict_to(subs_zero(residual, [0]), [1, 2]))


def test_family_b_pattern_matches_the_reference_on_the_grids():
    leaves = [leaf for _, leaf, _ in _family_leaves()] + [base_leaf(2, 14).leaf]
    passed = 0
    for leaf in leaves:
        report = family_snc_check(_retag(leaf, "family_B"))
        assert report.passed or not _reference_family_b(_retag(leaf, "family_B")), leaf.space
        if report.passed:
            assert [s.description for s in report.steps] == [STEP_CHAINS, STEP_KLT]
        passed += report.passed
    # the family_B leaves, m = 7, 11, ..., 399, and no other: every other grid
    # H is a Fermat sum, so here the two match
    assert passed == 99


@st.composite
def _family_b_shaped_leaves(draw):
    """Leaves in N <= 6 variables near the family_B shape, every entry in N
    variables: the coordinate entries are often exactly x_0..x_{n-2} and
    sometimes arbitrary (repeated, missing, extra); each slot of H (a block
    variable linearly, x_{n-2}x_n, a power of x_{n-1}, a power of x_n) is
    mostly filled and otherwise empty or of other exponents; a stray
    monomial, often a pure power, sometimes joins H."""
    nv = draw(st.integers(2, 6))
    n = nv - 1
    coords = draw(st.just(list(range(n - 1))) | st.lists(st.integers(0, nv - 1), max_size=nv + 1))
    slots = [{i: 1} for i in range(n - 2)]
    if n >= 2:
        slots += [{n - 2: 1, n: 1}, {n - 1: draw(st.integers(2, 4))}, {n: draw(st.integers(2, 4))}]
    exponents = []
    for slot in slots:
        fate = draw(st.integers(0, 11))
        if fate == 10:
            continue
        if fate == 11:
            j = draw(st.sampled_from(sorted(slot)))
            slot = {**slot, j: draw(st.integers(0, 3))}
        exponents.append(tuple(slot.get(i, 0) for i in range(nv)))
    if draw(st.integers(0, 4)) == 0 or not exponents:
        power = st.tuples(st.integers(0, nv - 1), st.integers(1, 3)).map(
            lambda t: tuple(t[1] * (i == t[0]) for i in range(nv)))
        exponents.append(draw(power | st.tuples(*[st.integers(0, 2)] * nv)))
    coeffs = st.sampled_from((1, -1, 3, Fraction(1, 2)))
    h = SparsePoly.from_terms(nv, [(draw(coeffs), e) for e in exponents])
    entries = [(StdCoeff(2), SparsePoly.variable(nv, j)) for j in coords] + [(StdCoeff(3), h)]
    return LogLeaf(Wps((1,) * nv), tuple(entries), "family_B")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_family_b_shaped_leaves())
def test_family_b_chains_cover_the_reference_on_small_leaves(leaf):
    ok, _ = coordinate_chains(leaf)
    if _reference_family_b(leaf):
        assert ok
    elif ok and leaf.entries[0][1].nvars <= 4:
        assert _snc_by_groebner(leaf)  # a leaf only the chain criterion accepts is SNC


def test_family_b_pattern_matches_the_reference_on_one_monomial_mutants():
    # H of the two smallest family_B leaves with one monomial dropped, or one pure
    # power x_j^e (e <= 3) or one product x_i*x_j added
    for leaf in (build_index_prime(7), build_index_prime(15)):
        h = leaf.entries[-1][1]
        nv = h.nvars
        mons = h.monomials  # one view, so that `is` picks out one monomial
        mutants = [tuple(t for t in mons if t is not drop) for drop in mons]
        added = {tuple(e * (i == j) for i in range(nv)) for j in range(nv) for e in (1, 2, 3)}
        added |= {tuple(int(i in (j, k)) for i in range(nv)) for j, k in combinations(range(nv), 2)}
        present = {e for _, e in h.monomials}
        mutants += [h.monomials + ((Fraction(1), e),) for e in sorted(added - present)]
        passed = 0
        for monomials in mutants:
            tampered = _with_h(leaf, SparsePoly(nv, monomials))
            ok, _ = coordinate_chains(tampered)
            assert ok or not _reference_family_b(tampered), monomials
            passed += ok
        # every monomial is needed, and none fits beside a full chain sum: here the two match
        assert passed == 0


def test_family_b_pattern_detail_is_bounded_on_a_large_leaf():
    leaf = build_index_prime(4003)  # n = 1001
    coeff, h = leaf.entries[-1]
    no_mixed = _without_supports(h, [(999, 1001)])
    (step,) = family_snc_check(_with_h(leaf, no_mixed)).steps
    assert (step.description, step.passed) == (STEP_CHAINS, False)
    assert step.detail == "H has no term in x999"
    assert len(step.detail) < 80 and str(h) not in step.detail


@pytest.mark.parametrize("strategy,detail", [
    ("family_B", "monomial on 1002 variables [0, 1, ...] is neither x_i^a nor x_i^a*x_j"),
    ("family_A", "monomial on 1002 variables [0, 1, ...] is neither x_i^a nor x_i^a*x_j"),
    ("hyperplane_arrangement", "entry 1000 is not a hyperplane: monomial on 1002 variables [0, 1, ...]"),
], ids=["family_B-monomial on 1002 variables [0, 1, ...]", "family_A-non-diagonal monomial on 1002 variables [0, 1, ...]",
        "hyperplane_arrangement-entry 1000 is not a hyperplane: monomial on 1002 variables [0, 1, ...]"])
def test_monomial_details_are_bounded_on_a_large_support(strategy, detail):
    # build_index_prime(4003) (n = 1001) with one more monomial in all 1002 variables
    leaf = build_index_prime(4003)
    h = leaf.entries[-1][1]
    wide = SparsePoly(h.nvars, h.monomials + ((Fraction(1), (1,) * h.nvars),))
    (step,) = is_klt_leaf(_retag(_with_h(leaf, wide), strategy)).steps
    assert (step.passed, step.detail) == (False, detail)
    assert len(step.detail) < 80


def test_hyperplane_shape_detail_is_bounded_on_a_large_leaf():
    leaf = _retag(build_index_prime(4001), "hyperplane_arrangement")  # family_A, n = 1001
    (step,) = is_klt_leaf(leaf).steps
    assert (step.description, step.passed) == (STEP_SHAPE, False)
    assert step.detail == "entry 1000 is not a hyperplane: monomial on variables [999]"
    assert len(step.detail) < 80


_B15 = build_index_prime(15)  # x0, x1, x2 and H = x0 + x1 + x2*x4 + x3^2 + x4^4 on P(4, 4, 3, 2, 1)


def _b15_with(drop=(), add=()):
    """_B15 with the H monomials of the listed supports dropped and the listed exponent vectors added."""
    h = _B15.entries[-1][1]
    kept = _without_supports(h, drop).monomials
    return _with_h(_B15, SparsePoly(5, kept + tuple((Fraction(1), e) for e in add)))


@pytest.mark.parametrize("leaf,want,reference", [
    (_B15, (True, "3 coordinate hyperplanes and H a sum of 4 chains in 5 variables"), True),
    (build_index_prime(7), (True, "1 coordinate hyperplanes and H a sum of 2 chains in 3 variables"), True),
    (_b15_with(drop=[(1,)]), (False, "H has no term in x1"), False),
    # x1 also occurs in x1*x2, so dH/dx1 is not constant: walking from the pure power x1
    # through x1*x2 and x2*x4 reaches x4, the base of x4^4 already
    (_b15_with(add=[(0, 1, 1, 0, 0)]), (False, "x4 is the base of two monomials"), False),
    # x1^2 but no x1: a Fermat term whose head x1 is a coordinate, which the reference
    # rejected and the chain proof covers
    (_b15_with(drop=[(1,)], add=[(0, 2, 0, 0, 0)]), (True, "3 coordinate hyperplanes and H a sum of 4 chains in 5 variables"),
     False),
    # x0 missing and x1 in x1*x3: x3 is the base of x3^2 and of x1*x3
    (_b15_with(drop=[(0,)], add=[(0, 1, 0, 1, 0)]), (False, "x3 is the base of two monomials"), False),
    # x0 and x1 missing: the lower variable is reported
    (_b15_with(drop=[(0,), (1,)]), (False, "H has no term in x0"), False),
], ids=["ok", "empty-block", "missing", "not-constant", "square-only", "two-failures", "two-failures-missing-first"])
def test_linear_partials_messages(leaf, want, reference):
    # mutants of the linear block x_0..x_{n-3} of the family_B shape
    assert coordinate_chains(leaf) == want
    assert _reference_family_b(leaf) == reference
    if want[0] and not reference:
        assert _snc_by_groebner(leaf)


def test_linear_block_mutants_against_the_reference_on_the_family_grids():
    # each family_B leaf of the grid with a block variable x_i dropped from H,
    # squared, or times x_{n-1}. The reference rejects all three; the chain
    # criterion rejects only the drop, since x_i^2 is a Fermat term and
    # x_i*x_{n-1} + x_{n-1}^2 a chain, each with its head x_i a coordinate.
    for m in range(15, 202, 4):
        leaf = build_index_prime(m)
        h = leaf.entries[-1][1]
        nv = h.nvars
        n = nv - 1
        for i in (0, n - 3):
            kept = _without_supports(h, [(i,)]).monomials
            squared = tuple(2 * (j == i) for j in range(nv))
            times = tuple(int(j in (i, n - 1)) for j in range(nv))
            for extra, want in (
                ((), (False, f"H has no term in x{i}")),
                (((1, squared),), (True, f"{n - 1} coordinate hyperplanes and H a sum of {n} chains in {nv} variables")),
                (((1, times),), (True, f"{n - 1} coordinate hyperplanes and H a sum of {n - 1} chains in {nv} variables")),
            ):
                tampered = _with_h(leaf, SparsePoly(nv, kept + extra))
                assert coordinate_chains(tampered) == want, (m, i)
                assert _reference_family_b(tampered) is False
                if want[0] and m == 15:
                    assert _snc_by_groebner(tampered)


# -- coordinate_chains against a Groebner-basis SNC oracle --------------------


def _only_origin(polys, xs):
    """Do the polynomials vanish together only at 0 (or nowhere)? By a
    Groebner basis: the ideal must be zero-dimensional with every x_i
    nilpotent, and x_i^D lies in it for D the product of the leading pure
    powers, which bounds the dimension of the quotient."""
    sympy = pytest.importorskip("sympy")
    basis = sympy.groebner(polys, *xs, order="grevlex")
    if basis.exprs == [1]:
        return True
    if not basis.is_zero_dimensional:
        return False
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    bound = 1
    for i in range(len(xs)):
        bound *= min(m[i] for m in leads if m[i] == sum(m) > 0)
    return all(basis.reduce(x**bound)[1] == 0 for x in xs)


def _snc_by_groebner(leaf):
    """Oracle for coordinate hyperplanes plus one H: SNC outside the origin
    iff for every set U of boundary coordinates, x_U, H and the partials of
    H in the variables outside U vanish together only at 0."""
    sympy = pytest.importorskip("sympy")
    coords = [j for _, eq in leaf.entries if (j := _coordinate_var_by_scan(eq)) is not None]
    (h,) = [eq for _, eq in leaf.entries if _coordinate_var_by_scan(eq) is None]
    xs = sympy.symbols(f"x0:{h.nvars}")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(xs, exps)])
               for c, exps in h.monomials)
    for size in range(len(coords) + 1):
        for u in combinations(coords, size):
            rest = [sympy.diff(expr, xs[j]) for j in range(h.nvars) if j not in u]
            if not _only_origin([xs[j] for j in u] + [expr] + rest, xs):
                return False
    return True


@st.composite
def _chain_leaves(draw):
    """(leaf, clean) in 2 to 4 variables: H a sum of chains over a random
    split of the shuffled variables, each link exponent 1 to 3 and each tail
    exponent 1 to 3 (1 is legal only for a chain of length 1), plus a
    boundary of random coordinates that often includes non-heads, a tag that
    usually names the shape, and sometimes one exponent of one monomial
    changed. clean means no tail exponent 1 ends a longer chain, every
    coordinate is a head, the tag names the shape and nothing was mutated,
    which is when coordinate_chains must accept."""
    nv = draw(st.integers(2, 4))
    order = draw(st.permutations(range(nv)))
    cuts = sorted(draw(st.sets(st.integers(1, nv - 1))))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [nv])]
    exponents, heads, clean, chained = [], set(), True, False
    for block in blocks:
        heads.add(block[0])
        chained |= len(block) > 1
        for i, j in zip(block, block[1:]):
            exponents.append(tuple(draw(st.integers(1, 3)) * (v == i) + (v == j) for v in range(nv)))
        tail = draw(st.integers(1, 3))
        clean &= tail >= 2 or len(block) == 1
        exponents.append(tuple(tail * (v == block[-1]) for v in range(nv)))
    coords = draw(st.sets(st.integers(0, nv - 1)))
    clean &= coords <= heads
    strategy = draw(st.sampled_from(["family_B" if chained else "family_A"] * 4 + ["family_A", "family_B"]))
    clean &= (strategy == "family_B") == chained
    if draw(st.integers(0, 3)) == 0:
        k, v = draw(st.integers(0, len(exponents) - 1)), draw(st.integers(0, nv - 1))
        mutant = list(exponents[k])
        mutant[v] = draw(st.integers(0, 3).filter(lambda e: e != mutant[v]))
        if any(mutant) and tuple(mutant) not in exponents:
            exponents[k], clean = tuple(mutant), False
    coeffs = st.sampled_from((1, -1, 2, Fraction(1, 3)))
    h = SparsePoly.from_terms(nv, [(draw(coeffs), e) for e in exponents])
    if _coordinate_var(h) is not None:  # H = c*x_j is itself a coordinate entry
        h, clean = SparsePoly.from_terms(nv, [(1, tuple(2 * (v == 0) for v in range(nv)))] + [
            (1, e) for e in exponents if e != tuple(2 * (v == 0) for v in range(nv))]), False
    entries = [(StdCoeff(2), SparsePoly.variable(nv, j)) for j in sorted(coords)] + [(StdCoeff(3), h)]
    return LogLeaf(Wps((1,) * nv), tuple(entries), strategy), clean


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_chain_leaves())
@example((_retag(build_index_prime(7), "family_B"), True))
@example((_chain_leaf(poly(3, (1, (1, 1, 0)), (1, (0, 1, 1)), (1, (0, 0, 2))), (0,), "family_B"), True))
@example((_chain_leaf(poly(2, (1, (1, 1)), (1, (0, 1))), (0,), "family_B"), False))
@example((_chain_leaf(poly(3, (1, (3, 1, 0)), (1, (0, 2, 1)), (1, (1, 0, 2))), (0,), "family_B"), False))
def test_coordinate_chains_accepts_only_snc_leaves(case):
    # the examples: family_B on P(3,2,1); x0*x1 + x1*x2 + x2^2 with exponent-1 links;
    # x0*x1 + x1, whose tail exponent is 1; the loop x0^3*x1 + x1^2*x2 + x2^2*x0
    leaf, clean = case
    ok, detail = coordinate_chains(leaf)
    if clean:
        assert ok, detail
    if ok:
        assert _snc_by_groebner(leaf)


@pytest.mark.parametrize("h,coords,strategy,detail", [
    (poly(3, (1, (0, 0, 2)), (1, (0, 1, 1)), (1, (0, 2, 1)), (1, (2, 1, 0))), (), "family_B",
     "the chain through x2 branches"),
    (poly(2, (1, (2, 1)), (1, (3, 0)), (1, (0, 2))), (), "family_B", "x0 is the base of two monomials"),
    (poly(3, (1, (1, 1, 0)), (1, (0, 1, 1)), (1, (0, 0, 1))), (), "family_B",
     "the chain ending in x2 has length 3 but tail exponent 1"),
    (poly(3, (1, (3, 1, 0)), (1, (0, 2, 1)), (1, (1, 0, 2))), (), "family_B", "x0 is on no chain ending in a pure power"),
    (poly(3, (1, (1, 0, 1)), (1, (0, 2, 0)), (1, (0, 0, 4))), (0, 2), "family_B",
     "coordinate hyperplane x2 is not a chain head"),
    (poly(3, (1, (1, 1, 1)), (1, (0, 2, 0)), (1, (0, 0, 4))), (), "family_B",
     "monomial on 3 variables [0, 1, ...] is neither x_i^a nor x_i^a*x_j"),
    (poly(3, (1, (2, 2, 0)), (1, (0, 0, 2))), (), "family_C", "monomial on variables [0, 1] is neither x_i^a nor x_i^a*x_j"),
], ids=["branch", "base-twice", "linear-tail", "loop", "non-head", "three-variables", "no-linear-end"])
def test_coordinate_chains_failure_details(h, coords, strategy, detail):
    assert coordinate_chains(_chain_leaf(h, coords, strategy)) == (False, detail)


def test_coordinate_chains_finds_the_first_missing_variable_without_scanning_nvars():
    # H = x0^2 + x1^2 in 10^100 variables: the least variable off every chain
    # is found among the len(seen) + 1 smallest, never in range(nvars)
    nvars = 10**100
    h = SparsePoly.from_pairs(nvars, [(1, ((0, 2),)), (1, ((1, 2),))])
    leaf = LogLeaf(Wps((1, 1)), ((StdCoeff(2), SparsePoly.variable(nvars, 1)), (StdCoeff(2), h)), "family_C")
    assert coordinate_chains(leaf) == (False, "H has no term in x2")
    # the same detail as on a space small enough to scan
    small = poly(4, (1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 0, 2)))
    assert coordinate_chains(_chain_leaf(small, (1,))) == (False, "H has no term in x2")


def test_a_strategy_swap_fails_the_chain_step():
    # family_A and family_B leaves are SNC under either tag; the tag must name the shape
    for m in range(41, 62, 2):
        leaf = build_index_prime(m)
        swapped = _retag(leaf, "family_B" if leaf.klt_strategy == "family_A" else "family_A")
        assert is_klt_leaf(leaf).passed and not is_klt_leaf(swapped).passed, m


# -- support readers against the exponent scans they replaced ---------------


def _nonzero(exps):
    return [j for j, e in enumerate(exps) if e > 0]


def _diagonal_by_scan(eq):
    seen = set()
    for _, exps in eq.monomials:
        nz = _nonzero(exps)
        if len(nz) != 1:
            shown = f"on variables {nz}" if len(nz) <= 2 else f"on {len(nz)} variables [{nz[0]}, {nz[1]}, ...]"
            raise ValueError(f"non-diagonal monomial {shown}")
        if nz[0] in seen:
            raise ValueError(f"two monomials in variable x{nz[0]}")
        seen.add(nz[0])
    return seen == set(range(eq.nvars))


def _coordinate_var_by_scan(eq):
    if len(eq.monomials) != 1:
        return None
    exps = eq.monomials[0][1]
    nz = _nonzero(exps)
    return nz[0] if len(nz) == 1 and exps[nz[0]] == 1 else None


def _h_support_ok_by_scan(h, block, residual, mixed):
    powers_seen = set()
    for _, exps in h.monomials:
        nz = _nonzero(exps)
        if mixed is not None and len(nz) == 2:
            if tuple(nz) == tuple(sorted(mixed)) and all(exps[j] == 1 for j in nz):
                continue
            return False, f"monomial on variables {nz} outside the family pattern"
        if len(nz) != 1:
            return False, f"monomial on variables {nz} outside the family pattern"
        j = nz[0]
        if exps[j] == 1 and j in block:
            continue
        if exps[j] >= 2 and j in residual:
            if j in powers_seen:
                return False, f"two pure powers of x{j}"
            powers_seen.add(j)
            continue
        return False, f"monomial x{j}^{exps[j]} outside the family pattern"
    return True, ""


def _conic_smooth_by_scan(curve):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for c, exps in curve.monomials:
        nz = _nonzero(exps)
        if len(nz) == 1:
            m[nz[0]][nz[0]] = c
        else:
            i, j = nz
            m[i][j] = m[j][i] = c / 2
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) != 0


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return ("ValueError", str(err))


@st.composite
def _support_polys(draw):
    """Polynomials in 1 to 5 variables whose vectors are often unit, pure
    powers or all-zero, so the family patterns are hit as well as missed."""
    nv = draw(st.integers(1, 5))
    var = st.integers(0, nv - 1)
    vectors = st.one_of(
        st.tuples(var, st.integers(1, 3)).map(lambda t: tuple(t[1] * (i == t[0]) for i in range(nv))),
        st.tuples(var, var).map(lambda t: tuple(int(i in t) for i in range(nv))),  # x_i*x_j or x_i
        st.just((0,) * nv),
        st.tuples(*[st.integers(0, 2)] * nv),
    )
    exps = draw(st.lists(vectors, min_size=1, max_size=5, unique=True))
    return SparsePoly(nv, tuple((draw(st.sampled_from((1, -1, 2, Fraction(1, 3)))), e) for e in exps))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_support_polys())
def test_support_readers_match_the_scans(h):
    # a Fermat sum H in every variable is what the diagonal scan accepts
    if h.nvars > 1 and _coordinate_var(h) is None:
        assert coordinate_chains(_chain_leaf(h))[0] == (_outcome(_diagonal_by_scan, h) is True)
    assert _coordinate_var(h) == _coordinate_var_by_scan(h)


_CONIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=6, max_size=6).filter(any))
@example([1, 0, 0, 0, 0, 0])
@example([0, -1, 0, 0, 1, 0])  # x*z - y^2
@example([1, 1, 0, 2, 0, 0])  # (x + y)^2
def test_conic_smooth_matches_the_scan(coeffs):
    conic = SparsePoly(3, tuple((c, e) for c, e in zip(coeffs, _CONIC_MONOMIALS) if c))
    assert _conic_smooth(_integer_terms(conic)) == _conic_smooth_by_scan(conic)


def test_family_shapes_match_the_scans_on_the_grids():
    leaves = [build_index_prime(m) for m in range(5, 122, 2)]
    leaves += [build_prime_power(b, e) for b in range(3, 7) for e in range(2, 6)]
    for leaf in leaves:
        for _, eq in leaf.entries:
            assert _coordinate_var(eq) == _coordinate_var_by_scan(eq)


# -- dispatch ----------------------------------------------------------------


def test_is_klt_leaf_p1_pair():
    leaf = search_plane_pair(1, 6)
    report = is_klt_leaf(leaf)
    assert report.passed and report.strategy == "hyperplane_arrangement"


def test_is_klt_leaf_power():
    assert is_klt_leaf(build_prime_power(3, 2)).passed


def test_is_klt_leaf_coincident_points_fail():
    leaf = LogLeaf(
        Wps((1, 1)),
        (
            (StdCoeff(2), SparsePoly.linear_form((0, 1))),
            (StdCoeff(3), SparsePoly.linear_form((0, 5))),
            (StdCoeff(6), SparsePoly.linear_form((1, 0))),
        ),
        "hyperplane_arrangement",
    )
    assert not is_klt_leaf(leaf).passed


def test_is_klt_leaf_plane_strategy():
    for m in (10, 18):
        report = is_klt_leaf(search_plane_pair(2, m))
        assert report.passed and report.strategy == "plane_arrangement"


def test_family_checks_invariant_under_entry_permutation():
    leaf = build_prime_power(5, 3)
    entries = list(leaf.entries)
    for rotation in range(len(entries)):
        rotated = tuple(entries[rotation:] + entries[:rotation])
        assert family_snc_check(LogLeaf(leaf.space, rotated, leaf.klt_strategy)).passed
