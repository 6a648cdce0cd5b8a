"""Kltness certification for log-pair leaves via affine-cone SNC checks.

Every checker here certifies the stronger statement that the boundary
divisor of the affine cone has simple normal crossing support away from the
origin; since all coefficients are standard (hence < 1), this implies the
pair is Kawamata log terminal. None of the checkers decides kltness in
general: each validates one specific shape, in exact rational arithmetic,
and reports its steps so the reasoning can be replayed.

Every family leaf is one criterion, coordinate_chains, whose proof is in its
docstring, and one klt step: distinct coordinate hyperplanes plus one H
that is a sum of Kreuzer-Skarke chains in disjoint variables, each boundary
coordinate the head of its chain. The tag names the shape: family_B leaves
have a chain of length >= 2, family_A and family_C leaves only Fermat
terms.

Arrangement strategies are checked directly: hyperplanes by exact rank of
normal-vector subsets, within a fixed work budget, and plane curves by
resultants of sheared equations (squarefree tests for transversality, gcd
tests against triple points). Both run exactly in integers after clearing
each equation's denominators, which changes no zero set, rank, resultant
root or gcd degree. The resultant route is conservative: a shared resultant
root that cannot be certified harmless causes rejection, never acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .wpspairs import (
    LogLeaf,
    NotQuasiHomogeneous,
    SparsePoly,
    Wps,
    _bounded_int,
    _distinct_up_to_scaling,
    dense_exponents,
    weighted_degree,
)

__all__ = [
    "KltStep",
    "KltReport",
    "coordinate_chains",
    "hyperplane_arrangement_snc",
    "plane_arrangement_snc",
    "family_snc_check",
    "is_klt_leaf",
    "STEP_CHAINS",
    "STEP_SHAPE",
    "STEP_HYPERPLANES",
    "STEP_PLANE",
    "STEP_KLT",
]

# Step description strings are part of the report format; keep them stable.
STEP_CHAINS = "distinct coordinate hyperplanes plus one H that is a sum of chains, each coordinate a chain head"
STEP_SHAPE = "shape matches declared strategy"
STEP_HYPERPLANES = "hyperplane arrangement simple normal crossing outside the origin"
STEP_PLANE = "plane arrangement simple normal crossing outside the origin"
STEP_KLT = "SNC support with all coefficients < 1 outside the origin implies klt"


@dataclass(frozen=True)
class KltStep:
    description: str
    passed: bool
    detail: str = ""

    def as_obj(self) -> dict:
        return {"description": self.description, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class KltReport:
    passed: bool
    strategy: str
    steps: tuple[KltStep, ...]

    def as_obj(self) -> dict:
        return {
            "passed": self.passed,
            "strategy": self.strategy,
            "steps": [s.as_obj() for s in self.steps],
        }


def _report(strategy: str, steps: list[KltStep]) -> KltReport:
    passed = all(s.passed for s in steps)
    if passed:
        steps = steps + [KltStep(STEP_KLT, True)]
    return KltReport(passed, strategy, tuple(steps))


# ---------------------------------------------------------------------------
# hyperplane arrangements
# ---------------------------------------------------------------------------


def _integer_row(v: list[Fraction]) -> list[int]:
    """v times the lcm of its denominators: an integer vector spanning the same line."""
    d = lcm(*[x.denominator for x in v])
    return [x.numerator * (d // x.denominator) for x in v]


def _rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After k pivots every entry below the pivot rows is, up to sign, a
    (k+1)-minor of the input (Sylvester's identity), so the division by the
    previous pivot is exact and the entries stay bounded by Hadamard's
    inequality.
    """
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
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
        p = prow[col]
        for r in range(rank + 1, nrows):
            a = mat[r][col]
            mat[r] = [(p * x - a * y) // prev for x, y in zip(mat[r], prow)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


# Entry updates the hyperplane check may spend: C(k, t) subsets of t rows,
# each ranked in about t * t * nv updates. The largest arrangement in the
# benchmark corpus, 12 normals in 6 variables, needs 924 * 216 = 199,584.
_HYPERPLANE_WORK_BUDGET = 10**7

# Resultant and triple tests the plane check may spend, counting a curve of
# degree d as d lines: C(D, 2) + C(D, 3) for total degree D. A pair test
# takes about 12 us for two lines and 850 us for two cubics, a triple test
# 8 to 90 us, so the budget is about 1 s whatever the degrees. In a
# degree-zero arrangement sum d_i (1 - 1/b_i) = 3 with each term >= d_i / 2,
# so D <= 6 and 35 tests; 84 lines are the most that fit.
_PLANE_WORK_BUDGET = 10**5


def hyperplane_arrangement_snc(normals) -> bool:
    """Is the arrangement of hyperplanes (given by their normal vectors)
    simple normal crossing outside the origin?

    Required condition: every subset whose common zero locus meets the
    punctured cone has linearly independent normals. Checking all subsets
    of size exactly t = min(#normals, #variables) suffices: a dependent
    subset of size <= t extends to a dependent subset of size t, and if all
    size-t subsets are independent then larger subsets cut out only the
    origin. Each normal is cleared of denominators once, so every subset
    is ranked in integer arithmetic.

    Deciding this is NP-hard in general (full spark), so the work is
    bounded: if C(k, t) * t * t * nv exceeds _HYPERPLANE_WORK_BUDGET, a
    ValueError naming the resource budget is raised before any subset is
    ranked.
    """
    vecs = [[Fraction(x) for x in v] for v in normals]
    if not vecs:
        return True
    nv = len(vecs[0])
    if any(len(v) != nv for v in vecs):
        raise ValueError("normal vectors of mixed lengths")
    if any(all(x == 0 for x in v) for v in vecs):
        raise ValueError("zero normal vector")
    k, t = len(vecs), min(len(vecs), nv)
    if comb(k, t) * t * t * nv > _HYPERPLANE_WORK_BUDGET:
        raise ValueError(f"resource budget: ranking C({k}, {t}) subsets in {nv} variables "
                         f"exceeds {_HYPERPLANE_WORK_BUDGET} entry updates")
    rows = [_integer_row(v) for v in vecs]
    for subset in combinations(range(k), t):
        if _rank([rows[i] for i in subset]) != t:
            return False
    return True


# ---------------------------------------------------------------------------
# plane arrangements (lines / conics / cubics on P^2, points on P^1)
# ---------------------------------------------------------------------------
# Everything below runs over the integers. A polynomial in x is a list of
# ints, index = power, no trailing zeros; a form F of degree d in (x, y, z)
# is (rows, d) with rows[b][a] the coefficient of x^a y^b z^(d-a-b), rows
# (and each row) without trailing zeros, so rows[b] is the coefficient of
# y^b dehomogenized at z = 1.


_P2 = Wps((1, 1, 1))


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[x]; Z has no zero divisors, so it needs no trim."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _det(mat: list[list[list[int]]]) -> list[int]:
    """Determinant of a small matrix over Z[x], by expansion along the first row."""
    if len(mat) <= 1:
        return mat[0][0] if mat else [1]
    acc: list[int] = []
    for j, head in enumerate(mat[0]):
        if head:
            term = _mul(head, _det([row[:j] + row[j + 1 :] for row in mat[1:]]))
            acc += [0] * (len(term) - len(acc))
            for i, c in enumerate(term):
                acc[i] += -c if j % 2 else c
    return _trim(acc)


def _primitive(p: list[int]) -> list[int]:
    g = gcd(*p)
    return [c // g for c in p]


def _gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree over Q of gcd(a, b), a != 0, by a primitive pseudo-remainder
    sequence over Z.

    Each inner step replaces a by lc(b) a - lc(a) x^s b, which cancels the
    leading term of a. When deg a < deg b, a = lc(b)^k a_0 - q b for some q,
    which is lc(b)^k times the Euclidean remainder of a_0 by b, so
    gcd(a_0, b) = gcd(b, a) over Q. Dividing each remainder by its content
    keeps the numbers small and changes no degree; by Gauss's lemma the
    degrees are those over Q.
    """
    a, b = _primitive(a), _primitive(b)
    while b:
        lb, db = b[-1], len(b) - 1
        while len(a) > db:
            la, s = a[-1], len(a) - 1 - db
            a = [lb * c for c in a]
            for i, c in enumerate(b):
                a[i + s] -= la * c
            _trim(a)
        a, b = b, _primitive(a)
    return len(a) - 1


def _integer_terms(curve: SparsePoly) -> list[tuple[int, list[int]]]:
    """curve times the lcm of its denominators, as (int coefficient, dense
    exponent vector) pairs. A nonzero constant multiple has the same zero
    set, singular points, tangents and intersections, and it scales every
    resultant below by a nonzero constant: Res_y(c f, d g) = c^q d^p Res_y(f, g)."""
    coeffs = _integer_row([c for c, _ in curve.terms])
    return [(c, dense_exponents(curve.nvars, pairs)) for c, (_, pairs) in zip(coeffs, curve.terms)]


def _sheared(terms, d: int, k: int) -> tuple[list[list[int]], int]:
    """The form of degree d after x -> x + k y, as (rows, d)."""
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    for c, (a, b, _) in terms:
        for i in range(a + 1):
            rows[b + a - i][i] += c * comb(a, i) * k ** (a - i)
    return _trim([_trim(row) for row in rows]), d


def _resultant_y(f, g) -> tuple[list[int], int]:
    """Resultant of two forms (rows, degree) with respect to y, by the
    Sylvester determinant over Z[x]; dehomogenized at z = 1.

    Returns (R, D): R as a polynomial in x and D the degree of the
    resultant as a binary form in (x, z); D - deg(R) is the multiplicity of
    the root at (1:0).
    """
    (fc, fd), (gc, gd) = f, g
    p, q = len(fc) - 1, len(gc) - 1
    mat = [[[]] * r + fc[::-1] + [[]] * (q - 1 - r) for r in range(q)]
    mat += [[[]] * r + gc[::-1] + [[]] * (p - 1 - r) for r in range(p)]
    return _det(mat), q * fd + p * gd - p * q


def _binary_squarefree(r: list[int], d: int) -> bool:
    """Is the binary form (r dehomogenized at z = 1, full degree d) squarefree?"""
    if not r:
        return False
    if d - (len(r) - 1) > 1:
        return False  # root at (1:0) with multiplicity >= 2
    return _gcd_degree(r, [i * c for i, c in enumerate(r)][1:]) <= 0


def _share_projective_root(r1, d1, r2, d2) -> bool:
    if not r1 or not r2:
        return True  # zero resultant: treat as shared (conservative)
    if d1 - (len(r1) - 1) >= 1 and d2 - (len(r2) - 1) >= 1:
        return True  # both vanish at (1:0)
    return _gcd_degree(r1, r2) >= 1


def _conic_smooth(terms) -> bool:
    """Smoothness of a plane conic with integer coefficients: its symmetric
    matrix M is singular iff the integer matrix 2M is, det 2M = 8 det M."""
    m = [[0] * 3 for _ in range(3)]
    for c, e in terms:
        i, j = [v for v in range(3) for _ in range(e[v])]
        m[i][j] += c
        m[j][i] += c
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) != 0


def _cubic_smooth_certified(rows: list[list[int]]) -> bool:
    """Gradient common-zero test for a sheared plane cubic, via resultants.

    The shear makes the y-partial y-regular of degree 2 with constant
    leading coefficient, so the resultants of (F_y, F_x) and (F_y, F_z)
    project every common gradient zero faithfully. Certifies smoothness
    when those two resultants share no projective root; anything unclear is
    rejected, never accepted. The partials are read off the rows: F_x, F_y
    and F_z scale the coefficient of x^a y^b z^(3-a-b) by a, b and 3-a-b.
    """
    fy = _trim([[b * c for c in row] for b, row in enumerate(rows)][1:]), 2
    fx = _trim([[a * c for a, c in enumerate(row)][1:] for row in rows]), 2
    fz = _trim([_trim([(3 - a - b) * c for a, c in enumerate(row)]) for b, row in enumerate(rows)]), 2
    if not fx[0] or not fz[0]:
        return False  # cone over a binary cubic: singular
    r1, d1 = _resultant_y(fy, fx)
    r2, d2 = _resultant_y(fy, fz)
    if not r1 or not r2:
        return False
    return not _share_projective_root(r1, d1, r2, d2)


def plane_arrangement_snc(curves) -> bool:
    """Is an arrangement of plane curves (degree 1 to 3, homogeneous, in 3
    variables) simple normal crossing outside the origin of its cone?

    Checks: (a) every curve smooth (lines trivially, conics by determinant,
    cubics by the resultant gradient test), (b) every pair transversal (the
    y-resultant after a deterministic shear is squarefree as a binary
    form), (c) no triple points (the two resultants through a pivot curve
    share no projective root). A 2-variable input is a point configuration
    on P^1 and degenerates to a pairwise-distinct-points check.

    Each curve is cleared of denominators, sheared and split into
    y-coefficients once, so every test runs exactly in integers.
    Conservative by design: any uncertifiable situation returns False. A
    nonzero constant (degree 0, no curve at all) or a curve of degree > 3
    raises ValueError, and a non-homogeneous curve NotQuasiHomogeneous;
    each message names the entry index. The work is bounded: if the tests
    counted by _PLANE_WORK_BUDGET exceed it, a ValueError naming the
    resource budget is raised before any curve is sheared.
    """
    curves = list(curves)
    if not curves:
        return True
    nv = curves[0].nvars
    if any(c.nvars != nv for c in curves):
        raise ValueError("curves in a mixed number of variables")
    if any(c.is_zero() for c in curves):
        return False

    if nv == 2:
        # points on P^1: all entries must be distinct linear forms
        return all(c.linear_coefficients() is not None for c in curves) and _distinct_up_to_scaling(curves)
    if nv != 3:
        raise ValueError("plane arrangements live in 3 variables (or 2 for P^1)")

    degrees = []
    for i, c in enumerate(curves):
        try:
            d = weighted_degree(c, _P2)  # also enforces homogeneity
        except NotQuasiHomogeneous as err:
            raise NotQuasiHomogeneous(f"entry {i}: {err}") from None
        if d > 3:
            raise ValueError(f"entry {i} is a curve of degree {_bounded_int(d)} > 3")
        if d == 0:
            raise ValueError(f"entry {i} is a nonzero constant, which cuts out no curve")
        degrees.append(d)
    total = sum(degrees)
    if comb(total, 2) + comb(total, 3) > _PLANE_WORK_BUDGET:
        raise ValueError(f"resource budget: {len(curves)} curves of total degree {total} need C({total}, 2) + "
                         f"C({total}, 3) resultant and triple tests, over {_PLANE_WORK_BUDGET}")
    terms = [_integer_terms(c) for c in curves]

    # deterministic shear x -> x + k*y: smallest k making every leading
    # y-coefficient (the value at (k:1:0)) nonzero
    shear_k = next((k for k in range(101) if all(sum(c * k**a for c, (a, _, z) in t if z == 0) for t in terms)),
                   None)
    if shear_k is None:
        return False  # some curve contains the line z = 0; cannot certify
    sheared = [_sheared(t, d, shear_k) for t, d in zip(terms, degrees)]

    # (a) smoothness
    for t, (rows, d) in zip(terms, sheared):
        if d == 2 and not _conic_smooth(t):
            return False
        if d == 3 and not _cubic_smooth_certified(rows):
            return False

    # (b) pairwise transversality
    res: dict[tuple[int, int], tuple[list[int], int]] = {}
    for i, j in combinations(range(len(curves)), 2):
        r, dd = res[(i, j)] = _resultant_y(sheared[i], sheared[j])
        if not r:
            return False  # shared component
        if not _binary_squarefree(r, dd):
            return False

    # (c) no point on three curves; pivot on the lowest-degree curve of the
    # triple so that coinciding projections along the pivot mean a genuine
    # triple point rather than a projection artifact
    for tri in combinations(range(len(curves)), 3):
        pivot = min(tri, key=lambda i: (degrees[i], i))
        a, b = [i for i in tri if i != pivot]
        r1, d1 = res[tuple(sorted((pivot, a)))]
        r2, d2 = res[tuple(sorted((pivot, b)))]
        if _share_projective_root(r1, d1, r2, d2):
            return False
    return True


# ---------------------------------------------------------------------------
# family checks
# ---------------------------------------------------------------------------


def _coordinate_var(eq: SparsePoly) -> int | None:
    """Index j if eq is c * x_j (a coordinate hyperplane), else None."""
    if len(eq.terms) != 1:
        return None
    _, pairs = eq.terms[0]
    if len(pairs) == 1 and pairs[0][1] == 1:
        return pairs[0][0]
    return None


def _frame(leaf: LogLeaf) -> tuple[list[int], SparsePoly | None, str]:
    """(coords, H, "") if the leaf is distinct coordinate hyperplanes
    {x_j = 0} plus exactly one other entry H, all in one number of
    variables; (coords, None, why) otherwise. coords is sorted."""
    eqs = leaf.equations()
    coords, others = [], []
    for eq in eqs:
        j = _coordinate_var(eq)
        if j is None:
            others.append(eq)
        else:
            coords.append(j)
    coords.sort()
    if len(others) != 1:
        return coords, None, f"expected exactly one non-coordinate entry, found {len(others)}"
    h = others[0]
    if any(eq.nvars != h.nvars for eq in eqs):
        return coords, None, "entries in different numbers of variables"
    repeated = next((a for a, b in zip(coords, coords[1:]) if a == b), None)
    if repeated is not None:
        return coords, None, f"coordinate hyperplane x{repeated} appears twice"
    return coords, h, ""


def _monomial_on(pairs: tuple[tuple[int, int], ...]) -> str:
    """A monomial named by its support, bounded for details: every variable
    of a support of at most 2, else the first two and the support size."""
    nz = [v for v, _ in pairs]
    if len(nz) <= 2:
        return f"monomial on variables {nz}"
    return f"monomial on {len(nz)} variables [{nz[0]}, {nz[1]}, ...]"


def coordinate_chains(leaf: LogLeaf) -> tuple[bool, str]:
    """Distinct coordinate hyperplanes {x_j = 0} plus exactly one other
    entry H are simple normal crossing outside the origin of the affine cone
    when H is a sum of chains in disjoint variables and every boundary
    coordinate is the head of its chain.

    A chain is c_1 x_1^a_1 x_2 + ... + c_{k-1} x_{k-1}^a_{k-1} x_k + c_k x_k^a_k
    with all a_i >= 1, and a_k >= 2 if k >= 2; its head is x_1, the one
    variable no monomial points to. k = 1 is a Fermat term x^a. So every
    monomial is x_i^a (based at i) or x_i^a x_j (based at i, pointing to
    j), each variable is the base of exactly one monomial and the target of
    at most one, and following the pointers ends at a pure power. A loop,
    where the pointers close up, is rejected, conservatively.

    Proof: a diagonal scaling of the variables makes every c_i = 1, since
    the exponent matrix of a chain is triangular with nonzero diagonal.
    (1) A chain F is quasi-smooth. Let q != 0 and s the least index with
    x_s(q) != 0. At any t with x_t(q) != 0 and x_{t-1}(q) = 0 (or t = 1):
    if t = k, dF/dx_k(q) = a_k x_k^(a_k - 1) != 0. Otherwise dF/dx_t(q) =
    a_t x_t^(a_t - 1) x_{t+1} is nonzero unless x_{t+1}(q) = 0, and then
    dF/dx_{t+1}(q) = x_t^a_t + a_{t+1} x_{t+1}^(a_{t+1} - 1) x_{t+2} (or
    x_t^a_t + a_k x_k^(a_k - 1) if t + 1 = k) is x_t^a_t != 0 when
    t + 1 = k (as a_k >= 2) or a_{t+1} >= 2. The remaining case a_{t+1} = 1
    gives a nonzero partial unless x_{t+2}(q) = -x_t^a_t != 0, which puts
    t + 2 in the position of t. Starting at t = s, the gradient of F is
    nonzero at q.
    (2) At p != 0 the gradient of H splits by chain; take a chain on which
    p is nonzero. Only its head can be a boundary coordinate. If the head
    is off the boundary or nonzero at p, (1) gives a nonzero partial of H
    at p in a variable whose hyperplane is no boundary component through
    p. If the head x_1 is a boundary coordinate with x_1(p) = 0, the
    partials of H in x_2, ..., x_k at p are those of the shorter chain
    x_2^a_2 x_3 + ... + x_k^a_k, which is nonzero at p, so (1) gives a
    nonzero partial off the boundary. Either way dH(p) lies outside the
    span of the coordinate differentials through p: H is smooth at p and
    meets them transversally.
    (3) H need not be irreducible. By (2) the cone over H is smooth outside
    the origin, so its components are disjoint there, and each one meets
    the coordinate hyperplanes transversally. Every component carries the
    same coefficient (b-1)/b, so the support is SNC, the log degree is the
    sum over the components, and lcm(b) does not change.

    The tag names the shape: family_B leaves need a chain of length >= 2,
    family_A and family_C leaves must have none. Each monomial of H is read
    once and each variable visited once, so the check is linear in H. Details
    name variable indices, never H, so they stay short on large leaves.
    """
    coords, h, why = _frame(leaf)
    if h is None:
        return False, why
    powers: dict[int, int] = {}  # variable -> exponent of its pure power
    links: dict[int, list[tuple[int, int, int]]] = {}  # variable -> (monomial, other variable, own exponent)
    for k, (_, pairs) in enumerate(h.terms):
        if len(pairs) == 1:
            (i, a), = pairs
            if i in powers:
                return False, f"two pure powers of x{i}"
            powers[i] = a
        elif len(pairs) == 2 and (pairs[0][1] == 1 or pairs[1][1] == 1):
            (i, a), (j, b) = pairs
            links.setdefault(i, []).append((k, j, a))
            links.setdefault(j, []).append((k, i, b))
        else:
            return False, f"{_monomial_on(pairs)} is neither x_i^a nor x_i^a*x_j"
    # walk each chain of length >= 2 from its pure power to its head
    seen = set(powers)
    targets: set[int] = set()
    chain = None  # (tail, length) of the first chain of length >= 2
    for tail in sorted(powers.keys() & links.keys()):
        var, via, length = tail, None, 1
        while onward := [link for link in links.get(var, ()) if link[0] != via]:
            if len(onward) > 1:
                return False, f"the chain through x{var} branches"
            via, base, exponent = onward[0]
            if exponent != 1 or base in seen:
                return False, f"x{var if exponent != 1 else base} is the base of two monomials"
            targets.add(var)
            seen.add(base)
            var, length = base, length + 1
        if powers[tail] < 2:
            return False, f"the chain ending in x{tail} has length {length} but tail exponent 1"
        chain = chain or (tail, length)
    if len(seen) < h.nvars:
        # seen holds variables below nvars, so the least one missing is at most len(seen)
        j = min(set(range(len(seen) + 1)).difference(seen))
        if j not in links:
            return False, f"H has no term in x{j}"
        return False, f"x{j} is on no chain ending in a pure power"
    inner = [j for j in coords if j in targets]
    if inner:
        return False, f"coordinate hyperplane x{inner[0]} is not a chain head"
    if leaf.klt_strategy == "family_B" and chain is None:
        return False, "family_B needs a chain of length >= 2 in H, but H is a Fermat sum"
    if leaf.klt_strategy != "family_B" and chain is not None:
        return False, f"{leaf.klt_strategy} needs a Fermat sum H, but x{chain[0]} ends a chain of length {chain[1]}"
    return True, f"{len(coords)} coordinate hyperplanes and H a sum of {len(powers)} chains in {h.nvars} variables"


_FAMILY_TAGS = ("family_A", "family_B", "family_C")


def family_snc_check(leaf: LogLeaf) -> KltReport:
    """SNC check for a family-tagged leaf: one criterion, coordinate_chains,
    for all three tags, with its proof in its docstring."""
    if leaf.klt_strategy not in _FAMILY_TAGS:
        raise ValueError(f"family_snc_check requires a family strategy, got {leaf.klt_strategy!r}")
    step = KltStep(STEP_CHAINS, *coordinate_chains(leaf))
    return _report(leaf.klt_strategy, [step])


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _first_nonlinear(eq: SparsePoly) -> str:
    """Why eq is no hyperplane, by variable indices only, so it stays short."""
    for _, pairs in eq.terms:
        if len(pairs) != 1 or pairs[0][1] != 1:
            return _monomial_on(pairs)
    return "zero polynomial"


def is_klt_leaf(leaf: LogLeaf) -> KltReport:
    """Certify kltness of a leaf according to its declared strategy.

    Families go through family_snc_check; arrangement strategies are
    checked directly on the entry equations. In every passing case the
    final recorded step is the singularity-theoretic implication actually
    used: SNC support with coefficients < 1 outside the origin implies klt.
    """
    strategy = leaf.klt_strategy
    if strategy in _FAMILY_TAGS:
        return family_snc_check(leaf)

    steps: list[KltStep] = []
    if strategy == "hyperplane_arrangement":
        eqs = leaf.equations()
        normals = [None if eq.is_zero() else eq.linear_coefficients() for eq in eqs]
        if None in normals:
            i = normals.index(None)
            steps.append(KltStep(STEP_SHAPE, False, f"entry {i} is not a hyperplane: {_first_nonlinear(eqs[i])}"))
        else:
            steps.append(KltStep(STEP_SHAPE, True))
            try:
                steps.append(KltStep(STEP_HYPERPLANES, hyperplane_arrangement_snc(normals)))
            except ValueError as err:
                steps.append(KltStep(STEP_HYPERPLANES, False, str(err)))
        return _report(strategy, steps)

    if strategy == "plane_arrangement":
        try:
            ok = plane_arrangement_snc(leaf.equations())
            steps.append(KltStep(STEP_PLANE, ok))
        except (NotQuasiHomogeneous, ValueError) as err:
            steps.append(KltStep(STEP_PLANE, False, str(err)))
        return _report(strategy, steps)

    raise ValueError(f"unknown klt strategy {strategy!r}")
