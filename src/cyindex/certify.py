"""Index certificates: constructors, the realizer, the independent verifier,
and the plane-arrangement search.

A certificate is a tree witnessing that an integer m is the index of a klt
Calabi-Yau pair of a given dimension with standard coefficients:

  wps_leaf        an explicit pair on a weighted projective space
  elliptic_leaf   an abelian factor of dimension k (index 1, empty boundary)
  product         combines factors; dimensions add, indices combine by lcm

The realizer turns any m with phi(m) <= 2n into a certificate of dimension
n - 1: the core certificate of m, padded once. The core is the dimension-2
catalogue when phi(m) <= 6, the explicit odd-index and prime-power families
when m is a prime or prime power, and otherwise the product of the cores of
the power of the largest prime and of its coprime cofactor. Padding opens
the products and merges every elliptic factor into one trailing elliptic
leaf. Every split is coprime, so product indices are exact.

The verifier recomputes everything from raw data: well-formedness,
quasi-homogeneity, exact degree zero, standard coefficients, the index, the
klt report, and the tree arithmetic. Every leaf is explicit, so nothing
is taken on trust and both verification modes run the same checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .numtheory import euler_phi, factorize, indices_with_phi_at_most
from .sncklt import KltReport, is_klt_leaf
from .wpspairs import (
    KLT_STRATEGIES,
    LogLeaf,
    NotQuasiHomogeneous,
    SparsePoly,
    StdCoeff,
    Wps,
    _sorted,
    canonical_degree,
    dense_exponents,
    exponent_pairs,
    is_well_formed,
    pair_index,
    weighted_degree,
)

__all__ = [
    "WpsLeaf",
    "EllipticLeaf",
    "Product",
    "Certificate",
    "certificate_dim",
    "certificate_index",
    "build_index_prime",
    "build_prime_power",
    "base_leaf",
    "realize",
    "check_dim_inequality",
    "search_plane_pair",
    "verify_certificate",
    "NodeReport",
    "VerificationReport",
    "CertificateParseError",
    "certificate_to_obj",
    "certificate_from_obj",
    "certificate_dumps",
    "certificate_loads",
    "logleaf_from_obj",
    "BASE_DIM1_INDICES",
    "BASE_DIM2_INDICES",
]


# ---------------------------------------------------------------------------
# certificate tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WpsLeaf:
    leaf: LogLeaf


@dataclass(frozen=True)
class EllipticLeaf:
    dim: int


@dataclass(frozen=True)
class Product:
    factors: tuple["Certificate", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


Certificate = WpsLeaf | EllipticLeaf | Product


def certificate_dim(cert: Certificate) -> int:
    match cert:
        case WpsLeaf(leaf):
            return leaf.dim
        case EllipticLeaf(dim):
            return dim
        case Product(factors):
            return sum(certificate_dim(f) for f in factors)
    raise TypeError(f"not a certificate node: {cert!r}")


def certificate_index(cert: Certificate) -> int:
    match cert:
        case WpsLeaf(leaf):
            return pair_index(leaf)
        case EllipticLeaf(_):
            return 1
        case Product(factors):
            return lcm(*[certificate_index(f) for f in factors])
    raise TypeError(f"not a certificate node: {cert!r}")


# ---------------------------------------------------------------------------
# explicit families
# ---------------------------------------------------------------------------


def _monomial(*pairs: tuple[int, int]) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """The term prod x_j^p over the (j, p) pairs, given by increasing j, with coefficient 1."""
    return Fraction(1), pairs


def build_index_prime(m: int) -> LogLeaf:
    """Explicit pair of index m for odd m >= 5, of dimension (m+3)/4 when
    m = 1 (mod 4) and (m+1)/4 when m = 3 (mod 4).

    m = 1 (mod 4): on P(4^(n-2), 2, 1, 1) with n = (m+3)/4, coefficient
    (m-1)/m on the coordinate hyperplanes x_0, ..., x_{n-3}, x_n and on
    H = {x_0 + ... + x_{n-3} + x_{n-2}^2 + x_{n-1}^4 + x_n^4}.

    m = 3 (mod 4): on P(4^(n-2), 3, 2, 1) with n = (m+1)/4, coefficient
    (m-1)/m on x_0, ..., x_{n-2} and on
    H = {x_0 + ... + x_{n-3} + x_{n-2}x_n + x_{n-1}^2 + x_n^4}.

    Both have exact log degree 0 and pair index m.
    """
    if not isinstance(m, int) or m < 5 or m % 2 == 0:
        raise ValueError(f"build_index_prime requires an odd integer >= 5, got {m!r}")
    c = StdCoeff(m)
    if m % 4 == 1:
        n = (m + 3) // 4
        space = Wps((4,) * (n - 2) + (2, 1, 1))
        nv = n + 1
        coord_vars = list(range(n - 2)) + [n]
        h_terms = [_monomial((i, 1)) for i in range(n - 2)]
        h_terms += [_monomial((n - 2, 2)), _monomial((n - 1, 4)), _monomial((n, 4))]
        strategy = "family_A"
    else:
        n = (m + 1) // 4
        space = Wps((4,) * (n - 2) + (3, 2, 1))
        nv = n + 1
        coord_vars = list(range(n - 1))
        h_terms = [_monomial((i, 1)) for i in range(n - 2)]
        h_terms += [_monomial((n - 2, 1), (n, 1)), _monomial((n - 1, 2)), _monomial((n, 4))]
        strategy = "family_B"
    entries = [(c, SparsePoly.variable(nv, i)) for i in coord_vars]
    entries.append((c, SparsePoly.from_pairs(nv, h_terms)))
    return LogLeaf(space, tuple(entries), strategy)


def build_prime_power(m: int, e: int) -> LogLeaf:
    """Explicit pair of index m^e and dimension m + e - 3, for m, e >= 2.

    On P((m-1)^(e-1), 1^(m-1)): coefficient (m^(i+1)-1)/m^(i+1) on the
    coordinate hyperplane x_i for 0 <= i <= e-1, and (m^e-1)/m^e on
    H = {x_0 + ... + x_{e-2} + x_{e-1}^(m-1) + ... + x_{e+m-3}^(m-1)}.
    Exact log degree 0; pair index m^e. H is a Fermat sum, so the leaf is
    family_C for every m; for m = 2 it is the sum of all variables.
    """
    if not isinstance(m, int) or not isinstance(e, int) or m < 2 or e < 2:
        raise ValueError(f"build_prime_power requires m, e >= 2, got ({m!r}, {e!r})")
    nv = m + e - 2
    space = Wps((m - 1,) * (e - 1) + (1,) * (m - 1))
    entries = [(StdCoeff(m ** (i + 1)), SparsePoly.variable(nv, i)) for i in range(e)]
    h_terms = [_monomial((i, 1 if i < e - 1 else m - 1)) for i in range(nv)]
    entries.append((StdCoeff(m**e), SparsePoly.from_pairs(nv, h_terms)))
    return LogLeaf(space, tuple(entries), "family_C")


# ---------------------------------------------------------------------------
# base catalogue (dimensions 1 and 2)
# ---------------------------------------------------------------------------

# P^1 points 0, 1, oo, 2, in that order, as linear forms in (x0, x1) with
# affine coordinate t = x1/x0.
_P1_POINTS = (
    SparsePoly.linear_form((0, 1)),
    SparsePoly.linear_form((-1, 1)),
    SparsePoly.linear_form((1, 0)),
    SparsePoly.linear_form((-2, 1)),
)

# P^2 catalogue: lines y = j*x + T_j*z with slopes 0..5 and triangular-number
# intercepts; any three are non-concurrent and every line meets the conic
# x*z - y^2 transversally off it.
_P2_LINES = tuple(
    SparsePoly.linear_form((-j, 1, -t)) for j, t in zip(range(6), (0, 1, 3, 6, 10, 15))
)
_P2_CONICS = (
    SparsePoly.from_terms(3, [(1, (1, 0, 1)), (-1, (0, 2, 0))]),  # x*z - y^2
)

# coefficient denominators of the P^1 pairs, by index
_P1_PAIRS = {2: (2, 2, 2, 2), 3: (3, 3, 3), 4: (2, 4, 4), 6: (2, 3, 6)}

BASE_DIM1_INDICES = (1, *_P1_PAIRS)
BASE_DIM2_INDICES = tuple(indices_with_phi_at_most(6))


def _instantiate_plane(dim: int, combo) -> LogLeaf | None:
    """Deterministic equations for a multiset of (b, curve degree): P^1
    points 0, 1, oo, 2 in order, P^2 lines and conics from the fixed
    general-position catalogue. None if the catalogue is exhausted."""
    if dim == 1:
        if len(combo) > len(_P1_POINTS):
            return None
        entries = [(StdCoeff(b), _P1_POINTS[i]) for i, (b, _) in enumerate(combo)]
        return LogLeaf(Wps((1, 1)), tuple(entries), "hyperplane_arrangement")
    lines = conics = 0
    entries = []
    for b, d in combo:
        if d == 1:
            if lines >= len(_P2_LINES):
                return None
            entries.append((StdCoeff(b), _P2_LINES[lines]))
            lines += 1
        else:
            if conics >= len(_P2_CONICS):
                return None
            entries.append((StdCoeff(b), _P2_CONICS[conics]))
            conics += 1
    return LogLeaf(Wps((1, 1, 1)), tuple(entries), "plane_arrangement")


def base_leaf(dim: int, m: int) -> Certificate:
    """The explicit catalogue for dimensions 1 and 2.

    Dimension 1 realizes {1, 2, 3, 4, 6}: an elliptic curve for m = 1 and
    the four P^1 pairs otherwise. Dimension 2 realizes every m with
    phi(m) <= 6, each by an explicit, machine-checked certificate. Index 14
    is the pair on P(3,1,1) with coefficients 6/7, 13/14 and 1/2 on
    {x0 = 0}, {x1 = 0} and {x0 + x1^3 + x2^3 = 0}, of degrees 3, 1 and 3:
    log degree -5 + 18/7 + 13/14 + 3/2 = 0, and the one singular point
    [1:0:0] lies only on {x1 = 0}.
    """
    if dim == 1:
        if m == 1:
            return EllipticLeaf(1)
        if m in _P1_PAIRS:
            return WpsLeaf(_instantiate_plane(1, [(b, 1) for b in _P1_PAIRS[m]]))
        raise ValueError(f"no dimension-1 base leaf for index {m}")
    if dim != 2:
        raise ValueError(f"base_leaf covers dimensions 1 and 2 only, got {dim!r}")
    if m == 1:
        return EllipticLeaf(2)
    if m in (2, 3, 4, 6):
        return Product((base_leaf(1, m), EllipticLeaf(1)))
    if m in (5, 7):
        return WpsLeaf(build_index_prime(m))
    if m == 8:
        return WpsLeaf(build_prime_power(2, 3))
    if m == 9:
        return WpsLeaf(build_prime_power(3, 2))
    if m == 12:
        return Product((base_leaf(1, 4), base_leaf(1, 3)))
    if m == 10:
        return WpsLeaf(_instantiate_plane(2, ((2, 1), (5, 2), (10, 1))))
    if m == 18:
        return WpsLeaf(_instantiate_plane(2, ((2, 1), (3, 1), (9, 1), (18, 1))))
    if m == 14:
        h = SparsePoly.from_pairs(3, (_monomial((0, 1)), _monomial((1, 3)), _monomial((2, 3))))
        entries = ((StdCoeff(7), SparsePoly.variable(3, 0)),
                   (StdCoeff(14), SparsePoly.variable(3, 1)),
                   (StdCoeff(2), h))
        return WpsLeaf(LogLeaf(Wps((3, 1, 1)), entries, "family_C"))
    raise ValueError(f"no dimension-2 base leaf for index {m} (needs phi(m) <= 6)")


# ---------------------------------------------------------------------------
# dimension inequality
# ---------------------------------------------------------------------------


def check_dim_inequality(m: int, e: int, variant: int) -> bool:
    """Exact evaluation of the padding inequality for prime powers, with
    n = (m^e - m^(e-1)) / 2:

      variant 1:  m + e - 3 <= n - 1   for (m, e) not in {(2,2), (2,3)}
      variant 2:  m + e - 3 <= n - 3   for m >= 3 and (m, e) != (3, 2)

    True on the whole precondition domain; the realizer asserts it before
    padding. Excluded pairs are rejected with the reason.
    """
    if not isinstance(m, int) or not isinstance(e, int) or m < 2 or e < 2:
        raise ValueError(f"check_dim_inequality requires m, e >= 2, got ({m!r}, {e!r})")
    if variant == 1:
        if (m, e) in ((2, 2), (2, 3)):
            raise ValueError(f"(m, e) = {(m, e)} is excluded from variant 1")
        offset = 1
    elif variant == 2:
        if m < 3:
            raise ValueError("variant 2 requires m >= 3")
        if (m, e) == (3, 2):
            raise ValueError("(m, e) = (3, 2) is excluded from variant 2")
        offset = 3
    else:
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    n2 = m**e - m ** (e - 1)  # = 2n, always even
    return 2 * (m + e - 3) <= n2 - 2 * offset


# ---------------------------------------------------------------------------
# the realizer
# ---------------------------------------------------------------------------


def realize(n: int, m: int) -> Certificate:
    """Certificate of dimension n - 1 and index m, for any m with
    phi(m) <= 2n and n >= 3: the core certificate of m, padded once.

    The products of the core are opened and its elliptic factors merged
    with the padding, so the result is a flat product of leaves with one
    trailing elliptic leaf, or a bare leaf when only one factor is left.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"realize requires n >= 3, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"realize requires a positive index, got {m!r}")
    if m > 8 * n * n:
        # phi(m) >= sqrt(m/2) > 2n, decided without factoring a huge m
        raise ValueError(f"{m} > 8n^2 = {8 * n * n}, so phi({m}) > 2n = {2 * n}: index out of range")
    phi = euler_phi(m)
    if phi > 2 * n:
        raise ValueError(f"phi({m}) = {phi} > 2n = {2 * n}: index out of range")

    factors = [f for f in _leaves(_core(m)) if not isinstance(f, EllipticLeaf)]
    pad = n - 1 - sum(certificate_dim(f) for f in factors)
    if pad > 0:
        factors.append(EllipticLeaf(pad))
    cert = factors[0] if len(factors) == 1 else Product(tuple(factors))

    if certificate_dim(cert) != n - 1:
        raise RuntimeError(f"realize({n}, {m}): built dimension {certificate_dim(cert)}")
    return cert


def _core(m: int) -> Certificate:
    """Unpadded certificate of index m. Its leaves other than elliptic ones
    fit in dimension 2 when phi(m) <= 6 and phi(m)/2 - 1 otherwise; realize
    merges the elliptic ones into its padding.

    The dimension-2 catalogue when phi(m) <= 6; the explicit families for
    primes and prime powers; otherwise split m = m1 * m2 with m2 the power
    of the largest prime and take the product of the coprime parts. The
    recursion is as deep as m has prime factors.
    """
    if euler_phi(m) <= 6:
        return base_leaf(2, m)
    fac = factorize(m)
    p, e = fac.factors[-1]
    if fac.num_prime_factors() == 1:
        if e == 1:
            # m >= 11: dimension at most (m+3)/4 <= (m-3)/2 = phi(m)/2 - 1
            return WpsLeaf(build_index_prime(m))
        if not check_dim_inequality(p, e, 1):
            raise RuntimeError(f"dimension inequality failed for ({p}, {e})")
        return WpsLeaf(build_prime_power(p, e))
    m2 = p**e
    m1 = m // m2
    if m1 == 2 and e > 1 and not check_dim_inequality(p, e, 2):
        raise RuntimeError(f"dimension inequality failed for ({p}, {e})")
    return Product((_core(m1), _core(m2)))


def _leaves(cert: Certificate) -> list[Certificate]:
    """The leaves of a certificate in order, with its products opened."""
    if isinstance(cert, Product):
        return [leaf for f in cert.factors for leaf in _leaves(f)]
    return [cert]


# ---------------------------------------------------------------------------
# plane-arrangement search
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# On P^1 every term 1 - 1/b lies in [1/2, 1), so sum (1 - 1/b) = 2 needs 3
# or 4 points. Four points force b = 2 each; three points need
# 1/b1 + 1/b2 + 1/b3 = 1, whose only solutions are (3, 3, 3), (2, 4, 4) and
# (2, 3, 6). So lcm(b) is one of these, whatever the catalogue holds.
_P1_SEARCH_INDICES = frozenset({2, 3, 4, 6})

# On P^2, sum d_i (1 - 1/b_i) = 3 over curves of degree d_i with b_i >= 2, and
# each term is at least d_i/2, so the total degree D = sum d_i is at most 6.
# Counting a curve of degree d as d copies of 1/b_i gives D unit fractions,
# each at most 1/2, that sum to D - 3, so D >= 4. D = 4: the 14 four-term
# Egyptian fractions of 1, with lcm 4, 6, 8, 10, 12, 18, 20, 24, 30 or 42
# (42 from 1/2 + 1/3 + 1/7 + 1/42). D = 5: five unit fractions summing to 2,
# which are 1/b for b in {2, 2, 2, 4, 4}, {2, 2, 2, 3, 6} or {2, 2, 3, 3, 3},
# with lcm 4 or 6. D = 6: six halves, lcm 2. So lcm(b) is one of these,
# whatever the catalogue holds.
_P2_SEARCH_INDICES = frozenset({2, 4, 6, 8, 10, 12, 18, 20, 24, 30, 42})

# curves of each degree that _instantiate_plane can place, by dimension
_PLANE_CAPACITY = {1: {1: len(_P1_POINTS)}, 2: {1: len(_P2_LINES), 2: len(_P2_CONICS)}}


def _plane_multisets(candidates, weights, target, count, capacity):
    """Multisets of `count` candidates (b, d) whose weights sum to `target` and
    that hold at most capacity[d] curves of degree d, in lexicographic order of
    their non-decreasing candidate positions (the order of
    itertools.combinations_with_replacement)."""
    n = len(candidates)
    lo, hi = list(weights), list(weights)  # suffix min and max of the weights
    for i in range(n - 2, -1, -1):
        lo[i], hi[i] = min(lo[i], lo[i + 1]), max(hi[i], hi[i + 1])
    combo = []
    room = dict(capacity)

    def extend(start, total):
        left = count - len(combo)
        if left == 0:
            if total == target:
                yield tuple(combo)
            return
        for i in range(start, n):
            # lo[i] only grows and hi[i] only shrinks with i, so once the
            # remaining parts overshoot or fall short, every later i does too
            if total + left * lo[i] > target or total + left * hi[i] < target:
                return
            d = candidates[i][1]
            if not room[d]:
                continue
            room[d] -= 1
            combo.append(candidates[i])
            yield from extend(i, total + weights[i])
            combo.pop()
            room[d] += 1

    return extend(0, 0)


def search_plane_pair(dim: int, index: int, max_components: int = 4) -> LogLeaf | None:
    """Search for a pair of the requested index on P^1 (dim 1) or P^2 (dim 2)
    whose boundary is a verified general-position arrangement.

    Enumerates multisets of (b, d) with b a divisor of the index (b >= 2),
    d = 1 on P^1 and d in {1, 2} on P^2, subject to
    sum (1 - 1/b) d = 2 resp. 3 and lcm(b) = index; candidates are tried by
    component count, then lexicographically, each instantiated with the
    deterministic catalogue equations and accepted only if is_klt_leaf,
    the verifier's own klt check, passes it (hyperplane ranks on P^1,
    resultants on P^2). Absence is a value, not an error.

    The degree condition is kept in integers: scaled by the index, a part
    weighs d*(index - index//b) and the parts sum to (dim + 1)*index. A
    depth-first search drops every subtree whose remaining parts cannot
    reach that sum or must pass it (by suffix minima and maxima of the
    weights), or that holds more curves of a degree than the catalogue has
    (4 points on P^1; 6 lines and 1 conic on P^2), and the component count
    stops at that capacity. An index that no pair on P^1 (2, 3, 4, 6) or
    P^2 (2, 4, 6, 8, 10, 12, 18, 20, 24, 30, 42) can have is answered None
    before it is factored. None of this changes which
    multiset is found first; the lcm, the instantiation and the klt check
    still decide every one that is tried.
    """
    if dim not in (1, 2):
        raise ValueError(f"search_plane_pair covers dimensions 1 and 2, got {dim!r}")
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"index must be a positive integer, got {index!r}")
    if index not in (_P1_SEARCH_INDICES if dim == 1 else _P2_SEARCH_INDICES):
        return None
    capacity = _PLANE_CAPACITY[dim]
    candidates = sorted((b, d) for b in _divisors(index) if b >= 2 for d in capacity)
    weights = [d * (index - index // b) for b, d in candidates]
    target = (dim + 1) * index
    for count in range(1, min(max_components, sum(capacity.values())) + 1):
        for combo in _plane_multisets(candidates, weights, target, count, capacity):
            if lcm(*[b for b, _ in combo]) != index:
                continue
            leaf = _instantiate_plane(dim, combo)
            if is_klt_leaf(leaf).passed:
                return leaf
    return None


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------


@dataclass
class NodeReport:
    path: str
    kind: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    klt: KltReport | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failing(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def as_obj(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "passed": self.passed,
            "checks": [
                {"name": n, "passed": ok, "detail": d} for n, ok, d in self.checks
            ],
            "klt": self.klt.as_obj() if self.klt is not None else None,
        }


@dataclass
class VerificationReport:
    mode: str
    dim: int | None
    index: int | None
    passed: bool
    leaf_reports: list[NodeReport]

    def failing_checks(self) -> list[tuple[str, str]]:
        return [
            (rep.path, name)
            for rep in self.leaf_reports
            for name in rep.failing()
        ]

    def as_obj(self) -> dict:
        return {
            "mode": self.mode,
            "dim": self.dim,
            "index": self.index,
            "passed": self.passed,
            "leaf_reports": [r.as_obj() for r in self.leaf_reports],
        }


def _check(rep: NodeReport, name: str, ok: bool, detail: str = "") -> bool:
    rep.checks.append((name, bool(ok), detail))
    return bool(ok)


def _distinct_up_to_scaling(equations: list[SparsePoly]) -> bool:
    """True iff no two equations are proportional. Proportional equations
    have the same monomials, so they are keyed first on their variable
    count and pairs, int tuples that hash in C; only equations sharing that
    key compare projective keys, whose Fractions hash in Python."""
    by_support: dict[tuple, list[SparsePoly]] = {}
    for eq in equations:
        by_support.setdefault((eq.nvars, tuple([pairs for _, pairs in eq.terms])), []).append(eq)
    return all(len(same) == 1 or len({eq.projective_key() for eq in same}) == len(same)
               for same in by_support.values())


def _verify_wps_leaf(leaf: LogLeaf, rep: NodeReport) -> tuple[int | None, int | None]:
    """The checks of one explicit leaf, each fact computed once, so the cost
    is linear in the leaf's size: its weights plus the (variable, exponent)
    pairs of its equations."""
    space = leaf.space
    _check(rep, "weights-valid", len(space.weights) >= 2 and all(a >= 1 for a in space.weights),
           str(space))

    nv = len(space.weights)
    shape_ok = bool(leaf.entries)
    shape_detail = ""
    for coeff, eq in leaf.entries:
        if eq.is_zero():
            shape_ok, shape_detail = False, "zero divisor equation"
            break
        if eq.nvars != nv:
            shape_ok, shape_detail = False, f"equation in {eq.nvars} variables on {space}"
            break
        if not eq.terms[0][1]:  # the constant monomial sorts last, so it comes first only alone
            shape_ok, shape_detail = False, "constant equation cuts out no divisor"
            break
    if not leaf.entries:
        shape_detail = "no divisor entries"
    _check(rep, "entry-shape", shape_ok, shape_detail)

    # StdCoeff fixes the value at (b - 1)/b; only b itself can be wrong
    std_ok = all(isinstance(coeff.b, int) and coeff.b >= 2 for coeff, _ in leaf.entries)
    _check(rep, "standard-coefficients", std_ok,
           " ".join(str(c) for c, _ in leaf.entries))

    qh_ok, qh_detail = shape_ok, "not evaluated (entry shape invalid)"
    degs: list[int] = []
    if shape_ok:
        try:
            degs = [weighted_degree(eq, space) for _, eq in leaf.entries]
            qh_detail = f"degrees {degs}"
        except NotQuasiHomogeneous as err:
            qh_ok, qh_detail = False, str(err)
    _check(rep, "quasi-homogeneous", qh_ok, qh_detail)

    _check(rep, "entries-distinct", _distinct_up_to_scaling([eq for _, eq in leaf.entries]))

    wf = is_well_formed(space)
    _check(rep, "well-formed", wf, str(space))

    deg_ok = False
    deg_detail = ""
    lcm_b = lcm(*[coeff.b for coeff, _ in leaf.entries])
    if shape_ok and qh_ok:
        # log_degree from the degrees above, in integers: with L = lcm(b),
        # L deg(K + B) = L deg K + sum deg_i (L - L/b_i)
        num = lcm_b * canonical_degree(space) + sum(
            deg * (lcm_b - lcm_b // coeff.b) for (coeff, _), deg in zip(leaf.entries, degs))
        deg_ok = num == 0
        deg_detail = f"log degree {Fraction(num, lcm_b)}"
    _check(rep, "degree-zero", deg_ok, deg_detail)

    # pair_index: on a well-formed space of degree zero, the lcm of the b values
    index = lcm_b if wf and deg_ok else None
    _check(rep, "index-computed", index is not None,
           str(index) if index is not None else "preconditions failed")

    klt_ok = False
    try:
        rep.klt = is_klt_leaf(leaf)
        klt_ok = rep.klt.passed
        klt_detail = rep.klt.strategy
    except ValueError as err:
        klt_detail = str(err)
    _check(rep, "klt", klt_ok, klt_detail)

    return (space.dim if len(space.weights) >= 2 else None,
            index if rep.passed else None)


def _verify_node(cert: Certificate, path: str,
                 reports: list[NodeReport]) -> tuple[int | None, int | None]:
    match cert:
        case WpsLeaf(leaf):
            rep = NodeReport(path, "wps_leaf")
            reports.append(rep)
            return _verify_wps_leaf(leaf, rep)
        case EllipticLeaf(dim):
            rep = NodeReport(path, "elliptic_leaf")
            reports.append(rep)
            ok = _check(rep, "elliptic-dim", type(dim) is int and dim >= 1, str(dim))  # exact int, so no bool
            return (dim, 1) if ok else (None, None)
        case Product(factors):
            rep = NodeReport(path, "product")
            reports.append(rep)
            _check(rep, "product-arity", len(factors) >= 2, f"{len(factors)} factors")
            dims: list[int | None] = []
            idxs: list[int | None] = []
            for i, f in enumerate(factors):
                d, ix = _verify_node(f, f"{path}.factors[{i}]", reports)
                dims.append(d)
                idxs.append(ix)
            if rep.passed and all(d is not None for d in dims) and all(ix is not None for ix in idxs):
                return sum(dims), lcm(*idxs)
            return (None, None)
    raise TypeError(f"not a certificate node: {cert!r}")


def verify_certificate(cert: Certificate, mode: str = "strict") -> VerificationReport:
    """Recheck every claim a certificate makes, trusting nothing.

    For each explicit leaf: weights, entry shapes, standard coefficients,
    quasi-homogeneity, pairwise-distinct entries, well-formedness, exact
    degree zero, the index, and the full klt report. For the tree: product
    arity, dimension sums and index lcms. Check failures are recorded in
    the report, never thrown. Every leaf is explicit, so "strict" and
    "trusting" run the same checks; the mode is validated and echoed in the
    report.
    """
    if mode not in ("strict", "trusting"):
        raise ValueError(f"mode must be 'strict' or 'trusting', got {mode!r}")
    reports: list[NodeReport] = []
    dim, index = _verify_node(cert, "$", reports)
    passed = all(r.passed for r in reports) and dim is not None and index is not None
    return VerificationReport(mode, dim, index, passed, reports)


# ---------------------------------------------------------------------------
# serialization (schema v1)
# ---------------------------------------------------------------------------
# Dense exponent vectors exist only in the text. The writer makes the text in
# one pass from the (variable, exponent) pairs, with the bytes of json.dumps
# with sorted keys and compact separators. The reader accepts each sound
# entry and monomial by one exact-type test and scans each vector once into
# pairs; only what fails the test is walked field by field, with locations,
# so that the first fault is reported where it is.


class CertificateParseError(ValueError):
    """Schema violation, with a JSON-path location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


# json.dumps(value, sort_keys=True, separators=(",", ":")), for what the writer does not format itself
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _leaf_text(leaf: LogLeaf) -> str:
    """The schema v1 text of a leaf, written from its (variable, exponent)
    pairs. Keys come in sorted order, and every number is written as
    json.dumps writes an int: weights, exponents and Fraction parts are
    exact ints, and "%d" writes an int subclass b by its int value. A dense
    exponent vector is its exponents with slices of one run of "0," between
    them."""
    zeros = ""
    entries = []
    for coeff, eq in leaf.entries:
        nv = eq.nvars  # the space's weight count on every leaf that verifies
        if len(zeros) != 2 * nv:
            zeros = "0," * nv
        monos = []
        for c, pairs in eq.terms:
            parts, at = [], 0
            for v, x in pairs:
                parts.append(zeros[: 2 * (v - at)])
                parts.append(f"{x},")
                at = v + 1
            parts.append(zeros[: 2 * (nv - at)])
            monos.append(f'{{"c":[{c.numerator},{c.denominator}],"e":[{"".join(parts)[:-1]}]}}')
        entries.append('{"b":%d,"eq":[%s]}' % (coeff.b, ",".join(monos)))
    return '{"entries":[%s],"node":"wps_leaf","strategy":%s,"v":1,"weights":[%s]}' % (
        ",".join(entries), _json_text(leaf.klt_strategy), ",".join(map(str, leaf.space.weights)))


def _node_text(cert: Certificate) -> str:
    match cert:
        case WpsLeaf(leaf):
            return _leaf_text(leaf)
        case EllipticLeaf(dim):
            return '{"dim":%s,"node":"elliptic_leaf","v":1}' % _json_text(dim)
        case Product(factors):
            return '{"factors":[%s],"node":"product","v":1}' % ",".join(map(_node_text, factors))
    raise TypeError(f"not a certificate node: {cert!r}")


def certificate_dumps(cert: Certificate) -> str:
    """The schema v1 text of a certificate: the bytes json.dumps writes with
    sorted keys and compact separators, written in one pass. Products recurse
    through _node_text, so a wrapper bound to this name (bench/tracing.py)
    sees one call per certificate."""
    return _node_text(cert)


def certificate_to_obj(cert: Certificate) -> dict:
    """The schema v1 object of a certificate, as json.loads reads its text."""
    return json.loads(certificate_dumps(cert))


def _need(obj: dict, key: str, loc: str):
    if not isinstance(obj, dict):
        raise CertificateParseError("expected an object", loc)
    if key not in obj:
        raise CertificateParseError(f"missing field {key!r}", loc)
    return obj[key]


def _need_int(value, loc: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateParseError(f"expected an integer, got {value!r}", loc)
    if minimum is not None and value < minimum:
        raise CertificateParseError(f"integer {value} below minimum {minimum}", loc)
    return value


def _entry_fields(ent, loc: str) -> tuple[int, list]:
    """b and the monomial list of an entry object, or the parse error of
    its first fault."""
    b = _need_int(_need(ent, "b", loc), f"{loc}.b", minimum=2)
    eq_obj = _need(ent, "eq", loc)
    if not isinstance(eq_obj, list) or not eq_obj:
        raise CertificateParseError("eq must be a nonempty monomial list", f"{loc}.eq")
    return b, eq_obj


def _monomial_fields(mono, loc: str) -> tuple[int, int, list]:
    """Numerator, denominator and exponent list of a monomial object, or the
    parse error of its first fault."""
    c = _need(mono, "c", loc)
    if not isinstance(c, list) or len(c) != 2:
        raise CertificateParseError("c must be [numerator, denominator]", f"{loc}.c")
    num = _need_int(c[0], f"{loc}.c[0]")
    den = _need_int(c[1], f"{loc}.c[1]")
    if den == 0:
        raise CertificateParseError("zero denominator", f"{loc}.c")
    if num == 0:
        raise CertificateParseError("zero coefficient monomial", f"{loc}.c")
    e = _need(mono, "e", loc)
    if not isinstance(e, list):
        raise CertificateParseError("e must be a list", f"{loc}.e")
    return num, den, e


def logleaf_from_obj(obj: dict, loc: str = "$") -> LogLeaf:
    weights = _need(obj, "weights", loc)
    if not isinstance(weights, list) or len(weights) < 2:
        raise CertificateParseError("weights must be a list of at least 2 integers", f"{loc}.weights")
    if not {int}.issuperset(map(type, weights)):  # locate the fault only when there is one
        weights = [_need_int(w, f"{loc}.weights[{i}]") for i, w in enumerate(weights)]
    if min(weights) < 1:
        raise CertificateParseError("weights must be positive", f"{loc}.weights")
    strategy = _need(obj, "strategy", loc)
    if strategy not in KLT_STRATEGIES:
        raise CertificateParseError(f"unknown strategy {strategy!r}", f"{loc}.strategy")
    entries_obj = _need(obj, "entries", loc)
    if not isinstance(entries_obj, list):
        raise CertificateParseError("entries must be a list", f"{loc}.entries")
    nv = len(weights)
    variables = tuple(range(nv))
    entries = []
    for i, ent in enumerate(entries_obj):
        # one exact-type test accepts a sound entry or monomial; only one that
        # fails it is walked, with its location, for its first fault
        if not (type(ent) is dict and type(b := ent.get("b")) is int and b >= 2
                and type(eq_obj := ent.get("eq")) is list and eq_obj):
            b, eq_obj = _entry_fields(ent, f"{loc}.entries[{i}]")
        terms = []
        bad = None  # the first monomial whose exponents break a rule
        for j, mono in enumerate(eq_obj):
            if not (type(mono) is dict and type(c := mono.get("c")) is list and len(c) == 2
                    and type(num := c[0]) is int and type(den := c[1]) is int and num and den
                    and type(e := mono.get("e")) is list):
                num, den, e = _monomial_fields(mono, f"{loc}.entries[{i}].eq[{j}]")
            # one scan turns the dense vector into pairs; a fault is located after every c is checked
            pairs = exponent_pairs(e, variables) if len(e) == nv else None
            if pairs is None and bad is None:
                bad = j
            terms.append((Fraction(num, den), pairs))
        if bad is not None:
            eloc = f"{loc}.entries[{i}]"
            e, mloc = eq_obj[bad]["e"], f"{eloc}.eq[{bad}].e"
            for k, x in enumerate(e):
                _need_int(x, f"{mloc}[{k}]", minimum=0)
            if len(e) != nv:
                raise CertificateParseError(f"exponent vector of length {len(e)}, expected {nv}", mloc)
            raise CertificateParseError(f"exponents must be nonnegative integers, got {tuple(e)}", f"{eloc}.eq")
        seen = set()
        for _, pairs in terms:
            if pairs in seen:
                raise CertificateParseError(f"repeated exponent vector {tuple(dense_exponents(nv, pairs))}",
                                            f"{loc}.entries[{i}].eq")
            seen.add(pairs)
        # exponent_pairs makes only valid pairs, and no coefficient is zero:
        # from_pairs would have nothing left to check
        eq = SparsePoly._canonical(nv, _sorted(terms))
        entries.append((StdCoeff(b), eq))
    try:
        return LogLeaf(Wps(tuple(weights)), tuple(entries), strategy)
    except ValueError as err:
        raise CertificateParseError(str(err), loc) from err


def certificate_from_obj(obj, loc: str = "$") -> Certificate:
    if not isinstance(obj, dict):
        raise CertificateParseError("expected an object", loc)
    v = _need(obj, "v", loc)
    if v != 1:
        raise CertificateParseError(f"unsupported schema version {v!r}", f"{loc}.v")
    node = _need(obj, "node", loc)
    if node == "wps_leaf":
        return WpsLeaf(logleaf_from_obj(obj, loc))
    if node == "elliptic_leaf":
        return EllipticLeaf(_need_int(_need(obj, "dim", loc), f"{loc}.dim", minimum=1))
    if node == "product":
        factors_obj = _need(obj, "factors", loc)
        if not isinstance(factors_obj, list):
            raise CertificateParseError("factors must be a list", f"{loc}.factors")
        factors = tuple(
            certificate_from_obj(f, f"{loc}.factors[{i}]") for i, f in enumerate(factors_obj)
        )
        return Product(factors)
    raise CertificateParseError(f"unknown node kind {node!r}", f"{loc}.node")


def certificate_loads(text: str) -> Certificate:
    try:
        return certificate_from_obj(json.loads(text))
    except json.JSONDecodeError as err:
        raise CertificateParseError(f"invalid JSON: {err.msg}", f"line {err.lineno} column {err.colno}") from err
    except RecursionError as err:
        raise CertificateParseError("nested too deeply to parse") from err
