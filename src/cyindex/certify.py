"""Index certificates: constructors, the realizer, the independent verifier,
and the plane-arrangement search.

A certificate is a tree witnessing that an integer m is the index of a klt
Calabi-Yau pair of a given dimension with standard coefficients:

  wps_leaf        an explicit pair on a weighted projective space
  elliptic_leaf   an abelian factor of dimension k (index 1, empty boundary)
  product         combines factors; dimensions add, indices combine by lcm

The realizer turns any m with phi(m) <= 2n into a certificate of dimension
n - 1: the core of m, a flat list of explicit leaves, padded by one
trailing elliptic leaf. The core is empty for 1, one leaf of the table
_EXPLICIT for 2, 3, 4, 6, 10, 14 and 18, the odd-index or prime-power
family leaf for every other prime or prime power, and otherwise the cores
of the power of the largest prime and of its coprime cofactor, joined.
Every split is coprime, so product indices are exact. The dimension-2
catalogue is realize(3, m). Every leaf is built by one constructor,
coordinate hyperplanes plus one H, and passes one klt criterion, the chain
test; arrangements come only from input files and the plane search.

The verifier recomputes everything from raw data: well-formedness,
quasi-homogeneity, exact degree zero, standard coefficients, the index, the
klt report, and the tree arithmetic. Every leaf is explicit, so nothing
is taken on trust and both verification modes run the same checks.

A sweep over (n, m) meets the same few core leaves again and again, so the
verifier keeps the verdicts of small leaves: a leaf of at most 64 monomials
in all is checked once per process, and every later equal leaf gets a copy
of the same checks and the same klt report (_leaf_verdict). The memo holds
at most 128 leaves, least recently used first out. It is keyed on the leaf
itself, which is everything the checks read, so a report is the same bytes
whether it came from the memo or not. Bigger leaves are checked afresh.

The reader reads the writer's own text without json.loads. A flat
product is cut into its pieces by one compiled pattern (_flat_factors). A
leaf text, bare or such a piece, is cut with str operations, and only the
nonzero entries of its dense vectors are read (_scan_leaf); an elliptic
text is read by its one number. A node is kept only if the writer writes
exactly that text for it, so the general path reads the text as the same
node (_read_piece). Each leaf factor text of at most 4,096 characters is
also held, once per process and digit limit (_read_leaf_text): at most 128
texts, least recently used first out. Every other text goes to the one
general path, json.loads and one field-by-field walk, which makes every
error and location (certificate_loads, logleaf_from_obj).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm

from .numtheory import euler_phi, factorize, indices_with_phi_at_most
from .sncklt import KltReport, is_klt_leaf
from .wpspairs import (
    KLT_STRATEGIES,
    LogLeaf,
    NotQuasiHomogeneous,
    SparsePoly,
    StdCoeff,
    Wps,
    _ONE,
    _bounded_fraction,
    _bounded_int,
    _distinct_up_to_scaling,
    _listed,
    _scaled_log_degree,
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
    "build_sylvester",
    "base_leaf",
    "realize",
    "check_dim_inequality",
    "search_plane_pair",
    "verify_certificate",
    "NodeReport",
    "VerificationReport",
    "CertificateParseError",
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


def _chain_leaf(weights, coords, h_b: int, h_terms, strategy: str) -> LogLeaf:
    """The leaf on P(weights) with coefficient (b-1)/b on {x_j = 0} for each
    (j, b) in coords, then (h_b-1)/h_b on H: the sum, with coefficient 1, of
    the monomials prod x_v^p given by h_terms as tuples of (v, p) pairs with
    increasing v. Every leaf that realize and base_leaf emit is built here:
    coordinate hyperplanes plus one H, which the chain criterion checks."""
    nv = len(weights)
    entries = [(StdCoeff(b), SparsePoly.variable(nv, j)) for j, b in coords]
    entries.append((StdCoeff(h_b), SparsePoly.from_pairs(nv, [(_ONE, pairs) for pairs in h_terms])))
    return LogLeaf(Wps(tuple(weights)), tuple(entries), strategy)


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
    if m % 4 == 1:
        n = (m + 3) // 4
        tail, coords, strategy = (2, 1, 1), [*range(n - 2), n], "family_A"
        h_tail = [((n - 2, 2),), ((n - 1, 4),), ((n, 4),)]
    else:
        n = (m + 1) // 4
        tail, coords, strategy = (3, 2, 1), range(n - 1), "family_B"
        h_tail = [((n - 2, 1), (n, 1)), ((n - 1, 2),), ((n, 4),)]
    h_terms = [((i, 1),) for i in range(n - 2)] + h_tail
    return _chain_leaf((4,) * (n - 2) + tail, [(j, m) for j in coords], m, h_terms, strategy)


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
    h_terms = [((i, 1 if i < e - 1 else m - 1),) for i in range(m + e - 2)]
    return _chain_leaf((m - 1,) * (e - 1) + (1,) * (m - 1), [(i, m ** (i + 1)) for i in range(e)],
                       m**e, h_terms, "family_C")


def build_sylvester(k: int) -> LogLeaf:
    """The Esser-Totaro-Wang candidate of the largest index in dimension k,
    for k >= 2: index sylvester_bound(k + 1), so 66, 3486, 6521466, ...

    With s = s_k in Sylvester's sequence 2, 3, 7, 43, ...: on
    P(1, 2s-3, (2s-2)^(k-1)), (2s-4)/(2s-3) on {x1 = 0}, 1 - 1/s_(i-2) on
    {x_i = 0} for 2 <= i <= k, and 1 - 1/s_(k-1) on
    H = x0 x1 + x0^(2s-2) + x2 + ... + xk, the chain x1 -> x0 beside Fermat
    terms: family_B.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"build_sylvester requires an integer k >= 2, got {k!r}")
    seq = [2]
    while len(seq) <= k:
        seq.append(seq[-1] * (seq[-1] - 1) + 1)
    s = seq[k]
    h_terms = [((0, 1), (1, 1)), ((0, 2 * s - 2),)] + [((i, 1),) for i in range(2, k + 1)]
    return _chain_leaf((1, 2 * s - 3) + (2 * s - 2,) * (k - 1),
                       [(1, 2 * s - 3)] + [(i, seq[i - 2]) for i in range(2, k + 1)],
                       seq[k - 1], h_terms, "family_B")


# ---------------------------------------------------------------------------
# base catalogue (dimensions 1 and 2)
# ---------------------------------------------------------------------------

# The explicit leaves of the core as _chain_leaf arguments (weights, (j, b)
# coordinates, H's b, H): on P^1 and P^2 the coordinate hyperplanes plus the
# sum of the variables, or plus x0^2 + x1^2 (two points) for index 2.
_EXPLICIT = {m: WpsLeaf(_chain_leaf(*row)) for m, row in {
    2: ((1, 1), [(0, 2), (1, 2)], 2, [((0, 2),), ((1, 2),)], "family_A"),
    3: ((1, 1), [(0, 3), (1, 3)], 3, [((0, 1),), ((1, 1),)], "family_A"),
    4: ((1, 1), [(0, 2), (1, 4)], 4, [((0, 1),), ((1, 1),)], "family_A"),
    6: ((1, 1), [(0, 2), (1, 3)], 6, [((0, 1),), ((1, 1),)], "family_A"),
    10: ((1, 1, 1), [(0, 2), (1, 5), (2, 5)], 10, [((0, 1),), ((1, 1),), ((2, 1),)], "family_A"),
    18: ((1, 1, 1), [(0, 2), (1, 3), (2, 9)], 18, [((0, 1),), ((1, 1),), ((2, 1),)], "family_A"),
    # on P(3,1,1), 6/7, 13/14 and 1/2 on {x0 = 0}, {x1 = 0} and
    # {x0 + x1^3 + x2^3 = 0}, of degrees 3, 1 and 3: log degree
    # -5 + 18/7 + 13/14 + 3/2 = 0, and the one singular point [1:0:0]
    # lies only on {x1 = 0}
    14: ((3, 1, 1), [(0, 7), (1, 14)], 2, [((0, 1),), ((1, 3),), ((2, 3),)], "family_C"),
}.items()}

BASE_DIM1_INDICES = (1, *(m for m, cert in _EXPLICIT.items() if cert.leaf.dim == 1))
BASE_DIM2_INDICES = tuple(indices_with_phi_at_most(6))


def base_leaf(dim: int, m: int) -> Certificate:
    """The explicit catalogue for dimensions 1 and 2.

    Dimension 1 realizes {1, 2, 3, 4, 6}: an elliptic curve for m = 1 and
    the P^1 leaves of _EXPLICIT otherwise. Dimension 2 realizes every m with
    phi(m) <= 6 by realize(3, m), each by an explicit, machine-checked
    certificate.
    """
    if dim == 1:
        if m == 1:
            return EllipticLeaf(1)
        if m in BASE_DIM1_INDICES:
            return _EXPLICIT[m]
        raise ValueError(f"no dimension-1 base leaf for index {m}")
    if dim != 2:
        raise ValueError(f"base_leaf covers dimensions 1 and 2 only, got {dim!r}")
    if m not in BASE_DIM2_INDICES:
        raise ValueError(f"no dimension-2 base leaf for index {m} (needs phi(m) <= 6)")
    return realize(3, m)


# ---------------------------------------------------------------------------
# dimension inequality
# ---------------------------------------------------------------------------


def check_dim_inequality(m: int, e: int, variant: int) -> bool:
    """Exact evaluation of the padding inequality for prime powers, with
    n = (m^e - m^(e-1)) / 2:

      variant 1:  m + e - 3 <= n - 1   for (m, e) not in {(2,2), (2,3)}
      variant 2:  m + e - 3 <= n - 3   for m >= 3 and (m, e) != (3, 2)

    True on the whole precondition domain: the lemma behind _core's
    dimension bound, which realize's padding check guards. Excluded pairs
    are rejected with the reason.
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
    phi(m) <= 2n and n >= 3: the leaves of the core of m, padded by one
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

    factors = _core(m)
    pad = n - 1 - sum(certificate_dim(f) for f in factors)
    if pad < 0:
        raise RuntimeError(f"realize({n}, {m}): the core has dimension {n - 1 - pad} > {n - 1}")
    if pad > 0:
        factors.append(EllipticLeaf(pad))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _core(m: int) -> list[WpsLeaf]:
    """The leaves of index m, with pairwise coprime indices whose lcm is m.
    Their dimensions sum to at most 2 when phi(m) <= 6 and to at most
    phi(m)/2 - 1 otherwise, so realize pads them for every n with
    phi(m) <= 2n and n >= 3.

    No leaf for 1; the explicit leaf of _EXPLICIT for 2, 3, 4, 6, 10, 14 and
    18; the explicit families for every other prime and prime power;
    otherwise split m = m1 * m2 with m2 the power of the largest prime and
    join the leaves of the coprime parts. The recursion is as deep as m has
    prime factors.
    """
    if m == 1:
        return []
    if m in _EXPLICIT:
        return [_EXPLICIT[m]]
    fac = factorize(m)
    p, e = fac[-1]
    if len(fac) == 1:
        # A prime m >= 5 has dimension (m+3)/4 <= 2 for m <= 7 and at most
        # (m-3)/2 = phi(m)/2 - 1 from 11 on. A prime power has dimension 2
        # for 8 and 9; above, check_dim_inequality is the lemma behind its
        # bound: variant 1 for p^e alone, variant 2 for 2 * p^e with p >= 3,
        # whose one exception 18 is in _EXPLICIT.
        return [WpsLeaf(build_index_prime(m) if e == 1 else build_prime_power(p, e))]
    return _core(m // p**e) + _core(p**e)


# ---------------------------------------------------------------------------
# plane-arrangement search
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


# the catalogue curves of each degree, by dimension, in the order
# _instantiate_plane places them
_PLANE_CURVES = {1: {1: _P1_POINTS}, 2: {1: _P2_LINES, 2: _P2_CONICS}}


def _instantiate_plane(dim: int, combo) -> LogLeaf:
    """Deterministic equations for a multiset of (b, curve degree): P^1
    points 0, 1, oo, 2 in order, P^2 lines and conics from the fixed
    general-position catalogue. A multiset with more curves of a degree
    than the catalogue holds raises StopIteration; _PLANE_MULTISETS holds
    none."""
    curves = {d: iter(forms) for d, forms in _PLANE_CURVES[dim].items()}
    entries = [(StdCoeff(b), next(curves[d])) for b, d in combo]
    return LogLeaf(Wps((1,) * (dim + 1)), tuple(entries),
                   "hyperplane_arrangement" if dim == 1 else "plane_arrangement")


def _degree_zero_multisets(dim: int) -> dict[int, list[tuple]]:
    """Every multiset of (b, d) with b >= 2 that the catalogue of P^dim can
    place and that has sum d(1 - 1/b) = dim + 1, keyed by lcm(b), each list
    sorted by component count, then lexicographically.

    The table is finite: with D = sum d the parts give sum d/b = D - dim - 1,
    and each d/b <= d/2, so dim + 2 <= D <= 2(dim + 1). Parts are taken in
    non-decreasing (b, d). With `owed` the part of sum d/b still to reach and
    `left` the degree still to place, a part needs d/b <= owed, so
    b >= 1/owed, and b <= left/owed because every later part has b' >= b.
    """
    room = {d: len(curves) for d, curves in _PLANE_CURVES[dim].items()}
    table: dict[int, list[tuple]] = {}
    combo: list[tuple[int, int]] = []

    def extend(owed: Fraction, left: int) -> None:
        if not owed or not left:
            if owed == left == 0:
                table.setdefault(lcm(*[b for b, _ in combo]), []).append(tuple(combo))
            return
        prev = combo[-1] if combo else (2, 1)
        for b in range(max(prev[0], ceil(1 / owed)), left // owed + 1):
            for d in room:
                if (b, d) >= prev and room[d] and d <= left and Fraction(d, b) <= owed:
                    room[d] -= 1
                    combo.append((b, d))
                    extend(owed - Fraction(d, b), left - d)
                    combo.pop()
                    room[d] += 1

    for total in range(dim + 2, 2 * (dim + 1) + 1):
        extend(Fraction(total - dim - 1), total)
    for combos in table.values():
        combos.sort(key=lambda c: (len(c), c))
    return table


# dimension -> lcm(b) -> the degree-zero multisets of that lcm, in search order
_PLANE_MULTISETS = {dim: _degree_zero_multisets(dim) for dim in _PLANE_CURVES}


def search_plane_pair(dim: int, index: int, max_components: int = 4) -> LogLeaf | None:
    """Search for a pair of the requested index on P^1 (dim 1) or P^2 (dim 2)
    whose boundary is a verified general-position arrangement.

    The candidates are the multisets of (b, d) in _PLANE_MULTISETS, built
    once at import: b >= 2, d = 1 on P^1 and d in {1, 2} on P^2, at most as
    many curves of each degree as the catalogue holds (4 points on P^1; 6
    lines and 1 conic on P^2), sum (1 - 1/b) d = 2 resp. 3, and
    lcm(b) = index. They are tried by component count, then
    lexicographically, up to max_components parts, each instantiated with
    the deterministic catalogue equations and accepted only if is_klt_leaf,
    the verifier's own klt check, passes it (hyperplane ranks on P^1,
    resultants on P^2). Only 2, 3, 4 and 6 occur on P^1 and only 2, 4, 6,
    8, 10, 12, 18, 20, 24, 30 and 42 on P^2, so any other index is one dict
    lookup. Absence is a value, not an error.
    """
    if dim not in (1, 2):
        raise ValueError(f"search_plane_pair covers dimensions 1 and 2, got {dim!r}")
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"index must be a positive integer, got {index!r}")
    for combo in _PLANE_MULTISETS[dim].get(index, ()):
        if len(combo) > max_components:
            break
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


def _verify_wps_leaf(leaf: LogLeaf, rep: NodeReport) -> tuple[int | None, int | None]:
    """The checks of one explicit leaf, each fact computed once, so the cost
    is linear in the leaf's size: its weights plus the (variable, exponent)
    pairs of its equations."""
    space = leaf.space
    w = space.weights
    space_text = str(space)
    _check(rep, "weights-valid", len(w) >= 2 and min(w) >= 1, space_text)

    nv = len(w)
    shape_ok = bool(leaf.entries)
    shape_detail = ""
    for coeff, eq in leaf.entries:
        if not eq.terms:
            shape_ok, shape_detail = False, "zero divisor equation"
            break
        if eq.nvars != nv:
            shape_ok, shape_detail = False, f"equation in {_bounded_int(eq.nvars)} variables on {space_text}"
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
           _listed([coeff for coeff, _ in leaf.entries], str, " "))

    qh_ok, qh_detail = shape_ok, "not evaluated (entry shape invalid)"
    degs: list[int] = []
    if shape_ok:
        for i, (_, eq) in enumerate(leaf.entries):
            try:
                degs.append(weighted_degree(eq, space))
            except NotQuasiHomogeneous as err:
                qh_ok, qh_detail = False, f"entry {i}: {err}"
                break
        else:
            qh_detail = f"degrees [{_listed(degs, _bounded_int, ', ')}]"
    _check(rep, "quasi-homogeneous", qh_ok, qh_detail)

    _check(rep, "entries-distinct", _distinct_up_to_scaling([eq for _, eq in leaf.entries]))

    wf = is_well_formed(space)
    _check(rep, "well-formed", wf, space_text)

    deg_ok = False
    deg_detail = ""
    if shape_ok and qh_ok:
        # log_degree from the degrees above; scale is lcm(b), set whenever deg_ok is
        num, scale = _scaled_log_degree(space, leaf.entries, degs)
        deg_ok = num == 0
        deg_detail = f"log degree {_bounded_fraction(Fraction(num, scale))}"
    _check(rep, "degree-zero", deg_ok, deg_detail)

    # pair_index: on a well-formed space of degree zero, the lcm of the b values
    index = scale if wf and deg_ok else None
    _check(rep, "index-computed", index is not None,
           _bounded_int(index) if index is not None else "preconditions failed")

    klt_ok = False
    try:
        rep.klt = is_klt_leaf(leaf)
        klt_ok = rep.klt.passed
        klt_detail = rep.klt.strategy
    except ValueError as err:
        klt_detail = str(err)
    _check(rep, "klt", klt_ok, klt_detail)

    return (space.dim if len(w) >= 2 else None,
            index if rep.passed else None)


# A leaf of at most this many monomials in all takes its verdict from
# _leaf_verdict. The leaves that repeat are small: in theorem_sweep (seed 1,
# 16 passes) 2,393 of 2,500 leaf verifications cover 52 distinct leaves of at
# most 64 monomials, and such a leaf's checks cost about 50 us against about
# 5 us to hash it. Bigger leaves are rarely repeated, and holding them raised
# verify_corpus's peak RSS from 28.1 to 33.8 MB in a sizing run.
_MEMO_MAX_MONOMIALS = 64

# The verdicts held. 128 is more than twice the 52 small leaves of that
# sweep, and with the gate bounds the memo to 128 x 64 monomials.
_MEMO_LEAVES = 128


@lru_cache(maxsize=_MEMO_LEAVES)
def _leaf_verdict(leaf: LogLeaf) -> tuple[tuple[tuple[str, bool, str], ...], KltReport | None,
                                          tuple[int | None, int | None]]:
    """The checks, klt report and (dim, index) that _verify_wps_leaf gives a
    leaf, computed once per equal leaf and process.

    Sound because the key is everything _verify_wps_leaf reads: the weights,
    each entry's b and terms, and the strategy, which make up LogLeaf's
    equality and hash. It reads no other state, so equal leaves get
    identical checks. The loader and the public constructors build only
    exact ints, Fractions and strs, whose equality is their value. The
    checks come back as a tuple, so a caller copies them into its own
    report, and the KltReport is frozen, so it is shared. A test that
    patches a function the checks call clears the memo first
    (`_leaf_verdict.cache_clear()`)."""
    rep = NodeReport("", "wps_leaf")
    result = _verify_wps_leaf(leaf, rep)
    return tuple(rep.checks), rep.klt, result


def _verify_node(cert: Certificate, path: str,
                 reports: list[NodeReport]) -> tuple[int | None, int | None]:
    match cert:
        case WpsLeaf(leaf):
            rep = NodeReport(path, "wps_leaf")
            reports.append(rep)
            # the same terms the entry-shape check reads
            if sum([len(eq.terms) for _, eq in leaf.entries]) > _MEMO_MAX_MONOMIALS:
                return _verify_wps_leaf(leaf, rep)
            try:
                checks, rep.klt, result = _leaf_verdict(leaf)
            except TypeError:  # an unhashable leaf, which only a library caller can build
                return _verify_wps_leaf(leaf, rep)
            rep.checks = list(checks)
            return result
        case EllipticLeaf(dim):
            rep = NodeReport(path, "elliptic_leaf")
            reports.append(rep)
            ok = _check(rep, "elliptic-dim", type(dim) is int and dim >= 1,  # exact int, so no bool
                        _bounded_int(dim) if type(dim) is int else str(dim))
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
# with sorted keys and compact separators. The general reader is one walk
# over the object, field by field, that reports the first fault where it is;
# it scans each vector once into pairs and builds each equation with
# SparsePoly.from_pairs.


class CertificateParseError(ValueError):
    """Schema violation, with a JSON-path location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


# json.dumps(value, sort_keys=True, separators=(",", ":")), for what the writer does not format itself
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# The text of a leaf is _LEAF_HEAD, its entries joined by ",", _LEAF_STRATEGY,
# its strategy as a JSON string, _LEAF_WEIGHTS, its weights joined by ",",
# and "]}"; that of an elliptic leaf is its dim between _ELLIPTIC_HEAD and
# _ELLIPTIC_TAIL; that of a product is its factors' texts, joined by ",",
# between _PRODUCT_HEAD and _PRODUCT_TAIL.
_LEAF_HEAD = '{"entries":['
_LEAF_STRATEGY = '],"node":"wps_leaf","strategy":'
_LEAF_WEIGHTS = ',"v":1,"weights":['
_ELLIPTIC_HEAD, _ELLIPTIC_TAIL = '{"dim":', ',"node":"elliptic_leaf","v":1}'
_PRODUCT_HEAD = '{"factors":['
_PRODUCT_TAIL = '],"node":"product","v":1}'


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
    return "".join((_LEAF_HEAD, ",".join(entries), _LEAF_STRATEGY, _json_text(leaf.klt_strategy),
                    _LEAF_WEIGHTS, ",".join(map(str, leaf.space.weights)), "]}"))


def _node_text(cert: Certificate) -> str:
    match cert:
        case WpsLeaf(leaf):
            return _leaf_text(leaf)
        case EllipticLeaf(dim):
            return _ELLIPTIC_HEAD + _json_text(dim) + _ELLIPTIC_TAIL
        case Product(factors):
            return _PRODUCT_HEAD + ",".join(map(_node_text, factors)) + _PRODUCT_TAIL
    raise TypeError(f"not a certificate node: {cert!r}")


def certificate_dumps(cert: Certificate) -> str:
    """The schema v1 text of a certificate: the bytes json.dumps writes with
    sorted keys and compact separators, written in one pass. Products recurse
    through _node_text, so a wrapper bound to this name (bench/tracing.py)
    sees one call per certificate."""
    return _node_text(cert)


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


def logleaf_from_obj(obj: dict, loc: str = "$") -> LogLeaf:
    weights = _need(obj, "weights", loc)
    if not isinstance(weights, list) or len(weights) < 2:
        raise CertificateParseError("weights must be a list of at least 2 integers", f"{loc}.weights")
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
        eloc = f"{loc}.entries[{i}]"
        b = _need_int(_need(ent, "b", eloc), f"{eloc}.b", minimum=2)
        eq_obj = _need(ent, "eq", eloc)
        if not isinstance(eq_obj, list) or not eq_obj:
            raise CertificateParseError("eq must be a nonempty monomial list", f"{eloc}.eq")
        terms = []
        bad = None  # the first monomial whose exponents break a rule, located after every c is checked
        for j, mono in enumerate(eq_obj):
            mloc = f"{eloc}.eq[{j}]"
            c = _need(mono, "c", mloc)
            if not isinstance(c, list) or len(c) != 2:
                raise CertificateParseError("c must be [numerator, denominator]", f"{mloc}.c")
            num, den = _need_int(c[0], f"{mloc}.c[0]"), _need_int(c[1], f"{mloc}.c[1]")
            if den == 0:
                raise CertificateParseError("zero denominator", f"{mloc}.c")
            if num == 0:
                raise CertificateParseError("zero coefficient monomial", f"{mloc}.c")
            e = _need(mono, "e", mloc)
            if not isinstance(e, list):
                raise CertificateParseError("e must be a list", f"{mloc}.e")
            pairs = exponent_pairs(e, variables) if len(e) == nv else None  # one scan into pairs
            if pairs is None and bad is None:
                bad = j
            terms.append((_ONE if num == 1 == den else Fraction(num, den), pairs))
        if bad is not None:
            e, mloc = eq_obj[bad]["e"], f"{eloc}.eq[{bad}].e"
            for k, x in enumerate(e):
                _need_int(x, f"{mloc}[{k}]", minimum=0)
            if len(e) != nv:
                raise CertificateParseError(f"exponent vector of length {len(e)}, expected {nv}", mloc)
            raise CertificateParseError(f"exponents must be nonnegative integers, got {tuple(e)}", f"{eloc}.eq")
        try:  # the pairs are valid and no coefficient is zero, so only a repeated vector is left to raise
            eq = SparsePoly.from_pairs(nv, terms)
        except ValueError as err:
            raise CertificateParseError(str(err), f"{eloc}.eq") from err
        entries.append((StdCoeff(b), eq))
    try:
        return LogLeaf(Wps(tuple(weights)), tuple(entries), strategy)
    except ValueError as err:
        raise CertificateParseError(str(err), loc) from err


def certificate_from_obj(obj, loc: str = "$") -> Certificate:
    if not isinstance(obj, dict):
        raise CertificateParseError("expected an object", loc)
    v = _need(obj, "v", loc)
    if type(v) is not int or v != 1:  # exact int, so neither true nor 1.0
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


# A leaf text of at most this many characters is held by the reader memo.
# In theorem_sweep (seed 1, 16 passes) 2,363 of 2,500 leaf reads cover 46
# distinct texts of at most 4,096 characters, about 45 KB in all; a 16 KB
# gate would hold 253 KB and a 64 KB gate 851 KB, and held big leaves cost
# peak RSS. build_index_prime(97), of 50 monomials, writes 4,023 characters.
_MEMO_MAX_CHARS = 4096

# at a position in a dense exponent vector: the run of zero entries and
# commas there, then the next entry, which is empty at the closing bracket
_ZEROS_THEN_ENTRY = re.compile(r"[0,]*([^,\]]*)")

# between two pieces of a flat product: a "}" closing one, the "," to cut at,
# and the head of a leaf or an elliptic leaf
_PIECE_CUT = re.compile(r'\},\{"(?:entries|dim)":')


def _scan_leaf(text: str) -> LogLeaf | None:
    """The leaf a wps_leaf text cut like the writer's holds, read with str
    operations instead of json.loads; None where the cuts are not found.
    Only the nonzero entries of a dense vector are read: one compiled
    pattern skips each run of zeros, and a variable's index is the running
    count of commas before its entry.

    The leaf is built by Wps, StdCoeff, SparsePoly.from_pairs in
    len(weights) variables and LogLeaf, and every equation has a monomial,
    so it is a leaf the general path can return. What only the text's form
    decides (key order, number spelling, vector length, reduced
    coefficients) is not checked here; _read_piece does that by writing the
    leaf back. Raises only ValueError, an int over the int-to-str digit
    limit included, and ZeroDivisionError, for a zero denominator."""
    if not text.startswith(_LEAF_HEAD) or not text.endswith("]}"):
        return None
    tail = text.rfind(_LEAF_STRATEGY)
    weights_at = text.find(_LEAF_WEIGHTS, tail)
    if tail < 0 or weights_at < 0:
        return None
    strategy = text[tail + len(_LEAF_STRATEGY) + 1:weights_at - 1]  # inside its quotes
    weights = tuple(map(int, text[weights_at + len(_LEAF_WEIGHTS):-2].split(",")))
    nv = len(weights)
    stds: dict[int, StdCoeff] = {}  # one StdCoeff per distinct b
    entries = []
    pos = len(_LEAF_HEAD)
    while pos < tail:  # one entry: {"b":B,"eq":[monomial,...]}
        at = text.find(',"eq":[', pos)
        if at < 0 or not text.startswith('{"b":', pos):
            return None
        b = int(text[pos + 5:at])
        coeff = stds.get(b)
        if coeff is None:
            coeff = stds[b] = StdCoeff(b)
        pos, terms = at + 7, []
        while True:  # one monomial: {"c":[N,D],"e":[vector]}
            comma = text.find(",", pos)
            at = text.find('],"e":[', comma)
            if comma < 0 or at < 0 or not text.startswith('{"c":[', pos):
                return None
            num, den = int(text[pos + 6:comma]), int(text[comma + 1:at])
            pos, pairs, var = at + 7, [], 0
            while True:
                at, end = _ZEROS_THEN_ENTRY.match(text, pos).span(1)
                var += text.count(",", pos, at)
                pos = end
                if at == end:
                    break
                pairs.append((var, int(text[at:end])))
            terms.append((_ONE if num == 1 == den else Fraction(num, den), pairs))
            if not text.startswith("]},", pos):
                break
            pos += 3
        entries.append((coeff, SparsePoly.from_pairs(nv, terms)))
        pos += 5  # past ']}]},' to the next entry, or past the ']}]}' before the tail
    return LogLeaf(Wps(weights), tuple(entries), strategy)


def _read_piece(piece: str) -> Certificate | None:
    """The node a leaf or elliptic leaf text reads as, if the text is
    exactly what the writer writes for that node; otherwise None, for the
    general path to read and report. No json.loads runs.

    Sound because _scan_leaf and the elliptic test (an int dim >= 1) build
    only nodes the general path can return, and the one proof obligation,
    that such a node's writer text reads back as that node on the general
    path, is the codec's round trip (test_writer_matches_the_reference_bytes
    pins it). So when the writer's text of the node is `piece`, the general
    path returns the same node for `piece`."""
    try:
        if piece.startswith(_ELLIPTIC_HEAD) and piece.endswith(_ELLIPTIC_TAIL):
            dim = int(piece[len(_ELLIPTIC_HEAD):-len(_ELLIPTIC_TAIL)])
            node = EllipticLeaf(dim) if dim >= 1 else None
        else:
            leaf = _scan_leaf(piece)
            node = None if leaf is None else WpsLeaf(leaf)
        return node if node is not None and _node_text(node) == piece else None
    except (ValueError, ZeroDivisionError):
        return None


@lru_cache(maxsize=_MEMO_LEAVES)
def _read_leaf_text(piece: str, digits: int) -> Certificate | None:
    """_read_piece, held per piece text and int-to-str digit limit `digits`,
    so that a hit returns only what was read under the same limit."""
    return _read_piece(piece)


def _flat_factors(text: str) -> list[Certificate] | None:
    """The factors of a product text written as the writer writes it, or None.

    The text between _PRODUCT_HEAD and _PRODUCT_TAIL is cut at the "," of
    each match of _PIECE_CUT, all found in one pass of the pattern before
    any piece is read. A leaf piece of at most _MEMO_MAX_CHARS is read
    through _read_leaf_text, a bigger one and an elliptic piece by
    _read_piece unheld; any other piece, and any piece that reads as None,
    gives None.
    """
    digits = sys.get_int_max_str_digits()
    start, end = len(_PRODUCT_HEAD), len(text) - len(_PRODUCT_TAIL)
    factors = []
    for cut in [match.start() + 1 for match in _PIECE_CUT.finditer(text, start, end)] + [end]:
        piece = text[start:cut]
        if piece.startswith(_LEAF_HEAD):
            node = _read_leaf_text(piece, digits) if cut - start <= _MEMO_MAX_CHARS else _read_piece(piece)
        elif piece.startswith(_ELLIPTIC_HEAD):
            node = _read_piece(piece)  # up to hundreds of padding dimensions, which would push the leaves out
        else:
            return None
        if node is None:
            return None
        factors.append(node)
        start = cut + 1
    return factors


def certificate_loads(text: str) -> Certificate:
    """The certificate a schema v1 text holds, or CertificateParseError with
    the location of the first fault.

    A str, less one trailing newline as `cyindex realize --out` writes it,
    is read without json.loads when it is the writer's text: a flat product
    factor by factor (_flat_factors, each leaf text of at most
    _MEMO_MAX_CHARS through a memo of _MEMO_LEAVES texts), and any other
    text as one piece (_read_piece). Sound: json.loads ignores trailing
    whitespace; _read_piece returns a node only when its text is the
    writer's text of that node, which the general path reads back as the
    node; and if the text is _PRODUCT_HEAD + ",".join(p_i) + _PRODUCT_TAIL
    with each p_i the writer's text of a leaf or elliptic leaf f_i, then
    json.loads(text) is {"factors": [json.loads(p_i), ...], "node":
    "product", "v": 1}, and the general path returns Product(f) too. Such a
    p_i nests at most 6 levels, with no whitespace and no unknown keys, so
    the general path meets no recursion limit that the piece did not; a
    memo hit reuses a value read under the same digit limit. Every other
    text, bytes included, is read whole, newline and all, by the general
    path, which makes every error and location.
    """
    if type(text) is str:
        body = text[:-1] if text.endswith("\n") else text  # as `cyindex realize --out` writes it
        if body.startswith(_PRODUCT_HEAD) and body.endswith(_PRODUCT_TAIL):
            factors = _flat_factors(body)
            node = None if factors is None else Product(factors)
        else:
            node = _read_piece(body)
        if node is not None:
            return node
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise CertificateParseError(f"invalid JSON: {err.msg}", f"line {err.lineno} column {err.colno}") from err
    except ValueError as err:  # the other ValueError json.loads raises: an int over the int-to-str digit limit
        raise CertificateParseError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from err
    except RecursionError as err:
        raise CertificateParseError("nested too deeply to parse") from err
    try:
        return certificate_from_obj(obj)
    except RecursionError as err:
        raise CertificateParseError("nested too deeply to parse") from err
