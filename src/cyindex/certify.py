"""Index certificates: the constructors, the realizer and the
plane-arrangement search. The certificate tree and its verifier are in
verify, the text codec is in codec, and neither imports this module.

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

A sweep over (n, m) meets the same few parts again and again, so the family
leaf of a part of at most 64 monomials, counted from p and e before it is
built, is built once per process (_held_part): at most 128 parts, least
recently used first out. Every later use gets the same WpsLeaf object, whose
hash LogLeaf works out once, so the writer's and the verifier's memos find
it at the cost of one lookup. Bigger parts are built afresh.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm

from .codec import certificate_dumps, certificate_loads  # noqa: F401  (bound here for bench/tracing.py)
from .numtheory import euler_phi, factorize, indices_with_phi_at_most
from .sncklt import is_klt_leaf
from .verify import _MEMO_LEAVES, _MEMO_MAX_MONOMIALS, Certificate, EllipticLeaf, Product, WpsLeaf
from .verify import verify_certificate  # noqa: F401  (bound here for bench/tracing.py)
from .wpspairs import (
    LogLeaf,
    SparsePoly,
    StdCoeff,
    Wps,
    _ONE,
    pair_index,
)

__all__ = [
    "certificate_dim",
    "certificate_index",
    "build_index_prime",
    "build_prime_power",
    "build_sylvester",
    "base_leaf",
    "realize",
    "check_dim_inequality",
    "search_plane_pair",
    "BASE_DIM1_INDICES",
    "BASE_DIM2_INDICES",
]


# ---------------------------------------------------------------------------
# dimension and index of a certificate
# ---------------------------------------------------------------------------


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

    The leaf strict-verifies for k <= 16. From k = 17 on its b values have
    more than verify.COEFF_BITS_BUDGET bits in all, so degree-zero fails with
    a resource budget detail. From k = 15 on a b value has more than 4,300
    decimal digits, Python's default int-to-str digit limit, so
    certificate_dumps raises ValueError unless sys.set_int_max_str_digits
    raises the limit.
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
        return [(_held_part if _part_monomials(p, e) <= _MEMO_MAX_MONOMIALS else _part)(p, e)]
    return _core(m // p**e) + _core(p**e)


def _part_monomials(p: int, e: int) -> int:
    """The monomials in all of the family leaf of p^e, worked out before it
    is built: 2n for build_index_prime(p) of dimension n, so (p+3)/2 for
    p = 1 (mod 4) and (p+1)/2 for p = 3 (mod 4), and e coordinate
    hyperplanes plus p + e - 2 terms of H for build_prime_power(p, e)."""
    if e == 1:
        return (p + 3) // 2 if p % 4 == 1 else (p + 1) // 2
    return p + 2 * e - 2


def _part(p: int, e: int) -> WpsLeaf:
    """The family leaf of the prime or prime power p^e."""
    return WpsLeaf(build_index_prime(p) if e == 1 else build_prime_power(p, e))


# The family leaves of at most _MEMO_MAX_MONOMIALS monomials, built once per
# process: a sweep over (n, m) meets the same few parts again and again, and
# the one object of each carries its hash to the writer and verifier memos.
_held_part = lru_cache(maxsize=_MEMO_LEAVES)(_part)


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

