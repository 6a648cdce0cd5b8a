"""Weighted projective spaces and log pairs, with exact rational arithmetic.

A weighted projective space P(a_0, ..., a_N) is recorded by its positive
integer weights; divisors on it are cut out by quasi-homogeneous sparse
polynomials. A `SparsePoly` stores each monomial as its (variable, exponent)
pairs with positive exponents, so that building, checking, hashing and
reading an equation cost O(support) per monomial, however many variables
the space has. Dense exponent vectors, one entry per variable, are made only
at the edges: the dense constructor and the `monomials` view, the schema v1
codec (`cyindex.codec` writes and scans its own text pair by pair, and its
general reader turns each vector into pairs by `exponent_pairs`) and the
3-variable plane check.

All degree bookkeeping is exact: coefficients are `fractions.Fraction`,
weighted degrees are integers, and the degree of K_X + B is computed in
integers over lcm(b), by the one formula the verifier in `cyindex.verify`
uses (`_scaled_log_degree`), with no rounding anywhere.

The index of a degree-zero pair with standard coefficients 1 - 1/b is read
off as the lcm of the b values. This is valid because the divisor class
group of a *well-formed* weighted projective space is infinite cyclic,
graded by weighted degree: m(K_X + B) is then linearly trivial iff its
degree vanishes and mB is integral. Well-formedness is therefore a hard
precondition of `pair_index`, not an optional nicety.

Divisor equations need not be irreducible. Where the klt check passes, the
cone over each equation is smooth outside the origin, so its components are
disjoint there and meet the other divisors transversally; all carry its
1 - 1/b, so the support is SNC, the log degree adds up over the components
and the lcm of the b values does not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, lcm

__all__ = [
    "NotQuasiHomogeneous",
    "Wps",
    "StdCoeff",
    "SparsePoly",
    "exponent_pairs",
    "dense_exponents",
    "LogLeaf",
    "KLT_STRATEGIES",
    "is_well_formed",
    "weighted_degree",
    "canonical_degree",
    "log_degree",
    "pair_index",
]


_INT = frozenset({int})
_ONE = Fraction(1)  # shared: Fraction is immutable, and most coefficients are 1


def _bounded_int(x: int) -> str:
    """x up to 64 bits, else its bit length: short, and within the int-to-str digit limit."""
    return str(x) if x.bit_length() <= 64 else f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"


def _shown(x) -> str:
    """An argument in a message: an int through _bounded_int, anything else (bool, float,
    str, ...) by its repr."""
    return _bounded_int(x) if type(x) is int else repr(x)


def _bounded_fraction(q: Fraction) -> str:
    """str(q), each part through _bounded_int."""
    text = _bounded_int(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_bounded_int(q.denominator)}"


def _listed(items, fmt, sep: str, most: int = 16) -> str:
    """fmt of the first `most` items joined by sep, then their count when
    there are more: text bounded for any leaf, as fmt is."""
    text = sep.join([fmt(x) for x in items[:most]])
    return text if len(items) <= most else f"{text}{sep}... ({len(items)} in all)"


class NotQuasiHomogeneous(ValueError):
    """A divisor equation whose monomials disagree in weighted degree."""


@dataclass(frozen=True)
class Wps:
    """P(a_0, ..., a_N), given by its weights. Dimension is N = len(weights) - 1."""

    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) < 2:
            raise ValueError("a weighted projective space needs at least 2 weights")
        for a in self.weights:
            if type(a) is not int or a < 1:  # exact ints, so no bool
                raise ValueError(f"weights must be positive integers, got {_shown(a)}")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def __str__(self) -> str:
        return f"P({_listed(self.weights, _bounded_int, ',')})"


@dataclass(frozen=True)
class StdCoeff:
    """A standard coefficient 1 - 1/b with integer b >= 2.

    b = 1 would encode coefficient 0, which never appears as an actual
    divisor entry, so it is rejected at construction.
    """

    b: int

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 2:
            raise ValueError(f"standard coefficient needs integer b >= 2, got {_shown(self.b)}")

    def __str__(self) -> str:
        return f"{_bounded_int(self.b - 1)}/{_bounded_int(self.b)}"


def exponent_pairs(exps, variables: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
    """The (variable, exponent) pairs of the nonzero entries of a dense
    exponent vector, or None unless every entry is an exact `int` >= 0.

    `variables` is tuple(range(n)) for some n >= len(exps), built once by the
    caller. The vector is passed over twice at C level (entry types, then
    nonzero positions); the rest reads the support alone, where any
    negative entry is.
    """
    if not _INT.issuperset(map(type, exps)):  # exact ints, so no bool
        return None
    support = list(compress(variables, exps))
    values = list(map(exps.__getitem__, support))
    if values and min(values) < 0:
        return None
    return tuple(zip(support, values))


def dense_exponents(nvars: int, pairs) -> list[int]:
    """The dense exponent vector of length nvars with the given (variable, exponent) pairs."""
    exps = [0] * nvars
    for v, x in pairs:
        exps[v] = x
    return exps


def _dense_order(term) -> list[tuple[int, int]]:
    """Sort key of a (coefficient, pairs) term whose descending order is the
    descending lexicographic order of the dense exponent vectors.

    Take the first place where the pair lists of two monomials differ. If
    both have a pair for the same variable there, the dense vectors first
    differ in that variable, by those exponents. If one pair has the smaller
    variable v, the other vector is 0 at v, so the vector with the pair at v
    is larger, and its key (-v, .) is larger too. If one list is a proper
    prefix of the other, the longer one has a positive entry where the
    shorter has 0, and the longer key is the larger.
    """
    return [(-v, x) for v, x in term[1]]


def _sorted(terms: list) -> list:
    """terms in canonical order, sorted in place."""
    if len(terms) > 1:
        terms.sort(key=_dense_order, reverse=True)
    return terms


def _set_fields(poly: "SparsePoly", nvars: int, terms) -> None:
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "terms", tuple(terms))


@dataclass(frozen=True, init=False, repr=False)
class SparsePoly:
    """Sparse polynomial in nvars variables, stored as `terms`: one
    (coefficient, pairs) per monomial, where pairs lists its (variable,
    exponent) with increasing variables and every exponent >= 1. No
    coefficient is zero and no monomial repeats.

    Equality, hashing and the canonical order are defined on this form, so
    every reader costs O(support) per monomial, whatever nvars is. The terms
    are sorted in descending lexicographic order of the dense exponent
    vectors (see `_dense_order`), the order certificates are written in.

    `SparsePoly(nvars, monomials)` takes dense (coefficient, exponent vector)
    monomials and `from_pairs` takes pairs. Every constructor ends in
    `from_pairs`, the one place the rules are checked: nvars (>= 1) and
    every exponent (>= 0) are exact `int`s, never a `bool`, every vector has
    length nvars, and no vector repeats. `monomials` is the dense form,
    derived on demand at O(nvars) per monomial.
    """

    nvars: int
    terms: tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]

    def __init__(self, nvars: int, monomials):
        def checked_pairs():
            """Each monomial's (coefficient, pairs), once its vector passes the
            dense rules; from_pairs checks nvars before it asks for the first."""
            variables = None
            for coeff, exps in monomials:
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has length != {_bounded_int(nvars)}")
                if variables is None:
                    # built once, and only after a vector of length nvars bounds its size by the
                    # input; a range makes a new int per index > 256
                    variables = tuple(range(nvars))
                pairs = exponent_pairs(exps, variables)
                if pairs is None:
                    raise ValueError(f"exponents must be nonnegative integers, got {exps}")
                yield coeff, pairs

        _set_fields(self, nvars, SparsePoly.from_pairs(nvars, checked_pairs()).terms)

    @classmethod
    def from_pairs(cls, nvars: int, terms) -> "SparsePoly":
        """Build from (coefficient, pairs) terms, pairs being (variable,
        exponent) with increasing variables below nvars and exponents >= 1,
        all exact ints, at O(support) per monomial. Every other constructor
        ends here, so all share these checks."""
        if type(nvars) is not int or nvars < 1:  # exact int, so no bool
            raise ValueError(f"nvars must be a positive integer, got {_shown(nvars)}")
        seen = set()
        checked = []
        for coeff, pairs in terms:
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            mono, prev = [], -1
            for v, x in pairs:
                if type(v) is not int or type(x) is not int or not prev < v < nvars or x < 1:
                    raise ValueError(f"bad exponent pair ({_shown(v)}, {_shown(x)}): pairs need increasing "
                                     f"int variables below {_bounded_int(nvars)} and int exponents >= 1")
                mono.append((v, x))
                prev = v
            pairs = tuple(mono)
            if coeff == 0:
                raise ValueError("zero coefficient monomial not allowed")
            if pairs in seen:
                raise ValueError(f"repeated exponent vector {tuple(dense_exponents(nvars, pairs))}")
            seen.add(pairs)
            checked.append((coeff, pairs))
        return cls._canonical(nvars, _sorted(checked))

    @classmethod
    def _canonical(cls, nvars: int, terms) -> "SparsePoly":
        """From terms already checked and in canonical order."""
        poly = object.__new__(cls)
        _set_fields(poly, nvars, terms)
        return poly

    @property
    def monomials(self) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
        """The monomials as (coefficient, dense exponent vector), in canonical order."""
        return tuple([(c, tuple(dense_exponents(self.nvars, pairs))) for c, pairs in self.terms])

    def __repr__(self) -> str:
        return f"SparsePoly.from_pairs({self.nvars!r}, {self.terms!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "SparsePoly":
        """Build from an iterable of (coefficient, dense exponent vector),
        merging duplicates and dropping zero sums."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for coeff, exps in terms:
            exps = tuple(exps)
            acc[exps] = acc.get(exps, Fraction(0)) + Fraction(coeff)
        mons = tuple((c, e) for e, c in acc.items() if c != 0)
        return cls(nvars, mons)

    @classmethod
    def variable(cls, nvars: int, j: int, coeff=_ONE) -> "SparsePoly":
        """coeff * x_j: from_pairs of the one pair (j, 1)."""
        return cls.from_pairs(nvars, ((coeff, ((j, 1),)),))

    @classmethod
    def linear_form(cls, coeffs) -> "SparsePoly":
        """sum coeffs[j] * x_j, skipping zero coefficients."""
        coeffs = list(coeffs)
        return cls.from_pairs(len(coeffs), [(c, ((j, 1),)) for j, c in enumerate(coeffs) if c != 0])

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def linear_coefficients(self) -> list[Fraction] | None:
        """Coefficient vector if every monomial has total degree 1, else None."""
        coeffs = [Fraction(0)] * self.nvars
        for c, pairs in self.terms:
            if len(pairs) != 1 or pairs[0][1] != 1:
                return None
            coeffs[pairs[0][0]] = c
        return coeffs

    def projective_key(self) -> tuple:
        """A hashable key that two polynomials share iff one is a nonzero
        constant multiple of the other: nvars and the terms divided by the
        leading coefficient (the terms are kept in canonical order)."""
        if not self.terms:
            return (self.nvars, ())
        lead = self.terms[0][0]
        return (self.nvars, tuple((c / lead, p) for c, p in self.terms))

    def proportional_to(self, other: "SparsePoly") -> bool:
        """True iff self = c * other for a nonzero constant c."""
        return self.projective_key() == other.projective_key()


KLT_STRATEGIES = (
    "family_A",
    "family_B",
    "family_C",
    "hyperplane_arrangement",
    "plane_arrangement",
)


@dataclass(frozen=True)
class LogLeaf:
    """One explicit pair (X, B): a weighted projective space plus divisor
    entries (standard coefficient, quasi-homogeneous equation), tagged with
    the strategy its klt verification follows."""

    space: Wps
    entries: tuple[tuple[StdCoeff, SparsePoly], ...]
    klt_strategy: str

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((c, e) for c, e in self.entries))
        if self.klt_strategy not in KLT_STRATEGIES:
            raise ValueError(f"unknown klt strategy {self.klt_strategy!r}")

    def __hash__(self) -> int:
        """The hash of the fields, as the dataclass would compute it, worked
        out once per object: every Fraction of the leaf hashes in Python, and
        each leaf memo hashes its key. Equality stays by value."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.space, self.entries, self.klt_strategy))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # a str hashes differently in another process, so a copy works its hash out afresh
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def dim(self) -> int:
        return self.space.dim

    def equations(self) -> list[SparsePoly]:
        return [eq for _, eq in self.entries]


def is_well_formed(space: Wps) -> bool:
    """True iff dropping any single weight leaves a coprime family.

    Equivalently the chart group actions are free in codimension 1, which is
    what makes the degree grading on the class group faithful.
    """
    w = space.weights
    # linear: rest_gcd[k] is the gcd of the last k weights, prefix that of the first i
    rest_gcd = list(accumulate(reversed(w), gcd, initial=0))
    prefix = 0
    for i, a in enumerate(w):
        if gcd(prefix, rest_gcd[len(w) - 1 - i]) != 1:
            return False
        prefix = gcd(prefix, a)
    return True


def weighted_degree(eq: SparsePoly, space: Wps) -> int:
    """The common weighted degree sum_j a_j e_j of eq's monomials.

    Raises NotQuasiHomogeneous if two monomials disagree, naming the least
    and greatest monomial degree and how many distinct degrees there are;
    ValueError on the zero polynomial or an arity mismatch.
    """
    if eq.is_zero():
        raise ValueError("the zero polynomial has no weighted degree")
    if eq.nvars != len(space.weights):
        raise ValueError(
            f"equation in {_bounded_int(eq.nvars)} variables on a space with "
            f"{len(space.weights)} weights"
        )
    w = space.weights
    degs = set()
    for _, pairs in eq.terms:
        if len(pairs) == 1:  # most monomials: read off the one pair, with no list to sum
            (v, x), = pairs
            degs.add(w[v] * x)
        else:
            degs.add(sum([w[v] * x for v, x in pairs]))
    if len(degs) != 1:
        # bounded whatever the size of eq: neither eq nor the space is printed
        raise NotQuasiHomogeneous(
            f"monomial degrees disagree: {len(degs)} distinct degrees "
            f"from {_bounded_int(min(degs))} to {_bounded_int(max(degs))}"
        )
    return degs.pop()


def canonical_degree(space: Wps) -> int:
    """Degree of K_X: minus the sum of the weights."""
    return -sum(space.weights)


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


def _scaled_log_degree(space: Wps, entries, degrees) -> tuple[int, int]:
    """(L deg(K_X + B), L) with L = lcm(b), in integers, given the weighted
    degree of each entry's equation: with coefficients 1 - 1/b_i,
    L deg(K_X + B) = L deg K_X + sum deg_i (L - L/b_i)."""
    scale = lcm(*[coeff.b for coeff, _ in entries])
    return scale * canonical_degree(space) + sum(
        deg * (scale - scale // coeff.b) for (coeff, _), deg in zip(entries, degrees)), scale


def log_degree(leaf: LogLeaf) -> Fraction:
    """Exact degree of K_X + B: canonical degree plus sum of coeff * deg(eq)."""
    return Fraction(*_scaled_log_degree(
        leaf.space, leaf.entries, [weighted_degree(eq, leaf.space) for _, eq in leaf.entries]))


def pair_index(leaf: LogLeaf) -> int:
    """Index of the pair: lcm of the coefficient denominators b.

    Requires log_degree(leaf) == 0 and a well-formed space; on a well-formed
    space the class group is Z graded by degree, so m(K_X + B) is trivial
    iff the degree vanishes and every m(1 - 1/b) is an integer, and the
    least such m is lcm(b).
    """
    if not is_well_formed(leaf.space):
        raise ValueError(f"pair_index requires a well-formed space, got {leaf.space}")
    d = log_degree(leaf)
    if d != 0:
        raise ValueError(f"pair_index requires log degree 0, got {_bounded_fraction(d)}")
    return lcm(*[c.b for c, _ in leaf.entries])
