"""Weighted projective spaces and log pairs, with exact rational arithmetic.

A weighted projective space P(a_0, ..., a_N) is recorded by its positive
integer weights; divisors on it are cut out by quasi-homogeneous sparse
polynomials. All degree bookkeeping is exact: coefficients are
`fractions.Fraction`, weighted degrees are integers, and the degree of
K_X + B is a Fraction with no rounding anywhere.

The index of a degree-zero pair with standard coefficients 1 - 1/b is read
off as the lcm of the b values. This is valid because the divisor class
group of a *well-formed* weighted projective space is infinite cyclic,
graded by weighted degree: m(K_X + B) is then linearly trivial iff its
degree vanishes and mB is integral. Well-formedness is therefore a hard
precondition of `pair_index`, not an optional nicety.

Irreducibility of divisor equations is deliberately not checked anywhere;
the degree, coefficient and normal-crossing computations are insensitive to
an equation factoring into distinct components carrying the same
coefficient, and the klt reports list this as an unchecked hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, lcm
from operator import itemgetter

__all__ = [
    "NotQuasiHomogeneous",
    "Wps",
    "StdCoeff",
    "SparsePoly",
    "LogLeaf",
    "KLT_STRATEGIES",
    "is_well_formed",
    "weighted_degree",
    "canonical_degree",
    "log_degree",
    "pair_index",
]


_INT = frozenset({int})


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
                raise ValueError(f"weights must be positive integers, got {a!r}")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def __str__(self) -> str:
        return "P(" + ",".join(str(a) for a in self.weights) + ")"


@dataclass(frozen=True)
class StdCoeff:
    """A standard coefficient 1 - 1/b with integer b >= 2.

    b = 1 would encode coefficient 0, which never appears as an actual
    divisor entry, so it is rejected at construction.
    """

    b: int

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 2:
            raise ValueError(f"standard coefficient needs integer b >= 2, got {self.b!r}")

    def value(self) -> Fraction:
        return Fraction(self.b - 1, self.b)

    def __str__(self) -> str:
        return f"{self.b - 1}/{self.b}"


@dataclass(frozen=True)
class SparsePoly:
    """Sparse polynomial: monomials (coefficient, exponent vector), no zeros,
    no repeated exponent vectors, all vectors of length nvars.

    nvars (>= 1) and every exponent (>= 0) are exact `int`s, never a `bool`. The
    constructor is the one place that checks exponent vectors; it also
    records each monomial's support, the indices of its nonzero exponents,
    in `supports` (aligned with `monomials`), so that readers cost
    O(support) per monomial instead of O(nvars). `supports` takes no part
    in equality, hashing or repr.
    """

    nvars: int
    monomials: tuple[tuple[Fraction, tuple[int, ...]], ...]
    supports: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.nvars) is not int or self.nvars < 1:  # exact int, so no bool
            raise ValueError(f"nvars must be a positive integer, got {self.nvars!r}")
        seen = set()
        canon = []
        for coeff, exps in self.monomials:
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError(f"exponent vector {exps} has length != {self.nvars}")
            # C-level passes, no Python loop over the vector: exact ints (so no bool), then signs
            if not _INT.issuperset(map(type, exps)) or min(exps) < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {exps}")
            if coeff == 0:
                raise ValueError("zero coefficient monomial not allowed")
            if exps in seen:
                raise ValueError(f"repeated exponent vector {exps}")
            seen.add(exps)
            canon.append((coeff, exps))
        canon.sort(key=itemgetter(1), reverse=True)
        variables = tuple(range(self.nvars))  # built once; a range makes a new int per index > 256
        object.__setattr__(self, "monomials", tuple(canon))
        object.__setattr__(self, "supports", tuple([tuple(compress(variables, e)) for _, e in canon]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "SparsePoly":
        """Build from an iterable of (coefficient, exponent vector), merging
        duplicates and dropping zero sums."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for coeff, exps in terms:
            exps = tuple(exps)
            acc[exps] = acc.get(exps, Fraction(0)) + Fraction(coeff)
        mons = tuple((c, e) for e, c in acc.items() if c != 0)
        return cls(nvars, mons)

    @classmethod
    def single(cls, nvars: int, exps, coeff=1) -> "SparsePoly":
        return cls(nvars, ((Fraction(coeff), tuple(exps)),))

    @classmethod
    def variable(cls, nvars: int, j: int, coeff=1) -> "SparsePoly":
        exps = [0] * nvars
        exps[j] = 1
        return cls.single(nvars, exps, coeff)

    @classmethod
    def linear_form(cls, coeffs) -> "SparsePoly":
        """sum coeffs[j] * x_j, skipping zero coefficients."""
        coeffs = list(coeffs)
        n = len(coeffs)
        terms = []
        for j, c in enumerate(coeffs):
            if c != 0:
                exps = [0] * n
                exps[j] = 1
                terms.append((Fraction(c), tuple(exps)))
        return cls(n, tuple(terms))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials

    def coefficient(self, exps) -> Fraction:
        exps = tuple(exps)
        for c, e in self.monomials:
            if e == exps:
                return c
        return Fraction(0)

    def linear_coefficients(self) -> list[Fraction] | None:
        """Coefficient vector if every monomial has total degree 1, else None."""
        coeffs = [Fraction(0)] * self.nvars
        for (c, exps), support in zip(self.monomials, self.supports):
            if len(support) != 1 or exps[support[0]] != 1:
                return None
            coeffs[support[0]] = c
        return coeffs

    def projective_key(self) -> tuple:
        """A hashable key that two polynomials share iff one is a nonzero
        constant multiple of the other: nvars and the monomials divided by
        the leading coefficient (the monomials are kept in canonical order)."""
        if not self.monomials:
            return (self.nvars, ())
        lead = self.monomials[0][0]
        if lead == 1:
            return (self.nvars, self.monomials)
        return (self.nvars, tuple((c / lead, e) for c, e in self.monomials))

    def proportional_to(self, other: "SparsePoly") -> bool:
        """True iff self = c * other for a nonzero constant c."""
        return self.projective_key() == other.projective_key()

    # -- algebra -----------------------------------------------------------

    def scaled(self, c) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            raise ValueError("scaling a divisor equation by zero")
        return SparsePoly(self.nvars, tuple((coeff * c, e) for coeff, e in self.monomials))

    def subs_zero(self, vars_to_kill) -> "SparsePoly":
        """Set the named variables to 0 (drop monomials touching them)."""
        kill = set(vars_to_kill)
        mons = tuple(
            mono for mono, support in zip(self.monomials, self.supports) if kill.isdisjoint(support)
        )
        return SparsePoly(self.nvars, mons)

    def restrict_to(self, keep) -> "SparsePoly":
        """Project onto the listed variables; monomials involving any other
        variable must already be absent."""
        keep = list(keep)
        kept = set(keep)
        mons = []
        for (c, e), support in zip(self.monomials, self.supports):
            if not kept.issuperset(support):
                raise ValueError("restrict_to: monomial uses a dropped variable")
            mons.append((c, tuple(map(e.__getitem__, keep))))
        return SparsePoly(len(keep), tuple(mons))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for c, exps in self.monomials:
            factors = [
                f"x{j}" if e == 1 else f"x{j}^{e}"
                for j, e in enumerate(exps)
                if e > 0
            ]
            mono = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(mono)
            elif c == -1 and factors:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}" if factors else f"{c}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


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

    Raises NotQuasiHomogeneous if two monomials disagree, ValueError on the
    zero polynomial or an arity mismatch.
    """
    if eq.is_zero():
        raise ValueError("the zero polynomial has no weighted degree")
    if eq.nvars != len(space.weights):
        raise ValueError(
            f"equation in {eq.nvars} variables on a space with "
            f"{len(space.weights)} weights"
        )
    w = space.weights
    degs = {sum([w[j] * exps[j] for j in support])
            for (_, exps), support in zip(eq.monomials, eq.supports)}
    if len(degs) != 1:
        raise NotQuasiHomogeneous(
            f"monomial degrees disagree: {sorted(degs)} for {eq} on {space}"
        )
    return degs.pop()


def canonical_degree(space: Wps) -> int:
    """Degree of K_X: minus the sum of the weights."""
    return -sum(space.weights)


def log_degree(leaf: LogLeaf) -> Fraction:
    """Exact degree of K_X + B: canonical degree plus sum of coeff * deg(eq)."""
    total = Fraction(canonical_degree(leaf.space))
    for coeff, eq in leaf.entries:
        total += coeff.value() * weighted_degree(eq, leaf.space)
    return total


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
        raise ValueError(f"pair_index requires log degree 0, got {d}")
    return lcm(*[c.b for c, _ in leaf.entries]) if leaf.entries else 1
