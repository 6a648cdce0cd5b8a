import functools
import hashlib
import os
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

# allow running pytest from a checkout without an editable install
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC):
    sys.path.insert(0, os.path.abspath(_SRC))

from cyindex.wpspairs import SparsePoly, dense_exponents  # noqa: E402  (after the path above)

RECORDED_DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.txt"


def entry_poly(eq, nvars: int) -> SparsePoly:
    """An entry's equation as a SparsePoly: an int j, which a family leaf
    holds for x_j, becomes SparsePoly.variable(nvars, j); a SparsePoly is
    returned as it is."""
    return SparsePoly.variable(nvars, eq) if type(eq) is int else eq


def primitive_terms(terms) -> tuple:
    """(coefficient, anything) terms with their coefficients made primitive
    integers of the same signs, computed in Fractions: the reference for
    the form from_pairs stores."""
    coeffs = [Fraction(c) for c, _ in terms]
    d = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (d // c.denominator) for c in coeffs]
    g = gcd(*ints) or 1
    return tuple((c // g, rest) for c, (_, rest) in zip(ints, terms))


def dense_terms(eq: SparsePoly) -> tuple:
    """eq's terms as (coefficient, dense exponent vector), in canonical order."""
    return tuple((c, tuple(dense_exponents(eq.nvars, pairs))) for c, pairs in eq.terms)


def sha16(text: str) -> str:
    """The sha256 of text cut to 16 hex digits, the form the recorded output digests hold."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.cache
def _recorded_lines() -> tuple[str, ...]:
    return tuple(RECORDED_DIGESTS.read_text(encoding="utf-8").splitlines())


def recorded(label: str) -> list[str]:
    """The fields after `label` on the one line of tests/data/output_digests.txt
    that starts with it: a test names the line that pins its input's bytes."""
    found = [line[len(label) + 1:].split() for line in _recorded_lines() if line.startswith(label + " ")]
    assert len(found) == 1, f"{len(found)} recorded digest lines start with {label!r}"
    return found[0]
