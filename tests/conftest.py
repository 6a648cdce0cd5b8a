import os
import sys
from fractions import Fraction
from math import gcd, lcm

# allow running pytest from a checkout without an editable install
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC):
    sys.path.insert(0, os.path.abspath(_SRC))

from cyindex.wpspairs import SparsePoly  # noqa: E402  (after the path above)


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
