import os
import sys

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
