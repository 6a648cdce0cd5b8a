"""The invariant corpus behind `cyindex selftest` and the acceptance tests.

`CHECKS` is the ordered tuple of (name, check). Each check raises AssertionError naming the
failing input, explicitly rather than by `assert`, so it still checks under `python -O`.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm, prod

from .certify import (
    BASE_DIM1_INDICES,
    BASE_DIM2_INDICES,
    base_leaf,
    build_index_prime,
    build_prime_power,
    check_dim_inequality,
    realize,
    search_plane_pair,
)
from .codec import CertificateParseError, _read_leaf_text, certificate_dumps, certificate_loads
from .numtheory import euler_phi, indices_with_phi_at_most, sylvester_bound
from .sncklt import is_klt_leaf
from .verify import EllipticLeaf, Product, verify_certificate
from .wpspairs import LogLeaf, SparsePoly, StdCoeff, Wps, log_degree, pair_index


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


@cache
def _family_leaves() -> tuple[tuple[str, LogLeaf, int], ...]:
    """(call, leaf, index) over both family grids: odd 5 <= m <= 401, and m^e for 2 <= m, e <= 12.
    Built once per process; three checks walk them."""
    odd = [(f"build_index_prime({m})", build_index_prime(m), m) for m in range(5, 402, 2)]
    powers = [(f"build_prime_power({m}, {e})", build_prime_power(m, e), m**e)
              for m in range(2, 13) for e in range(2, 13)]
    return tuple(odd + powers)


def check_totients() -> None:
    """Totient values, multiplicativity and parity, the enumeration against a
    naive filter and its monotonicity, and the Sylvester bound for n = 2, 3."""
    for m, want in ((1, 1), (12, 4), (60, 16)):
        got = euler_phi(m)
        _require(got == want, f"euler_phi({m}) = {got}, expected {want}")
    for a in (3, 4, 7, 9, 16, 25, 99, 128, 243, 1000):
        for b in (5, 8, 11, 27, 49, 121, 625):
            if gcd(a, b) == 1 and euler_phi(a * b) != euler_phi(a) * euler_phi(b):
                raise AssertionError(f"euler_phi({a * b}) != euler_phi({a}) * euler_phi({b})")
    for m in range(1, 2001):
        phi = euler_phi(m)
        _require(phi == 1 or phi % 2 == 0, f"euler_phi({m}) = {phi} is odd")
    prev = []
    for bound in range(1, 25):
        members = indices_with_phi_at_most(bound)
        if bound <= 12:
            naive = [m for m in range(1, 2 * bound * bound + 1) if euler_phi(m) <= bound]
            _require(members == naive, f"indices_with_phi_at_most({bound}) = {members}, expected {naive}")
        _require(set(prev) <= set(members), f"indices_with_phi_at_most({bound}) drops one of {prev}")
        prev = members
    for n, want in ((2, 6), (3, 66)):
        got = sylvester_bound(n)
        _require(got == want, f"sylvester_bound({n}) = {got}, expected {want}")


def check_log_degrees() -> None:
    """Every leaf of both family grids has log degree exactly 0."""
    for call, leaf, _ in _family_leaves():
        d = log_degree(leaf)
        _require(d == 0, f"log_degree({call}) = {d}, expected 0")


def check_pair_indices() -> None:
    """Every leaf of both family grids has the index it was built for."""
    for call, leaf, index in _family_leaves():
        got = pair_index(leaf)
        _require(got == index, f"pair_index({call}) = {got}, expected {index}")


def check_dim_inequalities() -> None:
    """The padding inequality on 2 <= m, e <= 50 in both variants; the excluded pairs are rejected."""
    for m in range(2, 51):
        for e in range(2, 51):
            if (m, e) not in ((2, 2), (2, 3)):
                _require(check_dim_inequality(m, e, 1), f"check_dim_inequality({m}, {e}, 1) is False")
            if m >= 3 and (m, e) != (3, 2):
                _require(check_dim_inequality(m, e, 2), f"check_dim_inequality({m}, {e}, 2) is False")
    for m, e, variant in ((2, 2, 1), (2, 3, 1), (3, 2, 2)):
        try:
            check_dim_inequality(m, e, variant)
        except ValueError:
            continue
        raise AssertionError(f"check_dim_inequality({m}, {e}, {variant}) accepts an excluded pair")


# x0, which a family leaf holds as the index 0, and -x0, which it keeps as a polynomial
_NEGATED = "a coordinate hyperplane beside its negative"


def _not_klt_leaves():
    """(name, leaf) for leaves the klt checker must reject: boundaries that are not simple
    normal crossing, an SNC leaf whose tag names another shape, and a constant entry."""
    line = SparsePoly.linear_form
    conic = SparsePoly.from_terms(3, [(1, (1, 0, 1)), (-1, (0, 2, 0))])  # x0*x2 - x1^2
    nodal = SparsePoly.from_terms(3, [(1, (0, 2, 1)), (-1, (3, 0, 0)), (-1, (2, 0, 1))])
    p1, p2 = Wps((1, 1)), Wps((1, 1, 1))
    cases = {
        "two coincident points on P^1": (p1, [(2, line((0, 1))), (3, line((0, 2)))]),
        "three points on P^1, two coincident": (p1, [(2, line((0, 1))), (3, line((0, 3))), (6, line((1, 0)))]),
        "three concurrent lines": (p2, [(2, line((1, 0, 0))), (3, line((0, 1, 0))), (6, line((1, 1, 0)))]),
        "a line tangent to a conic with b = 3": (p2, [(2, line((1, 0, 0))), (3, conic)]),
        "a line tangent to a conic with b = 4": (p2, [(2, line((1, 0, 0))), (4, conic)]),
        "a conic that is two lines": (p2, [(2, SparsePoly.from_terms(3, [(1, (1, 1, 0))]))]),  # x0*x1
        "a nodal cubic": (p2, [(2, nodal)]),
        # {x1 = 0} and {x1 + x2 = 0} are transversal to the conic and meet on it at [1:0:0]
        "two lines meeting on a conic": (p2, [(2, line((0, 1, 0))), (3, line((0, 1, 1))), (6, conic)]),
        "a degree-0 curve": (p2, [(2, SparsePoly.from_terms(3, [(5, (0, 0, 0))])), (3, line((1, 0, 0)))]),
    }
    for name, (space, entries) in cases.items():
        strategy = "hyperplane_arrangement" if space.dim == 1 else "plane_arrangement"
        yield name, LogLeaf(space, tuple((StdCoeff(b), eq) for b, eq in entries), strategy)
    x0 = SparsePoly.variable(3, 0)
    h = build_prime_power(3, 2).entries[-1]  # 8/9 on x0 + x1^2 + x2^2
    no_x2 = SparsePoly.from_terms(3, [(1, (1, 0, 0)), (1, (0, 2, 0))])  # tangent to {x0 = 0} at [0:0:1]
    yield "a repeated coordinate hyperplane", LogLeaf(
        Wps((2, 1, 1)), ((StdCoeff(3), x0), (StdCoeff(9), x0), h), "family_C")
    yield _NEGATED, LogLeaf(Wps((2, 1, 1)), ((StdCoeff(3), x0), (StdCoeff(9), SparsePoly.variable(3, 0, -1)), h), "family_C")
    yield "a diagonal H missing a variable", LogLeaf(
        Wps((2, 1, 1)), ((StdCoeff(2), x0), (StdCoeff(3), no_x2)), "family_A")
    # x0 + x1*x3 + x2^2 + x3^4 on P(4,3,2,1) without one monomial stays quasi-homogeneous, but
    # H then misses x1 resp. x2 and is tangent to the coordinate hyperplanes on that axis
    leaf = build_index_prime(11)
    *coords, (c, h) = leaf.entries
    for name, pairs in (("x1*x3", ((1, 1), (3, 1))), ("x2^2", ((2, 2),))):
        kept = SparsePoly.from_pairs(h.nvars, [t for t in h.terms if t[1] != pairs])
        yield f"a family_B H without {name}", LogLeaf(leaf.space, (*coords, (c, kept)), "family_B")
    # x0*x2 + x1^2 + x2^4 on P(3,2,1) is the chain x0 -> x2 beside x1^2; on {x2 = 0} it is x1^2,
    # tangent to {x2 = 0} along the x0-axis
    seven = build_index_prime(7)
    yield "a chain with a coordinate hyperplane off its head", LogLeaf(
        seven.space, (*seven.entries, (StdCoeff(7), SparsePoly.variable(3, 2))), "family_B")
    yield "a family_A tag on an H with a chain", LogLeaf(seven.space, seven.entries, "family_A")


def check_klt() -> None:
    """The klt checker passes every family leaf and every wps leaf of both catalogues, and fails
    the non-SNC boundaries; a coordinate hyperplane beside its negative fails entries-distinct too.
    The P^1 leaf of index 3 tagged hyperplane_arrangement holds its points as polynomials and
    strict-verifies as three points, with dimension 1 and index 3."""
    for call, leaf, _ in _family_leaves():
        _require(is_klt_leaf(leaf).passed, f"is_klt_leaf({call}) fails")
    for dim, indices in ((1, BASE_DIM1_INDICES), (2, BASE_DIM2_INDICES)):
        for m in indices:
            cert = base_leaf(dim, m)  # a leaf or a flat product of leaves
            for i, f in enumerate(cert.factors if isinstance(cert, Product) else (cert,)):
                if isinstance(f, LogLeaf):
                    _require(is_klt_leaf(f).passed, f"is_klt_leaf fails on factor {i} of base_leaf({dim}, {m})")
    for name, leaf in _not_klt_leaves():
        _require(not is_klt_leaf(leaf).passed, f"is_klt_leaf passes {name}")
        if name == _NEGATED:
            failing = verify_certificate(leaf).failing_checks()
            _require(("$", "entries-distinct") in failing, f"{name} fails only {failing}")
    three = base_leaf(1, 3)
    points = LogLeaf(three.space, three.entries, "hyperplane_arrangement")
    report = verify_certificate(points)
    _require(all(isinstance(eq, SparsePoly) for eq in points.equations()), "an arrangement leaf holds an index")
    _require(report.passed and (report.dim, report.index) == (1, 3),
             f"the P^1 leaf of index 3 as points verifies as {report.dim}, {report.index}: {report.failing_checks()}")


def check_realize() -> int:
    """realize(n, m) for 3 <= n <= 10 and phi(m) <= 2n strict-verifies for every pair, with
    dimension n - 1, index m and pairwise coprime factor indices. Returns the number of pairs."""
    pairs = 0
    for n in range(3, 11):
        for m in indices_with_phi_at_most(2 * n):
            call = f"realize({n}, {m})"
            cert = realize(n, m)
            report = verify_certificate(cert)
            _require(report.passed, f"{call} fails strict verification: {report.failing_checks()}")
            _require((report.dim, report.index) == (n - 1, m),
                     f"{call} verifies as dimension {report.dim}, index {report.index}")
            if isinstance(cert, Product):
                idxs = [verify_certificate(f).index for f in cert.factors]
                _require(prod(idxs) == lcm(*idxs), f"{call} has factor indices {idxs}, not pairwise coprime")
            pairs += 1
    _require(pairs >= 200, f"only {pairs} pairs with 3 <= n <= 10")
    return pairs


def check_search() -> None:
    """On P^1 the plane search finds exactly the indices 2, 3, 4 and 6 among
    2 <= m <= 20. On P^2 with up to 7 components it finds exactly 2, 4, 6, 8,
    10, 12, 18, 20, 24, 30 and 42 among 2 <= m < 400. Each hit strict-verifies
    with its dimension and index m."""
    grids = ((1, 4, 21, {2, 3, 4, 6}), (2, 7, 400, {2, 4, 6, 8, 10, 12, 18, 20, 24, 30, 42}))
    for dim, k, stop, want in grids:
        hits = set()
        for m in range(2, stop):
            call = f"search_plane_pair({dim}, {m}, {k})"
            leaf = search_plane_pair(dim, m, k)
            if leaf is None:
                continue
            hits.add(m)
            report = verify_certificate(leaf)
            _require(report.passed, f"{call} fails strict verification: {report.failing_checks()}")
            _require((report.dim, report.index) == (dim, m),
                     f"{call} verifies as dimension {report.dim}, index {report.index}")
        _require(hits == want, f"search_plane_pair({dim}, m, {k}) finds m = {sorted(hits)}, expected {sorted(want)}")


def check_serialization() -> None:
    """A product, a bare leaf and a bare elliptic leaf survive dumps and loads, each read
    twice, so a held leaf text is read cold and then from the reader memo. A leaf with
    missing fields is a parse error."""
    _read_leaf_text.cache_clear()
    for call, cert in (("realize(5, 15)", realize(5, 15)), ("realize(4, 16)", realize(4, 16)),
                       ("EllipticLeaf(2)", EllipticLeaf(2))):
        text = certificate_dumps(cert)
        _require(certificate_loads(text) == certificate_loads(text) == cert, f"{call} changes in a round trip")
    try:
        certificate_loads('{"v": 1, "node": "wps_leaf"}')
    except CertificateParseError:
        return
    raise AssertionError("certificate_loads accepts a wps_leaf without weights, strategy or entries")


CHECKS = (
    ("totients and enumeration", check_totients),
    ("log degree zero on both families", check_log_degrees),
    ("pair index on both families", check_pair_indices),
    ("dimension inequality", check_dim_inequalities),
    ("klt corpus", check_klt),
    ("realize round-trip (n <= 10)", check_realize),
    ("plane search ground truth", check_search),
    ("certificate serialization", check_serialization),
)
