from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyindex.numtheory import (
    euler_phi,
    factorize,
    indices_with_phi_at_most,
    sylvester_bound,
    totient_floor,
)


def phi_by_counting(m: int) -> int:
    """Independent oracle: order of the unit group by direct gcd counting."""
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


# -- factorize ---------------------------------------------------------------


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(66) == ((2, 1), (3, 1), (11, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@settings(max_examples=200, derandomize=True)
@given(st.integers(1, 100_000))
def test_factorize_reconstructs_and_is_canonical(m):
    fac = factorize(m)
    assert prod(p**e for p, e in fac) == m
    primes = [p for p, _ in fac]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(e >= 1 for _, e in fac)
    for p, _ in fac:
        assert all(p % q != 0 for q in range(2, p)) or p == 2


# -- euler_phi ---------------------------------------------------------------


def test_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(60) == 16
    assert euler_phi(12) == 4
    # the four indices with phi = 4
    assert [m for m in range(1, 13) if euler_phi(m) == 4] == [5, 8, 10, 12]


def test_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_phi_matches_counting_oracle():
    for m in range(1, 501):
        assert euler_phi(m) == phi_by_counting(m), m


def test_phi_one_or_even_up_to_1e4():
    for m in range(1, 10_001):
        phi = euler_phi(m)
        assert phi == 1 or phi % 2 == 0, m


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 10_000), st.integers(1, 10_000))
def test_phi_multiplicative_on_coprime(a, b):
    if gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_totient_floor_bounds_phi_from_below():
    # the primorials 2, 6, 30, 210 and 2310 are exactly where k grows
    assert [totient_floor(m)[0] for m in (1, 2, 5, 6, 29, 30, 209, 210, 2309, 2310)] == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert totient_floor(30) == (3, 8, 30)
    for m in range(1, 20_001):
        k, a, b = totient_floor(m)
        assert euler_phi(m) * b >= m * a and len(factorize(m)) <= k, m
        if m in (1, 2, 6, 30, 210, 2310):  # a primorial meets its bound
            assert euler_phi(m) * b == m * a


@settings(max_examples=200, derandomize=True)
@given(st.integers(1, 10**12))
def test_totient_floor_bounds_phi_on_large_m(m):
    k, a, b = totient_floor(m)
    assert euler_phi(m) * b >= m * a and len(factorize(m)) <= k


# -- enumeration -------------------------------------------------------------


def test_enumeration_small_tables():
    assert indices_with_phi_at_most(2) == [1, 2, 3, 4, 6]
    assert indices_with_phi_at_most(4) == [1, 2, 3, 4, 5, 6, 8, 10, 12]


def test_enumeration_contains_66_not_67():
    members = indices_with_phi_at_most(20)
    # brute scan: phi(m) >= sqrt(m/2) makes m <= 800 exhaustive for bound 20
    brute = [m for m in range(1, 801) if phi_by_counting(m) <= 20]
    assert members == brute
    assert 66 in members and 67 not in members


def test_enumeration_matches_naive_filter():
    for bound in range(1, 65):
        naive = [m for m in range(1, 2 * bound * bound + 1) if euler_phi(m) <= bound]
        assert indices_with_phi_at_most(bound) == naive, bound


def phi_sieve_members(bound: int) -> list[int]:
    """Reference enumeration: the divisor sieve of phi over 1..2*bound**2,
    complete because phi(m) >= sqrt(m/2)."""
    limit = 2 * bound * bound
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime, untouched so far
            for mult in range(p, limit + 1, p):
                phi[mult] -= phi[mult] // p
    return [m for m in range(1, limit + 1) if phi[m] <= bound]


@pytest.mark.parametrize("bound", [100, 221, 442])
def test_enumeration_matches_reference_sieve(bound):
    assert indices_with_phi_at_most(bound) == phi_sieve_members(bound)


def test_enumeration_bound_1600_pinned():
    members = indices_with_phi_at_most(1600)
    assert len(members) == 3122 and members[-1] == 7140
    assert all(a < b for a, b in zip(members, members[1:]))
    assert all(euler_phi(m) <= 1600 for m in members)


def test_enumeration_monotone_in_bound():
    prev: set[int] = set()
    for bound in range(1, 65):
        members = set(indices_with_phi_at_most(bound))
        assert prev <= members, bound
        prev = members


def sieve_primes(limit: int) -> list[int]:
    """The primes p <= limit (limit >= 1), by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= limit:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return [p for p in range(2, limit + 1) if sieve[p]]


def stack_search_members(bound: int) -> list[int]:
    """Reference enumeration: the depth-first search over prime powers that
    pushes a stack entry for every member, as the library did before it
    emitted the members that cannot grow in bulk, on its own sieve."""
    primes = sieve_primes(bound + 1)
    members = [1]
    stack = [(0, 1, 1)]  # (index of the first prime still allowed, m, phi(m))
    while stack:
        start, m, phi = stack.pop()
        for i in range(start, len(primes)):
            p = primes[i]
            f = phi * (p - 1)
            if f > bound:
                break  # primes increase, so every later one overshoots too
            q = p
            while f <= bound:
                members.append(m * q)
                stack.append((i + 1, m * q, f))
                q *= p
                f *= p
    members.sort()
    return members


def test_enumeration_matches_the_stack_search():
    for bound in [*range(1, 1001), 4000, 16_000]:
        assert indices_with_phi_at_most(bound) == stack_search_members(bound), bound


@pytest.mark.parametrize(("bound", "edge"), [(2, [4]), (6, [9, 18]), (20, [25, 50]), (42, [49])])
def test_enumeration_keeps_the_members_at_the_dead_end_edge(bound, edge):
    # each member of `edge` is m p^2 with phi(m) (p - 1) p == bound, so m p
    # sits right at the dead-end edge: it still has a child, m p^2
    members = indices_with_phi_at_most(bound)
    assert all(euler_phi(m) == bound and m in members for m in edge)
    assert not any(m in indices_with_phi_at_most(bound - 1) for m in edge)
    assert members == stack_search_members(bound)


def test_enumeration_bound_16000_pinned():
    members = indices_with_phi_at_most(16_000)
    assert len(members) == 31_136 and members[-1] == 78_540
    assert all(a < b for a, b in zip(members, members[1:]))


def test_enumeration_rejects_zero():
    with pytest.raises(ValueError):
        indices_with_phi_at_most(0)


# -- sylvester bound ---------------------------------------------------------


def test_sylvester_bound_values():
    assert sylvester_bound(1) == 1
    assert sylvester_bound(2) == 6
    assert sylvester_bound(3) == 66
    # s_3 = 43: bound (43-1)(2*43-3) = 42*83
    assert sylvester_bound(4) == 42 * 83


def test_sylvester_bound_rejects_zero():
    with pytest.raises(ValueError):
        sylvester_bound(0)
