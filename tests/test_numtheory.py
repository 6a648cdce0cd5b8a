from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyindex.numtheory import (
    euler_phi,
    factorize,
    indices_with_phi_at_most,
    sylvester_bound,
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
