"""Exact integer arithmetic: totients, factorizations, index-set enumeration.

Everything runs on plain Python integers: factorizations by deterministic
trial division, and the index-set enumeration by a search over prime powers
on top of a sieve of Eratosthenes. Inputs are desk scale (a few thousand at
most), so there is no probabilistic primality machinery; the point of this
module is to be auditable by inspection.
"""

from __future__ import annotations

__all__ = [
    "factorize",
    "euler_phi",
    "indices_with_phi_at_most",
    "sylvester_bound",
]


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Deterministic trial-division factorization: the pairs (p, e) with
    primes strictly increasing; factorize(1) is empty."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"factorize requires a positive integer, got {m!r}")
    factors = []
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def euler_phi(m: int) -> int:
    """Euler's totient via the product formula phi(m) = prod (p^e - p^(e-1))."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"euler_phi requires a positive integer, got {m!r}")
    result = 1
    for p, e in factorize(m):
        result *= p**e - p ** (e - 1)
    return result


def _primes_upto(limit: int) -> list[int]:
    """The primes p <= limit (limit >= 1), by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= limit:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return [p for p in range(2, limit + 1) if sieve[p]]


def indices_with_phi_at_most(bound: int) -> list[int]:
    """The complete, finite, sorted set {m >= 1 : phi(m) <= bound}.

    Completeness: phi is multiplicative and phi(p^e) = (p - 1) p^(e - 1), so
    m = prod p^e has phi(m) <= bound exactly when the product of those
    factors is at most bound. Each factor is at least p - 1, so only primes
    p <= bound + 1 occur. The search extends every partial product by powers
    of ever larger primes while the totient stays within bound; its work
    grows with the size of the output, not with the largest member.
    """
    if not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    primes = _primes_upto(bound + 1)
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


def sylvester_bound(n: int) -> int:
    """(s_{n-1} - 1)(2 s_{n-1} - 3) for Sylvester's sequence s_0 = 2,
    s_k = s_{k-1}(s_{k-1} - 1) + 1.

    This is the Esser-Totaro-Wang candidate for the largest index of a klt
    Calabi-Yau pair of dimension n - 1 with standard coefficients; for
    n = 2, 3 it matches the known maxima 6 and 66.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"sylvester_bound requires n >= 1, got {n!r}")
    s = 2
    for _ in range(n - 1):
        s = s * (s - 1) + 1
    return (s - 1) * (2 * s - 3)
