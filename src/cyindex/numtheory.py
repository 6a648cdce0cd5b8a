"""Exact integer arithmetic: totients, factorizations, index-set enumeration.

Everything runs on plain Python integers: factorizations by deterministic
trial division, and the index-set enumeration by a search over prime powers
on top of a sieve of Eratosthenes. There is no probabilistic primality
machinery, so the module stays auditable by inspection; its input sizes are
set by the callers' budgets. `indices_with_phi_at_most` costs time linear in
its output, which has 1,943,930 members at the command line's enumeration
budget of B = 10^6. `factorize` takes up to sqrt(m) / 2 trial divisions,
about 5 * 10^6 at the largest m that `realize` factors, 10^14; above that
`realize` bounds phi(m) from below by `totient_floor`, whose sieves grow with
the bit length of m.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import compress, islice

__all__ = [
    "factorize",
    "euler_phi",
    "totient_floor",
    "indices_with_phi_at_most",
    "sylvester_bound",
    "sylvester_sequence",
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


def totient_floor(m: int) -> tuple[int, int, int]:
    """(k, a, b) with phi(m) >= m * a / b, found without factoring m: k is
    the number of primes p_1 < ... < p_k whose product is at most m, and
    a / b = prod (p_i - 1) / p_i over them.

    m has some w distinct prime factors q_1 < ... < q_w, and q_i >= p_i, so
    p_1 ... p_w <= q_1 ... q_w <= m gives w <= k, and phi(m) / m =
    prod (1 - 1/q_i) >= prod_{i <= w} (1 - 1/p_i) >= prod_{i <= k} (1 - 1/p_i).
    The primes come from sieves of doubling length, so the work grows with
    the bit length of m, not with m.
    """
    limit = 2
    while True:
        k, a, b = 0, 1, 1
        for p in _primes_upto(limit):
            if b * p > m:
                return k, a, b
            k, a, b = k + 1, a * (p - 1), b * p
        limit *= 2


def _primes_upto(limit: int) -> list[int]:
    """The primes p <= limit (limit >= 1), by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= limit:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return list(compress(range(limit + 1), sieve))


def indices_with_phi_at_most(bound: int) -> list[int]:
    """The complete, finite, sorted set {m >= 1 : phi(m) <= bound}.

    Completeness: phi is multiplicative and phi(p^e) = (p - 1) p^(e - 1), so
    m = prod p^e has phi(m) <= bound exactly when the product of those
    factors is at most bound. Each factor is at least p - 1, so only primes
    p <= bound + 1 occur. The search extends every partial product m by
    powers of ever larger primes p while the totient stays within bound:
    phi(m) (p - 1) <= bound exactly when p <= bound // phi(m) + 1.

    Dead ends: when phi(m) (p - 1) p > bound, the member m p has no child.
    Its square overshoots, and so does m p q for every later prime q, since
    q - 1 >= p. That product grows with p, so past the first such p every
    allowed prime gives a dead end, and those members, most of the output,
    are emitted in one slice with no stack entry. By the same test the
    highest power of each p that fits is a dead end and gets no stack entry
    either. So only a member with a child gets a stack entry, each member
    costs at most one push, one pop and one bisection, and the work is
    linear in the size of the output (plus its sort), not in the largest
    member.
    """
    if not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    primes = _primes_upto(bound + 1)
    members = [1]
    stack = [(0, 1, 1)]  # (index of the first prime still allowed, m, phi(m))
    while stack:
        start, m, phi = stack.pop()
        stop = bisect_right(primes, bound // phi + 1, start)
        for i in range(start, stop):
            p = primes[i]
            f = phi * (p - 1)
            if f * p > bound:  # m * p is a dead end, and so is m * q for every later q
                members.extend([m * q for q in primes[i:stop]])
                break
            q = p
            while f * p <= bound:  # m * q has a child, m * q * p
                members.append(m * q)
                stack.append((i + 1, m * q, f))
                q *= p
                f *= p
            members.append(m * q)  # the highest power of p, a dead end too
    members.sort()
    return members


def sylvester_sequence() -> Iterator[int]:
    """Sylvester's sequence s_0 = 2, s_k = s_{k-1}(s_{k-1} - 1) + 1: 2, 3, 7, 43, ..."""
    s = 2
    while True:
        yield s
        s = s * (s - 1) + 1


def sylvester_bound(n: int) -> int:
    """(s_{n-1} - 1)(2 s_{n-1} - 3) for s_k in sylvester_sequence.

    This is the Esser-Totaro-Wang candidate for the largest index of a klt
    Calabi-Yau pair of dimension n - 1 with standard coefficients; for
    n = 2, 3 it matches the known maxima 6 and 66.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"sylvester_bound requires n >= 1, got {n!r}")
    s = next(islice(sylvester_sequence(), n - 1, None))
    return (s - 1) * (2 * s - 3)
