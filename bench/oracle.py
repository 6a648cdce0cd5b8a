"""Known answers computed by the benchmark itself, in plain integer arithmetic.

Nothing here imports cyindex: every expected output the benchmark checks
comes from these functions or from the parameters an input was built with,
never from the program's own opinion of its output.
"""

from __future__ import annotations

from math import lcm


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def phi_at_most(bound: int) -> list[int]:
    """{m >= 1 : phi(m) <= bound}, sorted, by a search over prime powers.

    phi is multiplicative and phi(p^e) = (p-1) p^(e-1), so every member is
    a product of prime powers of distinct primes whose factors multiply to
    at most `bound`. Only primes p with p - 1 <= bound can occur.
    """
    primes = primes_upto(bound + 1)
    out = [1]
    stack = [(0, 1, 1)]  # (first prime index allowed, m, phi(m))
    while stack:
        start, m, ph = stack.pop()
        for i in range(start, len(primes)):
            p = primes[i]
            f = ph * (p - 1)
            if f > bound:
                break
            q = p
            while f <= bound:
                out.append(m * q)
                stack.append((i + 1, m * q, f))
                q *= p
                f *= p
    return sorted(out)


def phi(m: int) -> int:
    result, rest, p = 1, m, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    return result * (rest - 1) if rest > 1 else result


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def first_plane_multiset(dim: int, index: int, max_components: int):
    """The first multiset of (b, d) that the documented search order admits.

    Candidates are the pairs (b, d) with b >= 2 dividing `index`, d = 1 on
    P^1 and d in {1, 2} on P^2, sorted. Multisets are taken by size, then
    lexicographically; the first one with sum d(1 - 1/b) = dim + 1,
    lcm(b) = index and room in the catalogue (4 points on P^1; 6 lines and
    1 conic on P^2) is the answer. Every subset of that catalogue is a simple
    normal crossing arrangement, so no further check decides the answer.
    Returns a tuple of (b, d) or None.
    """
    degrees = (1,) if dim == 1 else (1, 2)
    cands = sorted((b, d) for b in divisors(index) if b >= 2 for d in degrees)
    # contributions scaled by `index`, so everything stays an integer
    weight = [d * (index - index // b) for b, d in cands]
    target = (dim + 1) * index
    lo, hi = min(weight, default=0), max(weight, default=0)
    cap_lines, cap_conics = (4, 0) if dim == 1 else (6, 1)

    def fits(combo) -> bool:
        lines = sum(1 for _, d in combo if d == 1)
        return lines <= cap_lines and len(combo) - lines <= cap_conics

    def search(size, start, chosen, total):
        left = size - len(chosen)
        if left == 0:
            if total == target:
                combo = tuple(cands[i] for i in chosen)
                if lcm(*[b for b, _ in combo]) == index and fits(combo):
                    return combo
            return None
        if total + left * lo > target or total + left * hi < target:
            return None
        for i in range(start, len(cands)):
            found = search(size, i, chosen + [i], total + weight[i])
            if found is not None:
                return found
        return None

    for size in range(1, max_components + 1):
        found = search(size, 0, [], 0)
        if found is not None:
            return found
    return None


# -- plane arrangements of lines y = j x + t z, the conic xz - y^2 and the
# -- Fermat cubic x^3 + y^3 + z^3 ------------------------------------------
#
# Facts the oracle rests on, each a short exact argument:
# * every curve here is smooth;
# * a line y = jx + tz meets the conic in xz - (jx + tz)^2, whose
#   discriminant 1 - 4jt is odd, so never 0: always transversal;
# * the conic meets the cubic at (u^2 : u : 1) with u^6 + u^3 + 1 = 0, the
#   primitive 9th roots of unity: six distinct points, so transversal, and
#   none lies on a line with rational coefficients (their minimal
#   polynomial has degree 6), so no triple point uses conic, cubic and a line.
# What remains depends on the chosen lines and is computed below.


def _cross(l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)


def _line(j: int, t: int):
    """Coefficients (a, b, c) of the line a x + b y + c z = 0, i.e. y = jx + tz."""
    return (-j, 1, -t)


def _cubic_line_disc(j: int, t: int) -> int:
    # x^3 + (jx + tz)^3 + z^3 as a binary cubic a x^3 + b x^2 z + c x z^2 + d z^3
    a, b, c, d = 1 + j**3, 3 * j * j * t, 3 * j * t * t, t**3 + 1
    return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def plane_is_snc(lines, conic: bool, cubic: bool) -> bool:
    """Simple normal crossings for lines [(j, t), ...] plus optional curves."""
    forms = [_line(j, t) for j, t in lines]
    if len(set(lines)) != len(lines):
        return False
    points = []
    for i in range(len(forms)):
        for k in range(i + 1, len(forms)):
            p = _cross(forms[i], forms[k])
            for q in range(k + 1, len(forms)):
                if sum(x * y for x, y in zip(forms[q], p)) == 0:
                    return False  # three concurrent lines
            points.append(p)
    for x, y, z in points:
        if conic and x * z - y * y == 0:
            return False
        if cubic and x**3 + y**3 + z**3 == 0:
            return False
    if cubic and any(_cubic_line_disc(j, t) == 0 for j, t in lines):
        return False  # a line tangent to the cubic
    return True
