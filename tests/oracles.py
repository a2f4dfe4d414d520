"""Independent reference implementations that the tests check the library against.

Everything here is deliberately naive (index loops, Pascal's triangle,
exhaustive enumeration) and imports none of the library's kernels, so an
agreement between the two sides is evidence, not tautology.
"""

from __future__ import annotations

import random


def schoolbook_mul(a: list[int], b: list[int], order: int) -> list[int]:
    """Truncated Cauchy product by plain index loops."""
    out = [0] * order
    for i in range(min(len(a), order)):
        for j in range(min(len(b), order - i)):
            out[i + j] += a[i] * b[j]
    return out


def schoolbook_pow(a: list[int], e: int, order: int) -> list[int]:
    out = [1] + [0] * (order - 1)
    for _ in range(e):
        out = schoolbook_mul(out, a, order)
    return out


def schoolbook_compose(f: list[int], g: list[int], order: int) -> list[int]:
    """f(g) as an explicit sum of powers, no Horner."""
    assert g[0] == 0
    out = [0] * order
    out[0] = f[0]
    power = [1] + [0] * (order - 1)
    for n in range(1, min(len(f), order)):
        power = schoolbook_mul(power, g, order)
        for i in range(order):
            out[i] += f[n] * power[i]
    return out


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) from Pascal's triangle, no factorials or library calls."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def _map_pullback(k: int, higher: list[int], order: int) -> list[int]:
    """k*t^2 + higher[0]*t^3 + ..., truncated to the order."""
    s = [0, 0, k] + list(higher)
    return (s + [0] * order)[:order]


def psi_then_pullback_exact(p: int, epsilon: int, k: int, higher: list[int], order: int) -> list[int]:
    """S^p + 2*epsilon*p*S^((p+1)/2) over Z, for S the map's pullback."""
    s = _map_pullback(k, higher, order)
    top = schoolbook_pow(s, p, order)
    middle = schoolbook_pow(s, (p + 1) // 2, order)
    return [a + 2 * epsilon * p * b for a, b in zip(top, middle)]


def pullback_then_psi_exact(p: int, k: int, higher: list[int], order: int) -> list[int]:
    """S((1+t)^p - 1) over Z, the binomials from Pascal's triangle."""
    generator = [0] + [pascal_binomial(p, n) for n in range(1, order)]
    return schoolbook_compose(_map_pullback(k, higher, order), generator, order)


def compatible_bruteforce_reference(p: int, epsilon: int, k: int, trials: int, seed: int) -> bool:
    """The brute-force verdict from one randrange call per drawn slot and the
    exact routes, compared at t^(p+1) mod p^2.

    Same seed string and slot range, [-9, 9], as the library's draws.
    """
    rng = random.Random(f"{seed}:{p}:{k}")
    order = p + 2
    for _ in range(trials):
        higher = [rng.randrange(-9, 10) for _ in range(order - 3)]
        lhs = psi_then_pullback_exact(p, epsilon, k, higher, order)[p + 1]
        rhs = pullback_then_psi_exact(p, k, higher, order)[p + 1]
        if (lhs - rhs) % (p * p):
            return False
    return True


def squares_mod(p: int) -> set[int]:
    """The set of non-zero quadratic residues mod p."""
    return {x * x % p for x in range(1, p)}


def legendre_by_enumeration(k: int, p: int) -> int:
    """+1 or -1 by exhaustively listing the squares mod p."""
    assert k % p != 0
    return 1 if k % p in squares_mod(p) else -1


def smallest_nonresidue_above_one(p: int) -> int:
    """The smallest k with 1 < k < p that is not a square mod p."""
    squares = squares_mod(p)
    for k in range(2, p):
        if k % p not in squares:
            return k
    raise AssertionError(f"no non-residue found below {p}")


def trial_division_is_prime(n: int) -> bool:
    """Primality by trying every divisor d with d * d <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def sprp(n: int, a: int) -> bool:
    """Whether odd n > 2 is a strong probable prime to base a.

    With n - 1 = 2^s d, d odd: a^d = 1 mod n, or a^(2^r d) = -1 mod n for some r < s,
    each power taken afresh from a rather than by squaring the last.
    """
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    return pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))


def trial_division_odd_prime_factors(n: int) -> list[int]:
    """The distinct odd primes dividing n, ascending, by trying every d with d * d <= |n|."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return [q for q in out if q != 2]


def psi_rows_mod_p_squared(p: int) -> tuple[list[int], list[int]]:
    """The rows g and g^2 of the psi^p table mod p^2 at order p+2, g = (1+t)^p - 1, in O(p).

    For 1 <= j <= p-1, C(p, j) = (p/j) C(p-1, j-1) and C(p-1, j-1) = (-1)^(j-1) mod p, so
    C(p, j) = p ((-1)^(j-1) j^-1 mod p) mod p^2; C(p, p) = 1 and C(p, p+1) = 0.  The
    inverses come from inv(j) = -(p div j) inv(p mod j) mod p.  Every coefficient of g
    below t^p is divisible by p, so in g^2 each product of two of them is divisible by p^2,
    t^p times them starts at p t^(p+1), and t^(2p) is past the order: g^2 = 2p t^(p+1).
    """
    m = p * p
    inverse = [0, 1]
    for j in range(2, p):
        inverse.append(-(p // j) * inverse[p % j] % p)
    g = [0] + [p * ((-1) ** (j - 1) * inverse[j] % p) % m for j in range(1, p)] + [1, 0]
    square = [0] * (p + 1) + [2 * p % m]
    return g, square
