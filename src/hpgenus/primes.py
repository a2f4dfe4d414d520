"""Deterministic primality and factoring helpers.

``is_prime`` is Miller-Rabin with the thirteen prime bases 2 ... 41, after
trial division by those primes.  With those bases the test is exact for
every n below ``PRIME_TEST_CEILING`` (Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so there is no
probabilistic verdict anywhere; at or above the ceiling it raises
``ValueError``.  Below 41^2 the trial division alone answers.

``distinct_odd_prime_factors`` trial-divides by the odd base primes, then
splits what is left by Pollard's rho method (J. M. Pollard, "A Monte Carlo
method for factorization", BIT 15, 1975) in Brent's variant (R. P. Brent,
"An improved Monte Carlo factorization algorithm", BIT 20, 1980), with the
fixed polynomials x^2 + c, c = 1, 2, ..., so a given n always takes the
same steps.  Every factor it returns has passed ``is_prime``.
"""

from __future__ import annotations

import itertools
import math

from .series import check_int

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least composite that passes Miller-Rabin to all thirteen bases; the test
#: refuses it and every larger n.
PRIME_TEST_CEILING = 3317044064679887385961981

# rho steps between two gcds
_RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Whether n is prime; exact below ``PRIME_TEST_CEILING``, an error at or above it."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    if n >= PRIME_TEST_CEILING:
        raise ValueError(
            f"{n} is too large to test for primality: the test is exact only below "
            f"{PRIME_TEST_CEILING}"
        )
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < _BASES[-1] ** 2:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes_upto(bound: int) -> list[int]:
    """All odd primes p <= bound, ascending."""
    if check_int("bound", bound) < 3:
        return []
    # only the indices 6j - 1 and 6j + 1 are read, none a multiple of 2 or 3, so only odd
    # multiples of primes from 5 up are struck; the two runs are compressed apart, making no
    # int for an odd multiple of 3, and merged by one sort
    sieve = bytearray((1,)) * (bound + 1)
    for p in range(5, math.isqrt(bound) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, bound + 1, 2 * p)))
    primes = [3]
    primes += itertools.compress(range(5, bound + 1, 6), sieve[5::6])
    primes += itertools.compress(range(7, bound + 1, 6), sieve[7::6])
    primes.sort()
    return primes


def _rho_divisor(n: int) -> int:
    """A proper divisor of n, which must be odd, composite and free of prime factors <= 41.

    Brent's cycle search on x -> x^2 + c mod n from x = 2, with the gcd taken
    once per batch of differences; a batch that overshoots to n is replayed
    one step at a time, and a c whose cycle closes mod n itself is replaced
    by c + 1.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def distinct_odd_prime_factors(n: int) -> list[int]:
    """Distinct odd prime divisors of |n|, ascending; n must be non-zero.

    A cofactor at or above ``PRIME_TEST_CEILING`` that is left after the
    trial division cannot be tested for primality, and raises ``ValueError``.
    """
    if check_int("n", n) == 0:
        raise ValueError("n must be a non-zero integer, got 0")
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out = []
    for q in _BASES[1:]:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
    large = set()
    cofactors = [n] if n > 1 else []
    while cofactors:
        m = cofactors.pop()
        if is_prime(m):
            large.add(m)
        else:
            d = _rho_divisor(m)
            cofactors += (d, m // d)
    return out + sorted(large)
