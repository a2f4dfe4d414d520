"""Deterministic primality helpers.

``is_prime`` is Miller-Rabin with the thirteen prime bases 2 ... 41, after
trial division by those primes.  With those bases the test is exact for
every n below ``PRIME_TEST_CEILING`` (Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so there is no
probabilistic verdict anywhere; at or above the ceiling it raises
``ValueError``.  Below 41^2 the trial division alone answers.
"""

from __future__ import annotations

import math

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least composite that passes Miller-Rabin to all thirteen bases; the test
#: refuses it and every larger n.
PRIME_TEST_CEILING = 3317044064679887385961981


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
    if bound < 3:
        return []
    sieve = bytearray((1,)) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [n for n in range(3, bound + 1, 2) if sieve[n]]


def distinct_odd_prime_factors(n: int) -> list[int]:
    """Distinct odd prime divisors of |n|, ascending; n must be non-zero."""
    if not isinstance(n, int) or n == 0:
        raise ValueError(f"expected a non-zero integer, got {n!r}")
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out = []
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out
