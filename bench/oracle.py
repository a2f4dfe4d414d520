"""Expected outputs for every benchmark operation, computed without the package.

Nothing here imports ``hpgenus``: primality is the benchmark's own
deterministic Miller-Rabin, the Legendre symbol comes from enumerating the
squares mod p (small p) or from quadratic reciprocity (the Jacobi symbol,
large p), and the ``verify-lemma`` coefficients come from their closed
forms.  A benchmark operation whose output differs from these counts as
failed.
"""

from __future__ import annotations

from functools import lru_cache

#: Above this prime the Legendre symbol is taken from reciprocity, not by
#: listing squares.
ENUMERATION_LIMIT = 2000

#: Miller-Rabin with the first twelve prime bases is exact below this bound
#: (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.18e23."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the range where the fixed bases are exact")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime >= n."""
    if n <= 2:
        return 2
    n |= 1
    while not is_prime(n):
        n += 2
    return n


def odd_primes(bound: int) -> tuple[int, ...]:
    """All odd primes <= bound, by a sieve of Eratosthenes."""
    if bound < 3:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    n = 2
    while n * n <= bound:
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, bound + 1, n)))
        n += 1
    return tuple(n for n in range(3, bound + 1, 2) if flags[n])


def odd_prime_factors(n: int) -> list[int]:
    """Distinct odd prime factors of |n|, ascending.

    Trial division by the primes below 1000, then the cofactor must be 1 or
    a prime; inputs are built that way, and anything else is rejected.
    """
    n = abs(n)
    out = []
    for p in (2,) + odd_primes(1000):
        if n % p == 0:
            if p != 2:
                out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"cofactor {n} is not prime: input outside the oracle's range")
        out.append(n)
    return out


@lru_cache(maxsize=None)
def squares_mod(p: int) -> frozenset[int]:
    """The non-zero squares mod p, listed one by one."""
    return frozenset(x * x % p for x in range(1, p))


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(k: int, p: int) -> int:
    """(k/p) for an odd prime p not dividing k: squares for small p, reciprocity above."""
    if k % p == 0:
        raise ValueError(f"{p} divides {k}")
    if p <= ENUMERATION_LIMIT:
        return 1 if k % p in squares_mod(p) else -1
    return jacobi(k, p)


def sign_text(s: int) -> str:
    return "+1" if s == 1 else "-1"


# -- expected results, as (exit code, JSON payload) for CLI commands ----------


def sweep(p: int, k: int) -> tuple[bool, bool]:
    """compatible_bruteforce(p, +1, k) and compatible_bruteforce(p, -1, k)."""
    symbol = legendre(k, p)
    return symbol == 1, symbol == -1


def verify_lemma(p: int, k: int, epsilon: int, trials: int) -> tuple[int, dict]:
    """With the zero-unknowns model the t^(p+1) coefficients mod p^2 are
    2*epsilon*p*k^((p+1)/2) (psi upstairs, then pull back) and 2*p*k
    (pull back, then psi); they agree iff epsilon == (k/p)."""
    holds = epsilon == legendre(k, p)
    modulus = p * p
    payload = {
        "command": "verify-lemma",
        "prime": p,
        "degree": k,
        "epsilon": sign_text(epsilon),
        "criterion_passes": holds,
        "bruteforce_passes": holds,
        "methods_agree": True,
        "lhs_coefficient": 2 * epsilon * p * pow(k, (p + 1) // 2, modulus) % modulus,
        "rhs_coefficient": 2 * p * k % modulus,
        "coefficient_index": p + 1,
        "modulus": modulus,
        "trials": trials,
        "seed": 0,
    }
    return (0 if holds else 2), payload


def _verdict(degree: int, default: int, exceptions: dict, tested) -> dict:
    skipped = [p for p in tested if degree % p == 0]
    for p in tested:
        if degree % p == 0:
            continue
        actual = exceptions.get(p, default)
        required = legendre(degree, p)
        if actual != required:
            return {
                "outcome": "Obstructed",
                "prime": p,
                "required": sign_text(required),
                "actual": sign_text(actual),
                "skipped": skipped,
            }
    return {"outcome": "Admissible", "prime": None, "required": None, "actual": None,
            "skipped": skipped}


def _genus(default: int, exceptions: dict) -> dict:
    return {
        "default": sign_text(default),
        "exceptions": {str(p): sign_text(s) for p, s in exceptions.items() if s != default},
    }


def admissible(degree: int, default: int, exceptions: dict, primes=None, bound=None):
    """The smallest tested prime where the point's sign differs from (k/p), if any."""
    tested = sorted(set(primes)) if primes is not None else odd_primes(bound)
    verdict = _verdict(degree, default, exceptions, tested)
    payload = {
        "command": "admissible",
        "degree": degree,
        "genus": _genus(default, exceptions),
        "verdict": verdict,
    }
    return (0 if verdict["outcome"] == "Admissible" else 2), payload


def forced_genus(degree: int, bound: int):
    primes = odd_primes(bound)
    free_total = 1 + len(odd_prime_factors(degree))
    payload = {
        "command": "forced-genus",
        "degree": degree,
        "bound": bound,
        "forced": {str(p): sign_text(legendre(degree, p)) for p in primes if degree % p},
        "free": [2] + [p for p in primes if degree % p == 0],
        "free_count_total": free_total,
        "max_surviving_genus_points": 2**free_total,
    }
    return 0, payload


def example_xp(q: int):
    """The point with -1 at q alone, witnessed by the smallest non-residue above 1."""
    witness = next(k for k in range(2, q) if legendre(k, q) == -1)
    payload = {
        "command": "example-xp",
        "prime": q,
        "genus": _genus(1, {q: -1}),
        "witness_degree": witness,
        "witness_symbol": "-1",
        "single_prime_verdict": _verdict(witness, 1, {q: -1}, [q]),
    }
    return 0, payload
