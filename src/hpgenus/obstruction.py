"""The degree-obstruction engine.

At each odd prime p coprime to the degree k, a map of degree k can only hit
genus points whose sign invariant at p equals the Legendre symbol (k/p).
This module computes the symbol, decides that compatibility two independent
ways (a closed-form congruence and a brute-force series expansion of the
naturality square), aggregates verdicts over finite prime sets, reports
which invariants a given degree forces, and constructs the classic
single-exception example points with their witness degrees.

"Admissible" always means "no obstruction found at the tested primes" and
never "a map exists": the test is a necessary condition only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .genus import (
    SIGN_TEXT,
    RectorInvariant,
    Sign,
    _trials_agree,
    check_degree,
    check_degree_prime_to,
    check_prime,
    check_sign,
)
# unused here but bound: bench/spans.py traces calls through these three names on
# obstruction; the brute force asks genus._trials_agree instead
from .genus import psi_then_pullback, pullback_then_psi, random_degree_map  # noqa: F401
# is_prime is unused here but stays bound: bench/spans.py traces calls through obstruction.is_prime
from .primes import (  # noqa: F401
    PRIME_TEST_CEILING,
    distinct_odd_prime_factors,
    is_prime,
    odd_primes_upto,
)
from .series import check_int, check_iterable, check_type

#: the default number of brute-force trials per verdict
TRIALS = 200


# never called: bench/spans.py traces obstruction.random_psi_model, the deleted draw of the w unknown
def random_psi_model(*args, **kwargs):
    raise NotImplementedError("the w unknown is gone: the routes take (p, epsilon, map)")


def _symbol(k: int, p: int) -> Sign:
    # Euler's criterion, for an odd prime p not dividing k: k^((p-1)/2) is 1 or -1 mod p
    return 1 if pow(k, (p - 1) // 2, p) == 1 else -1


def _is_square(k: int) -> bool:
    # k = m^2 with m >= 1: (k/p) = +1 at every odd prime p not dividing k
    return k > 0 and math.isqrt(k) ** 2 == k


def _symbols(k: int, primes: Iterable[int]) -> Iterator[tuple[int, Sign]]:
    # (p, (k/p)) at each p in primes not dividing k; a square k = m^2 is m^2 mod p with p not
    # dividing m, so it reads +1 at every such p with no Euler power
    if _is_square(k):
        return ((p, 1) for p in primes if k % p)
    return ((p, _symbol(k, p)) for p in primes if k % p)


def legendre(k: int, p: int) -> Sign:
    """The Legendre symbol (k/p) by Euler's criterion: +1 iff k is a square mod p.

    p must be an odd prime not dividing k; the degenerate symbol-0 case is
    rejected rather than returned.
    """
    check_prime("p", p, 3)
    check_degree_prime_to(k, p)
    return _symbol(k, p)


def compatible(p: int, epsilon: Sign, k: int) -> bool:
    """Closed-form test: can a degree-k map hit a point with sign epsilon at p?

    True iff epsilon * k^((p-1)/2) is congruent to 1 mod p, which is the
    same as epsilon == legendre(k, p).
    """
    return check_sign(epsilon) == legendre(k, p)


def compatible_bruteforce(
    p: int, epsilon: Sign, k: int, trials: int = TRIALS, seed: int = 0
) -> bool:
    """The same compatibility test, answered by brute-force series expansion.

    For ``trials`` seeded random maps (the coefficients above t^2 drawn by
    ``random_degree_map``), expand both routes of the psi^p naturality
    square in (Z/p^2)[t]/(t^(p+2)) (t^n has filtration 2n, so this is the
    filtration cut at 2p+3) and compare the coefficients of t^(p+1).
    Returns True iff they agree in every trial.  Agrees with ``compatible``
    on all inputs and any seed; the default seed makes verdicts
    reproducible bit for bit.

    The arguments are checked once per call.  ``genus._trials_agree`` then
    draws the maps in chunks, builds each one's pullback S mod p^2 and
    expands both routes from S in full, as the public routes expand them.
    """
    check_sign(epsilon)
    check_prime("p", p, 3)
    check_degree_prime_to(k, p)
    check_int("trials", trials, 1)
    check_int("seed", seed)
    return _trials_agree(p, epsilon, k, trials, seed)


@dataclass(frozen=True)
class Verdict:
    """Outcome of testing one degree against one genus point over a prime set.

    ``Obstructed`` carries the smallest violating prime together with the
    sign the degree requires there and the sign the point actually has.
    Primes dividing the degree are listed in ``skipped``: the test
    hypothesis needs the degree coprime to the prime, so no conclusion is
    drawn there.
    """

    outcome: str
    prime: Optional[int] = None
    required: Optional[Sign] = None
    actual: Optional[Sign] = None
    skipped: tuple[int, ...] = ()

    @property
    def is_admissible(self) -> bool:
        return self.outcome == "Admissible"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "prime": self.prime,
            "required": None if self.required is None else SIGN_TEXT[self.required],
            "actual": None if self.actual is None else SIGN_TEXT[self.actual],
            "skipped": list(self.skipped),
        }


def admissible(genus: RectorInvariant, k: int, primes: Iterable[int]) -> Verdict:
    """Test the degree k against a genus point at every prime in the set.

    Returns Obstructed at the smallest prime where the point's sign differs
    from legendre(k, p), else Admissible.  Admissible means no obstruction
    was found at the tested primes, never that a map exists, so a prime set
    that leaves no prime to test (empty, or every prime dividing k) is
    rejected rather than answered vacuously.
    """
    check_type("genus", genus, RectorInvariant)
    tested = sorted({check_int("p", p) for p in check_iterable("primes", primes)})
    # the point's constructor has tested its exception keys; 2 still fails the odd-prime check
    keys = {p for p, _ in genus.exceptions}
    for p in tested:
        if p < 3 or p not in keys:
            check_prime("p", p, 3)
    return _admissible(genus, k, tested)


def _admissible(genus: RectorInvariant, k: int, tested: list[int]) -> Verdict:
    # admissible over trusted ascending distinct odd primes: none is tested for primality
    return _verdict(genus, k, tested, _skipped(k, tested, k))


def _admissible_upto(genus: RectorInvariant, k: int, bound: int) -> Verdict:
    # _admissible over odd_primes_upto(bound). At k = m^2 against a +1 point (m^2/p) = +1, so
    # only the exceptions are read; past r = isqrt(m) m has one prime factor at most, and
    # (Bertrand) (r+1, 4r+4] two primes: sieve to 4r + 4
    if genus.default != 1 or bound < 3 or not _is_square(k):
        return _admissible(genus, k, odd_primes_upto(bound))
    m = math.isqrt(k)
    skipped = _skipped(k, odd_primes_upto(min(bound, 4 * math.isqrt(m) + 4)), m)
    rest, small = m, 2 * math.prod(skipped)
    while (common := math.gcd(rest, small)) > 1:
        rest //= common
    skipped += (rest,) if 1 < rest <= bound else ()
    return _verdict(genus, k, (p for p, _ in genus.exceptions if 2 < p <= bound), skipped)


def _skipped(k: int, tested: list[int], m: int) -> tuple[int, ...]:
    # the primes of tested dividing m, which has k's primes; a set with none left is refused
    check_degree(k)
    if not tested:
        raise ValueError("no primes to test: the prime set is empty")
    skipped = tuple(p for p in tested if m % p == 0)
    if len(skipped) == len(tested):
        raise ValueError(f"no primes to test: every given prime divides the degree {k}")
    return skipped


def _verdict(genus: RectorInvariant, k: int, primes: Iterable[int], skipped) -> Verdict:
    # the one verdict loop: the first prime _symbols keeps where the point's sign is not (k/p)
    for p, required in _symbols(k, primes):
        if (actual := genus._sign(p)) != required:
            return Verdict("Obstructed", prime=p, required=required, actual=actual, skipped=skipped)
    return Verdict("Admissible", skipped=skipped)


@dataclass(frozen=True)
class ForcedGenusReport:
    """Per-degree census of the invariants a degree-k map forces.

    At every odd prime p <= bound coprime to k the invariant is forced to
    legendre(k, p).  The prime 2 is always free, as are the odd primes
    dividing k; over ALL primes that leaves 1 + (number of distinct odd
    prime factors of k) free slots, so at most 2^free_count_total genus
    points survive the test for this degree.  Finitely many per degree,
    countably many over all degrees.
    """

    degree: int
    bound: int
    forced: tuple[tuple[int, Sign], ...]
    free: tuple[int, ...]
    free_count_total: int

    @property
    def max_surviving(self) -> int:
        """Upper bound (necessary-condition only) on surviving genus points."""
        return 2**self.free_count_total

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "bound": self.bound,
            "forced": {str(p): SIGN_TEXT[s] for p, s in self.forced},
            "free": list(self.free),
            "free_count_total": self.free_count_total,
            "max_surviving_genus_points": self.max_surviving,
        }


def forced_genus(k: int, bound: int) -> ForcedGenusReport:
    """Which invariants a degree-k map forces at the odd primes up to bound.

    |k| must be below ``PRIME_TEST_CEILING``, where every prime factor that
    Pollard's rho splits off can still be confirmed prime.
    """
    check_degree(k)
    if abs(k) >= PRIME_TEST_CEILING:
        raise ValueError(
            f"|degree| must be below {PRIME_TEST_CEILING}, the primality test's ceiling, got {k}"
        )
    check_int("bound", bound, 2)
    factors = distinct_odd_prime_factors(k)
    forced = tuple(_symbols(k, odd_primes_upto(bound)))
    free = (2,) + tuple(q for q in factors if q <= bound)
    return ForcedGenusReport(k, bound, forced, free, 1 + len(factors))


def example_xp(p: int) -> tuple[RectorInvariant, int]:
    """The genus point whose sign is -1 at exactly the odd prime p, plus a witness.

    The witness is the smallest k with 1 < k < p that is a quadratic
    non-residue mod p, so ``compatible(p, -1, k)`` holds by construction and
    the single-prime test cannot rule out a map of that degree.  The search
    always stops below p: 1 is a residue and (p - 1)/2 of 1..p-1 are not.
    """
    check_prime("p", p, 3)
    point = RectorInvariant._trusted(1, ((p, -1),))
    return point, next(k for k in range(2, p) if _symbol(k, p) == -1)
