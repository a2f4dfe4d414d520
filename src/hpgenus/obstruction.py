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

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .genus import (
    RectorInvariant,
    Sign,
    _psi_then_pullback_top,
    _pullback,
    _pullback_then_psi_top,
    check_degree,
    check_degree_prime_to,
    check_odd_prime,
    check_sign,
    random_degree_map,
    sign_to_str,
)
# unused here but bound: bench/spans.py traces calls through obstruction.psi_then_pullback
# and obstruction.pullback_then_psi, and the brute force calls their unchecked cores
from .genus import psi_then_pullback, pullback_then_psi  # noqa: F401
# is_prime is unused here but stays bound: bench/spans.py traces calls through obstruction.is_prime
from .primes import distinct_odd_prime_factors, is_prime, odd_primes_upto  # noqa: F401


# never called: bench/spans.py traces obstruction.random_psi_model, the deleted draw of the w unknown
def random_psi_model(*args, **kwargs):
    raise NotImplementedError("the w unknown is gone: the routes take (p, epsilon, map)")


def _symbol(k: int, p: int) -> Sign:
    # Euler's criterion, for an odd prime p not dividing k: k^((p-1)/2) is 1 or -1 mod p
    return 1 if pow(k, (p - 1) // 2, p) == 1 else -1


def legendre(k: int, p: int) -> Sign:
    """The Legendre symbol (k/p) by Euler's criterion: +1 iff k is a square mod p.

    p must be an odd prime not dividing k; the degenerate symbol-0 case is
    rejected rather than returned.
    """
    check_odd_prime(p)
    check_degree_prime_to(k, p)
    return _symbol(k, p)


def compatible(p: int, epsilon: Sign, k: int) -> bool:
    """Closed-form test: can a degree-k map hit a point with sign epsilon at p?

    True iff epsilon * k^((p-1)/2) is congruent to 1 mod p, which is the
    same as epsilon == legendre(k, p).
    """
    return check_sign(epsilon) == legendre(k, p)


def compatible_bruteforce(
    p: int, epsilon: Sign, k: int, trials: int = 200, seed: int = 0
) -> bool:
    """The same compatibility test, answered by brute-force series expansion.

    For ``trials`` seeded random maps (the coefficients above t^2 drawn by
    ``random_degree_map``), expand both routes of the psi^p naturality
    square in (Z/p^2)[t]/(t^(p+2)) (t^n has filtration 2n, so this is the
    filtration cut at 2p+3) and compare the coefficients of t^(p+1).
    Returns True iff they agree in every trial.  Agrees with ``compatible``
    on all inputs and any seed; the default seed makes verdicts
    reproducible bit for bit.

    The arguments are checked once per call.  Each trial then builds the
    map's pullback S mod p^2 once and computes only the two compared
    coefficients, the t^(p+1) coefficients of ``psi_then_pullback`` and
    ``pullback_then_psi``.
    """
    check_sign(epsilon)
    check_odd_prime(p)
    check_degree_prime_to(k, p)
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    rng = random.Random(f"{seed}:{p}:{k}")
    for _ in range(trials):
        s = _pullback(p, random_degree_map(rng, k, p + 2))
        if _psi_then_pullback_top(p, epsilon, s) != _pullback_then_psi_top(p, s):
            return False
    return True


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
            "required": None if self.required is None else sign_to_str(self.required),
            "actual": None if self.actual is None else sign_to_str(self.actual),
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
    check_degree(k)
    tested = sorted(set(primes))
    if not tested:
        raise ValueError("no primes to test: the prime set is empty")
    for p in tested:
        check_odd_prime(p)
    skipped = tuple(p for p in tested if k % p == 0)
    if len(skipped) == len(tested):
        raise ValueError(f"no primes to test: every given prime divides the degree {k}")
    signs = genus.exception_map()
    for p in tested:
        if k % p == 0:
            continue
        required = _symbol(k, p)
        actual = signs.get(p, genus.default)
        if actual != required:
            return Verdict(
                "Obstructed",
                prime=p,
                required=required,
                actual=actual,
                skipped=skipped,
            )
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

    def forced_map(self) -> dict[int, Sign]:
        return dict(self.forced)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "bound": self.bound,
            "forced": {str(p): sign_to_str(s) for p, s in self.forced},
            "free": list(self.free),
            "free_count_total": self.free_count_total,
            "max_surviving_genus_points": self.max_surviving,
        }


def forced_genus(k: int, bound: int) -> ForcedGenusReport:
    """Which invariants a degree-k map forces at the odd primes up to bound."""
    check_degree(k)
    if not isinstance(bound, int) or bound < 2:
        raise ValueError(f"bound must be an integer >= 2, got {bound!r}")
    forced = []
    free_odd = []
    for p in odd_primes_upto(bound):
        if k % p == 0:
            free_odd.append(p)
        else:
            forced.append((p, _symbol(k, p)))
    free = (2,) + tuple(free_odd)
    free_count_total = 1 + len(distinct_odd_prime_factors(k))
    return ForcedGenusReport(k, bound, tuple(forced), free, free_count_total)


def example_xp(p: int) -> tuple[RectorInvariant, int]:
    """The genus point whose sign is -1 at exactly the odd prime p, plus a witness.

    The witness is the smallest k with 1 < k < p that is a quadratic
    non-residue mod p, so ``compatible(p, -1, k)`` holds by construction and
    the single-prime test cannot rule out a map of that degree.
    """
    check_odd_prime(p)
    point = RectorInvariant._trusted(1, ((p, -1),))
    for k in range(2, p):
        if _symbol(k, p) == -1:
            return point, k
    raise AssertionError(f"no non-residue in (1, {p}): {p} cannot be an odd prime")
