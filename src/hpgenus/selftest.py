"""Deterministic property sweeps behind the ``selftest`` CLI command.

Each suite runs a batch of checks that must all hold, counts them, and
records the first counterexample if any check fails.  Sweeps are seeded, so
two runs with the same parameters see exactly the same inputs.  The default
sweep the CLI exposes, and the sizes of the sweeps it does not, are the
module constants below; a suite that ran no check does not pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .adams import check_composition, check_frobenius, psi_apply, psi_generator
from .genus import SIGN_TEXT
from .obstruction import TRIALS, compatible, compatible_bruteforce, legendre
from .primes import odd_primes_upto
from .series import TruncatedSeries, check_int

#: the default sweep: odd primes up to MAX_PRIME, degrees 1 <= |k| <= MAX_DEGREE
MAX_PRIME = 31
MAX_DEGREE = 50

RING_TRIALS = 1000
RING_MAX_ORDER = 16
ADAMS_MAX_INDEX = 12
ADAMS_ORDER = 32
ADAMS_TRIALS = 200
FROBENIUS_COUNT = 500
LEGENDRE_MAX_PRIME = 199
#: random coefficients are drawn from [-bound, bound]
SERIES_BOUND = 99
REDUCED_BOUND = 9


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    first_counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.checks > 0 and self.failures == 0

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        """Count one check; describe the first failing one now, while its loop variables hold."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = describe()


def _random_series(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries(order, [rng.randint(-SERIES_BOUND, SERIES_BOUND) for _ in range(order)])


def _random_reduced(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries(
        order, [0] + [rng.randint(-REDUCED_BOUND, REDUCED_BOUND) for _ in range(order - 1)]
    )


def ring_axiom_suite(seed: int = 0) -> SuiteResult:
    """Ring axioms, composition associativity, and reduction laws on random inputs."""
    check_int("seed", seed)
    rec = SuiteResult("ring-axioms")
    rng = random.Random(f"{seed}:ring")
    for _ in range(RING_TRIALS):
        n = rng.randint(1, RING_MAX_ORDER)
        a, b, c = (_random_series(rng, n) for _ in range(3))
        zero = TruncatedSeries(n)
        one = TruncatedSeries(n, (1,))
        laws = [
            ("add commutes", a + b == b + a),
            ("add associates", (a + b) + c == a + (b + c)),
            ("zero is the additive identity", a + zero == a),
            ("negation inverts", a + (-a) == zero),
            ("mul commutes", a * b == b * a),
            ("mul associates", (a * b) * c == a * (b * c)),
            ("one is the multiplicative identity", a * one == a),
            ("mul distributes over add", a * (b + c) == a * b + a * c),
        ]
        f, g, h = (_random_reduced(rng, n) for _ in range(3))
        laws.append(("compose associates", f.compose(g).compose(h) == f.compose(g.compose(h))))
        m = rng.randint(1, 60)

        def red(x):
            return x.reduce(m)

        laws.extend(
            [
                ("reduce is idempotent", red(red(a)) == red(a)),
                ("reduce commutes with add", red(a + b) == red(red(a) + red(b))),
                ("reduce commutes with mul", red(a * b) == red(red(a) * red(b))),
            ]
        )
        for label, ok in laws:
            rec.check(ok, lambda: f"{label} failed: a={a!r} b={b!r} c={c!r}")
    return rec


def adams_law_suite(seed: int = 0) -> SuiteResult:
    """psi^a psi^b = psi^(ab), psi^1 = id, and ring-endomorphism behaviour."""
    check_int("seed", seed)
    rec = SuiteResult("adams-laws")
    for a in range(1, ADAMS_MAX_INDEX + 1):
        for b in range(1, ADAMS_MAX_INDEX + 1):
            rec.check(
                check_composition(a, b, ADAMS_ORDER),
                lambda: f"psi^{a} psi^{b} != psi^{a * b} at order {ADAMS_ORDER}",
            )
    for r in range(1, ADAMS_MAX_INDEX * ADAMS_MAX_INDEX + 1):
        g = psi_generator(r, 8)
        rec.check(
            g.coefficient(0) == 0 and g.coefficient(1) == r,
            lambda: f"generator image of psi^{r} malformed: {g!r}",
        )
    rng = random.Random(f"{seed}:adams")
    for _ in range(ADAMS_TRIALS):
        n = rng.randint(2, 16)
        r = rng.randint(1, ADAMS_MAX_INDEX)
        f = _random_reduced(rng, n)
        g = _random_reduced(rng, n)
        rec.check(
            psi_apply(r, f + g) == psi_apply(r, f) + psi_apply(r, g),
            lambda: f"psi^{r} not additive on {f!r}, {g!r}",
        )
        rec.check(
            psi_apply(r, f * g) == psi_apply(r, f) * psi_apply(r, g),
            lambda: f"psi^{r} not multiplicative on {f!r}, {g!r}",
        )
        rec.check(psi_apply(1, f) == f, lambda: f"psi^1 moved {f!r}")
    return rec


def frobenius_suite(max_prime: int = MAX_PRIME, seed: int = 0) -> SuiteResult:
    """psi^p(f) = f^p mod p across primes up to max_prime and random f."""
    check_int("max_prime", max_prime)
    check_int("seed", seed)
    rec = SuiteResult("frobenius")
    primes = ([2] if max_prime >= 2 else []) + odd_primes_upto(max_prime)
    rng = random.Random(f"{seed}:frobenius")
    series = [_random_reduced(rng, rng.randint(2, 16)) for _ in range(FROBENIUS_COUNT)]
    # primes outside, so each prime's psi tables stay in the bounded cache
    for p in primes:
        for f in series:
            rec.check(
                check_frobenius(p, f),
                lambda: f"psi^{p}(f) != f^{p} mod {p} for f={f!r}",
            )
    return rec


def legendre_oracle_suite() -> SuiteResult:
    """Euler's criterion against exhaustive square enumeration at every k mod p."""
    rec = SuiteResult("legendre-oracle")
    for p in odd_primes_upto(LEGENDRE_MAX_PRIME):
        squares = {x * x % p for x in range(1, p)}
        for k in range(1, p):
            expected = 1 if k in squares else -1
            rec.check(
                legendre(k, p) == expected,
                lambda: f"({k}/{p}) != {expected} from square enumeration",
            )
    return rec


def lemma_equivalence_suite(
    max_prime: int = MAX_PRIME, max_degree: int = MAX_DEGREE, trials: int = TRIALS, seed: int = 0
) -> SuiteResult:
    """Brute-force series verdicts equal the closed-form criterion on a full sweep."""
    check_int("max_degree", max_degree, 1)
    rec = SuiteResult("lemma-equivalence")
    for p in odd_primes_upto(max_prime):
        for magnitude in range(1, max_degree + 1):
            for k in (magnitude, -magnitude):
                if k % p == 0:
                    continue
                for epsilon in (1, -1):
                    closed = compatible(p, epsilon, k)
                    brute = compatible_bruteforce(p, epsilon, k, trials=trials, seed=seed)
                    rec.check(
                        closed == brute,
                        lambda: (
                            f"criterion={closed} but bruteforce={brute} at p={p}, k={k}, "
                            f"epsilon={SIGN_TEXT[epsilon]}"
                        ),
                    )
    return rec


def run_all(
    max_prime: int = MAX_PRIME, max_degree: int = MAX_DEGREE, trials: int = TRIALS, seed: int = 0
) -> list[SuiteResult]:
    """Every suite, in a fixed order.

    Non-integer parameters, and those that would leave the prime, degree or
    trial sweep empty, are rejected before any suite runs: a pass is never vacuous.
    """
    check_int("max_prime", max_prime, 3)
    check_int("max_degree", max_degree, 1)
    check_int("trials", trials, 1)
    check_int("seed", seed)
    return [
        ring_axiom_suite(seed=seed),
        adams_law_suite(seed=seed),
        frobenius_suite(max_prime=max_prime, seed=seed),
        legendre_oracle_suite(),
        lemma_equivalence_suite(
            max_prime=max_prime, max_degree=max_degree, trials=trials, seed=seed
        ),
    ]
