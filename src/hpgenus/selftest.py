"""Deterministic property sweeps behind the ``selftest`` CLI command.

Each suite runs a batch of checks that must all hold, counts them, and
records the first counterexample if any check fails.  Sweeps are seeded, so
two runs with the same parameters see exactly the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .adams import check_composition, check_frobenius, psi_apply, psi_generator
from .obstruction import compatible, compatible_bruteforce, legendre
from .primes import odd_primes_upto
from .series import TruncatedSeries


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    first_counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        """Count one check; describe the first failing one."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = describe()


def _random_series(rng: random.Random, order: int, lo: int = -99, hi: int = 99) -> TruncatedSeries:
    return TruncatedSeries(order, [rng.randint(lo, hi) for _ in range(order)])


def _random_reduced(rng: random.Random, order: int, lo: int = -9, hi: int = 9) -> TruncatedSeries:
    return TruncatedSeries(order, [0] + [rng.randint(lo, hi) for _ in range(order - 1)])


def ring_axiom_suite(trials: int = 1000, max_order: int = 16, seed: int = 0) -> SuiteResult:
    """Ring axioms, composition associativity, and reduction laws on random inputs."""
    rec = SuiteResult("ring-axioms")
    rng = random.Random(f"{seed}:ring")
    for _ in range(trials):
        n = rng.randint(1, max_order)
        a, b, c = (_random_series(rng, n) for _ in range(3))
        zero = TruncatedSeries.zero(n)
        one = TruncatedSeries.one(n)
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
            rec.check(ok, lambda label=label, a=a, b=b, c=c: f"{label} failed: a={a!r} b={b!r} c={c!r}")
    return rec


def adams_law_suite(
    max_index: int = 12, order: int = 32, trials: int = 200, seed: int = 0
) -> SuiteResult:
    """psi^a psi^b = psi^(ab), psi^1 = id, and ring-endomorphism behaviour."""
    rec = SuiteResult("adams-laws")
    for a in range(1, max_index + 1):
        for b in range(1, max_index + 1):
            rec.check(
                check_composition(a, b, order),
                lambda a=a, b=b: f"psi^{a} psi^{b} != psi^{a * b} at order {order}",
            )
    for r in range(1, max_index * max_index + 1):
        g = psi_generator(r, 8)
        rec.check(
            g.coefficient(0) == 0 and g.coefficient(1) == r,
            lambda r=r, g=g: f"generator image of psi^{r} malformed: {g!r}",
        )
    rng = random.Random(f"{seed}:adams")
    for _ in range(trials):
        n = rng.randint(2, 16)
        r = rng.randint(1, max_index)
        f = _random_reduced(rng, n)
        g = _random_reduced(rng, n)
        rec.check(
            psi_apply(r, f + g) == psi_apply(r, f) + psi_apply(r, g),
            lambda r=r, f=f, g=g: f"psi^{r} not additive on {f!r}, {g!r}",
        )
        rec.check(
            psi_apply(r, f * g) == psi_apply(r, f) * psi_apply(r, g),
            lambda r=r, f=f, g=g: f"psi^{r} not multiplicative on {f!r}, {g!r}",
        )
        rec.check(psi_apply(1, f) == f, lambda f=f: f"psi^1 moved {f!r}")
    return rec


def frobenius_suite(max_prime: int = 31, count: int = 500, seed: int = 0) -> SuiteResult:
    """psi^p(f) = f^p mod p across primes up to max_prime and random f."""
    rec = SuiteResult("frobenius")
    primes = ([2] if max_prime >= 2 else []) + odd_primes_upto(max_prime)
    rng = random.Random(f"{seed}:frobenius")
    series = [_random_reduced(rng, rng.randint(2, 16)) for _ in range(count)]
    # primes outside, so each prime's psi tables stay in the bounded cache
    for p in primes:
        for f in series:
            rec.check(
                check_frobenius(p, f),
                lambda p=p, f=f: f"psi^{p}(f) != f^{p} mod {p} for f={f!r}",
            )
    return rec


def legendre_oracle_suite(max_prime: int = 199) -> SuiteResult:
    """Euler's criterion against exhaustive square enumeration, plus multiplicativity."""
    rec = SuiteResult("legendre-oracle")
    for p in odd_primes_upto(max_prime):
        squares = {x * x % p for x in range(1, p)}
        table = {k: legendre(k, p) for k in range(1, p)}
        for k in range(1, p):
            expected = 1 if k in squares else -1
            rec.check(
                table[k] == expected,
                lambda k=k, p=p, e=expected: f"({k}/{p}) != {e} from square enumeration",
            )
        for a in range(1, p):
            ta = table[a]
            for b in range(1, p):
                rec.check(
                    table[a * b % p] == ta * table[b],
                    lambda a=a, b=b, p=p: f"({a}*{b}/{p}) != ({a}/{p})({b}/{p})",
                )
    return rec


def lemma_equivalence_suite(
    max_prime: int = 31, max_degree: int = 50, trials: int = 200, seed: int = 0
) -> SuiteResult:
    """Brute-force series verdicts equal the closed-form criterion on a full sweep."""
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
                        lambda p=p, k=k, e=epsilon, c=closed, b=brute: (
                            f"criterion={c} but bruteforce={b} at p={p}, k={k}, epsilon={e:+d}"
                        ),
                    )
    return rec


def run_all(
    max_prime: int = 31, max_degree: int = 50, trials: int = 200, seed: int = 0
) -> list[SuiteResult]:
    """Every suite, in a fixed order.

    Parameters that would leave the prime, degree or trial sweep empty are
    rejected before any suite runs, so a pass is never vacuous.
    """
    if max_prime < 3:
        raise ValueError(f"max_prime must be at least 3, got {max_prime}: no odd prime to sweep")
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}: no degree to sweep")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}: no brute-force trial to run")
    return [
        ring_axiom_suite(seed=seed),
        adams_law_suite(seed=seed),
        frobenius_suite(max_prime=max_prime, seed=seed),
        legendre_oracle_suite(),
        lemma_equivalence_suite(
            max_prime=max_prime, max_degree=max_degree, trials=trials, seed=seed
        ),
    ]
