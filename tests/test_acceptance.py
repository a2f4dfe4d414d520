"""Acceptance sweeps: the headline coefficient laws and census facts, end to end.

Every criterion runs at zero tolerance (exact integer equality) and prints
one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they complete.
"""

import random
import time

from hpgenus import selftest
from hpgenus.genus import (
    RectorInvariant,
    psi_then_pullback,
    pullback_then_psi,
    random_degree_map,
)
from hpgenus.obstruction import TRIALS, admissible, compatible, example_xp, forced_genus, legendre
from hpgenus.primes import odd_primes_upto
from hpgenus.selftest import MAX_PRIME, _degrees

from oracles import trial_division_odd_prime_factors

SEED = 0


def _report(number, description, failures, started=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    elapsed = f" [{time.perf_counter() - started:.1f}s]" if started is not None else ""
    print(f"acceptance criterion {number}: {status}: {description}{elapsed}")
    assert not failures, f"criterion {number} first violations: {failures[:5]}"


def _report_suites(number, description, started, *results):
    """Report selftest suites as one criterion, one violation line per failing suite."""
    failures = [(r.name, r.failures, r.first_counterexample) for r in results if not r.ok]
    _report(number, description, failures, started)


def test_criterion_1_rhs_coefficient_law():
    """Reduced psi^p of the pullback has t^(p+1) coefficient 2pk mod p^2,
    for every odd p <= 31, every 1 <= |k| <= 50, across 200 random
    higher-term choices each."""
    started = time.perf_counter()
    failures = []
    for p in odd_primes_upto(MAX_PRIME):
        order = p + 2
        modulus = p * p
        for k in _degrees():
            expected = (2 * p * k) % modulus
            rng = random.Random(f"{SEED}:acceptance-rhs:{p}:{k}")
            for _ in range(TRIALS):
                f = random_degree_map(rng, k, order)
                got = pullback_then_psi(p, f).coefficient(p + 1) % modulus
                if got != expected:
                    failures.append((p, k, got, expected))
                    break
    _report(1, "rhs coefficient law 2pk mod p^2", failures, started)


def test_criterion_2_lhs_coefficient_law():
    """Reduced pullback of psi^p has t^(p+1) coefficient 2*eps*p*k^((p+1)/2)
    mod p^2, independent of the randomized higher map terms."""
    started = time.perf_counter()
    failures = []
    for p in odd_primes_upto(MAX_PRIME):
        order = p + 2
        modulus = p * p
        for k in _degrees(p):
            for eps in (1, -1):
                expected = (2 * eps * p * k ** ((p + 1) // 2)) % modulus
                rng = random.Random(f"{SEED}:acceptance-lhs:{p}:{k}:{eps}")
                for _ in range(TRIALS):
                    f = random_degree_map(rng, k, order)
                    got = psi_then_pullback(p, eps, f).coefficient(p + 1) % modulus
                    if got != expected:
                        failures.append((p, k, eps, got, expected))
                        break
    _report(2, "lhs coefficient law 2*eps*p*k^((p+1)/2) mod p^2", failures, started)


def test_criterion_3_bruteforce_equals_criterion():
    """The brute-force series verdict agrees with the closed-form sign
    criterion on the whole sweep: zero disagreements."""
    started = time.perf_counter()
    result = selftest.lemma_equivalence_suite()
    _report_suites(3, "series expansion equals the closed-form criterion", started, result)


def test_criterion_4_legendre_against_enumeration():
    """Euler-criterion symbol equals exhaustive square enumeration for all
    odd p <= 199 and all k in [1, p).  Multiplicativity in k is pinned by
    tests/test_obstruction.py::TestLegendre::test_multiplicative."""
    started = time.perf_counter()
    result = selftest.legendre_oracle_suite()
    _report_suites(4, "Legendre symbol vs square enumeration", started, result)


def test_criterion_5_adams_operation_laws():
    """psi^a psi^b = psi^(ab) exactly for a, b <= 12 at order 32, and
    psi^p(f) = f^p mod p for all primes p <= 31 over 500 random series."""
    started = time.perf_counter()
    laws = selftest.adams_law_suite()
    frobenius = selftest.frobenius_suite()
    _report_suites(
        5, "Adams composition law and Frobenius congruence", started, laws, frobenius
    )


def test_criterion_6_only_all_plus_survives_degree_one():
    """Degree 1 admits the all-plus point over every odd prime up to 100 and
    obstructs every point carrying a -1 at any odd prime up to 100."""
    started = time.perf_counter()
    failures = []
    primes = odd_primes_upto(100)
    if not admissible(RectorInvariant(1, {}), 1, primes).is_admissible:
        failures.append(("all-plus point rejected",))
    for p in primes:
        verdict = admissible(RectorInvariant(1, {p: -1}), 1, primes)
        if verdict.outcome != "Obstructed" or verdict.prime != p:
            failures.append(("single minus", p, verdict))
    rng = random.Random(f"{SEED}:acceptance-genus-points")
    for _ in range(200):
        chosen = rng.sample(primes, rng.randint(1, 6))
        verdict = admissible(RectorInvariant(1, {p: -1 for p in chosen}), 1, primes)
        if verdict.outcome != "Obstructed" or verdict.prime != min(chosen):
            failures.append(("multi minus", tuple(chosen), verdict))
    # an all-minus-by-default point has -1 everywhere in range
    if admissible(RectorInvariant(-1, {}), 1, primes).outcome != "Obstructed":
        failures.append(("minus default point admitted",))
    _report(6, "degree 1 singles out the all-plus genus point", failures, started)


def test_criterion_7_single_exception_examples():
    """For every odd p <= 101 the example point's witness k satisfies
    1 < k < p, has symbol -1, and passes the sign test; witnesses for
    p = 3, 5, 7 are exactly 2, 2, 3."""
    started = time.perf_counter()
    failures = []
    for p in odd_primes_upto(101):
        point, witness = example_xp(p)
        squares = {x * x % p for x in range(1, p)}
        ok = (
            1 < witness < p
            and witness not in squares
            and legendre(witness, p) == -1
            and compatible(p, -1, witness)
            and all(witness <= c or c in squares for c in range(2, witness))
        )
        if not ok:
            failures.append((p, witness))
    for p, expected in ((3, 2), (5, 2), (7, 3)):
        _, witness = example_xp(p)
        if witness != expected:
            failures.append((p, witness, expected))
    _report(7, "single-exception example points and witness degrees", failures, started)


def test_criterion_8_forced_genus_census():
    """For every 1 <= |k| <= 100 the census counts 1 + (distinct odd prime
    factors of k) free primes and bounds survivors by 2 to that power."""
    started = time.perf_counter()
    failures = []

    for magnitude in range(1, 101):
        for k in (magnitude, -magnitude):
            report = forced_genus(k, 100)
            expected = 1 + len(trial_division_odd_prime_factors(k))
            if report.free_count_total != expected:
                failures.append((k, report.free_count_total, expected))
            if report.max_surviving != 2**expected:
                failures.append((k, "bound", report.max_surviving))
            if report.free[0] != 2 or any(k % p for p in report.free[1:]):
                failures.append((k, "free set", report.free))
    hand_checked = {1: 1, 2: 1, 6: 2, 30: 3, 64: 1}
    for k, expected in hand_checked.items():
        report = forced_genus(k, 100)
        if report.free_count_total != expected or report.max_surviving != 2**expected:
            failures.append((k, "hand check", report.free_count_total, expected))
    _report(8, "per-degree census of free and forced invariants", failures, started)
