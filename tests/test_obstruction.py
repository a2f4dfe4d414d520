import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, strategies as st

import hpgenus.genus
import hpgenus.obstruction
from hpgenus.genus import (
    DegreeMapModel,
    RectorInvariant,
    check_degree_prime_to,
    check_odd_prime,
    check_sign,
    psi_then_pullback,
    pullback_then_psi,
    random_degree_map,
)
from hpgenus.obstruction import (
    Verdict,
    admissible,
    compatible,
    compatible_bruteforce,
    example_xp,
    forced_genus,
    legendre,
)
from hpgenus.primes import is_prime, odd_primes_upto

from oracles import (
    compatible_bruteforce_reference,
    legendre_by_enumeration,
    smallest_nonresidue_above_one,
    squares_mod,
)


class TestLegendre:
    def test_perfect_square(self):
        assert legendre(4, 5) == 1

    def test_two_mod_three(self):
        assert legendre(2, 3) == -1
        assert legendre(2, 3) == legendre_by_enumeration(2, 3)

    def test_two_mod_seven(self):
        assert legendre(2, 7) == 1  # 3^2 = 9 = 2 mod 7
        assert legendre(2, 7) == legendre_by_enumeration(2, 7)

    def test_rejects_divisible_degree(self):
        with pytest.raises(ValueError, match="divides"):
            legendre(6, 3)

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 15)
        with pytest.raises(ValueError):
            legendre(1, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            legendre(0, 5)

    def test_negative_degree_matches_enumeration(self):
        for p in (3, 5, 7, 11, 13):
            for k in range(-p + 1, 0):
                if k % p:
                    assert legendre(k, p) == legendre_by_enumeration(k, p)

    @pytest.mark.parametrize("p", odd_primes_upto(61))
    def test_matches_enumeration_oracle(self, p):
        squares = squares_mod(p)
        for k in range(1, p):
            assert legendre(k, p) == (1 if k in squares else -1)

    @given(st.sampled_from(odd_primes_upto(61)), st.integers(1, 60), st.integers(1, 60))
    def test_multiplicative(self, p, a, b):
        if a % p == 0 or b % p == 0:
            return
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


class TestCompatible:
    def test_nonresidue_against_minus(self):
        assert compatible(3, -1, 2) is True

    def test_nonresidue_against_plus(self):
        assert compatible(3, 1, 2) is False

    def test_square_against_plus(self):
        assert compatible(5, 1, 4) is True

    def test_equals_legendre_match(self):
        for p in (3, 5, 7, 11):
            for k in range(1, 20):
                if k % p == 0:
                    continue
                for eps in (1, -1):
                    assert compatible(p, eps, k) == (legendre(k, p) == eps)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compatible(3, 0, 2)
        with pytest.raises(ValueError):
            compatible(2, 1, 3)
        with pytest.raises(ValueError):
            compatible(3, 1, 3)


class TestCompatibleBruteforce:
    def test_plus_one_unit_degree(self):
        assert compatible_bruteforce(3, 1, 1, trials=20) is True

    def test_minus_one_unit_degree(self):
        assert compatible_bruteforce(3, -1, 1, trials=20) is False

    def test_degree_two_at_five_needs_minus(self):
        assert compatible_bruteforce(5, -1, 2, trials=20) is True
        assert compatible_bruteforce(5, 1, 2, trials=20) is False

    def test_agrees_with_criterion_on_small_grid(self):
        for p in (3, 5, 7):
            for k in range(-10, 11):
                if k == 0 or k % p == 0:
                    continue
                for eps in (1, -1):
                    assert compatible_bruteforce(p, eps, k, trials=25) == compatible(p, eps, k)

    def test_seed_independence_of_verdict(self):
        for seed in (0, 1, 12345):
            assert compatible_bruteforce(7, -1, 3, trials=10, seed=seed) is True
            assert compatible_bruteforce(7, 1, 3, trials=10, seed=seed) is False

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compatible_bruteforce(3, 1, 3)
        with pytest.raises(ValueError):
            compatible_bruteforce(3, 1, 1, trials=0)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_same_verdict_as_the_exact_reference(self, p):
        """The verdict of a naive re-implementation over Z, on the same seeds
        (randrange per slot, schoolbook routes, compared at t^(p+1) mod p^2)."""
        for k in (1, -1, 2, -3, 5, 10, -12):
            if k % p == 0:
                continue
            for epsilon in (1, -1):
                for seed in (0, 1, 7):
                    expected = compatible_bruteforce_reference(p, epsilon, k, 40, seed)
                    assert compatible_bruteforce(p, epsilon, k, trials=40, seed=seed) is expected

    @pytest.mark.parametrize("epsilon, trials, draws", [(1, 37, 37), (-1, 37, 1), (1, 1, 1)])
    def test_one_map_drawn_per_trial_run(self, monkeypatch, epsilon, trials, draws):
        # (2/7) = +1: a pass runs every trial, a fail stops after the first
        counted = []

        def counting(*args):
            counted.append(args)
            return random_degree_map(*args)

        monkeypatch.setattr(hpgenus.obstruction, "random_degree_map", counting)
        assert compatible_bruteforce(7, epsilon, 2, trials=trials) is (epsilon == 1)
        assert len(counted) == draws


class TestAdmissible:
    def test_all_plus_point_survives_degree_one(self):
        verdict = admissible(RectorInvariant(1, {}), 1, odd_primes_upto(100))
        assert verdict.is_admissible
        assert verdict.skipped == ()

    def test_single_minus_point_obstructed_at_degree_one(self):
        verdict = admissible(RectorInvariant(1, {3: -1}), 1, [3])
        assert verdict == Verdict("Obstructed", prime=3, required=1, actual=-1, skipped=())

    def test_obstruction_reports_smallest_prime(self):
        # k = 2 passes at 3 (both -1), fails at 5 (required -1, actual +1)
        verdict = admissible(RectorInvariant(1, {3: -1}), 2, [3, 5, 7])
        assert verdict.outcome == "Obstructed"
        assert verdict.prime == 5
        assert verdict.required == -1
        assert verdict.actual == 1

    def test_primes_dividing_degree_are_skipped(self):
        verdict = admissible(RectorInvariant(1, {}), 15, [3, 5, 7])
        assert verdict.skipped == (3, 5)
        # only 7 is tested: legendre(15, 7) = legendre(1, 7) = +1
        assert verdict.is_admissible

    def test_skipped_and_tested_disjoint_even_when_obstructed(self):
        verdict = admissible(RectorInvariant(1, {7: -1}), 15, [3, 5, 7])
        assert verdict.outcome == "Obstructed" and verdict.prime == 7
        assert 7 not in verdict.skipped

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            admissible(RectorInvariant(1, {}), 1, [2, 3])

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            admissible(RectorInvariant(1, {}), 1, [9])

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            admissible(RectorInvariant(1, {}), 0, [3])

    def test_empty_prime_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            admissible(RectorInvariant(1, {}), 1, [])

    def test_every_prime_dividing_the_degree_rejected(self):
        # every prime would be skipped, so nothing would be tested
        with pytest.raises(ValueError, match="divides the degree"):
            admissible(RectorInvariant(1, {3: -1}), 3, [3])
        with pytest.raises(ValueError, match="divides the degree"):
            admissible(RectorInvariant(1, {}), -15, [5, 3])

    def test_verdict_json_shape(self):
        verdict = admissible(RectorInvariant(1, {3: -1}), 1, [3])
        assert verdict.to_json_dict() == {
            "outcome": "Obstructed",
            "prime": 3,
            "required": "+1",
            "actual": "-1",
            "skipped": [],
        }

    def test_square_degrees_never_obstruct_all_plus(self):
        point = RectorInvariant(1, {})
        for m in (1, 2, 3, 6, 10):
            k = m * m
            primes = [p for p in odd_primes_upto(60) if k % p]
            assert admissible(point, k, primes).is_admissible


class TestForcedGenus:
    def test_degree_one(self):
        report = forced_genus(1, 20)
        assert report.forced_map() == {3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1}
        assert report.free == (2,)
        assert report.free_count_total == 1
        assert report.max_surviving == 2

    def test_degree_two(self):
        report = forced_genus(2, 10)
        assert report.forced_map() == {3: -1, 5: -1, 7: 1}
        assert report.free == (2,)
        assert report.free_count_total == 1

    def test_degree_six(self):
        report = forced_genus(6, 10)
        assert report.forced_map() == {5: 1, 7: -1}
        assert report.free == (2, 3)
        assert report.free_count_total == 2
        assert report.max_surviving == 4

    def test_forced_values_are_legendre_symbols(self):
        report = forced_genus(12, 60)
        for p, sign in report.forced:
            assert sign == legendre(12, p)

    def test_square_factor_invariance(self):
        for k, m in [(2, 3), (5, 2), (-3, 5)]:
            base = forced_genus(k, 60).forced_map()
            scaled = forced_genus(k * m * m, 60).forced_map()
            for p, sign in base.items():
                if (k * m * m) % p != 0 and m % p != 0:
                    assert scaled[p] == sign

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            forced_genus(0, 10)

    def test_small_bound_rejected(self):
        with pytest.raises(ValueError):
            forced_genus(1, 1)

    def test_json_shape(self):
        doc = forced_genus(6, 10).to_json_dict()
        assert doc == {
            "degree": 6,
            "bound": 10,
            "forced": {"5": "+1", "7": "-1"},
            "free": [2, 3],
            "free_count_total": 2,
            "max_surviving_genus_points": 4,
        }


class TestExampleXp:
    @pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3)])
    def test_known_witnesses(self, p, expected):
        point, witness = example_xp(p)
        assert witness == expected
        assert point == RectorInvariant(1, {p: -1})

    @pytest.mark.parametrize("p", odd_primes_upto(101))
    def test_witness_is_smallest_nonresidue(self, p):
        point, witness = example_xp(p)
        assert 1 < witness < p
        assert witness == smallest_nonresidue_above_one(p)
        assert legendre(witness, p) == -1
        assert compatible(p, -1, witness)

    @pytest.mark.parametrize("p", [3, 5, 11, 41])
    def test_single_prime_test_cannot_rule_it_out(self, p):
        point, witness = example_xp(p)
        assert admissible(point, witness, [p]).is_admissible

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            example_xp(2)
        with pytest.raises(ValueError):
            example_xp(9)


class TestOneValidatorPerFact:
    """One validator per input fact: the same message from every entry point,
    and each prime checked at most once per call."""

    @pytest.mark.parametrize("p", [2, 9, 1, 0, -3])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: legendre(2, p),
            lambda p: compatible(p, 1, 2),
            lambda p: compatible_bruteforce(p, 1, 2, trials=1),
            lambda p: admissible(RectorInvariant(1, {}), 2, [p]),
            example_xp,
            lambda p: psi_then_pullback(p, 1, DegreeMapModel(1)),
            lambda p: pullback_then_psi(p, DegreeMapModel(1)),
        ],
        ids=[
            "legendre",
            "compatible",
            "compatible_bruteforce",
            "admissible",
            "example_xp",
            "psi_then_pullback",
            "pullback_then_psi",
        ],
    )
    def test_not_an_odd_prime_has_one_message(self, call, p):
        with pytest.raises(ValueError) as expected:
            check_odd_prime(p)
        with pytest.raises(ValueError) as got:
            call(p)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("p,k", [(3, 6), (5, -10), (7, 7)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p, k: legendre(k, p),
            lambda p, k: compatible(p, 1, k),
            lambda p, k: compatible_bruteforce(p, 1, k, trials=1),
            lambda p, k: psi_then_pullback(p, 1, DegreeMapModel(k)),
        ],
        ids=["legendre", "compatible", "compatible_bruteforce", "psi_then_pullback"],
    )
    def test_prime_dividing_the_degree_has_one_message(self, call, p, k):
        with pytest.raises(ValueError) as expected:
            check_degree_prime_to(k, p)
        with pytest.raises(ValueError) as got:
            call(p, k)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("p,k", [(3, 2), (9, 2), (3, 6), (9, 6)])
    @pytest.mark.parametrize("epsilon", [0, 2, -2, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p, e, k: compatible(p, e, k),
            lambda p, e, k: compatible_bruteforce(p, e, k, trials=1),
            lambda p, e, k: psi_then_pullback(p, e, DegreeMapModel(k)),
        ],
        ids=["compatible", "compatible_bruteforce", "psi_then_pullback"],
    )
    def test_bad_sign_has_one_message_whatever_else_is_bad(self, call, p, epsilon, k):
        with pytest.raises(ValueError) as expected:
            check_sign(epsilon)
        with pytest.raises(ValueError) as got:
            call(p, epsilon, k)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda point: admissible(point, 1, odd_primes_upto(60)),
            lambda point: admissible(point, 6, odd_primes_upto(60)),
            lambda point: admissible(point, 2, [3, 5, 7, 11]),
            lambda point: forced_genus(30, 60),
            lambda point: example_xp(23),
            lambda point: example_xp(3),
        ],
        ids=[
            "admissible-obstructed",
            "admissible-skipped",
            "admissible-passes",
            "forced_genus",
            "example_xp-23",
            "example_xp-3",
        ],
    )
    def test_each_prime_is_checked_at_most_once_per_call(self, monkeypatch, call):
        point = RectorInvariant(1, {13: -1, 23: -1})
        checked = Counter()

        def counting_is_prime(n):
            checked[n] += 1
            return is_prime(n)

        monkeypatch.setattr(hpgenus.genus, "is_prime", counting_is_prime)
        monkeypatch.setattr(hpgenus.obstruction, "is_prime", counting_is_prime)
        call(point)
        assert max(checked.values(), default=0) <= 1, checked


class TestEquivalenceSampling:
    """Randomized spot check that the series route equals the criterion."""

    @given(
        st.sampled_from([3, 5, 7, 11]),
        st.integers(-30, 30),
        st.sampled_from([1, -1]),
        st.integers(0, 3),
    )
    def test_bruteforce_equals_criterion(self, p, k, eps, seed):
        if k == 0 or gcd(k, p) != 1:
            return
        assert compatible_bruteforce(p, eps, k, trials=8, seed=seed) == compatible(p, eps, k)

    def test_random_multi_exception_points_obstructed_at_degree_one(self):
        rng = random.Random("multi-minus")
        primes = odd_primes_upto(100)
        for _ in range(50):
            chosen = rng.sample(primes, rng.randint(1, 4))
            point = RectorInvariant(1, {p: -1 for p in chosen})
            verdict = admissible(point, 1, primes)
            assert verdict.outcome == "Obstructed"
            assert verdict.prime == min(chosen)
