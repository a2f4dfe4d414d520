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
    check_prime,
    check_sign,
    psi_then_pullback,
    pullback_then_psi,
    random_degree_map,
)
from hpgenus.obstruction import (
    Verdict,
    _admissible,
    admissible,
    compatible,
    compatible_bruteforce,
    example_xp,
    forced_genus,
    legendre,
)
from hpgenus.primes import PRIME_TEST_CEILING, is_prime, odd_primes_upto

from oracles import (
    compatible_bruteforce_reference,
    legendre_by_enumeration,
    smallest_nonresidue_above_one,
    squares_mod,
    trial_division_is_prime,
    trial_division_odd_prime_factors,
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
        with pytest.raises(ValueError):
            compatible_bruteforce(3, 1, 1, trials=True)

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

    @pytest.mark.parametrize(
        "epsilon, trials, draws, values", [(1, 37, 37, 37 * 6), (-1, 37, 1, 6), (1, 1, 1, 6)]
    )
    def test_one_map_drawn_per_trial_run(self, monkeypatch, epsilon, trials, draws, values):
        # (2/7) = +1: a pass runs every trial, a fail stops after the first, having drawn
        # the p - 1 = 6 values of that trial's map and no more.  The benchmark counts psi
        # calls at genus.psi_apply: a trial must look it up there, once
        calls = Counter()
        real_psi, real_draw = hpgenus.genus.psi_apply, hpgenus.genus._draw

        def counting_psi(*args):
            calls["psi_apply"] += 1
            return real_psi(*args)

        def counting_draw(rng, count):
            calls["values"] += count
            return real_draw(rng, count)

        monkeypatch.setattr(hpgenus.genus, "psi_apply", counting_psi)
        monkeypatch.setattr(hpgenus.genus, "_draw", counting_draw)
        assert compatible_bruteforce(7, epsilon, 2, trials=trials) is (epsilon == 1)
        assert calls == {"values": values, "psi_apply": draws}

    @pytest.mark.parametrize(
        "p, epsilon, k, seed, chunk_values",
        [
            (3, 1, 1, 0, None),  # mod 9 the drawable 9 and -9 both reduce to 0
            (3, -1, 1, 4, None),
            (7, 1, 2, 0, None),  # the first trial alone, then one chunk of the other 199
            (7, 1, 2, 3, 50),  # after the first trial, chunks of 8 trials and a last one of 7
            (7, -1, 2, 0, None),  # a failing verdict: one trial
            (31, -1, 2, 1, 100),  # (2/31) = +1: fails
            (31, 1, -3, 2, 100),  # (-3/31) = +1: chunks of 3 trials and a last one of 1
        ],
    )
    def test_each_trial_reads_the_map_random_degree_map_draws(
        self, monkeypatch, p, epsilon, k, seed, chunk_values
    ):
        """Each S the trial loop hands to psi_apply is the reduced pullback of the map that
        random_degree_map draws from the same seeded generator, trial by trial."""
        seen = []
        real_psi = hpgenus.genus.psi_apply

        def recording(r, s):
            seen.append(s)
            return real_psi(r, s)

        monkeypatch.setattr(hpgenus.genus, "psi_apply", recording)
        if chunk_values is not None:
            monkeypatch.setattr(hpgenus.genus, "_CHUNK_VALUES", chunk_values)
        passes = compatible_bruteforce(p, epsilon, k, trials=200, seed=seed)
        assert passes is compatible(p, epsilon, k)
        assert len(seen) == (200 if passes else 1)
        rng = random.Random(f"{seed}:{p}:{k}")
        m = p * p
        for trial, s in enumerate(seen):
            expected = random_degree_map(rng, k, p + 2).as_series(p + 2).reduce(m)
            assert (s, s.modulus) == (expected, m), trial


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

    @pytest.mark.parametrize("k", [1, 2, -3, 15, 105, 10**6 + 1])
    def test_core_on_the_sieve_agrees_with_the_public_function(self, k):
        point = RectorInvariant(1, {3: -1, 11: -1, 97: -1})
        primes = odd_primes_upto(200)
        assert _admissible(point, k, primes) == admissible(point, k, reversed(primes))

    def test_core_keeps_the_degree_and_prime_set_checks(self):
        point = RectorInvariant(1, {})
        with pytest.raises(ValueError, match="non-zero integer"):
            _admissible(point, 0, [3])
        with pytest.raises(ValueError, match="empty"):
            _admissible(point, 1, [])
        with pytest.raises(ValueError, match="divides the degree"):
            _admissible(point, 15, [3, 5])

    def test_square_degrees_never_obstruct_all_plus(self):
        point = RectorInvariant(1, {})
        for m in (1, 2, 3, 6, 10):
            k = m * m
            primes = [p for p in odd_primes_upto(60) if k % p]
            assert admissible(point, k, primes).is_admissible


class TestSquareRule:
    """Both bound scans read +1 at a square degree m^2 with no Euler power, and agree with
    listing the squares mod p at every degree up to 2000 in size."""

    @pytest.mark.parametrize("m", [1, 2, 15, 97, 210, 1001])
    def test_a_square_degree_never_takes_a_power(self, monkeypatch, m):
        def no_power(k, p):
            raise AssertionError(f"Euler power taken for ({k}/{p})")

        def no_scan(k, primes):
            raise AssertionError(f"the primes are scanned for the square {k} at a +1 point")

        monkeypatch.setattr(hpgenus.obstruction, "_symbol", no_power)
        k, primes = m * m, odd_primes_upto(10**4)
        coprime = [p for p in primes if m % p]
        assert forced_genus(k, 10**4).forced == tuple((p, 1) for p in coprime)
        # against a +1 point a square degree reads the exceptions alone, no prime's symbol
        monkeypatch.setattr(hpgenus.obstruction, "_symbols", no_scan)
        verdict = _admissible(RectorInvariant(1), k, primes)
        assert verdict == Verdict("Admissible", skipped=tuple(p for p in primes if m % p == 0))
        last = coprime[-1]
        assert _admissible(RectorInvariant(1, {last: -1}), k, primes) == Verdict(
            "Obstructed", prime=last, required=1, actual=-1, skipped=verdict.skipped
        )

    def test_both_scans_match_enumeration_for_every_small_degree(self):
        # every k with 1 <= |k| <= 2000 (so every m^2, -m^2 and 2m^2 in that range) against
        # the squares mod each odd prime up to 1000, listed once per prime where
        # legendre_by_enumeration lists them once per symbol; points with default +1 and -1,
        # bare and with exceptions that a square degree reads: at 2, at primes that divide
        # some m ahead of one that obstructs, above the bound; over every odd prime up to 1000
        # and over a --primes-style set that leaves out two exceptions
        primes = odd_primes_upto(1000)
        prime_sets = [primes, [p for p in primes if p not in (3, 499)]]
        squares = {p: squares_mod(p) for p in primes}
        symbol = {(r, p): 1 if r in squares[p] else -1 for p in primes for r in range(1, p)}
        points = [
            RectorInvariant(1),
            RectorInvariant(-1),
            RectorInvariant(1, {499: -1, 997: -1}),
            RectorInvariant(-1, {3: 1, 5: 1, 7: 1, 11: 1, 13: 1}),
            RectorInvariant(1, {2: -1}),
            RectorInvariant(-1, {2: 1, 3: 1}),
            RectorInvariant(1, {2: -1, 3: -1, 5: -1, 7: -1, 11: -1}),
            RectorInvariant(1, {3: -1, 1009: -1}),
        ]
        for magnitude in range(1, 2001):
            for k in (magnitude, -magnitude):
                required = [(p, symbol[k % p, p]) for p in primes if k % p]
                assert forced_genus(k, 1000).forced == tuple(required)
                for tested in prime_sets:
                    skipped = tuple(p for p in tested if k % p == 0)
                    for point in points:
                        expected = Verdict("Admissible", skipped=skipped)
                        for p, sign in required:
                            if p in tested and point.lookup(p) != sign:
                                expected = Verdict(
                                    "Obstructed", p, sign, point.lookup(p), skipped=skipped
                                )
                                break
                        assert _admissible(point, k, tested) == expected, (k, point, len(tested))


class TestForcedGenus:
    def test_degree_one(self):
        report = forced_genus(1, 20)
        assert dict(report.forced) == {3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1}
        assert report.free == (2,)
        assert report.free_count_total == 1
        assert report.max_surviving == 2

    def test_degree_two(self):
        report = forced_genus(2, 10)
        assert dict(report.forced) == {3: -1, 5: -1, 7: 1}
        assert report.free == (2,)
        assert report.free_count_total == 1

    def test_degree_six(self):
        report = forced_genus(6, 10)
        assert dict(report.forced) == {5: 1, 7: -1}
        assert report.free == (2, 3)
        assert report.free_count_total == 2
        assert report.max_surviving == 4

    def test_forced_values_are_legendre_symbols(self):
        report = forced_genus(12, 60)
        for p, sign in report.forced:
            assert sign == legendre(12, p)

    def test_square_factor_invariance(self):
        for k, m in [(2, 3), (5, 2), (-3, 5)]:
            base = dict(forced_genus(k, 60).forced)
            scaled = dict(forced_genus(k * m * m, 60).forced)
            for p, sign in base.items():
                if (k * m * m) % p != 0 and m % p != 0:
                    assert scaled[p] == sign

    def test_free_and_forced_primes_match_the_oracles(self):
        # the odd primes dividing k are free, every other odd prime up to the bound is forced
        primes = [p for p in range(3, 98, 2) if trial_division_is_prime(p)]
        symbol = {(r, p): legendre_by_enumeration(r, p) for p in primes for r in range(1, p)}
        for magnitude in range(1, 2001):
            factors = trial_division_odd_prime_factors(magnitude)
            for k in (magnitude, -magnitude):
                for bound in (2, 3, 10, 97):
                    report = forced_genus(k, bound)
                    assert report.free == (2,) + tuple(q for q in factors if q <= bound)
                    assert report.forced == tuple(
                        (p, symbol[k % p, p]) for p in primes if p <= bound and p not in factors
                    )
                    assert report.free_count_total == 1 + len(factors)

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            forced_genus(0, 10)

    def test_small_bound_rejected(self):
        with pytest.raises(ValueError):
            forced_genus(1, 1)

    @pytest.mark.parametrize("k", [PRIME_TEST_CEILING, -PRIME_TEST_CEILING, 2**100])
    def test_degree_at_or_above_the_prime_test_ceiling_rejected_before_the_sieve(
        self, k, monkeypatch
    ):
        def never(bound):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr(hpgenus.obstruction, "odd_primes_upto", never)
        with pytest.raises(ValueError, match=str(PRIME_TEST_CEILING)):
            forced_genus(k, 10)

    def test_degree_just_below_the_ceiling(self):
        # 3317044064679887385961980 = 2^2 * 3^4 * 5 * 127 * 18778597 * 858557454841
        report = forced_genus(-(PRIME_TEST_CEILING - 1), 10)
        assert report.free == (2, 3, 5)
        assert report.free_count_total == 6

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

    @pytest.mark.parametrize("p", [*odd_primes_upto(101), 100003, 1000003])
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

    @pytest.mark.parametrize("p", odd_primes_upto(31))
    def test_least_degree_passing_the_primes_up_to_100_is_p_squared(self, p):
        # a check at finitely many primes, not a realized map: p^2 is a residue at every
        # other prime and p divides it, and no degree in -p^2 .. p^2 - 1 passes at all 24
        point, _ = example_xp(p)
        primes = odd_primes_upto(100)
        degrees = [k for k in range(-p * p, p * p + 1) if k]
        passes = [k for k in degrees if admissible(point, k, primes).is_admissible]
        assert passes[0] == p * p

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
            check_prime("p", p, 3)
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
