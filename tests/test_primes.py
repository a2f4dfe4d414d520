import random

import pytest

from hpgenus import primes
from hpgenus.primes import (
    _BASES,
    _PSI,
    PRIME_TEST_CEILING,
    distinct_odd_prime_factors,
    is_prime,
    odd_primes_upto,
)

from oracles import sprp, trial_division_is_prime, trial_division_odd_prime_factors


@pytest.fixture
def modular_powers(monkeypatch):
    """The arguments of every ``pow`` call ``is_prime`` makes, by a module global over the builtin."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(primes, "pow", counting_pow, raising=False)
    return calls


def test_agrees_with_trial_division_below_two_hundred_thousand():
    assert [n for n in range(-3, 200_000) if is_prime(n)] == [
        n for n in range(-3, 200_000) if trial_division_is_prime(n)
    ]


def test_odd_primes_upto_agrees_with_trial_division():
    odd_primes = [n for n in range(3, 3000) if trial_division_is_prime(n)]
    for bound in range(-2, 3000):
        assert odd_primes_upto(bound) == [q for q in odd_primes if q <= bound], bound


@pytest.mark.parametrize("bound", [b + d for b in (9, 961, 1369, 10201) for d in (-1, 0, 1)])
def test_odd_primes_upto_at_prime_squares(bound):
    # the sieve's loop ends at isqrt(bound), exactly on a prime square
    expected = [n for n in range(3, bound + 1, 2) if trial_division_is_prime(n)]
    assert odd_primes_upto(bound) == expected


@pytest.mark.parametrize("value", [True, False, 7.0, "7", None])
def test_non_integers_and_bools_are_not_prime(value):
    assert is_prime(value) is False


@pytest.mark.parametrize(
    "n",
    [
        2047,  # psi_1: strong pseudoprime to the base 2
        1373653,  # psi_2: to the bases 2, 3
        25326001,  # psi_3: to the bases 2, 3, 5
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        2152302898747,  # psi_5: to every prime base up to 11
        3474749660383,  # psi_6: to every prime base up to 13
        341550071728321,  # psi_7 = psi_8: to every prime base up to 19
        3825123056546413051,  # strong pseudoprime to every prime base up to 31
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
        56052361,  # Carmichael number 211 * 421 * 631
        118901521,  # Carmichael number 271 * 541 * 811
    ],
)
def test_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_psi_t_is_composite_and_passes_the_first_t_bases():
    # a base a < psi at which psi is no strong probable prime proves psi composite
    assert _PSI[-1] == PRIME_TEST_CEILING
    assert list(_PSI) == sorted(_PSI)
    for t, psi in enumerate(_PSI, 1):
        assert all(sprp(psi, a) for a in _BASES[:t]), t
        assert not all(sprp(psi, a) for a in range(2, 200)), t


@pytest.mark.parametrize("t", range(2, 14))
def test_agrees_with_all_thirteen_bases_in_each_band(t, modular_powers):
    # psi_(t-1) <= n < psi_t takes t bases; the bands for t = 8, 10 and 11 are empty
    low, high = _PSI[t - 2], _PSI[t - 1]
    rng = random.Random(t)
    drawn = [rng.randrange(low, high) | 1 for _ in range(300)] if low < high else []
    for n in drawn + [high - 2, high + 2]:
        if n >= PRIME_TEST_CEILING:
            with pytest.raises(ValueError, match=str(PRIME_TEST_CEILING)):
                is_prime(n)
            continue
        modular_powers.clear()
        verdict = is_prime(n)
        assert verdict == all(sprp(n, a) for a in _BASES), n
        if verdict and low <= n < high:
            assert len(modular_powers) == t, n


@pytest.mark.parametrize(
    "n, powers",
    [(1693, 1), (100003, 2), (99999999977, 5), (2**61 - 1, 9), (10**24 + 7, 13)],
)
def test_a_prime_takes_one_modular_power_per_base_its_size_needs(n, powers, modular_powers):
    assert is_prime(n)
    assert len(modular_powers) == powers


def test_accepts_a_large_mersenne_prime():
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("n", [PRIME_TEST_CEILING, 2**89 - 1])
def test_raises_at_and_above_the_ceiling(n):
    # the ceiling is the least strong pseudoprime to all thirteen bases
    with pytest.raises(ValueError, match=str(PRIME_TEST_CEILING)):
        is_prime(n)



def test_factors_agree_with_trial_division_below_twenty_thousand():
    for n in range(1, 20_000):
        expected = trial_division_odd_prime_factors(n)
        assert distinct_odd_prime_factors(n) == expected, n
        assert distinct_odd_prime_factors(-n) == expected, -n


def test_factors_agree_with_trial_division_on_seeded_draws():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 10**9)
        assert distinct_odd_prime_factors(n) == trial_division_odd_prime_factors(n), n


# two primes near 2^40, checked by trial division in the test below
_NEAR_2_40 = (1099511627791, 1099511627803)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10**24 + 7, [10**24 + 7]),
        (99991 * 1000003 * 1000033, [99991, 1000003, 1000033]),
        (561, [3, 11, 17]),  # Carmichael numbers
        (41041, [7, 11, 13, 41]),
        (1000003**2, [1000003]),
        (43**2 * 1000003**3, [43, 1000003]),
        (_NEAR_2_40[0] * _NEAR_2_40[1], list(_NEAR_2_40)),
    ],
)
def test_hard_cases(n, expected):
    for sign, twos in ((1, 0), (-1, 5)):
        assert distinct_odd_prime_factors(sign * 2**twos * n) == expected


def test_the_primes_near_two_to_the_forty_are_prime():
    assert all(trial_division_is_prime(q) for q in _NEAR_2_40)


@pytest.mark.parametrize("n", [0, 1.0, "6", None])
def test_factors_of_zero_and_non_integers_rejected(n):
    with pytest.raises(ValueError, match="^n must be a"):
        distinct_odd_prime_factors(n)


def test_a_cofactor_at_the_ceiling_cannot_be_factored():
    with pytest.raises(ValueError, match=str(PRIME_TEST_CEILING)):
        distinct_odd_prime_factors(PRIME_TEST_CEILING)
