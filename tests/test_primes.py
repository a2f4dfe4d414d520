import pytest

from hpgenus.primes import PRIME_TEST_CEILING, is_prime, odd_primes_upto

from oracles import trial_division_is_prime


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
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 31
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_accepts_a_large_mersenne_prime():
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("n", [PRIME_TEST_CEILING, 2**89 - 1])
def test_raises_at_and_above_the_ceiling(n):
    # the ceiling is the least strong pseudoprime to all thirteen bases
    with pytest.raises(ValueError, match=str(PRIME_TEST_CEILING)):
        is_prime(n)

