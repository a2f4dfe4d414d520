import random
import re

import pytest
from hypothesis import assume, given, strategies as st

from hpgenus.genus import (
    DegreeMapModel,
    RectorInvariant,
    check_sign,
    psi_then_pullback,
    pullback_then_psi,
    random_degree_map,
    sign_from_str,
)
from hpgenus.obstruction import compatible
from hpgenus.primes import odd_primes_upto
from hpgenus.series import TruncatedSeries

from oracles import psi_then_pullback_exact, pullback_then_psi_exact


class TestSigns:
    def test_round_trip(self):
        # every writer formats a sign with "+d"
        for text, sign in (("+1", 1), ("-1", -1)):
            assert sign_from_str(text) == sign
            assert f"{sign:+d}" == text

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            sign_from_str("0")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_float_signs_rejected(self, sign):
        for call in (check_sign, RectorInvariant, lambda s: compatible(3, s, 2)):
            with pytest.raises(ValueError, match="sign must be an integer"):
                call(sign)


class TestRectorInvariant:
    def test_all_plus_point(self):
        point = RectorInvariant(1, {})
        assert point.exceptions == ()
        assert point.lookup(2) == 1
        assert point.lookup(97) == 1

    def test_single_exception(self):
        point = RectorInvariant(1, {3: -1})
        assert point.lookup(3) == -1
        assert point.lookup(5) == 1
        assert point.exceptions == ((3, -1),)

    def test_default_valued_exceptions_are_dropped(self):
        assert RectorInvariant(1, {5: 1}) == RectorInvariant(1, {})

    def test_minus_default_is_allowed(self):
        point = RectorInvariant(-1, {7: 1})
        assert point.lookup(7) == 1
        assert point.lookup(11) == -1

    def test_non_prime_keys_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            RectorInvariant(1, {4: -1})
        with pytest.raises(ValueError, match="prime"):
            RectorInvariant(1, {1: -1})

    def test_pairs_build_the_same_point_as_a_mapping(self):
        assert RectorInvariant(1, ((7, -1), (3, -1))) == RectorInvariant(1, {3: -1, 7: -1})
        with pytest.raises(ValueError, match="duplicate"):
            RectorInvariant(1, ((3, -1), (3, 1)))

    def test_lookup_requires_a_prime(self):
        with pytest.raises(ValueError):
            RectorInvariant(1, {}).lookup(6)

    @pytest.mark.parametrize("start", [0, 1], ids=["with-2", "without-2"])
    @pytest.mark.parametrize("default", [1, -1])
    def test_lookup_reads_a_point_with_thousands_of_exceptions(self, default, start):
        # every other prime below 10^5, from 2 or from 3, is an exception: 4796 of them;
        # lookup must agree with a dict of the pairs at 2, at each exception, at the primes
        # between them and at primes beyond the last
        primes = [2] + odd_primes_upto(10**5)
        point = RectorInvariant(default, {p: -default for p in primes[start::2]})
        assert len(point.exceptions) == 4796
        expected = dict(point.exceptions)
        for p in primes + [100003, 100019, 10**9 + 7]:
            assert point.lookup(p) == expected.get(p, default), p

    def test_exceptions_sorted_canonically(self):
        point = RectorInvariant(1, {11: -1, 3: -1, 7: -1})
        assert point.exceptions == ((3, -1), (7, -1), (11, -1))

    def test_json_round_trip(self):
        point = RectorInvariant(1, {3: -1, 11: -1})
        doc = point.to_json_dict()
        assert doc == {"default": "+1", "exceptions": {"3": "-1", "11": "-1"}}
        assert RectorInvariant.from_json_dict(doc) == point

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            RectorInvariant.from_json_dict({"exceptions": {}})
        with pytest.raises(ValueError):
            RectorInvariant.from_json_dict({"default": "maybe"})
        with pytest.raises(ValueError, match="duplicate exception for prime 3"):
            RectorInvariant.from_json_dict(
                {"default": "+1", "exceptions": {"3": "-1", "03": "+1"}}
            )


points = st.builds(
    RectorInvariant,
    st.sampled_from([1, -1]),
    st.dictionaries(
        st.sampled_from([2] + odd_primes_upto(200)), st.sampled_from([1, -1]), max_size=6
    ),
)


class TestTextForms:
    """The inline spec and the JSON document read back what they write, and a bad key
    gets one message whichever form carries it."""

    @given(points)
    def test_spec_reads_what_it_writes(self, point):
        assert RectorInvariant.from_spec(point.to_spec()) == point

    @given(points)
    def test_json_reads_what_it_writes(self, point):
        assert RectorInvariant.from_json_dict(point.to_json_dict()) == point

    @staticmethod
    def read_spec(key):
        return RectorInvariant.from_spec(f"{key}:-1;default=+1")

    @staticmethod
    def read_json(key):
        return RectorInvariant.from_json_dict({"default": "+1", "exceptions": {key: "-1"}})

    # a key is an int that is not a bool or a string of ASCII digits; anything else reaches
    # the prime rule as it was given.  The spec strips whitespace around a part, so " 3" is
    # a JSON-only row, as are the keys that are not strings
    @pytest.mark.parametrize(
        "key",
        ["x", "3.5", "", "1_3", "+3", "\u0663", "9" * 5000],
        ids=["x", "3.5", "empty", "1_3", "+3", "arabic-indic-3", "5000-digits"],
    )
    @pytest.mark.parametrize("read", ["read_spec", "read_json"], ids=["spec", "json"])
    def test_bad_key_has_one_message(self, read, key):
        with pytest.raises(ValueError) as got:
            getattr(self, read)(key)
        assert str(got.value) == f"exception key must be a prime, got {key!r}"

    @pytest.mark.parametrize("key", [3.5, True, " 3"], ids=["float", "bool", "space-3"])
    def test_bad_json_key_is_named_as_given(self, key):
        with pytest.raises(ValueError) as got:
            self.read_json(key)
        assert str(got.value) == f"exception key must be a prime, got {key!r}"

    @pytest.mark.parametrize("read", ["read_spec", "read_json"], ids=["spec", "json"])
    def test_leading_zero_reads_as_the_prime(self, read):
        # "03" is a string of ASCII digits, so it is read; to_spec never writes one
        assert getattr(self, read)("03") == RectorInvariant(1, {3: -1})
        assert RectorInvariant.from_json_dict({"default": "+1", "exceptions": {3: "-1"}}) == (
            RectorInvariant(1, {3: -1})
        )

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda: RectorInvariant.from_spec(None), "spec must be a str, got None"),
            (lambda: RectorInvariant.from_json_dict({"default": None}), "sign must be"),
        ],
        ids=["spec-None", "json-default-None"],
    )
    def test_non_text_is_a_value_error(self, read, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read()


class TestDegreeMapModel:
    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            DegreeMapModel(0)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integer_higher_terms_rejected(self, bad):
        with pytest.raises(ValueError, match="higher coefficient must be an integer"):
            DegreeMapModel(3, (bad,))

    @pytest.mark.parametrize(
        "order, coeffs",
        [(1, (0,)), (2, (0, 0)), (3, (0, 0, 5)), (8, (0, 0, 5, 7, -2, 0, 0, 0))],
    )
    def test_series_shape(self, order, coeffs):
        assert DegreeMapModel(5, (7, -2)).as_series(order).coeffs == coeffs

    def test_higher_terms_beyond_order_are_cut(self):
        f = DegreeMapModel(1, (1, 2, 3, 4, 5, 6, 7))
        assert f.as_series(5).coeffs == (0, 0, 1, 1, 2)

    def test_negative_degree(self):
        assert DegreeMapModel(-4).as_series(4).coeffs == (0, 0, -4, 0)


class TestPsiThenPullback:
    def test_unit_degree_plus_sign(self):
        got = psi_then_pullback(3, 1, DegreeMapModel(1))
        # S = t^2: S^3 + 6 S^2 = t^6 + 6t^4, mod 9 and below t^5
        assert got.modulus == 9
        assert got == TruncatedSeries(5, [0, 0, 0, 0, 6])

    def test_sign_flip(self):
        got = psi_then_pullback(3, -1, DegreeMapModel(1))
        # t^6 - 6t^4, mod 9 and below t^5
        assert got.modulus == 9
        assert got == TruncatedSeries(5, [0, 0, 0, 0, 3])

    @pytest.mark.parametrize(
        "k, p", [(k, p) for k in (1, 2, 3, -5, 12) for p in (3, 5, 7, 11, 31, 101) if k % p]
    )
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_reduced_form_is_the_sign_weighted_power(self, k, p, epsilon):
        rng = random.Random(f"reduced:{p}:{k}:{epsilon}")
        f = random_degree_map(rng, k, p + 4)
        expected = [0] * (p + 2)
        expected[p + 1] = (2 * epsilon * p * k ** ((p + 1) // 2)) % (p * p)
        assert psi_then_pullback(p, epsilon, f).coeffs == tuple(expected)

    def test_degree_sharing_a_factor_with_p_rejected(self):
        with pytest.raises(ValueError, match="3 divides 6: the symbol would be 0"):
            psi_then_pullback(3, 1, DegreeMapModel(6))

    def test_even_or_composite_prime_rejected(self):
        with pytest.raises(ValueError, match="p must be a prime >= 3"):
            psi_then_pullback(2, 1, DegreeMapModel(1))
        with pytest.raises(ValueError, match="p must be a prime >= 3"):
            psi_then_pullback(9, 1, DegreeMapModel(1))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            psi_then_pullback(3, 0, DegreeMapModel(1))


class TestPullbackThenPsi:
    def test_unit_degree(self):
        got = pullback_then_psi(3, DegreeMapModel(1))
        # psi^3(t^2) = ((1+t)^3 - 1)^2 = 9t^2 + 18t^3 + 15t^4 + ..., mod 9 and below t^5
        assert got.modulus == 9
        assert got == TruncatedSeries(5, [0, 0, 0, 0, 6])

    def test_degree_two_reduced(self):
        got = pullback_then_psi(3, DegreeMapModel(2))
        # 2pk = 12, and 12 mod 9 = 3
        assert got.coefficient(4) == 3

    def test_even_or_composite_prime_rejected(self):
        with pytest.raises(ValueError):
            pullback_then_psi(2, DegreeMapModel(1))
        with pytest.raises(ValueError):
            pullback_then_psi(15, DegreeMapModel(1))


class TestRandomModels:
    @pytest.mark.parametrize("order", [1, 4, 7, 9, 33, 35])
    def test_draws_are_randint_draws(self, order):
        """Every slot is the value rng.randint(-9, 9) gives, and the generator
        ends in the same state."""
        rng, reference = random.Random(f"draws:{order}"), random.Random(f"draws:{order}")
        for _ in range(20):
            f = random_degree_map(rng, 2, order)
            assert f.higher == tuple(reference.randint(-9, 9) for _ in range(3, order))
        assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("count", [0, 1, 2, 5, 29, 33, 100, 155])
    def test_batched_draws_match_randrange_bit_for_bit(self, count):
        """The batched draw rests on how CPython lays out getrandbits words; a
        Python whose layout differs fails here instead of moving every stream."""
        for seed in range(300):
            rng, reference = random.Random(seed), random.Random(seed)
            f = random_degree_map(rng, 1, count + 3)
            expected = [reference.randrange(-9, 10) for _ in range(count)]
            assert list(f.higher) == expected, seed
            # the drawn model is the model the checked constructor builds from the values
            validated = DegreeMapModel(1, tuple(expected))
            assert f == validated and hash(f) == hash(validated), seed
            assert rng.getstate() == reference.getstate(), seed

    @pytest.mark.parametrize("degree", [0, True])
    def test_bad_degree_is_rejected_before_the_draw(self, degree):
        rng = random.Random("bad-degree")
        state = rng.getstate()
        with pytest.raises(ValueError, match="degree"):
            random_degree_map(rng, degree, 9)
        assert rng.getstate() == state


class TestReductionStability:
    """The reduced routes must not depend on the map's higher terms at all."""

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 3), (7, -4)])
    def test_psi_then_pullback_independent_of_unknowns(self, p, k):
        for epsilon in (1, -1):
            rng = random.Random(f"stability:{p}:{k}:{epsilon}")
            seen = {psi_then_pullback(p, epsilon, random_degree_map(rng, k, p + 4)).coeffs
                    for _ in range(200)}
            assert len(seen) == 1

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 3), (7, -4), (5, 10)])
    def test_pullback_then_psi_independent_of_higher_terms(self, p, k):
        rng = random.Random(f"stability-rhs:{p}:{k}")
        seen = {pullback_then_psi(p, random_degree_map(rng, k, p + 4)).coeffs for _ in range(200)}
        assert len(seen) == 1
        (reduced,) = seen
        assert reduced[p + 1] == (2 * p * k) % (p * p)


def _map_with_higher_terms(data, p, k):
    """A degree-k map with up to p+1 higher terms, so some lie beyond the cut."""
    return DegreeMapModel(k, tuple(data.draw(st.lists(st.integers(-99, 99), max_size=p + 1))))


class TestRoutesAgainstExactExpansion:
    """Each route equals the exact expansion over Z at order p+4 (oracles.py),
    reduced mod p^2, on every coefficient below t^(p+2)."""

    primes = st.sampled_from([3, 5, 7, 11, 31])
    degrees = st.integers(-50, 50).filter(lambda k: k != 0)

    @given(primes, degrees, st.sampled_from([1, -1]), st.data())
    def test_psi_then_pullback(self, p, k, epsilon, data):
        assume(k % p != 0)
        f = _map_with_higher_terms(data, p, k)
        exact = psi_then_pullback_exact(p, epsilon, k, list(f.higher), p + 4)
        assert psi_then_pullback(p, epsilon, f).coeffs == tuple(c % (p * p) for c in exact[: p + 2])

    @given(primes, degrees, st.data())
    def test_pullback_then_psi(self, p, k, data):
        f = _map_with_higher_terms(data, p, k)
        exact = pullback_then_psi_exact(p, k, list(f.higher), p + 4)
        assert pullback_then_psi(p, f).coeffs == tuple(c % (p * p) for c in exact[: p + 2])
