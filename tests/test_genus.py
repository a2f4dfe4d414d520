import random

import pytest
from hypothesis import assume, given, strategies as st

from hpgenus.genus import (
    DegreeMapModel,
    GenusPsiModel,
    RectorInvariant,
    make_genus,
    psi_then_pullback,
    pullback_then_psi,
    random_degree_map,
    random_psi_model,
    sign_from_str,
    sign_to_str,
)
from hpgenus.series import TruncatedSeries


class TestSigns:
    def test_round_trip(self):
        assert sign_from_str("+1") == 1
        assert sign_from_str("-1") == -1
        assert sign_to_str(1) == "+1"
        assert sign_to_str(-1) == "-1"

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            sign_from_str("0")
        with pytest.raises(ValueError):
            sign_to_str(2)


class TestRectorInvariant:
    def test_all_plus_point(self):
        point = make_genus(1, {})
        assert point.exceptions == ()
        assert point.lookup(2) == 1
        assert point.lookup(97) == 1

    def test_single_exception(self):
        point = make_genus(1, {3: -1})
        assert point.lookup(3) == -1
        assert point.lookup(5) == 1
        assert point.exceptions == ((3, -1),)

    def test_default_valued_exceptions_are_dropped(self):
        assert make_genus(1, {5: 1}) == make_genus(1, {})

    def test_minus_default_is_allowed(self):
        point = make_genus(-1, {7: 1})
        assert point.lookup(7) == 1
        assert point.lookup(11) == -1

    def test_non_prime_keys_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            make_genus(1, {4: -1})
        with pytest.raises(ValueError, match="prime"):
            make_genus(1, {1: -1})

    def test_lookup_requires_a_prime(self):
        with pytest.raises(ValueError):
            make_genus(1, {}).lookup(6)

    def test_exceptions_sorted_canonically(self):
        point = make_genus(1, {11: -1, 3: -1, 7: -1})
        assert point.exceptions == ((3, -1), (7, -1), (11, -1))

    def test_json_round_trip(self):
        point = make_genus(1, {3: -1, 11: -1})
        doc = point.to_json_dict()
        assert doc == {"default": "+1", "exceptions": {"3": "-1", "11": "-1"}}
        assert RectorInvariant.from_json_dict(doc) == point

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            RectorInvariant.from_json_dict({"exceptions": {}})
        with pytest.raises(ValueError):
            RectorInvariant.from_json_dict({"default": "maybe"})


class TestDegreeMapModel:
    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            DegreeMapModel(0)

    def test_series_shape(self):
        f = DegreeMapModel(5, (7, -2))
        s = f.as_series(8)
        assert s.coeffs == (0, 0, 5, 7, -2, 0, 0, 0)

    def test_higher_terms_beyond_order_are_cut(self):
        f = DegreeMapModel(1, (1, 2, 3, 4, 5, 6, 7))
        assert f.as_series(5).coeffs == (0, 0, 1, 1, 2)

    def test_negative_degree(self):
        assert DegreeMapModel(-4).as_series(4).coeffs == (0, 0, -4, 0)


class TestGenusPsiModel:
    def test_filtration_constraints_enforced(self):
        order = 8
        # p = 3: w must vanish up to and including t^4
        bad_w = TruncatedSeries.monomial(order, 4)
        with pytest.raises(ValueError, match="w_image"):
            GenusPsiModel(3, 1, bad_w)

    def test_valid_unknowns_accepted(self):
        order = 8
        w = TruncatedSeries.monomial(order, 5)  # filtration 10 >= 9
        model = GenusPsiModel(3, -1, w)
        assert model.epsilon == -1

    def test_even_or_composite_prime_rejected(self):
        zero = TruncatedSeries.zero(8)
        with pytest.raises(ValueError):
            GenusPsiModel(2, 1, zero)
        with pytest.raises(ValueError):
            GenusPsiModel(9, 1, zero)


class TestPsiThenPullback:
    def test_unit_degree_plus_sign(self):
        model = GenusPsiModel.with_zero_unknowns(3, 1, 7)
        got = psi_then_pullback(model, DegreeMapModel(1), 7)
        # S = t^2: S^3 + 6 S^2 = t^6 + 6t^4, mod 9
        assert got.modulus == 9
        assert got == TruncatedSeries(7, [0, 0, 0, 0, 6, 0, 1])

    def test_sign_flip(self):
        model = GenusPsiModel.with_zero_unknowns(3, -1, 7)
        got = psi_then_pullback(model, DegreeMapModel(1), 7)
        # t^6 - 6t^4, mod 9
        assert got.modulus == 9
        assert got == TruncatedSeries(7, [0, 0, 0, 0, 3, 0, 1])

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("k", [1, 2, 3, -5, 12])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_reduced_form_is_the_sign_weighted_power(self, p, k, epsilon):
        if k % p == 0:
            pytest.skip("degree must be coprime to p")
        order = p + 4
        rng = random.Random(f"reduced:{p}:{k}:{epsilon}")
        f = random_degree_map(rng, k, order)
        model = random_psi_model(rng, p, epsilon, order)
        reduced = psi_then_pullback(model, f, order).reduce(p * p).coeffs[: p + 2]
        expected = [0] * (p + 2)
        expected[p + 1] = (2 * epsilon * p * k ** ((p + 1) // 2)) % (p * p)
        assert reduced == tuple(expected)

    def test_degree_sharing_a_factor_with_p_rejected(self):
        model = GenusPsiModel.with_zero_unknowns(3, 1, 7)
        with pytest.raises(ValueError, match="3 divides 6: the symbol would be 0"):
            psi_then_pullback(model, DegreeMapModel(6), 7)

    def test_order_too_small_rejected(self):
        model = GenusPsiModel.with_zero_unknowns(3, 1, 4)
        with pytest.raises(ValueError, match="order"):
            psi_then_pullback(model, DegreeMapModel(1), 4)

    def test_unknowns_must_match_working_order(self):
        model = GenusPsiModel.with_zero_unknowns(3, 1, 7)
        f = DegreeMapModel(1)
        with pytest.raises(ValueError, match="working order"):
            psi_then_pullback(model, f, 8)


class TestPullbackThenPsi:
    def test_unit_degree(self):
        got = pullback_then_psi(3, DegreeMapModel(1), 7)
        # psi^3(t^2) = ((1+t)^3 - 1)^2 = 9t^2 + 18t^3 + 15t^4 + 6t^5 + t^6, mod 9
        assert got.modulus == 9
        assert got == TruncatedSeries(7, [0, 0, 0, 0, 6, 6, 1])

    def test_unit_degree_reduced(self):
        got = pullback_then_psi(3, DegreeMapModel(1), 7).reduce(9)
        assert got.coeffs[:5] == (0, 0, 0, 0, 6)

    def test_degree_two_reduced(self):
        got = pullback_then_psi(3, DegreeMapModel(2), 7).reduce(9)
        # 2pk = 12, and 12 mod 9 = 3
        assert got.coefficient(4) == 3

    def test_even_or_composite_prime_rejected(self):
        with pytest.raises(ValueError):
            pullback_then_psi(2, DegreeMapModel(1), 8)
        with pytest.raises(ValueError):
            pullback_then_psi(15, DegreeMapModel(1), 20)

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError, match="order"):
            pullback_then_psi(5, DegreeMapModel(1), 6)


class TestRandomModels:
    @pytest.mark.parametrize("p,order", [(3, 1), (3, 4), (3, 7), (5, 9), (31, 33), (31, 35)])
    def test_draws_are_randint_draws(self, p, order):
        """Every slot is the value rng.randint(-9, 9) gives, in the fixed draw
        order (map, then w), and the generator ends in the same state."""
        rng, reference = random.Random(f"draws:{p}:{order}"), random.Random(f"draws:{p}:{order}")
        for _ in range(20):
            f = random_degree_map(rng, 2, order)
            model = random_psi_model(rng, p, -1, order)
            higher = [reference.randint(-9, 9) for _ in range(3, order)]
            w = [0] * order
            for n in range(p + 2, order):
                w[n] = reference.randint(-9, 9)
            assert f.higher == tuple(higher)
            assert model.w_image.coeffs == tuple(w)
        assert rng.getstate() == reference.getstate()


class TestReductionStability:
    """The reduced routes must not depend on the unknown terms at all."""

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 3), (7, -4)])
    def test_psi_then_pullback_independent_of_unknowns(self, p, k):
        order = p + 4
        for epsilon in (1, -1):
            rng = random.Random(f"stability:{p}:{k}:{epsilon}")
            seen = set()
            for _ in range(200):
                f = random_degree_map(rng, k, order)
                model = random_psi_model(rng, p, epsilon, order)
                seen.add(psi_then_pullback(model, f, order).reduce(p * p).coeffs[: p + 2])
            assert len(seen) == 1

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 3), (7, -4), (5, 10)])
    def test_pullback_then_psi_independent_of_higher_terms(self, p, k):
        order = p + 4
        rng = random.Random(f"stability-rhs:{p}:{k}")
        seen = set()
        for _ in range(200):
            f = random_degree_map(rng, k, order)
            seen.add(pullback_then_psi(p, f, order).reduce(p * p).coeffs[: p + 2])
        assert len(seen) == 1
        (reduced,) = seen
        assert reduced[p + 1] == (2 * p * k) % (p * p)

    @given(
        st.sampled_from([3, 5, 7, 11, 31]),
        st.integers(-50, 50).filter(lambda k: k != 0),
        st.sampled_from([1, -1]),
        st.data(),
    )
    def test_t_p_plus_1_coefficient_is_read_at_order_p_plus_2(self, p, k, epsilon, data):
        """Both routes give the same t^(p+1) coefficient at order p+4 as at
        order p+2 on the truncated map and w_image."""
        assume(k % p != 0)
        wide, narrow = p + 4, p + 2

        def draw(n):
            return data.draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n))

        f = DegreeMapModel(k, tuple(draw(wide - 3)))
        w = TruncatedSeries(wide, [0] * narrow + draw(wide - narrow))
        model = GenusPsiModel(p, epsilon, w)
        truncated = GenusPsiModel(p, epsilon, TruncatedSeries.zero(narrow))
        assert psi_then_pullback(model, f, wide).coefficient(p + 1) == psi_then_pullback(
            truncated, f, narrow
        ).coefficient(p + 1)
        assert pullback_then_psi(p, f, wide).coefficient(p + 1) == pullback_then_psi(
            p, f, narrow
        ).coefficient(p + 1)
