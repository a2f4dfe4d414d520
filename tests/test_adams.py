import random

import pytest
from hypothesis import given, strategies as st

from hpgenus import adams
from hpgenus.adams import check_composition, check_frobenius, psi_apply, psi_generator
from hpgenus.series import TruncatedSeries

from oracles import pascal_binomial, schoolbook_compose


def reduced_series_st(max_order=16):
    @st.composite
    def build(draw):
        order = draw(st.integers(2, max_order))
        coeffs = [0] + draw(
            st.lists(st.integers(-9, 9), min_size=order - 1, max_size=order - 1)
        )
        return TruncatedSeries(order, coeffs)

    return build()


def reduced_pair_st(max_order=12):
    @st.composite
    def build(draw):
        order = draw(st.integers(2, max_order))
        out = []
        for _ in range(2):
            coeffs = [0] + draw(
                st.lists(st.integers(-9, 9), min_size=order - 1, max_size=order - 1)
            )
            out.append(TruncatedSeries(order, coeffs))
        return out

    return build()


class TestGenerator:
    def test_squaring_index(self):
        assert psi_generator(2, 4) == TruncatedSeries(4, [0, 2, 1])

    def test_identity_index(self):
        assert psi_generator(1, 4) == TruncatedSeries.monomial(4, 1)

    def test_cubing_index_against_pascal(self):
        g = psi_generator(3, 4)
        assert g == TruncatedSeries(4, [0, 3, 3, 1])
        assert g.coeffs == tuple(
            pascal_binomial(3, n) if n else 0 for n in range(4)
        )

    @pytest.mark.parametrize("r", [1, 2, 5, 12, 31])
    @pytest.mark.parametrize("order", [1, 2, 8, 40])
    def test_shape(self, r, order):
        g = psi_generator(r, order)
        assert g.order == order
        assert g.coefficient(0) == 0
        if order > 1:
            assert g.coefficient(1) == r
        for n in range(1, order):
            assert g.coefficient(n) == pascal_binomial(r, n)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            psi_generator(0, 4)
        with pytest.raises(ValueError):
            psi_generator(-2, 4)


class TestApply:
    def test_on_square_of_generator(self):
        # psi^3(t^2) = ((1+t)^3 - 1)^2
        got = psi_apply(3, TruncatedSeries.monomial(7, 2))
        assert got == TruncatedSeries(7, [0, 0, 9, 18, 15, 6, 1])

    def test_identity(self):
        f = TruncatedSeries(6, [0, 4, -2, 0, 3, 1])
        assert psi_apply(1, f) == f

    def test_on_generator(self):
        assert psi_apply(2, TruncatedSeries.monomial(4, 1)) == TruncatedSeries(4, [0, 2, 1])

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            psi_apply(2, TruncatedSeries(4, [1, 1]))

    @given(st.integers(1, 9), reduced_series_st())
    def test_agrees_with_direct_composition(self, r, f):
        # the cached power table must be invisible: same value as compose
        assert psi_apply(r, f) == f.compose(psi_generator(r, f.order))

    @given(st.integers(1, 9), reduced_pair_st())
    def test_additive_and_multiplicative(self, r, pair):
        f, g = pair
        assert psi_apply(r, f + g) == psi_apply(r, f) + psi_apply(r, g)
        assert psi_apply(r, f * g) == psi_apply(r, f) * psi_apply(r, g)

    @given(st.integers(1, 40), reduced_series_st(24))
    def test_matches_schoolbook_composition(self, r, f):
        g = psi_generator(r, f.order)
        assert list(psi_apply(r, f).coeffs) == schoolbook_compose(
            list(f.coeffs), list(g.coeffs), f.order
        )

    @given(
        st.integers(1, 40),
        reduced_series_st(24),
        st.sampled_from([1, 2, 9, 961, 2**16 + 1, 2**32 - 5, 2**32 + 15, 2**64 + 13]),
    )
    def test_commutes_with_reduction(self, r, f, m):
        reduced = psi_apply(r, f.reduce(m))
        assert reduced.modulus == m
        assert reduced == psi_apply(r, f).reduce(m)

    def test_residue_table_cache_is_bounded(self):
        psi_apply(3, TruncatedSeries(5, [0, 1, 2]).reduce(9))
        info = adams._psi_rows.cache_info()
        assert info.currsize >= 1
        assert info.maxsize is not None and info.currsize <= info.maxsize


class TestCompositionLaw:
    def test_two_after_three(self):
        assert check_composition(2, 3, 16)

    def test_one_is_neutral(self):
        for k in (1, 4, 9):
            assert check_composition(1, k, 12)
            assert check_composition(k, 1, 12)

    def test_five_after_five(self):
        assert check_composition(5, 5, 32)

    def test_full_small_grid(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert check_composition(a, b, 20)


class TestFrobenius:
    def test_p3_on_generator(self):
        # (1+t)^3 - 1 = 3t + 3t^2 + t^3, congruent to t^3 mod 3
        assert check_frobenius(3, TruncatedSeries.monomial(6, 1))

    def test_p2_on_square(self):
        # (2t + t^2)^2 = 4t^2 + 4t^3 + t^4, congruent to t^4 mod 2
        assert check_frobenius(2, TruncatedSeries.monomial(6, 2))

    def test_zero_series(self):
        assert check_frobenius(5, TruncatedSeries.zero(8))

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            check_frobenius(6, TruncatedSeries.zero(4))

    def test_seeded_sweep(self):
        rng = random.Random("frobenius")
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(60):
            n = rng.randint(2, 12)
            f = TruncatedSeries(n, [0] + [rng.randint(-9, 9) for _ in range(n - 1)])
            for p in primes:
                assert check_frobenius(p, f)
