import random

import pytest
from hypothesis import given, strategies as st

from hpgenus.series import TruncatedSeries, _mul

from oracles import schoolbook_compose, schoolbook_mul, schoolbook_pow

coeffs_st = st.lists(st.integers(-99, 99), min_size=0, max_size=16)
orders_st = st.integers(1, 16)


def series_st(min_order=1, max_order=16, zero_constant=False):
    def build(draw):
        order = draw(st.integers(min_order, max_order))
        coeffs = draw(st.lists(st.integers(-99, 99), min_size=order, max_size=order))
        if zero_constant:
            coeffs[0] = 0
        return TruncatedSeries(order, coeffs)

    return st.composite(build)()


def same_order_pair_st(zero_constant=False):
    @st.composite
    def build(draw):
        order = draw(st.integers(1, 16))
        out = []
        for _ in range(2):
            coeffs = draw(st.lists(st.integers(-99, 99), min_size=order, max_size=order))
            if zero_constant:
                coeffs[0] = 0
            out.append(TruncatedSeries(order, coeffs))
        return out

    return build()


class TestConstruction:
    def test_monomial_embedding(self):
        assert TruncatedSeries(4, [0, 1]) == TruncatedSeries.monomial(4, 1)
        assert TruncatedSeries(4, [0, 1]).coeffs == (0, 1, 0, 0)

    def test_length_exceeding_order_is_an_error(self):
        with pytest.raises(ValueError):
            TruncatedSeries(4, [0, 0, 0, 0, 1])
        # even trailing zeros: no silent truncation
        with pytest.raises(ValueError):
            TruncatedSeries(4, [1, 0, 0, 0, 0])

    def test_constant_ring(self):
        f = TruncatedSeries(1, [7])
        assert f.coeffs == (7,)
        assert f * f == TruncatedSeries(1, [49])

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0, [])
        with pytest.raises(ValueError):
            TruncatedSeries(-3)

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, [1.5])

    def test_padding(self):
        assert TruncatedSeries(5, [1, 2]).coeffs == (1, 2, 0, 0, 0)


class TestAdd:
    def test_basic(self):
        t = TruncatedSeries.monomial(4, 1)
        t2 = TruncatedSeries.monomial(4, 2)
        assert t + t2 == TruncatedSeries(4, [0, 1, 1])

    def test_additive_identity(self):
        f = TruncatedSeries(4, [3, -1, 2, 9])
        assert f + TruncatedSeries.zero(4) == f

    def test_additive_inverse(self):
        t = TruncatedSeries.monomial(4, 1)
        assert t + (-t) == TruncatedSeries.zero(4)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries(4, [1]) + TruncatedSeries(5, [1])

    def test_int_constant(self):
        f = TruncatedSeries(3, [1, 2, 3])
        assert f + 4 == TruncatedSeries(3, [5, 2, 3])
        assert 4 + f == f + 4


class TestMul:
    def test_difference_of_squares(self):
        one_plus = TruncatedSeries(4, [1, 1])
        one_minus = TruncatedSeries(4, [1, -1])
        assert one_plus * one_minus == TruncatedSeries(4, [1, 0, -1])

    def test_truncation(self):
        t2 = TruncatedSeries.monomial(4, 2)
        t3 = TruncatedSeries.monomial(4, 3)
        assert (t2 * t3).is_zero

    def test_square_frozen_value(self):
        # (3t + 3t^2 + t^3)^2 expanded by hand: 9t^2 + 18t^3 + 15t^4 + 6t^5 + t^6
        f = TruncatedSeries(7, [0, 3, 3, 1])
        assert f * f == TruncatedSeries(7, [0, 0, 9, 18, 15, 6, 1])

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries(4, [1]) * TruncatedSeries(3, [1])

    def test_scalar(self):
        f = TruncatedSeries(3, [1, -2, 3])
        assert f * 3 == TruncatedSeries(3, [3, -6, 9])
        assert 3 * f == f * 3

    @given(same_order_pair_st())
    def test_matches_schoolbook_oracle(self, pair):
        a, b = pair
        expected = schoolbook_mul(list(a.coeffs), list(b.coeffs), a.order)
        assert (a * b).coeffs == tuple(expected)


class TestPow:
    def test_small_cases(self):
        f = TruncatedSeries(5, [1, 1])
        assert f**0 == TruncatedSeries.one(5)
        assert f**1 == f
        assert f**4 == TruncatedSeries(5, [1, 4, 6, 4, 1])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, [1, 1]) ** -1

    @given(series_st(max_order=10), st.integers(0, 9))
    def test_matches_repeated_mul(self, f, e):
        expected = TruncatedSeries.one(f.order)
        for _ in range(e):
            expected = expected * f
        assert f**e == expected


class TestCompose:
    def test_square_substitution(self):
        f = TruncatedSeries.monomial(5, 2)
        g = TruncatedSeries(5, [0, 2, 1])
        assert f.compose(g) == TruncatedSeries(5, [0, 0, 4, 4, 1])

    def test_identity_substitution(self):
        f = TruncatedSeries(6, [0, 5, -2, 0, 7, 1])
        t = TruncatedSeries.monomial(6, 1)
        assert f.compose(t) == f
        g = TruncatedSeries(6, [0, 3, 0, -4])
        assert t.compose(g) == g

    def test_nonzero_constant_term_rejected(self):
        f = TruncatedSeries(4, [0, 1])
        with pytest.raises(ValueError, match="constant term"):
            f.compose(TruncatedSeries(4, [1, 1]))

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries(4, [0, 1]).compose(TruncatedSeries(5, [0, 1]))

    @given(same_order_pair_st(zero_constant=True))
    def test_matches_schoolbook_oracle(self, pair):
        f, g = pair
        expected = schoolbook_compose(list(f.coeffs), list(g.coeffs), f.order)
        assert f.compose(g).coeffs == tuple(expected)

    def test_associativity_seeded_sweep(self):
        rng = random.Random("compose-assoc")
        for _ in range(300):
            n = rng.randint(1, 12)
            f, g, h = (
                TruncatedSeries(n, [0] + [rng.randint(-9, 9) for _ in range(n - 1)])
                for _ in range(3)
            )
            assert f.compose(g).compose(h) == f.compose(g.compose(h))


class TestCoefficient:
    def test_binomial(self):
        f = TruncatedSeries(4, [1, 1]) ** 3 - TruncatedSeries.one(4)
        assert f.coefficient(2) == 3

    def test_from_mul_example(self):
        f = TruncatedSeries(7, [0, 3, 3, 1]) ** 2
        assert f.coefficient(4) == 15

    def test_zero_series(self):
        assert TruncatedSeries.zero(5).coefficient(3) == 0

    def test_out_of_range(self):
        f = TruncatedSeries(4, [1])
        with pytest.raises(ValueError):
            f.coefficient(4)
        with pytest.raises(ValueError):
            f.coefficient(-1)

    def test_getitem(self):
        f = TruncatedSeries(4, [5, 6, 7])
        assert f[1] == 6


class TestReduce:
    def test_zero_modulus_rejected(self):
        f = TruncatedSeries(3, [1])
        with pytest.raises(ValueError):
            f.reduce(0)
        with pytest.raises(ValueError):
            f.reduce(-5)

    def test_modulus_only(self):
        f = TruncatedSeries(4, [-1, 5, 9, -10])
        assert f.reduce(modulus=7) == TruncatedSeries(4, [6, 5, 2, 4])

    def test_canonical_residues(self):
        f = TruncatedSeries(3, [-1, -14, 20])
        assert all(0 <= c < 9 for c in f.reduce(9).coeffs)

    @given(series_st(), st.integers(1, 60))
    def test_idempotent(self, f, m):
        once = f.reduce(m)
        assert once.reduce(m) == once

    @given(same_order_pair_st(), st.integers(1, 60))
    def test_commutes_with_add_and_mul(self, pair, m):
        a, b = pair

        def red(x):
            return x.reduce(m)

        assert red(a + b) == red(red(a) + red(b))
        assert red(a * b) == red(red(a) * red(b))


#: Moduli on both sides of the kernel's 64-bit slot: residue products of
#: order n are held exactly when n * (m - 1)^2 < 2^64, so 2^32 - 5 fits at
#: low orders and 2^32 + 15 never does.
MODULI = [1, 2, 9, 961, 2**16 + 1, 2**32 - 5, 2**32 + 15, 2**64 + 13]

#: Signed coefficients on both sides of 2^64.
wide_ints = st.one_of(
    st.integers(-9, 9),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
    st.integers(-(2**200), 2**200),
)


def coefficient_lists(order, elements=wide_ints):
    return st.lists(elements, min_size=order, max_size=order)


class TestKernel:
    """The packed-integer kernel against the index-loop oracles."""

    @given(st.integers(1, 12), st.data())
    def test_signed_coefficients_match_schoolbook(self, order, data):
        a = data.draw(coefficient_lists(order))
        b = data.draw(coefficient_lists(order))
        assert _mul(a, b, order) == schoolbook_mul(a, b, order)
        assert _mul(a, a, order) == schoolbook_mul(a, a, order)
        product = TruncatedSeries(order, a) * TruncatedSeries(order, b)
        assert list(product.coeffs) == schoolbook_mul(a, b, order)

    @given(st.integers(1, 8), st.integers(0, 7), st.data())
    def test_signed_powers_match_schoolbook(self, order, e, data):
        a = data.draw(coefficient_lists(order))
        assert list((TruncatedSeries(order, a) ** e).coeffs) == schoolbook_pow(a, e, order)

    def test_order_one(self):
        a, b = -(2**70) - 3, 2**65 + 1
        assert TruncatedSeries(1, [a]) * TruncatedSeries(1, [b]) == TruncatedSeries(1, [a * b])
        assert TruncatedSeries(1, [a]) ** 3 == TruncatedSeries(1, [a**3])
        m = 2**32 + 15
        assert TruncatedSeries(1, [a]).reduce(m) ** 5 == TruncatedSeries(1, [pow(a, 5, m)])

    def test_leading_zeros_and_zero_factors(self):
        # t^3 * t^4 at order 7 is zero; a zero factor gives zero
        assert _mul([0, 0, 0, 5, 0, 0, 0], [0, 0, 0, 0, 2, 0, 0], 7) == [0] * 7
        assert _mul([0, 0, -3, 1], [0, 7, 0, 0], 4) == [0, 0, 0, -21]
        assert _mul([0, 0, 0], [1, 2, 3], 3, 9) == [0, 0, 0]

    @given(st.integers(1, 12), st.sampled_from(MODULI), st.data())
    def test_residue_products_match_schoolbook(self, order, m, data):
        a = data.draw(coefficient_lists(order))
        b = data.draw(coefficient_lists(order))
        ra, rb = TruncatedSeries(order, a).reduce(m), TruncatedSeries(order, b).reduce(m)
        expected = [c % m for c in schoolbook_mul(a, b, order)]
        product = ra * rb
        assert product.modulus == m
        assert list(product.coeffs) == expected
        assert _mul(ra.coeffs, rb.coeffs, order, m) == expected
        assert list((ra * ra).coeffs) == [c % m for c in schoolbook_mul(a, a, order)]

    @given(st.integers(1, 8), st.sampled_from(MODULI), st.integers(0, 9), st.data())
    def test_residue_powers_match_schoolbook(self, order, m, e, data):
        a = data.draw(coefficient_lists(order))
        power = TruncatedSeries(order, a).reduce(m) ** e
        assert power.modulus == m
        assert list(power.coeffs) == [c % m for c in schoolbook_pow(a, e, order)]

    @given(st.sampled_from(MODULI), same_order_pair_st(zero_constant=True))
    def test_residue_compose_matches_schoolbook(self, m, pair):
        f, g = pair
        got = f.reduce(m).compose(g.reduce(m))
        assert got.modulus == m
        assert list(got.coeffs) == [
            c % m for c in schoolbook_compose(list(f.coeffs), list(g.coeffs), f.order)
        ]

    def test_residue_ring_operations_stay_reduced(self):
        f = TruncatedSeries(4, [5, -3, 8, 1]).reduce(9)
        for got in (f + 7, f - 20, -f, f * -4, 11 * f, f + f, f - f, f**2, 3 - f):
            assert got.modulus == 9
            assert all(0 <= c < 9 for c in got.coeffs)
        assert f + 7 == TruncatedSeries(4, [3, 6, 8, 1])

    def test_mixed_moduli_rejected(self):
        f = TruncatedSeries(4, [1, 2, 3, 4])
        g = TruncatedSeries(4, [0, 1, 1, 0])
        for a, b in ((f.reduce(9), f.reduce(7)), (f.reduce(9), f), (f, f.reduce(9))):
            with pytest.raises(ValueError, match="modulus mismatch"):
                a + b
            with pytest.raises(ValueError, match="modulus mismatch"):
                a * b
            with pytest.raises(ValueError, match="modulus mismatch"):
                a - b
        with pytest.raises(ValueError, match="modulus mismatch"):
            f.reduce(9).compose(g)

    def test_reduce_keeps_the_modulus(self):
        f = TruncatedSeries(3, [-1, 10, 82])
        residues = f.reduce(9)
        assert residues.modulus == 9
        assert residues.reduce(9) is residues
        assert f.reduce(9).reduce(3) == f.reduce(3)
        assert f.reduce(9).reduce(3).modulus == 3
        with pytest.raises(ValueError, match="cannot reduce"):
            f.reduce(9).reduce(7)
        assert f.modulus is None

    def test_repr_round_trips(self):
        f = TruncatedSeries(3, [-1, 10, 82]).reduce(9)
        assert repr(f) == "TruncatedSeries(3, [8, 1, 1]).reduce(9)"
        assert str(f) == "8 + t + t^2 + O(t^3) mod 9"


class TestCombination:
    """``combination`` against the sum of scalar products it replaces."""

    @staticmethod
    def scalar_products(order, modulus, scalars, terms):
        zero = TruncatedSeries.zero(order)
        total = zero if modulus is None else zero.reduce(modulus)
        for c, term in zip(scalars, terms):
            total = total + c * term
        return total

    @given(st.integers(1, 12), st.sampled_from([None] + MODULI), st.data())
    def test_matches_the_sum_of_scalar_products(self, order, m, data):
        count = data.draw(st.integers(0, 5))
        terms = [TruncatedSeries(order, data.draw(coefficient_lists(order))) for _ in range(count)]
        if m is not None:
            terms = [term.reduce(m) for term in terms]
        scalars = data.draw(
            st.lists(st.one_of(st.just(0), wide_ints), min_size=count, max_size=count)
        )
        got = TruncatedSeries.combination(order, m, scalars, terms)
        expected = self.scalar_products(order, m, scalars, terms)
        assert got == expected
        assert got.modulus == m

    @pytest.mark.parametrize("m", [None, 9])
    def test_no_surviving_term_is_zero_in_the_ring(self, m):
        f = TruncatedSeries(4, [1, 2, 3, 4])
        terms = [f, f] if m is None else [f.reduce(m), f.reduce(m)]
        for scalars in ([], [0, 0], [0]):
            got = TruncatedSeries.combination(4, m, scalars, terms)
            assert got == TruncatedSeries.zero(4) and got.modulus == m
        # terms survive the scalars but cancel mod m, or over Z
        got = TruncatedSeries.combination(4, m, [3, -3], terms)
        assert got.is_zero and got.modulus == m
        if m is not None:
            got = TruncatedSeries.combination(4, m, [9, 18], terms)
            assert got.is_zero and got.modulus == m

    def test_zip_stops_at_the_shorter_input(self):
        f = TruncatedSeries(3, [1, 1, 1])
        assert TruncatedSeries.combination(3, None, [2, 5, 7], [f]) == 2 * f
        assert TruncatedSeries.combination(3, None, [2], [f, f, f]) == 2 * f

    def test_terms_outside_the_ring_rejected(self):
        f = TruncatedSeries(4, [1, 2])
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries.combination(5, None, [1], [f])
        with pytest.raises(ValueError, match="modulus mismatch"):
            TruncatedSeries.combination(4, 9, [1], [f])
        with pytest.raises(ValueError, match="scalars must be integers"):
            TruncatedSeries.combination(4, None, [1.5], [f])


class TestRingAxioms:
    def test_seeded_random_triples(self):
        # at least 1000 random triples across orders 1..16, all axioms exact
        rng = random.Random("ring-axioms")
        for _ in range(1000):
            n = rng.randint(1, 16)
            a, b, c = (
                TruncatedSeries(n, [rng.randint(-99, 99) for _ in range(n)]) for _ in range(3)
            )
            zero = TruncatedSeries.zero(n)
            one = TruncatedSeries.one(n)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert a + (-a) == zero
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * one == a
            assert a * (b + c) == a * b + a * c


class TestValueSemantics:
    def test_operations_do_not_mutate(self):
        a = TruncatedSeries(4, [1, 2, 3, 4])
        b = TruncatedSeries(4, [4, 3, 2, 1])
        snapshot_a, snapshot_b = a.coeffs, b.coeffs
        a + b, a * b, -a, a - b, a**3, a.reduce(5)
        assert a.coeffs == snapshot_a and b.coeffs == snapshot_b

    def test_equality_and_hash(self):
        a = TruncatedSeries(4, [1, 2])
        b = TruncatedSeries(4, [1, 2, 0, 0])
        assert a == b and hash(a) == hash(b)
        assert a != TruncatedSeries(5, [1, 2])
        assert a != TruncatedSeries(4, [1, 2, 1])

    def test_str(self):
        assert str(TruncatedSeries(4, [0, 2, 0, -1])) == "2*t - t^3 + O(t^4)"
        assert str(TruncatedSeries.zero(3)) == "0 + O(t^3)"
