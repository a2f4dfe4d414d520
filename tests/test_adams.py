import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from hpgenus import adams, genus
from hpgenus.adams import check_composition, check_frobenius, psi_apply, psi_generator
from hpgenus.obstruction import compatible_bruteforce
from hpgenus.series import TruncatedSeries

from oracles import pascal_binomial, psi_rows_mod_p_squared, schoolbook_compose, schoolbook_mul


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

    @pytest.mark.parametrize(
        "order, r",
        [(order, r) for order in (1, 2, 8, 40) for r in (1, 2, 5, 12, 31)]
        # the large-prime benchmark's range, at order r + 3
        + [(104, 101), (160, 157)],
    )
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
        for a, b in [(0, 3), (-2, 3), (3, 0), (3, -2)]:
            with pytest.raises(ValueError, match="Adams index must be an integer >= 1"):
                check_composition(a, b, 8)


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

    def test_generator_image_zero_in_the_ring(self):
        # mod 3 the image of t under psi^3 is 3t = 0 below t^2, so psi^3(t) is 0
        got = psi_apply(3, TruncatedSeries.monomial(2, 1).reduce(3))
        assert got.is_zero
        assert got.modulus == 3

    @pytest.mark.parametrize("modulus", [None, 9])
    def test_zero_series(self, modulus):
        zero = TruncatedSeries(6)
        if modulus is not None:
            zero = zero.reduce(modulus)
        got = psi_apply(4, zero)
        assert got.is_zero
        assert got.modulus == modulus

    def test_same_table_key_in_each_ring(self):
        f = TruncatedSeries(6, [0, 5, -4, 3])
        exact = psi_apply(7, f)
        residues = psi_apply(7, f.reduce(49))
        assert exact.modulus is None
        assert list(exact.coeffs) == schoolbook_compose(
            list(f.coeffs), list(psi_generator(7, 6).coeffs), 6
        )
        assert residues.modulus == 49
        assert residues == exact.reduce(49)
        assert psi_apply(7, f).modulus is None

    def test_residue_table_cache_is_bounded(self):
        # residue and integer tables go through the same bounded cache
        f = TruncatedSeries(5, [0, 1, 2])
        for g in (f.reduce(9), f):
            before = adams._psi_rows.cache_info()
            psi_apply(3, g)
            info = adams._psi_rows.cache_info()
            assert info.hits + info.misses == before.hits + before.misses + 1
            assert info.maxsize is not None and 1 <= info.currsize <= info.maxsize


def table_oracle(r, order, m):
    """g, g^2, ... mod m up to the first zero power, g from Pascal's triangle."""
    g = [0] + [pascal_binomial(r, n) % m for n in range(1, order)]
    rows = []
    power = g
    while any(power):
        rows.append(tuple(power))
        power = [c % m for c in schoolbook_mul(power, g, order)]
    return rows


class TestResidueTable:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
    def test_two_rows_mod_p_squared(self, p):
        rows = adams._psi_rows(p, p + 2, p * p)
        assert [row.coeffs for row in rows] == table_oracle(p, p + 2, p * p)
        assert len(rows) == 2
        assert all(row.modulus == p * p and row.order == p + 2 for row in rows)

    @pytest.mark.parametrize("r", [4, 6, 9, 12])
    @pytest.mark.parametrize("m", [1, 4, 9, 27])
    def test_against_pascal(self, r, m):
        # order 1 is the slice of 1 + t; 4, 9 and 27 divide some C(r, n)
        for order in sorted({1, 2, r, r + 1, r + 2, 2 * r}):
            rows = adams._psi_rows(r, order, m)
            assert [row.coeffs for row in rows] == table_oracle(r, order, m)
            assert all(row.modulus == m for row in rows)

    def test_cold_build_stays_in_the_ring(self):
        # the p = 10007 table mod p^2 at order p+2: every intermediate
        # coefficient stays below p^2, so the build peaks far below the
        # 9.4 MiB that the exact C(p, n) take as Python ints
        p = 10007
        tracemalloc.start()
        try:
            rows = adams._psi_rows.__wrapped__(p, p + 2, p * p)  # bypass the cache
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 2
        assert peak < 4 << 20

    # 7129 is the last prime whose residue slot at order p+2 is one 64-bit word, 7151 the
    # first whose slot is 9 bytes; the Pascal oracle is O(p^2), the closed form O(p)
    @pytest.mark.parametrize("p", [7129, 7151, 10007])
    def test_rows_match_the_closed_form(self, p):
        rows = adams._psi_rows.__wrapped__(p, p + 2, p * p)  # bypass the cache
        assert [list(row.coeffs) for row in rows] == list(psi_rows_mod_p_squared(p))
        assert all(row.modulus == p * p for row in rows)

    #: primes whose tables are read through bytes slots: every slot of 7151's reads has a
    #: zero top byte, and some slot of 10007's reads has a non-zero one
    BYTES_SLOT_PRIMES = (7151, 10007)

    @pytest.mark.parametrize("p", BYTES_SLOT_PRIMES)
    @pytest.mark.parametrize("s1, s2", [(0, 0), (0, 5), (7, 0), (7, 5), (-1, -1)])
    def test_residue_psi_apply_is_the_closed_form_rows(self, s1, s2, p):
        # psi^p(S) = S_1 g + S_2 g^2 mod p^2: the table has two rows, and a zero S_1 leaves
        # the g^2 row, whose one non-zero coefficient is at t^(p+1)
        m, n = p * p, p + 2
        rng = random.Random(p)
        coeffs = [0, s1, s2] + [rng.randrange(m) for _ in range(n - 3)]
        g, square = psi_rows_mod_p_squared(p)
        got = psi_apply(p, TruncatedSeries(n, coeffs).reduce(m))
        assert got.modulus == m
        assert list(got.coeffs) == [(s1 * a + s2 * b) % m for a, b in zip(g, square)]

    @pytest.mark.parametrize("p", BYTES_SLOT_PRIMES)
    @pytest.mark.parametrize("epsilon", [1, -1])
    @pytest.mark.parametrize("k", [2, 3, -5, 12])
    def test_routes_agree_on_the_closed_form_rows(self, k, epsilon, p):
        # the pullback is S = k t^2 + ..., so the right route's t^(p+1) coefficient is
        # S_1 g_(p+1) + S_2 (g^2)_(p+1) with S_1 = 0; the left route's is
        # 2 epsilon p k^((p+1)/2), S^p being zero at order p+2
        m = p * p
        _, square = psi_rows_mod_p_squared(p)
        f = genus.random_degree_map(random.Random(k), k, p + 2)
        rhs = k * square[p + 1] % m
        lhs = 2 * epsilon * p * pow(k, (p + 1) // 2, m) % m
        assert genus.psi_then_pullback(p, epsilon, f).coeffs[p + 1] == lhs
        assert genus.pullback_then_psi(p, f).coeffs[p + 1] == rhs
        assert compatible_bruteforce(p, epsilon, k, trials=2) is (lhs == rhs)


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
        assert check_frobenius(5, TruncatedSeries(8))

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            check_frobenius(6, TruncatedSeries(4))

    def test_seeded_sweep(self):
        rng = random.Random("frobenius")
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(60):
            n = rng.randint(2, 12)
            f = TruncatedSeries(n, [0] + [rng.randint(-9, 9) for _ in range(n - 1)])
            for p in primes:
                assert check_frobenius(p, f)
