"""Every integer argument of the library goes through ``series.check_int``.

Each call site is fed a bool, a float, None and, where it has a floor, the
integer just below the floor and the float just above it.  Each must raise
``ValueError`` naming the argument, before any work is done.  The arguments
that must be iterable, or a series, get the same contract for an int, and
the calls that once raised ``TypeError`` or ``AttributeError``, or returned,
each have a row of their own.
"""

import random
import re

import pytest

from hpgenus import selftest
from hpgenus.adams import check_composition, check_frobenius, psi_apply, psi_generator
from hpgenus.genus import (
    DegreeMapModel,
    RectorInvariant,
    check_degree,
    check_sign,
    pullback_then_psi,
    psi_then_pullback,
    random_degree_map,
)
from hpgenus.obstruction import admissible, compatible_bruteforce, forced_genus
from hpgenus.primes import distinct_odd_prime_factors, odd_primes_upto
# bound here, not looked up in selftest: the no_suite fixture replaces selftest.ring_axiom_suite
from hpgenus.selftest import adams_law_suite, frobenius_suite, ring_axiom_suite
from hpgenus.series import TruncatedSeries

F = TruncatedSeries(4, [0, 1, 2])

#: (site, the argument's name in the message, a call taking the value, its floor or None)
SITES = [
    ("order", "order", lambda v: TruncatedSeries(v), 1),
    ("coefficients", "coefficient", lambda v: TruncatedSeries(2, [v]), None),
    ("reduce", "modulus", lambda v: F.reduce(v), 1),
    ("monomial", "monomial degree", lambda v: TruncatedSeries.monomial(4, v), 0),
    ("coefficient", "coefficient index", lambda v: F.coefficient(v), 0),
    ("pow", "exponent", lambda v: F**v, 0),
    ("psi_generator", "Adams index", lambda v: psi_generator(v, 4), 1),
    ("psi_apply", "Adams index", lambda v: psi_apply(v, F), 1),
    ("check_sign", "sign", check_sign, None),
    ("check_degree", "degree", check_degree, None),
    ("higher", "higher coefficient", lambda v: DegreeMapModel(3, (v,)), None),
    ("factors", "n", distinct_odd_prime_factors, None),
    ("odd_primes_upto", "bound", odd_primes_upto, None),
    ("forced_genus", "bound", lambda v: forced_genus(5, v), 2),
    ("bruteforce-trials", "trials", lambda v: compatible_bruteforce(3, 1, 2, trials=v), 1),
    ("bruteforce-seed", "seed", lambda v: compatible_bruteforce(3, 1, 2, trials=1, seed=v), None),
    ("run_all-max_prime", "max_prime", lambda v: selftest.run_all(max_prime=v), 3),
    ("run_all-max_degree", "max_degree", lambda v: selftest.run_all(max_degree=v), 1),
    ("run_all-trials", "trials", lambda v: selftest.run_all(trials=v), 1),
    ("run_all-seed", "seed", lambda v: selftest.run_all(seed=v), None),
    ("lemma-max_degree", "max_degree", lambda v: selftest.lemma_equivalence_suite(3, v, 1), 1),
    ("ring-seed", "seed", ring_axiom_suite, None),
    ("adams-seed", "seed", adams_law_suite, None),
    ("frobenius-max_prime", "max_prime", frobenius_suite, None),
    ("frobenius-seed", "seed", lambda v: frobenius_suite(3, v), None),
]


def _bad_values(floor):
    if floor is None:
        return [True, 1.5, None]
    return [True, 1.5, None, floor - 1] + ([floor + 0.5] if floor != 1 else [])


CASES = [
    pytest.param(name, call, bad, id=f"{site}-{bad!r}")
    for site, name, call, floor in SITES
    for bad in _bad_values(floor)
]


@pytest.mark.parametrize("name, call, bad", CASES)
def test_rejects_non_integers_and_values_below_the_floor(no_suite, name, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
        call(bad)


#: (the start of its message, a call given an int where it needs an iterable or a series)
NOT_ITERABLE = [
    pytest.param(
        "exceptions must be iterable", lambda: RectorInvariant(1, 5), id="RectorInvariant"
    ),
    pytest.param("higher must be iterable", lambda: DegreeMapModel(1, 5), id="DegreeMapModel"),
    pytest.param(
        "primes must be iterable", lambda: admissible(RectorInvariant(1), 5, 3), id="admissible"
    ),
    pytest.param(
        "f must be a TruncatedSeries with zero constant term",
        lambda: check_frobenius(3, 5),
        id="check_frobenius",
    ),
]


@pytest.mark.parametrize("message, call", NOT_ITERABLE)
def test_rejects_an_int_where_an_iterable_or_a_series_belongs(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


POINT = RectorInvariant(1)
SERIES = "f must be a TruncatedSeries with zero constant term"

#: (the start of its message, a call that raised another error, or returned, before
#: every argument went through a rule at the public entry)
LEAKS = [
    pytest.param(SERIES, lambda: psi_apply(3, 5), id="psi_apply-int"),
    pytest.param(
        "f must be a DegreeMapModel", lambda: psi_then_pullback(3, 1, 5), id="psi_then_pullback"
    ),
    pytest.param(
        "f must be a DegreeMapModel", lambda: pullback_then_psi(3, 5), id="pullback_then_psi"
    ),
    pytest.param(
        "genus must be a RectorInvariant", lambda: admissible(None, 5, [3]), id="admissible-genus"
    ),
    pytest.param(
        "rng must be a Random", lambda: random_degree_map(None, 1, 5), id="random_degree_map-rng"
    ),
    *[
        pytest.param(
            "order must be an integer >= 1",
            lambda order=order: random_degree_map(random.Random(0), 1, order),
            id=f"random_degree_map-order-{order!r}",
        )
        for order in (5.5, None, -4)
    ],
    pytest.param(
        "coefficients must be iterable", lambda: TruncatedSeries(3, 5), id="TruncatedSeries"
    ),
    pytest.param(
        "exception must be iterable", lambda: RectorInvariant(1, [5]), id="RectorInvariant-int"
    ),
    pytest.param(
        "exception must be a (prime, sign) pair",
        lambda: RectorInvariant(1, [(5,)]),
        id="RectorInvariant-single",
    ),
    *[
        pytest.param(
            "p must be an integer",
            lambda junk=junk: admissible(POINT, 5, [3, junk]),
            id=f"admissible-prime-{junk!r}",
        )
        for junk in ("a", None)
    ],
    pytest.param(
        "max_prime must be an integer",
        lambda: frobenius_suite("x"),
        id="frobenius_suite-max_prime-'x'",
    ),
    pytest.param(
        "order must be an integer >= 1", lambda: psi_generator(2, 1.5), id="psi_generator-order"
    ),
    pytest.param(
        "order must be an integer >= 1",
        lambda: check_composition(2, 3, 1.5),
        id="check_composition-order",
    ),
    pytest.param(
        "order must be an integer >= 1",
        lambda: DegreeMapModel(1).as_series(1.5),
        id="as_series-order",
    ),
    pytest.param(
        "order must be an integer >= 1",
        lambda: TruncatedSeries.monomial("x", 1),
        id="monomial-order",
    ),
]


@pytest.mark.parametrize("message, call", LEAKS)
def test_rejects_what_once_leaked_another_error(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
