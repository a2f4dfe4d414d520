"""Fuzz the public library with junk arguments: every call returns or raises ``ValueError``.

The callables are every function in ``hpgenus.__all__``, the three input
constructors ``TruncatedSeries``, ``RectorInvariant`` and ``DegreeMapModel``,
the named ``TruncatedSeries`` methods (``monomial``, ``coefficient``,
``reduce``, ``compose``, ``__pow__``), and
``RectorInvariant.lookup``, ``RectorInvariant.from_json_dict``,
``RectorInvariant.from_spec`` and ``DegreeMapModel.as_series``.
``Verdict`` and ``ForcedGenusReport`` are outputs, not inputs, so they are
out of scope, and so is ``Sign``, which is ``int`` itself.  The operator
overloads keep Python's contract instead: a foreign operand makes them
return ``NotImplemented``.

Each argument is drawn from bools, floats, None, strings, 0, negatives,
small ints and primes, non-iterables, valid library objects, and lists,
tuples and dicts of those; every call gets an arity its signature allows.
The library keeps no resource ceilings, so every size drawn is far below
the CLI's.  The draws run in one child process under the address-space cap
and the wall timeout of ``test_cli_fuzz.run_capped``, so an input that makes
a call hang or balloon fails this test instead of exhausting the machine.

Run ``PYTHONPATH=src python tests/test_api_fuzz.py`` to fuzz in the current process.
"""

import inspect
import random
import resource
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

import hpgenus
from hpgenus import DegreeMapModel, RectorInvariant, TruncatedSeries

from test_cli_fuzz import run_capped

EXAMPLES = 1000

SERIES = TruncatedSeries(4, [0, 1, 2])
POINT = RectorInvariant(-1, {3: 1, 7: 1})
MAP = DegreeMapModel(2, (1, -1))

CALLABLES = [
    getattr(hpgenus, name)
    for name in sorted(hpgenus.__all__)
    if inspect.isfunction(getattr(hpgenus, name))
] + [
    TruncatedSeries,
    RectorInvariant,
    DegreeMapModel,
    TruncatedSeries.monomial,
    SERIES.coefficient,
    SERIES.reduce,
    SERIES.compose,
    SERIES.__pow__,
    POINT.lookup,
    RectorInvariant.from_json_dict,
    RectorInvariant.from_spec,
    MAP.as_series,
]

#: values that are valid somewhere, so that a call can get past its first argument
VALID = [
    SERIES,
    SERIES.reduce(9),
    TruncatedSeries(3, [1, 1]),
    POINT,
    MAP,
    random.Random(0),
    {"default": "+1", "exceptions": {"3": "-1"}},
]
JUNK = [True, False, 1.5, -0.5, None, "", "x", "3", "+1", "default", 0, -1, -4, object(), 2j]

hashable = st.one_of(
    st.sampled_from(JUNK), st.integers(-5, 40), st.sampled_from([3, 5, 7, 11, 13])
)
leaves = st.one_of(hashable, st.sampled_from(VALID))
values = st.one_of(
    leaves,
    st.lists(leaves, max_size=4),
    st.tuples(leaves, leaves),
    st.dictionaries(hashable, leaves, max_size=3),
)


def _arities(fn) -> range:
    """The numbers of positional arguments fn accepts."""
    params = inspect.signature(fn).parameters.values()
    required = sum(param.default is inspect.Parameter.empty for param in params)
    return range(required, len(params) + 1)


@st.composite
def calls(draw):
    fn = draw(st.sampled_from(CALLABLES))
    count = draw(st.sampled_from(_arities(fn)))
    return fn, draw(st.lists(values, min_size=count, max_size=count))


@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(calls())
def _fuzz_api(call):
    fn, args = call
    try:
        fn(*args)
    except ValueError:
        pass


def test_every_public_call_returns_or_raises_value_error():
    run_capped(__file__)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        cap = int(sys.argv[1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    _fuzz_api()
