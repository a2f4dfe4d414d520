"""Fuzz ``cli.main`` with argv drawn from the command grammar crossed with edge values.

Every argv must end in an exit code in {0, 1, 2, 3} with no traceback.  The
draws run in one child process under an address-space cap and a wall
timeout, so an input that makes the program hang or balloon fails this test
instead of exhausting the machine.  Values exactly at a ceiling are left
out: they are accepted, and slow.

Run ``PYTHONPATH=src python tests/test_cli_fuzz.py`` to fuzz in the current process.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from hpgenus import cli

ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 120
EXAMPLES = 1000

JUNK = ["", "x", "1.5"]
#: small odd primes, so that prime flags can also take a value that does work
PRIMES = ["3", "7"]


def _ints(ceiling=None):
    values = ["0", "1", "-1", "2", str(10**30)] + JUNK
    return values if ceiling is None else values + [str(ceiling + 1)]


def _flag(name, values):
    return [[name, value] for value in values]


FORMAT = (_flag("--format", ["json", "table", "xml"]), True)

# command -> [(choices, optional)]: each slot adds one of its choices, and an
# optional slot may add none; two flags in one slot exclude each other
GRAMMAR = {
    "verify-lemma": [
        (_flag("--prime", _ints(cli.LEMMA_PRIME_CEILING) + PRIMES), False),
        (_flag("--degree", _ints()), False),
        (_flag("--epsilon", ["+1", "-1", "0", "x"]), False),
        (_flag("--trials", _ints(cli.TRIALS_CEILING)), True),
        (_flag("--seed", _ints()), True),
        FORMAT,
    ],
    "admissible": [
        (_flag("--degree", _ints()), False),
        (
            _flag("--genus", ["default=+1", "3:-1;default=+1", "3:-1,3:+1;default=+1",
                              "4:-1;default=+1", "3:0;default=+1", "default=0", ";", "x"])
            + _flag("--genus-file", ["", "no/such/genus.json"]),
            False,
        ),
        (
            _flag("--primes", PRIMES + ["3,5", "2", "0", "-1", "9", "3,x", ",", str(10**30)])
            + _flag("--bound", _ints(cli.BOUND_CEILING)),
            False,
        ),
        FORMAT,
    ],
    "forced-genus": [
        (_flag("--degree", _ints()), False),
        (_flag("--bound", _ints(cli.BOUND_CEILING)), False),
        FORMAT,
    ],
    "example-xp": [
        (_flag("--prime", _ints() + PRIMES), False),
        FORMAT,
    ],
    # every --max-prime value is refused, so no sweep runs: the sweep at the
    # default --max-prime takes seconds
    "selftest": [
        (_flag("--max-prime", _ints(cli.MAX_PRIME_CEILING)), False),
        (_flag("--max-degree", _ints(cli.MAX_DEGREE_CEILING)), True),
        (_flag("--trials", _ints(cli.TRIALS_CEILING)), True),
        (_flag("--seed", _ints()), True),
    ],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR) + ["no-such-command"]))
    argv = [command]
    for choices, optional in GRAMMAR.get(command, []):
        if not optional or draw(st.booleans()):
            argv += draw(st.sampled_from(choices))
    return argv


@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def _fuzz_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


def run_capped(script: str) -> None:
    """Run script in a child process under the address-space cap and the timeout; it must exit 0."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, script, str(ADDRESS_SPACE)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_main_answers_every_fuzzed_argv():
    run_capped(__file__)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        cap = int(sys.argv[1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    _fuzz_main()
