"""The mutation gate in ``tools/mutants.py`` still applies to the source it mutates.

Running the mutants takes a tier-1 run each, so it stays outside tier-1; this
cheap check keeps their edits from going stale as the source changes.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

ROWS = mutants.labelled()


@pytest.mark.parametrize("label, mutant, must_die", ROWS, ids=[row[0] for row in ROWS])
def test_every_edit_finds_its_text_exactly_once(label, mutant, must_die):
    text = mutants.source(ROOT, mutant).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, f"{label}: {mutant.old!r} in {mutant.file}"
    assert mutant.new != mutant.old


@pytest.mark.parametrize(
    "summary, expected",
    [
        (
            "FAILED tests/test_golden_cli.py::test_replay[admissible --degree 3 --primes 3,5]"
            " - AssertionError: assert [1] == [2]",
            "tests/test_golden_cli.py::test_replay[admissible --degree 3 --primes 3,5]",
        ),
        ("ERROR tests/test_x.py::test_y[a-b]", "tests/test_x.py::test_y[a-b]"),
        ("FAILED tests/test_x.py::test_y - assert [1] == [2]", "tests/test_x.py::test_y"),
        ("ERROR tests/test_x.py - ImportError: no module", "tests/test_x.py"),
        (
            "FAILED tests/test_x.py::test_y[1]\nFAILED tests/test_x.py::test_z",
            "tests/test_x.py::test_y[1]",
        ),
        ("1 passed", ""),
        (
            "tests/test_x.py::test_y PASSED [ 50%]\n"
            "tests/test_x.py::TestZ::test_w[1 - 2] INTERNALERROR> MemoryError",
            "tests/test_x.py::TestZ::test_w[1 - 2]",
        ),
        (
            "tests/test_x.py::test_y PASSED [ 50%]\ntests/test_x.py::test_z ",
            "tests/test_x.py::test_z",
        ),
    ],
)
def test_the_first_failure_is_read_to_the_end_of_its_id(summary, expected):
    assert mutants.first_failure(f"..F\n{summary}\n") == expected
