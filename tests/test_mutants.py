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
