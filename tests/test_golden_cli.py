"""Replay recorded ``hpgenus`` calls and compare stdout and exit code byte for byte.

``tests/golden_cli.txt`` holds one record per call: a ``$ argv`` line (the
arguments after ``hpgenus``, shell-quoted), an ``exit N`` line and then the
call's stdout verbatim.  Lines before the first record that start with ``#``
are comments.  To re-record every listed call after an intended output
change, run ``PYTHONPATH=src python tests/test_golden_cli.py`` from the repo
root; to add a call, append its ``$ argv`` line first.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

import pytest

from hpgenus import cli

GOLDEN = Path(__file__).with_name("golden_cli.txt")


def read_records(text: str) -> tuple[list[str], list[tuple[list[str], int | None, str]]]:
    """The header comment lines and the (argv, exit code, stdout) records."""
    header: list[str] = []
    records: list[tuple[list[str], int | None, str]] = []
    for line in text.splitlines(keepends=True):
        if line.startswith("$ "):
            records.append((shlex.split(line[2:]), None, ""))
        elif not records:
            header.append(line)
        elif records[-1][1] is None and line.startswith("exit "):
            argv, _, _ = records[-1]
            records[-1] = (argv, int(line[5:]), "")
        else:
            argv, code, out = records[-1]
            records[-1] = (argv, code, out + line)
    return header, records


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


_, RECORDS = read_records(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_calls():
    assert len(RECORDS) >= 30
    assert all(code is not None for _, code, _ in RECORDS)


@pytest.mark.parametrize(
    "argv, code, out", RECORDS, ids=[shlex.join(argv) for argv, _, _ in RECORDS]
)
def test_replay(argv, code, out, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    assert run(argv) == (code, out)


def rerecord() -> None:
    os.environ.pop(cli.SEED_ENV_VAR, None)
    header, records = read_records(GOLDEN.read_text(encoding="utf-8"))
    lines = list(header)
    for argv, _, _ in records:
        code, out = run(argv)
        lines.append(f"$ {shlex.join(argv)}\nexit {code}\n{out}")
    GOLDEN.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    rerecord()
    sys.exit(0)
