"""A mutation gate for the exact core: each mutant is one textual edit that tier-1 must catch.

Usage, from the root of a checkout: ``python3 tools/mutants.py`` runs the
baseline, then every mutant.

Each run copies the tree to a temporary directory, makes one edit there and runs
the tier-1 command with ``-v -x`` under a wall timeout of ``TIMEOUT`` seconds and
an address-space cap of ``MEMORY`` bytes: a mutant of the rho loop can spin
forever, and a mutant of a product or a reduction can make ``_powers`` run
past the zero power with ever larger coefficients; a timeout counts as a kill,
and so does the ``MemoryError`` the cap raises.  The checkout itself is never
edited.  The unmutated copy runs first, so that a suite that already fails
cannot kill every mutant.  A mutated copy skips ``tests/test_mutants.py``'s
check that every edit's text is in place, which the edit itself breaks.

``MUTANTS`` are semantic edits that the tests must kill.  ``EQUIVALENT`` are
edits that change no answer the program gives, each with a one-line proof: they
document what the tests cannot see, and they must survive.  One markdown table
row is printed per mutant, and the exit code is 1 if a mutant of ``MUTANTS``
survives, one of ``EQUIVALENT`` is killed, or the baseline fails.  Only the
standard library is used.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "hpgenus"
#: the tier-1 command, stopping at the first failure and naming each test as it starts
TIER1 = [sys.executable, "-m", "pytest", "-v", "-x"]
#: seconds per tier-1 run
TIMEOUT = 300
#: bytes of address space per tier-1 run; the unmutated suite fits well inside it
MEMORY = 1 << 30
#: the check that every edit's text is in place, which any mutant fails by construction
GUARD = "--deselect=tests/test_mutants.py::test_every_edit_finds_its_text_exactly_once"
#: what the copy leaves out: history, caches and the recorded benchmark runs
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "BENCH_*.json"
)


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str


#: semantic mutants: each changes an answer, a draw or an exit code, so tier-1 must fail
MUTANTS = [
    Mutant(
        "series.py",
        "size = _slot((n * (modulus - 1) ** 2).bit_length())",
        "size = _slot(((modulus - 1) ** 2).bit_length())",
        "_mul's residue slot holds one product, not a sum of n: wide slots carry into the next",
    ),
    Mutant(
        "series.py",
        "size = _slot((n * top).bit_length() + 1)",
        "size = _slot(top.bit_length() + 1)",
        "_mul's integer slot holds one product, not a sum of n",
    ),
    Mutant(
        "series.py",
        "return max(_WORD, (bits + 7) // 8)",
        "return max(_WORD, bits // 8)",
        "_slot rounds a bytes slot down: the top bits of a value are lost",
    ),
    Mutant(
        "series.py",
        "return TruncatedSeries._trusted(n, (0,) * low + (unit,), m)",
        "return TruncatedSeries._trusted(n, (0,) * (low - 1) + (unit, 0), m)",
        "the one-slot __pow__ writes u_0^e one place too low",
    ),
    Mutant(
        "adams.py",
        "return g._powers()",
        "return g._powers()[:2]",
        "_psi_rows keeps g and g^2 only: all of the table mod p^2 at order p+2, not over Z",
    ),
    Mutant(
        "obstruction.py",
        "return 1 if pow(k, (p - 1) // 2, p) == 1 else -1",
        "return 1 if pow(k, (p + 1) // 2, p) == 1 else -1",
        "_symbol raises k to (p+1)/2, not Euler's (p-1)/2",
    ),
    Mutant(
        "obstruction.py",
        "return ((p, 1) for p in primes if k % p)",
        "return ((p, 1) for p in primes)",
        "a square degree's scan keeps the primes dividing it",
    ),
    Mutant(
        "obstruction.py",
        "actual = signs.get(p, genus.default)",
        "actual = signs.get(p, 1)",
        "_admissible reads +1, not the point's default, away from its exceptions",
    ),
    Mutant(
        "obstruction.py",
        "skipped = tuple(p for p in tested if k % p == 0)",
        "skipped = ()",
        "_admissible skips no prime dividing the degree and never refuses a vacuous set",
    ),
    Mutant(
        "obstruction.py",
        "return ForcedGenusReport(k, bound, forced, free, 1 + len(factors))",
        "return ForcedGenusReport(k, bound, forced, free, len(free))",
        "forced_genus counts only the free primes up to the bound, not all of them",
    ),
    Mutant(
        "primes.py",
        "if n < _BASES[-1] ** 2:",
        "if n < _BASES[-1] ** 3:",
        "is_prime calls 43^2 and every product of primes above 41 below 41^3 prime",
    ),
    Mutant(
        "primes.py",
        "for a in _BASES:",
        "for a in _BASES[:1]:",
        "is_prime tests base 2 only: strong pseudoprimes to base 2 pass",
    ),
    Mutant(
        "genus.py",
        "if not is_prime(value) or value < floor:",
        "if not is_prime(value) or value <= floor:",
        "check_prime refuses the floor itself, so 3 is not an odd prime",
    ),
    Mutant(
        "primes.py",
        "g = math.gcd(q, n)",
        "g = math.gcd(q, n) + 2",
        "_rho_divisor's batch gcd is off by two: it returns a number that does not divide n",
    ),
    Mutant(
        "genus.py",
        "if isinstance(prime_text, str) and prime_text.isascii() and prime_text.isdigit():",
        "if isinstance(prime_text, str) and prime_text.isdigit():",
        "_entry reads any Unicode digit string, such as an Arabic-Indic 3, as a prime",
    ),
    Mutant(
        "genus.py",
        "_REJECTED = bytes(range((2 * DRAW_BOUND + 1) << 3, 256))",
        "_REJECTED = bytes(range((2 * DRAW_BOUND + 2) << 3, 256))",
        "random_degree_map keeps a top byte randrange rejects: slots of 10, other draws",
    ),
    Mutant(
        "cli.py",
        "EXIT_MATH_FAIL = 2",
        "EXIT_MATH_FAIL = 3",
        "a failed congruence exits 3, the code for an inconsistent engine",
    ),
    Mutant(
        "cli.py",
        "return EXIT_OK if verdict.is_admissible else EXIT_MATH_FAIL",
        "return EXIT_OK",
        "admissible exits 0 on an obstructed point",
    ),
    Mutant(
        "selftest.py",
        "return self.checks > 0 and self.failures == 0",
        "return self.failures == 0",
        "SuiteResult.ok passes a suite that ran no check",
    ),
    Mutant(
        "genus.py",
        "return _lhs(p, epsilon, s).coeffs[p + 1] == psi_apply(p, s).coeffs[p + 1]",
        "return _lhs(p, epsilon, s).coeffs[p] == psi_apply(p, s).coeffs[p]",
        "_routes_agree reads t^p, not t^(p+1)",
    ),
    Mutant(
        "genus.py",
        "return s**p + s ** ((p + 1) // 2) * (2 * epsilon * p)",
        "return s**p + s ** ((p + 1) // 2)",
        "the trial's left route drops the 2*epsilon*p factor",
    ),
    Mutant(
        "cli.py",
        "if len(text) > GENUS_FILE_CEILING:",
        "if len(text) >= GENUS_FILE_CEILING:",
        "a genus file of exactly the ceiling's length is refused",
    ),
    Mutant(
        "cli.py",
        '("actual", rendered["actual"]),',
        '("actual", rendered["required"]),',
        "admissible's table reads the required sign into the actual row",
    ),
    Mutant(
        "cli.py",
        '" ".join(f"{p}:{SIGN_TEXT[s]}" for p, s in forced[i : i + run])',
        '",".join(f"{p}:{SIGN_TEXT[s]}" for p, s in forced[i : i + run])',
        "forced-genus's table joins the forced signs with commas",
    ),
    Mutant(
        "series.py",
        "            if self.is_zero:\n                return other\n",
        "            if self.is_zero:\n                return self\n",
        "a sum with a zero left summand returns the zero summand",
    ),
    Mutant(
        "series.py",
        "(0,) * v + tuple(scaled)",
        "(0,) * (v + 1) + tuple(scaled[1:])",
        "scaling by an int starts one index past the first non-zero coefficient",
    ),
    Mutant(
        "series.py",
        "            row = term.coeffs[v:]",
        "            row = term.coeffs[v + 1 :]\n            v += 1",
        "_combination starts each row's pass one index past its first non-zero coefficient: "
        "sums, negation and reduce too",
    ),
    Mutant(
        "cli.py",
        'separators=("," + inner, ": ")',
        'separators=(",", ": ")',
        "the JSON writer's separator loses its newline and indent",
    ),
    Mutant(
        "series.py",
        'int.from_bytes(data[i : i + size], "little")',
        'int.from_bytes(data[i : i + size - 1], "little")',
        "_slots drops the top byte of a wide slot: bytes-slot products lose their high bits",
    ),
    Mutant(
        "genus.py",
        "map(table.__getitem__, raw[i : i + width])",
        "map(table.__getitem__, raw[i + 1 : i + width + 1])",
        "a chunk's trial slice starts one value late: each trial reads its neighbour's values",
    ),
    Mutant(
        "genus.py",
        "{v & 0xFF: v % m for v in",
        "{v & 0xFF: abs(v) % m for v in",
        "the residue table maps -9 to the residue of 9, and so on for every negative value",
    ),
    Mutant(
        "genus.py",
        "    chunk = 1\n    while trials > 0:\n",
        "    chunk, start = 1, rng.getstate()\n"
        "    while trials > 0:\n"
        "        rng.setstate(start)\n",
        "every chunk restarts the generator: the second chunk repeats the first trial's values",
    ),
]

#: equivalent mutants: each changes no answer, for the reason given, so tier-1 passes
EQUIVALENT = [
    Mutant(
        "genus.py",
        "return s**p + s ** ((p + 1) // 2) * (2 * epsilon * p)",
        "return s ** ((p + 1) // 2) * (2 * epsilon * p)",
        "S = t^2 U, so S^p starts at t^(2p) >= t^(p+2): zero at order p+2",
    ),
    Mutant(
        "obstruction.py",
        "return 1 if pow(k, (p - 1) // 2, p) == 1 else -1",
        "return 1 if pow(k, (p - 1) // 2, p) != p - 1 else -1",
        "for p not dividing k, Euler's power is 1 or p-1 and nothing else",
    ),
    Mutant(
        "obstruction.py",
        "if k > 0 and math.isqrt(k) ** 2 == k:",
        "if k >= 0 and math.isqrt(k) ** 2 == k:",
        "every caller of _symbols has checked the degree, so k is never 0",
    ),
    Mutant(
        "series.py",
        "if k == 1:",
        "if k == 0:",
        "k >= 1, and binary powering of one slot gives the same u_0^e, reduced",
    ),
    Mutant(
        "primes.py",
        "_RHO_BATCH = 128",
        "_RHO_BATCH = 1",
        "the batch only groups gcds, and any proper divisor gives the same set of primes",
    ),
    Mutant(
        "primes.py",
        "        if g != n:\n            return g\n",
        "        if g != n:\n            return n // g\n",
        "the cofactor n // g is a proper divisor too, and the factorizer keeps only primes",
    ),
    Mutant(
        "series.py",
        "y = x if b is a else _pack(b, size)\n    return [c % modulus",
        "y = _pack(b, size)\n    return [c % modulus",
        "packing the same residues again gives the same int: a square by one pack is speed",
    ),
    Mutant(
        "genus.py",
        "_CHUNK_VALUES = 1 << 12",
        "_CHUNK_VALUES = 1",
        "the draw is exact, so a chunk of one trial each gives every trial the same values",
    ),
]


def labelled() -> list[tuple[str, Mutant, bool]]:
    """(label, mutant, must be killed) for every mutant: M01... then E01..."""
    return [(f"M{i:02d}", m, True) for i, m in enumerate(MUTANTS, 1)] + [
        (f"E{i:02d}", m, False) for i, m in enumerate(EQUIVALENT, 1)
    ]


def source(root: Path, mutant: Mutant) -> Path:
    return root / PACKAGE / mutant.file


def cap_memory() -> None:
    """Run in the child before it starts: cap its address space at ``MEMORY`` bytes."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_tier1(tree: Path, argv: list[str]) -> tuple[str, float, str]:
    """Run argv in tree: ("passed" | "failed" | "timeout", seconds, first failing test)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    # a session of its own, so that a timeout kills the test processes it started too
    proc = subprocess.Popen(
        argv,
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        preexec_fn=cap_memory,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "passed", seconds, ""
    return "failed", seconds, first_failure(out) or f"exit {proc.returncode}"


def first_failure(out: str) -> str:
    """The id of the first FAILED or ERROR line in pytest's summary, "" if there is none.

    A parametrized id can hold spaces, so it is read to the ``]`` that ends it: the one
    followed by the end of the line or by the `` - `` before the message.  A run with no
    summary, such as one that pytest stops with a ``MemoryError`` in its own output capture,
    names the last test its verbose output started, whose id begins a line.
    """
    first = re.search(r"^(?:FAILED|ERROR) (\S+?\[.*?\](?= - |$)|\S+)", out, re.MULTILINE)
    if first:
        return first.group(1)
    started = re.findall(r"^(\S+::\S+?\[.*?\](?= |$)|\S+::\S+)", out, re.MULTILINE)
    return started[-1] if started else ""


def run_one(mutant: Mutant | None) -> tuple[str, float, str]:
    """Copy the tree, make the edit in the copy and run tier-1 there."""
    with tempfile.TemporaryDirectory(prefix="hpgenus-mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if mutant is None:
            return run_tier1(tree, TIER1)
        path = source(tree, mutant)
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new))
        return run_tier1(tree, TIER1 + [GUARD])


def main() -> int:
    chosen = labelled()
    stale = [
        label
        for label, mutant, _ in chosen
        if source(ROOT, mutant).read_text(encoding="utf-8").count(mutant.old) != 1
    ]
    if stale:
        print(f"text not found once: {stale}", file=sys.stderr)
        return 1

    outcome, seconds, first = run_one(None)
    print(f"baseline: {outcome} in {seconds:.0f} s {first}".rstrip(), flush=True)
    if outcome != "passed":
        return 1
    print("| mutant | file | edit | expected | result | s | first failing test |")
    print("|---|---|---|---|---|---|---|")
    unexpected = 0
    for label, mutant, must_die in chosen:
        outcome, seconds, first = run_one(mutant)
        killed = outcome != "passed"
        unexpected += killed != must_die
        expected = "killed" if must_die else "survives"
        result = f"killed ({outcome})" if killed else "survived"
        print(
            f"| {label} | {mutant.file} | {mutant.why} | {expected} | {result} "
            f"| {seconds:.0f} | {first} |",
            flush=True,
        )
    print(f"{len(chosen)} mutants, {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
