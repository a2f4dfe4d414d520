"""A mutation gate for the exact core: each mutant is one textual edit that tier-1 must catch.

Usage, from the root of a checkout: ``python3 tools/mutants.py`` runs the
baseline alone, then the mutants ``WORKERS`` at a time; the rows print in label order.

Each run copies the tree to a temporary directory, makes one edit there and runs
the tier-1 command with ``-v -x`` under a wall timeout of ``TIMEOUT`` seconds and
an address-space cap of ``MEMORY`` bytes: a mutant of the rho loop can spin
forever, and a mutant of a product or a reduction can grow coefficients past
any memory; a timeout counts as a kill and names the test it stopped, and so
does the ``MemoryError`` the cap raises.  The checkout itself is never
edited.  The unmutated copy runs first, so that a suite that already fails
cannot kill every mutant.  A mutated copy skips ``tests/test_mutants.py``'s
check that every edit's text is in place, which the edit itself breaks.

``MUTANTS`` are semantic edits that the tests must kill.  ``EQUIVALENT`` are
edits that change no answer the program gives, each with a one-line proof: they
document what the tests cannot see, and they must survive.  One markdown table
row is printed per mutant, and the exit code is 1 if a mutant of ``MUTANTS``
survives, one of ``EQUIVALENT`` is killed, or the baseline fails; the last line
gives the count and the gate's total wall time.  Only the standard library is used.
"""

from __future__ import annotations

import concurrent.futures
import os
import re
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
#: mutants run at a time, each in its own copy of the tree; the baseline runs alone first
WORKERS = 2
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
        "if i < len(tested) and tested[i] == p and k % p:",
        "if i < len(tested) and tested[i] == p:",
        "a square degree against a +1 point is obstructed at an exception dividing it",
    ),
    Mutant(
        "obstruction.py",
        "if i < len(tested) and tested[i] == p and k % p:",
        "if k % p:",
        "a square degree against a +1 point is obstructed at an exception that is not tested",
    ),
    Mutant(
        "obstruction.py",
        "if genus.default == 1 and _is_square(k):",
        "if _is_square(k):",
        "a square degree against a -1 point reads only its +1 exceptions too",
    ),
    Mutant(
        "obstruction.py",
        "if p < 3 or p not in keys:",
        "if p not in keys:",
        "admissible takes a genus key of 2 in --primes as an odd prime",
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
        "if _lhs(p, epsilon, s).coeffs[p + 1] != psi_apply(p, s).coeffs[p + 1]:",
        "if _lhs(p, epsilon, s).coeffs[p] != psi_apply(p, s).coeffs[p]:",
        "_trials_agree compares t^p, not t^(p+1)",
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
        '" ".join(f"{p}:{SIGN_TEXT[s]}" for p, s in report.forced[i : i + PAIRS_PER_RUN])',
        '",".join(f"{p}:{SIGN_TEXT[s]}" for p, s in report.forced[i : i + PAIRS_PER_RUN])',
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
        'separators=(sep, ": ")',
        'separators=(",", ": ")',
        "the JSON writer's item separator within a run loses its newline and indent",
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
    Mutant(
        "genus.py",
        "psi_apply(p, s).coeffs[p + 1]:\n                return False\n",
        "psi_apply(p, s).coeffs[p + 1]:\n                continue\n",
        "a disagreeing trial does not end the verdict: every brute-force verdict passes",
    ),
    Mutant(
        "primes.py",
        "for p in range(5, math.isqrt(bound) + 1, 2):",
        "for p in range(5, math.isqrt(bound), 2):",
        "the sieve stops one short of isqrt(bound): 25 reads as prime",
    ),
    Mutant(
        "primes.py",
        "primes.sort()\n    return primes",
        "return primes",
        "the sieve's 6j - 1 and 6j + 1 runs are returned one after the other, not merged",
    ),
    Mutant(
        "primes.py",
        "itertools.compress(range(7, bound + 1, 6), sieve[7::6])",
        "itertools.compress(range(1, bound + 1, 6), sieve[1::6])",
        "the sieve's 6j + 1 run starts at 1, which it lists as a prime",
    ),
    Mutant(
        "series.py",
        "(x & ((1 << 8 * size * n) - 1))",
        "(x & ((1 << 8 * size * n - 8) - 1))",
        "_slots masks one byte fewer: the top slot read back loses its high byte",
    ),
    Mutant(
        "obstruction.py",
        "if _symbol(k, p) == -1)",
        "if _symbol(k, p) == 1)",
        "example_xp's witness search takes the first residue, not the first non-residue",
    ),
    Mutant(
        "cli.py",
        "key=lambda pair: str(pair[0])",
        "key=lambda pair: pair[0]",
        "the JSON writer sorts the primes as numbers, not as the strings sort_keys sorts",
    ),
    Mutant(
        "cli.py",
        "body = sep.join(",
        'body = ",".join(',
        "the join between the JSON writer's runs loses its newline and indent",
    ),
    Mutant(
        "cli.py",
        '"genus": point.to_json_dict(),',
        '"genus": RectorInvariant(point.default).to_json_dict(),',
        "example-xp's JSON rebuilds its genus point from the default: the exception is lost",
    ),
    Mutant(
        "cli.py",
        "replace(genus, exceptions=())",
        "replace(genus)",
        "admissible's JSON keeps the exceptions in the payload: the splice finds no {}",
    ),
    Mutant(
        "cli.py",
        'hint = ": try a smaller --bound" if getattr(args, "bound", None) is not None else ""',
        'hint = ": try a smaller --bound"',
        "the out-of-memory line suggests a smaller --bound to calls that gave none",
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
        "return k > 0 and math.isqrt(k) ** 2 == k",
        "return k >= 0 and math.isqrt(k) ** 2 == k",
        "every caller of _is_square has checked the degree, so k is never 0",
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
    Mutant(
        "primes.py",
        "sieve[p * p :: 2 * p] = bytes(len(range(p * p, bound + 1, 2 * p)))",
        "sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))",
        "striding by p adds zeros at even indices only, and the sieve reads none of them",
    ),
]


def labelled() -> list[tuple[str, Mutant, bool]]:
    """(label, mutant, must be killed) for every mutant: M01... then E01..."""
    return [(f"M{i:02d}", m, True) for i, m in enumerate(MUTANTS, 1)] + [
        (f"E{i:02d}", m, False) for i, m in enumerate(EQUIVALENT, 1)
    ]


def source(root: Path, mutant: Mutant) -> Path:
    return root / PACKAGE / mutant.file


def capped(argv: list[str]) -> list[str]:
    """argv run under an address-space cap of ``MEMORY`` bytes, which the child sets itself.

    A small interpreter sets the cap and execs argv, which inherits it: no ``preexec_fn``
    runs between fork and exec, which is unsafe while the gate's threads are running.
    """
    launch = (
        "import os, resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY}, {MEMORY})); "
        "os.execv(sys.argv[1], sys.argv[1:])"
    )
    return [sys.executable, "-c", launch, *argv]


def run_tier1(tree: Path, argv: list[str]) -> tuple[str, float, str]:
    """Run argv in tree: ("passed" | "failed" | "timeout", seconds, first failing test)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    # a session of its own, so that a timeout kills the test processes it started too
    proc = subprocess.Popen(
        capped(argv),
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        # the output captured so far names the test the timeout stopped
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return "timeout", time.perf_counter() - start, first_failure(out)
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
    began = time.perf_counter()
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
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        runs = pool.map(run_one, [mutant for _, mutant, _ in chosen])
        for (label, mutant, must_die), (outcome, seconds, first) in zip(chosen, runs):
            killed = outcome != "passed"
            unexpected += killed != must_die
            expected = "killed" if must_die else "survives"
            result = f"killed ({outcome})" if killed else "survived"
            print(
                f"| {label} | {mutant.file} | {mutant.why} | {expected} | {result} "
                f"| {seconds:.0f} | {first} |",
                flush=True,
            )
    minutes, seconds = divmod(round(time.perf_counter() - began), 60)
    print(f"{len(chosen)} mutants, {unexpected} not as expected, in {minutes} min {seconds} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
