"""Seeded inputs for each workload, how one operation calls the package, and
how its output is checked.

An operation is a plain dict: ``kind`` names what it asks, the other keys
are its inputs.  Inputs come from ``random.Random`` seeded with the
workload name, the seed and the pass, so one seed gives the same operations
in every run.  Each workload's draws are stratified per round
(every round has the same mix of primes or commands), so that the latency
percentiles sit on the same mix whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

SWEEP_PRIMES = oracle.odd_primes(31)
SWEEP_MAX_DEGREE = 50
LARGE_PRIMES = tuple(p for p in oracle.odd_primes(157) if p >= 37)
LARGE_PRIME_DEGREES = 4
LARGE_PRIME_TRIALS = 5
SMALL_ODD_PRIMES = oracle.odd_primes(97)


def degrees(p: int, bound: int = SWEEP_MAX_DEGREE) -> list[int]:
    """Every k with 1 <= |k| <= bound and k coprime to the prime p."""
    return [k for k in range(-bound, bound + 1) if k and k % p]


def sweep_round(rng: random.Random) -> list[dict]:
    """One seeded degree at each odd prime up to 31, in seeded order."""
    ops = [{"kind": "sweep", "p": p, "k": rng.choice(degrees(p))} for p in SWEEP_PRIMES]
    rng.shuffle(ops)
    return ops


def large_prime_round(rng: random.Random) -> list[dict]:
    """Four seeded degrees at each prime 37..157, primes ascending."""
    return [
        {"kind": "verify-lemma", "p": p, "k": k}
        for p in LARGE_PRIMES
        for k in rng.sample(degrees(p), LARGE_PRIME_DEGREES)
    ]


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    return oracle.next_prime(rng.randint(lo, hi))


def census_round(rng: random.Random) -> list[dict]:
    """Ten closed-form queries, cheapest kinds first.

    The kinds are sized so that the median falls in the middle of the four
    factorisations and p90 in the middle of the two large-prime sets (the
    two dearest queries), not on the edge between two kinds of different
    cost.  The dear kinds draw their sizes from narrow bands, so the seed
    changes the answers but hardly the cost.
    """
    ops = [{"kind": "example-xp", "prime": _prime_in(rng, 10**5, 10**6)}]
    smooth = 1
    while True:
        factor = rng.choice((2,) + SMALL_ODD_PRIMES)
        if smooth * factor > 10**13:
            break
        smooth *= factor
    ops.append({"kind": "forced-genus", "degree": rng.choice((1, -1)) * smooth,
                "bound": rng.randint(500, 1000)})
    # k = m^2 is a square mod every prime, so a +1 point passes every prime
    # the scan reaches: a -1 exception at or below the bound obstructs it,
    # one above the bound leaves it admissible after a full scan
    bound, m = rng.randint(10**3, 10**4), rng.randint(1, 1000)
    while True:
        q = rng.randint(3, bound)
        if m % q and oracle.is_prime(q):
            break
    ops.append({"kind": "admissible", "degree": m * m, "default": 1,
                "exceptions": {q: -1}, "bound": bound})
    for _ in range(4):
        degree = rng.randint(1, 100) * _prime_in(rng, 9 * 10**10, 10**11)
        ops.append({"kind": "forced-genus", "degree": rng.choice((1, -1)) * degree,
                    "bound": rng.randint(500, 1000)})
    bound, m = rng.randint(25 * 10**3, 3 * 10**4), rng.randint(1, 1000)
    ops.append({"kind": "admissible", "degree": m * m, "default": 1,
                "exceptions": {_prime_in(rng, bound + 1, 10 * bound): -1}, "bound": bound})
    # three small primes that agree with (k/p), then one large prime that
    # agrees (admissible) or not (obstructed there); a second large prime
    # is an exception that is not tested
    for agree in (True, False):
        degree = rng.choice((1, -1)) * rng.randint(1, 10**6)
        large, untested = _prime_in(rng, 9 * 10**10, 10**11), _prime_in(rng, 9 * 10**10, 10**11)
        small = rng.sample(SMALL_ODD_PRIMES, 3)
        exceptions = {p: oracle.legendre(degree, p) for p in small if degree % p}
        symbol = oracle.legendre(degree, large)
        exceptions[large] = symbol if agree else -symbol
        exceptions[untested] = rng.choice((1, -1))
        ops.append({"kind": "admissible", "degree": degree, "default": rng.choice((1, -1)),
                    "exceptions": exceptions, "primes": small + [large]})
    return ops


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random], list[dict]]
    #: rounds in a timed pass
    rounds: int
    #: rounds in a traced run, a fixed amount of work so counts repeat
    trace_rounds: int


WORKLOADS = {
    "sweep": Workload(sweep_round, rounds=10, trace_rounds=2),
    # one round per interpreter: the psi power tables are built cold once
    # per prime, as a command-line user pays for them
    "large-prime": Workload(large_prime_round, rounds=1, trace_rounds=1),
    "census": Workload(census_round, rounds=10, trace_rounds=2),
}

#: a timed pass runs at least this many operations, so that at least ten
#: samples lie beyond p90
MIN_OPS = 100


def generate(workload: str, seed: int, rounds: int, part: int = 0) -> list[list[dict]]:
    """The first ``rounds`` rounds of operations of one part of a seed's inputs.

    Each pass of a run takes its own part, so passes run different
    operations drawn from the same mix.
    """
    rng = random.Random(f"{workload}:{seed}:{part}")
    make_round = WORKLOADS[workload].make_round
    return [make_round(rng) for _ in range(rounds)]


# -- calling the package -------------------------------------------------------


def argv(op: dict, epsilon: int = 1) -> list[str]:
    """Command-line arguments for a CLI operation."""
    kind = op["kind"]
    if kind == "verify-lemma":
        return ["verify-lemma", "--prime", str(op["p"]), f"--degree={op['k']}",
                f"--epsilon={oracle.sign_text(epsilon)}", "--trials", str(LARGE_PRIME_TRIALS),
                "--format", "json"]
    if kind == "admissible":
        entries = ",".join(f"{p}:{oracle.sign_text(s)}" for p, s in op["exceptions"].items())
        spec = f"{entries};default={oracle.sign_text(op['default'])}"
        scope = (["--primes", ",".join(map(str, op["primes"]))] if "primes" in op
                 else ["--bound", str(op["bound"])])
        return ["admissible", f"--degree={op['degree']}", f"--genus={spec}", *scope,
                "--format", "json"]
    if kind == "forced-genus":
        return ["forced-genus", f"--degree={op['degree']}", "--bound", str(op["bound"]),
                "--format", "json"]
    if kind == "example-xp":
        return ["example-xp", "--prime", str(op["prime"]), "--format", "json"]
    raise ValueError(f"not a CLI operation: {kind!r}")


def run_cli(hp, args: list[str]) -> tuple[int, str]:
    """``hpgenus.cli.main(args)`` with stdout captured; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hp.cli.main(args)
    return code, out.getvalue()


def run_op(hp, op: dict):
    """Perform one operation against the imported package ``hp``."""
    if op["kind"] == "sweep":
        brute = hp.obstruction.compatible_bruteforce
        return brute(op["p"], 1, op["k"]), brute(op["p"], -1, op["k"])
    if op["kind"] == "verify-lemma":
        return tuple(run_cli(hp, argv(op, eps)) for eps in (1, -1))
    return run_cli(hp, argv(op))


# -- checking outputs ------------------------------------------------------------


def _cli_matches(output, expected: tuple[int, dict]) -> bool:
    code, text = output
    try:
        return code == expected[0] and json.loads(text) == expected[1]
    except json.JSONDecodeError:
        return False


def expected(op: dict):
    """The oracle's output for one operation, in the shape ``run_op`` returns."""
    kind = op["kind"]
    if kind == "sweep":
        return oracle.sweep(op["p"], op["k"])
    if kind == "verify-lemma":
        return tuple(oracle.verify_lemma(op["p"], op["k"], eps, LARGE_PRIME_TRIALS)
                     for eps in (1, -1))
    if kind == "admissible":
        return oracle.admissible(op["degree"], op["default"], op["exceptions"],
                                 primes=op.get("primes"), bound=op.get("bound"))
    if kind == "forced-genus":
        return oracle.forced_genus(op["degree"], op["bound"])
    return oracle.example_xp(op["prime"])


def check(op: dict, output) -> bool:
    """Whether one operation's output is right; an exception is never right."""
    if isinstance(output, BaseException):
        return False
    want = expected(op)
    if op["kind"] == "sweep":
        return tuple(output) == want
    if op["kind"] == "verify-lemma":
        return len(output) == 2 and all(map(_cli_matches, output, want))
    return _cli_matches(output, want)


def failed_ops(ops: list[dict], outputs: list) -> list[int]:
    """Indices of the operations whose output is wrong."""
    return [i for i, (op, out) in enumerate(zip(ops, outputs, strict=True)) if not check(op, out)]
