"""Command-line front end for the obstruction engine.

Commands:
    verify-lemma   Check one (prime, degree, sign) triple by both the
                   closed-form criterion and brute-force series expansion,
                   and show the reduced coefficients being compared.
    admissible     Test a degree against a genus point over a finite set of
                   odd primes.
    forced-genus   Report the sign invariants a degree forces at the odd
                   primes up to a bound.
    example-xp     The genus point with a -1 at exactly one odd prime,
                   together with its witness degree.
    selftest       Run the library's property sweeps.

Exit codes:
    0   success (admissible / congruence holds / all suites pass)
    1   usage or input error, or a command that ran out of memory
    2   mathematical failure (obstructed / congruence fails / suite failure)
    3   internal inconsistency: the two verification routes disagree
        (must never happen)

Output is byte-identical for identical flags: the seed is 0 unless --seed
sets it, and no environment variable changes it.  Results go to stdout
(JSON as a single document with sorted keys); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from . import selftest
from . import obstruction
from .genus import (
    SIGN_TEXT,
    DegreeMapModel,
    RectorInvariant,
    psi_then_pullback,
    pullback_then_psi,
    sign_from_str,
)
from .primes import odd_primes_upto  # noqa: F401  unused, but bench/spans.py traces it here

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2
EXIT_INCONSISTENT = 3

#: the most brute-force trials ``--trials`` accepts, on verify-lemma and selftest
TRIALS_CEILING = 100_000
#: the largest verify-lemma ``--prime``: 200 trials at the prime below it take 6.5 to 7.5 s and
#: 41 MB (2-vCPU Xeon host, Python 3.11)
LEMMA_PRIME_CEILING = 10**5
#: the largest selftest ``--max-prime`` and ``--max-degree``: with the other flags at
#: their defaults, a sweep at either ceiling takes under 30 s
MAX_PRIME_CEILING = 101
MAX_DEGREE_CEILING = 200
#: the largest ``--bound`` admissible and forced-genus accept: at it (2-vCPU Xeon host, Python
#: 3.11), forced-genus takes 1.7 to 2.3 s and 134 MB with --format json (1.4 to 1.7 s and
#: 109 MB as a table), and admissible about 0.25 s and 55 MB, most of it the sieve, except at
#: a square degree m^2 against a +1 point, which sieves only to 4*isqrt(m) + 4: 0.07 to
#: 0.09 s and 16 MB at m = 2
BOUND_CEILING = 10**7
#: the most characters ``--genus-file`` may hold, checked before it is parsed: a point with -1
#: at the 250149 odd primes below 3.5*10^6 (4.16 million characters) takes about 6 s and 115 MB
GENUS_FILE_CEILING = 2**22
#: the most characters of an error message the CLI writes: a longer one is cut there and
#: ends with its full length, so an input it echoes cannot flood stderr
MESSAGE_CEILING = 500
#: prime→sign pairs formatted at a time, by forced-genus's table and by the JSON writer
PAIRS_PER_RUN = 4096


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2 (2 means "the math
    # says no" here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {_bounded(message)}\n")


def _bounded(message: str) -> str:
    if len(message) <= MESSAGE_CEILING:
        return message
    return f"{message[:MESSAGE_CEILING]}... ({len(message)} characters in all)"


def _sign_arg(text: str):
    try:
        return sign_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _prime_list_arg(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _unique_keys(pairs: list) -> dict:
    # json.load keeps the last of a repeated key; a genus document must not repeat one
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r} in genus document")
        seen.add(key)
    return dict(pairs)


def _load_genus(args) -> RectorInvariant:
    if args.genus is not None:
        return RectorInvariant.from_spec(args.genus)
    with open(args.genus_file, "r", encoding="utf-8") as handle:
        text = handle.read(GENUS_FILE_CEILING + 1)
    if len(text) > GENUS_FILE_CEILING:
        raise ValueError(f"--genus-file must be at most {GENUS_FILE_CEILING} characters, got more")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("malformed genus document: nested too deeply") from None
    return RectorInvariant.from_json_dict(data)


def _json_document(payload: dict, key: str, pairs) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` with the prime→sign pairs spliced in
    at ``key``'s ``{}``: sorted once by ``str(prime)``, the order ``sort_keys`` gives, and
    written ``PAIRS_PER_RUN`` at a time by the C encoder, with the next line's indentation in
    its item separator, where the indenting encoder would build a string per item in Python.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not pairs:
        return text
    start = text.index(f'"{key}": {{}}')
    inside = start + len(key) + 5  # between the two braces
    indent = text[text.rindex("\n", 0, start) : start]
    sep = "," + indent + "  "
    ordered = sorted(pairs, key=lambda pair: str(pair[0]))
    runs = (ordered[i : i + PAIRS_PER_RUN] for i in range(0, len(ordered), PAIRS_PER_RUN))
    body = sep.join(
        json.dumps({str(p): SIGN_TEXT[s] for p, s in run}, separators=(sep, ": "))[1:-1]
        for run in runs
    )
    return f"{text[:inside]}{sep[1:]}{body}{indent}{text[inside:]}"


def _emit(payload: dict, rows: list[tuple[str, str]], fmt: str, exceptions=()) -> None:
    if fmt == "json":
        print(_json_document(payload, "exceptions", exceptions))
    else:
        _table(rows)


def _table(rows: list[tuple[str, str]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _check_ceiling(flag: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise ValueError(f"{flag} must be at most {ceiling}, got {value}")


# -- commands ----------------------------------------------------------------


def _cmd_verify_lemma(args) -> int:
    _check_ceiling("--prime", args.prime, LEMMA_PRIME_CEILING)
    _check_ceiling("--trials", args.trials, TRIALS_CEILING)
    p, k, epsilon, seed = args.prime, args.degree, args.epsilon, args.seed
    closed = obstruction.compatible(p, epsilon, k)
    brute = obstruction.compatible_bruteforce(p, epsilon, k, trials=args.trials, seed=seed)
    # display coefficients from the map with no higher terms; the randomized
    # sweep inside the brute-force call certifies they do not depend on them
    modulus = p * p
    f = DegreeMapModel(k)
    lhs = psi_then_pullback(p, epsilon, f).coefficient(p + 1)
    rhs = pullback_then_psi(p, f).coefficient(p + 1)
    agree = closed == brute
    payload = {
        "command": "verify-lemma",
        "prime": p,
        "degree": k,
        "epsilon": SIGN_TEXT[epsilon],
        "criterion_passes": closed,
        "bruteforce_passes": brute,
        "methods_agree": agree,
        "lhs_coefficient": lhs,
        "rhs_coefficient": rhs,
        "coefficient_index": p + 1,
        "modulus": modulus,
        "trials": args.trials,
        "seed": seed,
    }
    verdict = "holds" if closed else "fails"
    rows = [
        ("prime", str(p)),
        ("degree", str(k)),
        ("epsilon", payload["epsilon"]),
        ("criterion", "pass" if closed else "FAIL"),
        (f"bruteforce ({args.trials} trials, seed {seed})", "pass" if brute else "FAIL"),
        (f"lhs coefficient of t^{p + 1} mod {modulus}", str(lhs)),
        (f"rhs coefficient of t^{p + 1} mod {modulus}", str(rhs)),
        ("congruence", verdict),
    ]
    _emit(payload, rows, args.format)
    if not agree:
        print("internal inconsistency: criterion and brute force disagree", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK if closed else EXIT_MATH_FAIL


def _cmd_admissible(args) -> int:
    genus = _load_genus(args)
    if args.primes is not None:
        verdict = obstruction.admissible(genus, args.degree, args.primes)
    else:
        _check_ceiling("--bound", args.bound, BOUND_CEILING)
        verdict = obstruction._admissible_upto(genus, args.degree, args.bound)
    payload = {
        "command": "admissible",
        "degree": args.degree,
        "genus": replace(genus, exceptions=()).to_json_dict(),
        "verdict": verdict.to_json_dict(),
    }
    rendered = payload["verdict"]
    rows = [
        ("degree", str(args.degree)),
        ("genus", genus.to_spec()),
        ("outcome", rendered["outcome"]),
    ]
    if not verdict.is_admissible:
        rows += [
            ("prime", str(rendered["prime"])),
            ("required", rendered["required"]),
            ("actual", rendered["actual"]),
        ]
    rows.append(("skipped", ",".join(map(str, rendered["skipped"])) or "(none)"))
    _emit(payload, rows, args.format, genus.exceptions)
    return EXIT_OK if verdict.is_admissible else EXIT_MATH_FAIL


def _cmd_forced_genus(args) -> int:
    _check_ceiling("--bound", args.bound, BOUND_CEILING)
    report = obstruction.forced_genus(args.degree, args.bound)
    if args.format == "json":
        payload = {"command": "forced-genus", **replace(report, forced=()).to_json_dict()}
        print(_json_document(payload, "forced", report.forced))
        return EXIT_OK
    # from the report, not the JSON document, in runs: no list holds a string per forced prime
    runs = (
        " ".join(f"{p}:{SIGN_TEXT[s]}" for p, s in report.forced[i : i + PAIRS_PER_RUN])
        for i in range(0, len(report.forced), PAIRS_PER_RUN)
    )
    rows = [
        ("degree", str(report.degree)),
        ("bound", str(report.bound)),
        ("forced", " ".join(runs) or "(none)"),
        ("free", ",".join(str(p) for p in report.free)),
        ("free primes over all of Z", str(report.free_count_total)),
        (
            "max surviving genus points (necessary-condition bound)",
            str(report.max_surviving),
        ),
    ]
    _table(rows)
    return EXIT_OK


def _cmd_example_xp(args) -> int:
    # example_xp checks the prime; the verdict and the symbol take it as checked
    point, witness = obstruction.example_xp(args.prime)
    verdict = obstruction._admissible(point, witness, [args.prime])
    payload = {
        "command": "example-xp",
        "prime": args.prime,
        "genus": point.to_json_dict(),
        "witness_degree": witness,
        "witness_symbol": SIGN_TEXT[obstruction._symbol(witness, args.prime)],
        "single_prime_verdict": verdict.to_json_dict(),
    }
    rows = [
        ("prime", str(args.prime)),
        ("genus", point.to_spec()),
        ("witness degree", str(witness)),
        ("witness symbol", payload["witness_symbol"]),
        (f"admissible at {{{args.prime}}}", verdict.outcome),
    ]
    _emit(payload, rows, args.format)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    _check_ceiling("--max-prime", args.max_prime, MAX_PRIME_CEILING)
    _check_ceiling("--max-degree", args.max_degree, MAX_DEGREE_CEILING)
    _check_ceiling("--trials", args.trials, TRIALS_CEILING)
    results = selftest.run_all(
        max_prime=args.max_prime, max_degree=args.max_degree, trials=args.trials, seed=args.seed
    )
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name.ljust(width)}  checks={r.checks}  failures={r.failures}")
        if r.first_counterexample is not None:
            print(f"{' ' * width}  first counterexample: {r.first_counterexample}")
    total = sum(r.checks for r in results)
    if all(r.ok for r in results):
        print(f"selftest: PASS ({len(results)} suites, {total} checks)")
        return EXIT_OK
    print(f"selftest: FAIL ({total} checks)")
    return EXIT_MATH_FAIL


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one parser per process, built on the first main call: handlers and defaults bind then
    parser = _Parser(prog="hpgenus", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "table"), default="table", help="output format"
        )

    def add_trials_and_seed(p):
        p.add_argument(
            "--trials",
            type=int,
            default=obstruction.TRIALS,
            help="brute-force trials (default %(default)s)",
        )
        p.add_argument("--seed", type=int, default=0, help="randomization seed (default 0)")

    p = sub.add_parser(
        "verify-lemma",
        help="check one (prime, degree, sign) triple both ways",
    )
    p.add_argument("--prime", type=int, required=True, help="odd prime p")
    p.add_argument("--degree", type=int, required=True, help="non-zero degree coprime to p")
    p.add_argument("--epsilon", type=_sign_arg, required=True, help="genus sign at p: +1 or -1")
    add_trials_and_seed(p)
    add_format(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("admissible", help="test a degree against a genus point")
    p.add_argument("--degree", type=int, required=True, help="non-zero degree")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--genus", help='inline spec, e.g. "3:-1,7:+1;default=+1"')
    source.add_argument("--genus-file", help="path to a JSON genus document")
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument(
        "--primes", type=_prime_list_arg, help="comma-separated odd primes, e.g. 3,5,7"
    )
    scope.add_argument("--bound", type=int, help="test all odd primes up to this bound")
    add_format(p)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("forced-genus", help="invariants a degree forces per prime")
    p.add_argument("--degree", type=int, required=True, help="non-zero degree")
    p.add_argument("--bound", type=int, required=True, help="report odd primes up to this bound")
    add_format(p)
    p.set_defaults(func=_cmd_forced_genus)

    p = sub.add_parser("example-xp", help="single-exception genus point and its witness degree")
    p.add_argument("--prime", type=int, required=True, help="odd prime")
    add_format(p)
    p.set_defaults(func=_cmd_example_xp)

    p = sub.add_parser("selftest", help="run the library's property sweeps")
    p.add_argument(
        "--max-prime",
        type=int,
        default=selftest.MAX_PRIME,
        help="largest prime to sweep (default %(default)s)",
    )
    p.add_argument(
        "--max-degree",
        type=int,
        default=selftest.MAX_DEGREE,
        help="largest |degree| to sweep (default %(default)s)",
    )
    add_trials_and_seed(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"hpgenus: error: {_bounded(str(exc))}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        hint = ": try a smaller --bound" if getattr(args, "bound", None) is not None else ""
        print(f"hpgenus: error: {args.command} ran out of memory{hint}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
