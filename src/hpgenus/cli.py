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
    1   usage or input error
    2   mathematical failure (obstructed / congruence fails / suite failure)
    3   internal inconsistency: the two verification routes disagree
        (must never happen)

Output is byte-identical for identical flags: the seed is 0 unless --seed
sets it, and no environment variable changes it.  Results go to stdout
(JSON as a single document with sorted keys); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import selftest
from . import obstruction
from .genus import (
    DegreeMapModel,
    RectorInvariant,
    psi_then_pullback,
    pullback_then_psi,
    sign_from_str,
    sign_to_str,
)
from .primes import odd_primes_upto

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2
EXIT_INCONSISTENT = 3

#: the most brute-force trials ``--trials`` accepts, on verify-lemma and selftest
TRIALS_CEILING = 100_000


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2 (2 means "the math
    # says no" here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def parse_genus_spec(spec: str) -> RectorInvariant:
    """Parse the inline genus grammar ``"p1:s1,p2:s2;default=s"``.

    The default part is required; the exception list may be empty, e.g.
    ``"default=+1"`` or ``"3:-1,7:+1;default=+1"``.
    """
    default = None
    exceptions: dict[int, int] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("default="):
            if default is not None:
                raise ValueError(f"duplicate default in genus spec {spec!r}")
            default = sign_from_str(part[len("default=") :].strip())
            continue
        for entry in part.split(","):
            entry = entry.strip()
            if not entry:
                continue
            prime_text, sep, sign_text = entry.partition(":")
            if not sep:
                raise ValueError(f"bad genus entry {entry!r}, expected 'prime:sign'")
            try:
                prime = int(prime_text)
            except ValueError:
                raise ValueError(f"bad prime {prime_text!r} in genus spec")
            if prime in exceptions:
                raise ValueError(f"duplicate prime {prime} in genus spec")
            exceptions[prime] = sign_from_str(sign_text.strip())
    if default is None:
        raise ValueError(f"genus spec {spec!r} is missing 'default=+1' or 'default=-1'")
    return RectorInvariant(default, exceptions)


def _load_genus(args) -> RectorInvariant:
    if args.genus is not None:
        return parse_genus_spec(args.genus)
    with open(args.genus_file, "r", encoding="utf-8") as handle:
        return RectorInvariant.from_json_dict(json.load(handle))


def _emit(payload: dict, rows: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(key) for key, _ in rows)
        for key, value in rows:
            print(f"{key.ljust(width)}  {value}")


def _genus_inline(genus: RectorInvariant) -> str:
    parts = [f"{p}:{sign_to_str(s)}" for p, s in genus.exceptions]
    body = ",".join(parts)
    tail = f"default={sign_to_str(genus.default)}"
    return f"{body};{tail}" if body else tail


def _check_trials_ceiling(trials: int) -> None:
    if trials > TRIALS_CEILING:
        raise ValueError(f"--trials must be at most {TRIALS_CEILING}, got {trials}")


# -- commands ----------------------------------------------------------------


def _cmd_verify_lemma(args) -> int:
    _check_trials_ceiling(args.trials)
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
        "epsilon": sign_to_str(epsilon),
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
        ("epsilon", sign_to_str(epsilon)),
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
    primes = args.primes if args.primes is not None else odd_primes_upto(args.bound)
    verdict = obstruction.admissible(genus, args.degree, primes)
    payload = {
        "command": "admissible",
        "degree": args.degree,
        "genus": genus.to_json_dict(),
        "verdict": verdict.to_json_dict(),
    }
    rows = [
        ("degree", str(args.degree)),
        ("genus", _genus_inline(genus)),
        ("outcome", verdict.outcome),
    ]
    if not verdict.is_admissible:
        rows.extend(
            [
                ("prime", str(verdict.prime)),
                ("required", sign_to_str(verdict.required)),
                ("actual", sign_to_str(verdict.actual)),
            ]
        )
    rows.append(
        ("skipped", ",".join(str(p) for p in verdict.skipped) if verdict.skipped else "(none)")
    )
    _emit(payload, rows, args.format)
    return EXIT_OK if verdict.is_admissible else EXIT_MATH_FAIL


def _cmd_forced_genus(args) -> int:
    report = obstruction.forced_genus(args.degree, args.bound)
    payload = {"command": "forced-genus", **report.to_json_dict()}
    forced_text = (
        " ".join(f"{p}:{sign_to_str(s)}" for p, s in report.forced) if report.forced else "(none)"
    )
    rows = [
        ("degree", str(report.degree)),
        ("bound", str(report.bound)),
        ("forced", forced_text),
        ("free", ",".join(str(p) for p in report.free)),
        ("free primes over all of Z", str(report.free_count_total)),
        (
            "max surviving genus points (necessary-condition bound)",
            str(report.max_surviving),
        ),
    ]
    _emit(payload, rows, args.format)
    return EXIT_OK


def _cmd_example_xp(args) -> int:
    point, witness = obstruction.example_xp(args.prime)
    verdict = obstruction.admissible(point, witness, [args.prime])
    symbol = sign_to_str(obstruction.legendre(witness, args.prime))
    payload = {
        "command": "example-xp",
        "prime": args.prime,
        "genus": point.to_json_dict(),
        "witness_degree": witness,
        "witness_symbol": symbol,
        "single_prime_verdict": verdict.to_json_dict(),
    }
    rows = [
        ("prime", str(args.prime)),
        ("genus", _genus_inline(point)),
        ("witness degree", str(witness)),
        ("witness symbol", symbol),
        (f"admissible at {{{args.prime}}}", verdict.outcome),
    ]
    _emit(payload, rows, args.format)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    _check_trials_ceiling(args.trials)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hpgenus", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "table"), default="table", help="output format"
        )

    p = sub.add_parser(
        "verify-lemma",
        help="check one (prime, degree, sign) triple both ways",
    )
    p.add_argument("--prime", type=int, required=True, help="odd prime p")
    p.add_argument("--degree", type=int, required=True, help="non-zero degree coprime to p")
    p.add_argument("--epsilon", type=_sign_arg, required=True, help="genus sign at p: +1 or -1")
    p.add_argument("--trials", type=int, default=200, help="brute-force trials (default 200)")
    p.add_argument("--seed", type=int, default=0, help="randomization seed (default 0)")
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
    p.add_argument("--max-prime", type=int, default=31, help="largest prime to sweep (default 31)")
    p.add_argument(
        "--max-degree", type=int, default=50, help="largest |degree| to sweep (default 50)"
    )
    p.add_argument("--trials", type=int, default=200, help="brute-force trials (default 200)")
    p.add_argument("--seed", type=int, default=0, help="randomization seed (default 0)")
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
    except ValueError as exc:
        print(f"hpgenus: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"hpgenus: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
