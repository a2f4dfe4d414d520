import argparse
import contextlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from hpgenus import adams, cli, genus, obstruction, selftest
from hpgenus.primes import PRIME_TEST_CEILING, odd_primes_upto
from hpgenus.selftest import SuiteResult
from hpgenus.series import TruncatedSeries

from oracles import legendre_by_enumeration


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_prime_tests(monkeypatch):
    """Patch is_prime where genus and obstruction look it up; return the list of tested n."""
    tested = []
    real = genus.is_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(genus, "is_prime", counting)
    monkeypatch.setattr(obstruction, "is_prime", counting)
    return tested


def table_to_dict(out):
    rows = {}
    for line in out.splitlines():
        if "  " in line:
            key, _, value = line.partition("  ")
            rows[key.rstrip()] = value.strip()
    return rows


class TestVerifyLemma:
    def test_passing_triple(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-lemma", "--prime", "3", "--degree", "1", "--epsilon", "+1"
        )
        assert code == 0
        rows = table_to_dict(out)
        assert rows["lhs coefficient of t^4 mod 9"] == "6"
        assert rows["rhs coefficient of t^4 mod 9"] == "6"
        assert rows["congruence"] == "holds"

    def test_failing_triple_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lemma", "--prime", "3", "--degree", "1", "--epsilon", "-1"
        )
        assert code == 2
        assert "fails" in out

    def test_composite_prime_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-lemma", "--prime", "4", "--degree", "1", "--epsilon", "+1"
        )
        assert code == 1
        assert "p must be a prime >= 3, got 4" in err

    def test_degree_sharing_factor_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-lemma", "--prime", "3", "--degree", "6", "--epsilon", "+1"
        )
        assert code == 1

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-lemma",
            "--prime",
            "3",
            "--degree",
            "1",
            "--epsilon",
            "+1",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs_coefficient"] == 6
        assert doc["rhs_coefficient"] == 6
        assert doc["modulus"] == 9
        assert doc["coefficient_index"] == 4
        assert doc["criterion_passes"] is True
        assert doc["bruteforce_passes"] is True
        assert doc["methods_agree"] is True

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_large_prime(self, capsys, epsilon):
        # one trial at p = 1009 builds a psi table at order 1011 mod p^2
        p, k = 1009, 2
        code, out, _ = run_cli(
            capsys, "verify-lemma", "--prime", str(p), "--degree", str(k),
            f"--epsilon={epsilon:+d}", "--trials", "1", "--format", "json",
        )
        holds = epsilon == legendre_by_enumeration(k, p)
        assert code == (0 if holds else 2)
        doc = json.loads(out)
        assert doc["criterion_passes"] is holds
        assert doc["bruteforce_passes"] is holds
        assert doc["rhs_coefficient"] == 2 * p * k % p**2
        assert doc["lhs_coefficient"] == 2 * epsilon * p * k ** ((p + 1) // 2) % p**2
        assert adams._psi_rows.cache_info().maxsize is not None

    def test_internal_disagreement_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr("hpgenus.obstruction.compatible", lambda p, e, k: False)
        code, _, err = run_cli(
            capsys, "verify-lemma", "--prime", "3", "--degree", "1", "--epsilon", "+1"
        )
        assert code == 3
        assert "inconsistency" in err


class TestTrialsCeiling:
    """--trials has one ceiling, checked before any work on both commands."""

    def test_verify_lemma_at_the_ceiling(self, capsys):
        # (2/7) = +1, so the -1 sign fails on the first trial
        code, out, _ = run_cli(
            capsys, "verify-lemma", "--prime", "7", "--degree", "2", "--epsilon", "-1",
            "--trials", str(cli.TRIALS_CEILING), "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["trials"] == cli.TRIALS_CEILING

    def test_verify_lemma_above_the_ceiling_exits_one(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.obstruction, "compatible", never)
        code, out, err = run_cli(
            capsys, "verify-lemma", "--prime", "7", "--degree", "2", "--epsilon", "+1",
            "--trials", str(cli.TRIALS_CEILING + 1),
        )
        assert code == 1
        assert out == ""
        assert f"at most {cli.TRIALS_CEILING}" in err

    def test_selftest_at_the_ceiling(self, capsys, monkeypatch):
        seen = []

        def passing(**kwargs):
            seen.append(kwargs["trials"])
            return [SuiteResult("lemma-equivalence", 1, 0)]

        monkeypatch.setattr(selftest, "run_all", passing)
        code, out, _ = run_cli(capsys, "selftest", "--trials", str(cli.TRIALS_CEILING))
        assert code == 0
        assert seen == [cli.TRIALS_CEILING]

    def test_selftest_above_the_ceiling_exits_one(self, capsys, monkeypatch):
        def never(**kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(selftest, "run_all", never)
        code, out, err = run_cli(capsys, "selftest", "--trials", str(cli.TRIALS_CEILING + 1))
        assert code == 1
        assert out == ""
        assert f"at most {cli.TRIALS_CEILING}" in err


class TestBoundCeiling:
    """--bound has one ceiling on admissible and forced-genus, checked before the sieve."""

    ADMISSIBLE = ("admissible", "--degree", "1", "--genus", "default=+1")
    FORCED_GENUS = ("forced-genus", "--degree", "6")

    def test_admissible_at_the_ceiling(self, capsys, monkeypatch):
        seen = []

        def small_sieve(bound):
            seen.append(bound)
            return [3, 5, 7]

        monkeypatch.setattr(cli, "odd_primes_upto", small_sieve)
        code, _, _ = run_cli(capsys, *self.ADMISSIBLE, "--bound", str(cli.BOUND_CEILING))
        assert code == 0
        assert seen == [cli.BOUND_CEILING]

    def test_forced_genus_at_the_ceiling(self, capsys, monkeypatch):
        seen = []

        def small_sieve(bound):
            seen.append(bound)
            return [3, 5, 7]

        monkeypatch.setattr(obstruction, "odd_primes_upto", small_sieve)
        code, out, _ = run_cli(
            capsys, *self.FORCED_GENUS, "--bound", str(cli.BOUND_CEILING), "--format", "json"
        )
        assert code == 0
        assert seen == [cli.BOUND_CEILING]
        assert json.loads(out)["bound"] == cli.BOUND_CEILING

    @pytest.mark.parametrize("command", [ADMISSIBLE, FORCED_GENUS])
    @pytest.mark.parametrize("bound", [cli.BOUND_CEILING + 1, 10**11])
    def test_above_the_ceiling_exits_one_before_the_sieve(
        self, capsys, monkeypatch, command, bound
    ):
        def never(bound):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr(cli, "odd_primes_upto", never)
        monkeypatch.setattr(obstruction, "odd_primes_upto", never)
        code, out, err = run_cli(capsys, *command, "--bound", str(bound))
        assert code == 1
        assert out == ""
        assert f"--bound must be at most {cli.BOUND_CEILING}" in err


class TestSweepCeilings:
    """verify-lemma --prime, selftest --max-prime, --max-degree: each a ceiling, checked first."""

    LEMMA = ("verify-lemma", "--degree", "2", "--epsilon", "+1")
    SELFTEST_FLAGS = [
        ("--max-prime", "max_prime", cli.MAX_PRIME_CEILING),
        ("--max-degree", "max_degree", cli.MAX_DEGREE_CEILING),
    ]

    def test_verify_lemma_at_the_ceiling(self, capsys, monkeypatch):
        # stand-ins for the work, so the accepted value runs no expansion at that order
        monkeypatch.setattr(cli.obstruction, "compatible", lambda p, e, k: True)
        monkeypatch.setattr(cli.obstruction, "compatible_bruteforce", lambda p, e, k, **kw: True)
        for route in ("psi_then_pullback", "pullback_then_psi"):
            monkeypatch.setattr(cli, route, lambda p, *rest: TruncatedSeries(p + 2))
        code, out, _ = run_cli(
            capsys, *self.LEMMA, "--prime", str(cli.LEMMA_PRIME_CEILING), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["prime"] == cli.LEMMA_PRIME_CEILING

    @pytest.mark.parametrize("prime", [cli.LEMMA_PRIME_CEILING + 1, 1000003])
    def test_verify_lemma_above_the_ceiling_exits_one(self, capsys, monkeypatch, prime):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.obstruction, "compatible", never)
        code, out, err = run_cli(capsys, *self.LEMMA, "--prime", str(prime))
        assert code == 1
        assert out == ""
        assert f"--prime must be at most {cli.LEMMA_PRIME_CEILING}" in err

    @pytest.mark.parametrize("flag, key, ceiling", SELFTEST_FLAGS)
    def test_selftest_at_the_ceiling(self, capsys, monkeypatch, flag, key, ceiling):
        seen = []

        def passing(**kwargs):
            seen.append(kwargs[key])
            return [SuiteResult("lemma-equivalence", 1, 0)]

        monkeypatch.setattr(selftest, "run_all", passing)
        code, _, _ = run_cli(capsys, "selftest", flag, str(ceiling))
        assert code == 0
        assert seen == [ceiling]

    @pytest.mark.parametrize("flag, key, ceiling", SELFTEST_FLAGS)
    def test_selftest_above_the_ceiling_exits_one(self, capsys, monkeypatch, flag, key, ceiling):
        def never(**kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(selftest, "run_all", never)
        code, out, err = run_cli(capsys, "selftest", flag, str(ceiling + 1))
        assert code == 1
        assert out == ""
        assert f"{flag} must be at most {ceiling}" in err


class TestAdmissible:
    def test_all_plus_degree_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "default=+1", "--bound", "100"
        )
        assert code == 0
        assert "Admissible" in out

    def test_single_minus_obstructed(self, capsys):
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "3:-1;default=+1", "--bound", "10"
        )
        assert code == 2
        assert "Obstructed" in out

    def test_single_prime_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "2", "--genus", "3:-1;default=+1", "--primes", "3"
        )
        assert code == 0
        assert "Admissible" in out

    def test_malformed_genus_spec_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "3:-1", "--bound", "10"
        )
        assert code == 1
        assert "default" in err

    def test_bad_sign_in_spec_exits_one(self, capsys):
        code, _, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "3:0;default=+1", "--bound", "10"
        )
        assert code == 1

    def test_genus_file(self, capsys, tmp_path):
        doc = {"default": "+1", "exceptions": {"5": "-1"}}
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus-file", str(path), "--primes", "5"
        )
        assert code == 2
        assert "Obstructed" in out

    def test_genus_file_with_duplicate_prime_exits_one(self, capsys, tmp_path):
        doc = {"default": "+1", "exceptions": {"3": "-1", "03": "+1"}}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        # an inline spec reaches the same check, in RectorInvariant
        for source in (("--genus-file", str(path)), ("--genus", "3:-1,3:+1;default=+1")):
            code, _, err = run_cli(
                capsys, "admissible", "--degree", "1", *source, "--primes", "3,5"
            )
            assert code == 1
            assert "duplicate exception for prime 3" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"default": "+1", "exceptions": {"3": "-1", "3": "+1"}}', "'3'"),
            ('{"default": "+1", "default": "-1"}', "'default'"),
        ],
    )
    def test_genus_file_with_a_repeated_key_exits_one(self, capsys, tmp_path, text, key):
        # the same repeats in an inline spec exit 1 too: json must not keep the last value
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, _, err = run_cli(
            capsys, "admissible", "--degree", "2", "--genus-file", str(path), "--primes", "3"
        )
        assert code == 1
        assert err == f"hpgenus: error: duplicate key {key} in genus document\n"

    def test_bad_genus_key_has_one_message_in_both_forms(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"default": "+1", "exceptions": {"x": "-1"}}))
        for source in (("--genus-file", str(path)), ("--genus", "x:-1;default=+1")):
            code, _, err = run_cli(
                capsys, "admissible", "--degree", "2", *source, "--primes", "3"
            )
            assert code == 1
            assert err == "hpgenus: error: exception key must be a prime, got 'x'\n"

    def test_deeply_nested_genus_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run_cli(
            capsys, "admissible", "--degree", "2", "--genus-file", str(path), "--primes", "3"
        )
        assert code == 1
        assert err.startswith("hpgenus: error: malformed genus document")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_genus_file_above_the_ceiling_exits_one(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "GENUS_FILE_CEILING", 64)
        doc = '{"default": "+1", "exceptions": {"5": "-1"}}'
        path = tmp_path / "genus.json"
        path.write_text(doc.ljust(64))
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus-file", str(path), "--primes", "5"
        )
        assert code == 2 and "Obstructed" in out
        path.write_text(doc.ljust(65))
        code, out, err = run_cli(
            capsys, "admissible", "--degree", "1", "--genus-file", str(path), "--primes", "5"
        )
        assert code == 1 and out == ""
        assert err == "hpgenus: error: --genus-file must be at most 64 characters, got more\n"

    def test_endless_genus_file_exits_one(self, capsys):
        # /dev/zero never ends: only the ceiling's characters are read
        code, out, err = run_cli(
            capsys, "admissible", "--degree", "2", "--genus-file", "/dev/zero", "--primes", "3"
        )
        assert code == 1 and out == ""
        assert err == (
            f"hpgenus: error: --genus-file must be at most {cli.GENUS_FILE_CEILING} "
            "characters, got more\n"
        )

    def test_large_malformed_genus_file_has_a_short_message(self, capsys, tmp_path):
        # the message names the document's type, never echoes the document
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps([0] * 200_000))
        code, _, err = run_cli(
            capsys, "admissible", "--degree", "2", "--genus-file", str(path), "--primes", "3"
        )
        assert code == 1
        assert err.startswith("hpgenus: error: malformed genus document of type list")
        assert err.count("\n") == 1 and len(err) < 200

    def test_missing_genus_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "admissible",
            "--degree",
            "1",
            "--genus-file",
            str(tmp_path / "nope.json"),
            "--primes",
            "5",
        )
        assert code == 1

    def test_even_prime_exits_one(self, capsys):
        code, _, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "default=+1", "--primes", "2,3"
        )
        assert code == 1

    @pytest.mark.parametrize("scope", [("--primes", ",,"), ("--bound", "2")])
    def test_empty_prime_set_exits_one(self, capsys, scope):
        code, out, err = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "default=+1", *scope
        )
        assert code == 1
        assert out == ""
        assert "empty" in err

    @pytest.mark.parametrize("scope", [("--primes", "3"), ("--bound", "3")])
    def test_every_prime_dividing_the_degree_exits_one(self, capsys, scope):
        code, out, err = run_cli(
            capsys, "admissible", "--degree", "3", "--genus", "3:-1;default=+1", *scope
        )
        assert code == 1
        assert out == ""
        assert "divides the degree" in err

    def test_large_prime_answers_promptly(self):
        # 2^61 - 1 is prime: trial division up to its root would not finish
        proc = subprocess.run(
            [sys.executable, "-m", "hpgenus", "admissible", "--degree", "1",
             "--genus", "default=+1", "--primes", str(2**61 - 1)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "Admissible" in proc.stdout

    def test_prime_above_the_test_ceiling_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "default=+1",
            "--primes", str(2**89 - 1),
        )
        assert code == 1
        assert out == ""
        assert str(PRIME_TEST_CEILING) in err

    def test_bound_tests_only_the_spec_primes(self, capsys, monkeypatch):
        # the sieve's primes go straight to the verdict; 997 is tested once, as a genus key
        tested = count_prime_tests(monkeypatch)
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "997:-1;default=+1",
            "--bound", "1000",
        )
        assert code == 2
        assert table_to_dict(out)["prime"] == "997"
        assert tested == [997]

    def test_primes_test_a_genus_key_once(self, capsys, monkeypatch):
        # 13 and 23 are tested as genus keys, not again as --primes
        tested = count_prime_tests(monkeypatch)
        code, _, _ = run_cli(
            capsys, "admissible", "--degree", "5", "--genus", "13:-1,23:-1;default=+1",
            "--primes", "3,13,23,29",
        )
        assert code == 2
        assert tested == [13, 23, 3, 29]

    def test_an_even_genus_key_in_primes_still_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "admissible", "--degree", "1", "--genus", "2:-1;default=+1",
            "--primes", "2,3",
        )
        assert (code, out) == (1, "")
        assert "p must be a prime >= 3, got 2" in err

    def test_json_verdict_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "admissible",
            "--degree",
            "2",
            "--genus",
            "3:-1;default=+1",
            "--primes",
            "3,5,7",
            "--format",
            "json",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"]["outcome"] == "Obstructed"
        assert doc["verdict"]["prime"] == 5
        assert doc["verdict"]["required"] == "-1"
        assert doc["verdict"]["actual"] == "+1"


class TestForcedGenus:
    def test_degree_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "forced-genus", "--degree", "1", "--bound", "20", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["forced"] == {str(p): "+1" for p in (3, 5, 7, 11, 13, 17, 19)}
        assert doc["free"] == [2]
        assert doc["max_surviving_genus_points"] == 2

    def test_degree_six_table(self, capsys):
        code, out, _ = run_cli(capsys, "forced-genus", "--degree", "6", "--bound", "10")
        assert code == 0
        assert "5:+1 7:-1" in out
        assert "max surviving genus points (necessary-condition bound)" in out
        assert out.rstrip().endswith("4")

    def test_zero_degree_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "forced-genus", "--degree", "0", "--bound", "10")
        assert code == 1

    @pytest.mark.parametrize("degree", [PRIME_TEST_CEILING, -PRIME_TEST_CEILING, 10**30])
    def test_degree_at_or_above_the_prime_test_ceiling_exits_one(self, capsys, degree):
        code, out, err = run_cli(capsys, "forced-genus", f"--degree={degree}", "--bound", "10")
        assert code == 1
        assert out == ""
        assert str(PRIME_TEST_CEILING) in err

    def test_large_prime_degree_answers_promptly(self):
        # 10^24 + 7 is prime: trial division up to its root would not finish
        proc = subprocess.run(
            [sys.executable, "-m", "hpgenus", "forced-genus", "--degree", str(10**24 + 7),
             "--bound", "10", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["free_count_total"] == 2
        assert doc["forced"] == {"3": "-1", "5": "-1", "7": "+1"}


class TestExampleXp:
    def test_seven(self, capsys):
        code, out, _ = run_cli(capsys, "example-xp", "--prime", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["witness_degree"] == 3
        assert doc["genus"] == {"default": "+1", "exceptions": {"7": "-1"}}
        assert doc["single_prime_verdict"]["outcome"] == "Admissible"

    def test_three(self, capsys):
        code, out, _ = run_cli(capsys, "example-xp", "--prime", "3")
        assert code == 0
        assert table_to_dict(out)["witness degree"] == "2"

    def test_composite_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "example-xp", "--prime", "9")
        assert code == 1

    def test_the_prime_is_tested_once(self, capsys, monkeypatch):
        tested = count_prime_tests(monkeypatch)
        code, out, _ = run_cli(capsys, "example-xp", "--prime", "1000003")
        assert code == 0
        assert table_to_dict(out)["witness symbol"] == "-1"
        assert tested.count(1000003) == 1


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "selftest",
            "--max-prime",
            "5",
            "--max-degree",
            "4",
            "--trials",
            "5",
        )
        assert code == 0
        assert "selftest: PASS" in out
        for name in ("ring-axioms", "adams-laws", "frobenius", "legendre-oracle", "lemma-equivalence"):
            assert name in out

    def test_injected_fault_exits_two_with_counterexample(self, capsys, monkeypatch):
        def broken(**kwargs):
            return [SuiteResult("ring-axioms", 10, 1, "a * b != b * a for a=..., b=...")]

        monkeypatch.setattr("hpgenus.cli.selftest.run_all", broken)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 2
        assert "selftest: FAIL" in out
        assert "first counterexample" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-degree", "0"], "max_degree must be an integer >= 1, got 0"),
            (["--max-degree", "-5"], "max_degree must be an integer >= 1, got -5"),
            (["--max-prime", "2"], "max_prime must be an integer >= 3, got 2"),
            (["--max-prime", "1"], "max_prime must be an integer >= 3, got 1"),
            (["--trials", "0"], "trials must be an integer >= 1, got 0"),
        ],
    )
    def test_empty_sweep_exits_one_before_any_suite(self, capsys, no_suite, flags, message):
        code, out, err = run_cli(capsys, "selftest", *flags)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("name", ["max_degree", "trials"])
    def test_bool_sweep_size_raises_before_any_suite(self, no_suite, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got True"):
            selftest.run_all(**{name: True})

    def test_frobenius_suite_builds_each_psi_table_once(self):
        # 11 primes up to 31 times 15 orders 2..16: one table per (prime, order)
        adams._psi_rows.cache_clear()
        assert selftest.frobenius_suite().checks == 5500
        assert adams._psi_rows.cache_info().misses <= 165

    @pytest.mark.parametrize(
        "suite, args, target, name, lie, text",
        [
            (
                "ring_axiom_suite", (), TruncatedSeries, "__eq__", lambda self, other: False,
                "add commutes failed: a=TruncatedSeries(4, [-76, 14, 12, -15]) "
                "b=TruncatedSeries(4, [-2, 40, -28, -46]) c=TruncatedSeries(4, [22, -67, 6, 79])",
            ),
            (
                "adams_law_suite", (), selftest, "check_composition", lambda a, b, order: False,
                "psi^1 psi^1 != psi^1 at order 32",
            ),
            (
                "adams_law_suite", (), selftest, "psi_generator",
                lambda r, order: TruncatedSeries(order),
                "generator image of psi^1 malformed: TruncatedSeries(8, [0, 0, 0, 0, 0, 0, 0, 0])",
            ),
            (
                "adams_law_suite", (), selftest, "psi_apply", lambda r, f: f if r == 1 else f * f,
                "psi^5 not additive on TruncatedSeries(5, [0, 7, -6, 0, 8]), "
                "TruncatedSeries(5, [0, -8, -6, -6, 7])",
            ),
            (
                "adams_law_suite", (), selftest, "psi_apply", lambda r, f: f if r == 1 else f + f,
                "psi^5 not multiplicative on TruncatedSeries(5, [0, 7, -6, 0, 8]), "
                "TruncatedSeries(5, [0, -8, -6, -6, 7])",
            ),
            (
                "adams_law_suite", (), selftest, "psi_apply", lambda r, f: TruncatedSeries(f.order),
                "psi^1 moved TruncatedSeries(2, [0, 4])",
            ),
            (
                "frobenius_suite", (), selftest, "check_frobenius", lambda p, f: False,
                "psi^2(f) != f^2 mod 2 for f="
                "TruncatedSeries(10, [0, 8, -3, 8, 7, -5, 4, -2, -1, -1])",
            ),
            (
                "legendre_oracle_suite", (), selftest, "legendre", lambda k, p: 0,
                "(1/3) != 1 from square enumeration",
            ),
            (
                "lemma_equivalence_suite", (3, 1, 1), selftest, "compatible",
                lambda p, epsilon, k: None,
                "criterion=None but bruteforce=True at p=3, k=1, epsilon=+1",
            ),
        ],
        ids=[
            "ring", "composition", "generator", "additive", "multiplicative", "psi-one",
            "frobenius", "legendre", "lemma",
        ],
    )
    def test_first_counterexample_under_an_injected_fault(
        self, monkeypatch, suite, args, target, name, lie, text
    ):
        # each suite describes a failure from the values of the check that failed
        monkeypatch.setattr(target, name, lie)
        result = getattr(selftest, suite)(*args)
        assert result.failures > 0
        assert result.first_counterexample == text

    def test_suite_result_records_the_first_failure(self):
        result = SuiteResult("demo")
        result.check(True, lambda: "unused")
        result.check(False, lambda: "first")
        result.check(False, lambda: "second")
        assert result == SuiteResult("demo", 3, 2, "first")
        assert not result.ok

    def test_a_suite_with_no_checks_does_not_pass(self):
        # an odd-prime sweep below 3 is empty; so is a prime list below 2
        for result in (
            selftest.lemma_equivalence_suite(2, 50, 200, 0),
            selftest.frobenius_suite(1),
        ):
            assert result.checks == 0 and result.failures == 0
            assert not result.ok


class TestDeterminismAndPlumbing:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_byte_identical_output(self, capsys, fmt):
        argv = [
            "verify-lemma",
            "--prime",
            "5",
            "--degree",
            "3",
            "--epsilon",
            "-1",
            "--format",
            fmt,
        ]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "no-such-command")
        assert code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "verify-lemma", "--prime", "3")
        assert code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hpgenus", "example-xp", "--prime", "5", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["witness_degree"] == 2

    def test_genus_spec_parser(self):
        point = genus.RectorInvariant.from_spec("3:-1,7:+1;default=-1")
        assert point.default == -1
        # the 3:-1 entry equals the default, so canonical form drops it
        assert dict(point.exceptions) == {7: 1}
        assert point.lookup(3) == -1
        with pytest.raises(ValueError):
            genus.RectorInvariant.from_spec("3:-1;default=+1;default=-1")
        with pytest.raises(ValueError):
            genus.RectorInvariant.from_spec("3=-1;default=+1")


class TestBoundedEcho:
    """An error message is cut at ``cli.MESSAGE_CEILING``, however long the input it echoes."""

    LONG = "x" * 200_000
    #: stands for the path of the genus file written from the row's document
    FILE = object()
    FROM_FILE = ["admissible", "--degree", "1", "--primes", "3", "--genus-file", FILE]
    INLINE = ["admissible", "--degree", "1", "--primes", "3", "--genus"]

    @pytest.mark.parametrize(
        "argv, document",
        [
            (FROM_FILE, {"default": [0] * 200_000}),
            (FROM_FILE, {"default": "+1", "exceptions": {"3": [0] * 200_000}}),
            (FROM_FILE, {"default": "+1", "exceptions": {LONG: "-1"}}),
            ([*INLINE, f"3:{LONG};default=+1"], None),
            ([*INLINE, LONG], None),
            (["admissible", "--degree", "1", "--primes", f"3,{LONG}", "--genus", "-1"], None),
            (["verify-lemma", "--prime", "3", "--degree", "1", "--epsilon", LONG], None),
        ],
        ids=["file-default", "file-sign", "file-key", "spec-sign", "spec", "primes", "epsilon"],
    )
    def test_stderr_stays_under_1_kb(self, capsys, tmp_path, argv, document):
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, *[str(path) if arg is self.FILE else arg for arg in argv])
        assert code == 1
        assert len(err.encode()) < 1024 and "characters in all)\n" in err


class TestParserReuse:
    """``cli.main`` builds its parser on the first call and reuses it on every later one."""

    #: one call per command; selftest runs with its flag defaults against a stub sweep
    CALLS = [
        ["verify-lemma", "--prime", "5", "--degree", "3", "--epsilon", "-1", "--format", "json"],
        ["admissible", "--degree", "5", "--genus", "3:-1;default=+1", "--bound", "20"],
        ["forced-genus", "--degree", "6", "--bound", "30", "--format", "json"],
        ["example-xp", "--prime", "7"],
        ["selftest"],
    ]
    BETWEEN = [
        ["verify-lemma", "--prime", "x", "--degree", "3", "--epsilon", "+1"],  # usage error
        ["forced-genus", "--degree", "5", "--bound", str(cli.BOUND_CEILING + 1)],  # ValueError
    ]

    @pytest.fixture
    def stub_sweep(self, monkeypatch):
        # a fast sweep whose one suite records the flags the handler was given
        def stub(max_prime, max_degree, trials, seed):
            return [SuiteResult(f"sweep-{max_prime}-{max_degree}-{trials}-{seed}", 1)]

        monkeypatch.setattr(selftest, "run_all", stub)

    @pytest.mark.parametrize("argv", CALLS, ids=[argv[0] for argv in CALLS])
    def test_a_call_after_both_error_exits_repeats_the_first(self, capsys, stub_sweep, argv):
        first = run_cli(capsys, *argv)
        usage = run_cli(capsys, *self.BETWEEN[0])
        refused = run_cli(capsys, *self.BETWEEN[1])
        assert usage[0] == 1 and "error: argument --prime" in usage[2]
        assert refused[0] == 1 and f"must be at most {cli.BOUND_CEILING}" in refused[2]
        assert run_cli(capsys, *argv) == first
        assert first[0] in (0, 2) and first[1]

    def test_selftest_defaults_survive_reuse(self, capsys, stub_sweep):
        expected = f"sweep-{selftest.MAX_PRIME}-{selftest.MAX_DEGREE}-{obstruction.TRIALS}-0"
        for _ in range(2):
            code, out, _ = run_cli(capsys, "selftest")
            assert code == 0 and out.startswith(expected)

    @pytest.mark.parametrize(
        "argv", [["--help"]] + [[argv[0], "--help"] for argv in CALLS], ids=lambda a: " ".join(a)
    )
    def test_help_is_byte_identical_on_reuse(self, capsys, argv):
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and first[1].startswith("usage: hpgenus")
        assert run_cli(capsys, *argv) == first

    def test_a_warm_main_adds_no_argument(self, capsys, stub_sweep, monkeypatch):
        run_cli(capsys, *self.CALLS[0])
        added = []
        real = argparse.ArgumentParser.add_argument

        def counting(parser, *args, **kwargs):
            added.append(args)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        for argv in self.CALLS:
            run_cli(capsys, *argv)
        assert added == []


#: odd primes of one to five digits, the keys of the prime→sign maps the JSON writer splices
SMALL_PRIMES = tuple(odd_primes_upto(50000))
#: ascending prime→sign pairs, as a report's ``forced`` and a point's ``exceptions`` hold them
prime_sign_pairs = st.dictionaries(st.sampled_from(SMALL_PRIMES), st.sampled_from((1, -1))).map(
    lambda signs: tuple(sorted(signs.items()))
)
#: the map's two positions: ``forced`` at the top level, ``exceptions`` inside ``genus``
MAP_POSITIONS = {
    "forced": lambda signs: {"command": "forced-genus", "degree": 3, "forced": signs, "free": [2]},
    "exceptions": lambda signs: {
        "command": "admissible",
        "genus": {"default": "+1", "exceptions": signs},
        "verdict": {"outcome": "Admissible", "skipped": []},
    },
}


class TestJsonWriter:
    """``_json_document`` writes what ``json.dumps(indent=2, sort_keys=True)`` writes."""

    @pytest.mark.parametrize("key", sorted(MAP_POSITIONS))
    @given(prime_sign_pairs)
    @example(())
    @example(((3, -1), (7, 1), (11, -1), (101, 1), (1009, -1), (10007, 1)))
    @example(tuple((p, 1 if i % 3 else -1) for i, p in enumerate(SMALL_PRIMES[:5000])))
    def test_splices_the_map_the_indenting_encoder_writes(self, key, pairs):
        document = MAP_POSITIONS[key]
        signs = {str(p): genus.SIGN_TEXT[s] for p, s in pairs}
        expected = json.dumps(document(signs), indent=2, sort_keys=True)
        assert cli._json_document(document({}), key, pairs) == expected

    def test_forced_genus_document_matches_the_indenting_encoder(self, capsys):
        code, out, _ = run_cli(
            capsys, "forced-genus", "--degree", "2", "--bound", "50000", "--format", "json"
        )
        report = obstruction.forced_genus(2, 50000)
        payload = {"command": "forced-genus", **report.to_json_dict()}
        assert len(report.forced) > cli.PAIRS_PER_RUN
        assert code == 0
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_genus_file_document_matches_the_indenting_encoder(self, capsys, tmp_path):
        exceptions = {str(p): "-1" for p in SMALL_PRIMES[:5000]}
        path = tmp_path / "genus.json"
        path.write_text(json.dumps({"default": "+1", "exceptions": exceptions}))
        code, out, _ = run_cli(
            capsys, "admissible", "--degree", "2", "--genus-file", str(path), "--primes", "5,7",
            "--format", "json",
        )
        point = genus.RectorInvariant.from_json_dict({"default": "+1", "exceptions": exceptions})
        payload = {
            "command": "admissible",
            "degree": 2,
            "genus": point.to_json_dict(),
            "verdict": obstruction.admissible(point, 2, [5, 7]).to_json_dict(),
        }
        assert len(point.exceptions) > cli.PAIRS_PER_RUN
        assert code == 2
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestSignText:
    """Each writer that runs once per prime reads the two shared sign strings."""

    def test_every_forced_prime_shares_the_sign_strings(self):
        report = obstruction.forced_genus(3, 1000)
        texts = report.to_json_dict()["forced"].values()
        assert all(text is genus.SIGN_TEXT[s] for text, (_, s) in zip(texts, report.forced))

    def test_genus_points_and_verdicts_share_the_sign_strings(self):
        point = genus.RectorInvariant(-1, {3: 1, 5: 1})
        doc = point.to_json_dict()
        assert doc["default"] is genus.SIGN_TEXT[-1]
        assert all(text is genus.SIGN_TEXT[1] for text in doc["exceptions"].values())
        assert point.to_spec() == "3:+1,5:+1;default=-1"
        verdict = obstruction.Verdict("Obstructed", prime=3, required=1, actual=-1).to_json_dict()
        assert verdict["required"] is genus.SIGN_TEXT[1]
        assert verdict["actual"] is genus.SIGN_TEXT[-1]

    #: tracemalloc bytes per forced prime at a bound of 30000, where this tree peaks at about
    #: 136 as a table and 370 as JSON: a sign string built per prime adds about 51 to the JSON
    #: document, and the table peaked at 221 while it read that document and joined one
    #: string per forced prime
    @pytest.mark.parametrize("fmt, budget", [("table", 150), ("json", 390)])
    def test_forced_genus_peak_per_forced_prime(self, fmt, budget):
        bound = 30000
        pairs = len(obstruction.forced_genus(3, bound).forced)
        argv = ["forced-genus", "--degree", "3", "--bound", str(bound), "--format", fmt]
        cli.build_parser()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < budget * pairs, f"{peak / pairs:.0f} bytes per forced prime"


def out_of_memory(*args, **kwargs):
    raise MemoryError


class TestOutOfMemory:
    """A MemoryError in any command exits 1 with one line on stderr, not a traceback.

    The line suggests a smaller --bound only to a call that gave one."""

    @pytest.mark.parametrize(
        "argv, owner, name, hint",
        [
            (["forced-genus", "--degree", "3", "--bound", "100"], obstruction, "forced_genus",
             True),
            (["forced-genus", "--degree", "3", "--bound", "100", "--format", "json"], cli,
             "_json_document", True),
            (["admissible", "--degree", "4", "--genus", "default=+1", "--bound", "100"],
             obstruction, "_admissible", True),
            (["admissible", "--degree", "4", "--genus", "default=+1", "--primes", "3,5"],
             obstruction, "admissible", False),
            (["verify-lemma", "--prime", "5", "--degree", "2", "--epsilon", "-1"], obstruction,
             "compatible_bruteforce", False),
            (["example-xp", "--prime", "7"], obstruction, "example_xp", False),
            (["selftest", "--max-prime", "3"], selftest, "run_all", False),
        ],
        ids=[
            "forced-genus",
            "json-writer",
            "admissible",
            "admissible-primes",
            "verify-lemma",
            "example-xp",
            "selftest",
        ],
    )
    def test_exits_one_with_one_line(self, capsys, monkeypatch, argv, owner, name, hint):
        monkeypatch.setattr(owner, name, out_of_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        tail = ": try a smaller --bound" if hint else ""
        assert err == f"hpgenus: error: {argv[0]} ran out of memory{tail}\n"
