import json
import subprocess
import sys

import pytest

from hpgenus import adams, cli, selftest
from hpgenus.primes import PRIME_TEST_CEILING
from hpgenus.selftest import SuiteResult

from oracles import legendre_by_enumeration


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "odd prime" in err

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
            (["--max-degree", "0"], "max_degree must be at least 1"),
            (["--max-degree", "-5"], "max_degree must be at least 1"),
            (["--max-prime", "2"], "max_prime must be at least 3"),
            (["--max-prime", "1"], "max_prime must be at least 3"),
            (["--trials", "0"], "trials must be at least 1"),
        ],
    )
    def test_empty_sweep_exits_one_before_any_suite(self, capsys, monkeypatch, flags, message):
        def never(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(selftest, "ring_axiom_suite", never)
        code, out, err = run_cli(capsys, "selftest", *flags)
        assert code == 1
        assert out == ""
        assert message in err

    def test_frobenius_suite_builds_each_psi_table_once(self):
        # 11 primes up to 31 times 15 orders 2..16: one table per (prime, order)
        adams._psi_rows.cache_clear()
        assert selftest.frobenius_suite().checks == 5500
        assert adams._psi_rows.cache_info().misses <= 165

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
        point = cli.parse_genus_spec("3:-1,7:+1;default=-1")
        assert point.default == -1
        # the 3:-1 entry equals the default, so canonical form drops it
        assert point.exception_map() == {7: 1}
        assert point.lookup(3) == -1
        with pytest.raises(ValueError):
            cli.parse_genus_spec("3:-1;default=+1;default=-1")
        with pytest.raises(ValueError):
            cli.parse_genus_spec("3=-1;default=+1")
