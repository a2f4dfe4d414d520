"""Tests of the benchmark's own code: seeded inputs, oracles, span and
percentile arithmetic, and agreement between BENCHMARK.json and the code.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hpgenus.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics, package_targets, self_times  # noqa: E402

hp = hpgenus


# -- seeded inputs ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    first = workloads.generate(name, 7, 2)
    assert first == workloads.generate(name, 7, 2)
    assert first != workloads.generate(name, 8, 2)
    assert workloads.generate(name, 7, 1) == first[:1]
    assert workloads.generate(name, 7, 2, part=1) != first


def test_sweep_rounds_cover_every_prime_once():
    for batch in workloads.generate("sweep", 3, 5):
        assert sorted(op["p"] for op in batch) == list(workloads.SWEEP_PRIMES)
        assert all(1 <= abs(op["k"]) <= 50 and op["k"] % op["p"] for op in batch)


def test_large_prime_round_is_ascending_with_four_degrees_each():
    (batch,) = workloads.generate("large-prime", 3, 1)
    primes = [op["p"] for op in batch]
    assert primes == sorted(primes)
    assert primes[::4] == [p for p in range(37, 158) if oracle.is_prime(p)]
    assert len(batch) == 4 * len(primes[::4])


# -- oracles ---------------------------------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_miller_rabin_matches_trial_division_and_rejects_pseudoprimes():
    assert [n for n in range(5000) if oracle.is_prime(n)] == [
        n for n in range(5000) if _trial_division(n)
    ]
    # strong pseudoprimes to the first four and the first nine prime bases
    assert not oracle.is_prime(3215031751)
    assert not oracle.is_prime(3825123056546413051)
    assert oracle.is_prime(999999999989)
    with pytest.raises(ValueError):
        oracle.is_prime(318665857834031151167461)


def test_jacobi_matches_square_enumeration():
    for p in oracle.odd_primes(400):
        squares = oracle.squares_mod(p)
        for k in range(-60, 61):
            if k % p:
                assert oracle.jacobi(k, p) == (1 if k % p in squares else -1)


def test_verify_lemma_coefficients_follow_the_closed_forms():
    # (2/7) = +1: both signs give 2pk = 28 on the right, and the left is
    # 2*eps*p*k^4 = +-224 mod 49
    assert oracle.verify_lemma(7, 2, 1, 5)[1]["lhs_coefficient"] == 224 % 49
    assert oracle.verify_lemma(7, 2, -1, 5)[1]["lhs_coefficient"] == -224 % 49
    assert oracle.verify_lemma(7, 2, 1, 5)[1]["rhs_coefficient"] == 28
    assert oracle.verify_lemma(7, 2, 1, 5)[0] == 0
    assert oracle.verify_lemma(7, 2, -1, 5)[0] == 2


def _sample_ops():
    sweep = next(op for op in workloads.generate("sweep", 1, 1)[0] if op["p"] == 3)
    lemma = workloads.generate("large-prime", 1, 1)[0][0]
    census = workloads.generate("census", 1, 1)[0]
    return [sweep, lemma, *census]


def test_package_output_matches_oracles():
    ops = _sample_ops()
    assert {op["kind"] for op in ops} == {
        "sweep", "verify-lemma", "admissible", "forced-genus", "example-xp"
    }
    outputs = [workloads.run_op(hp, op) for op in ops]
    assert workloads.failed_ops(ops, outputs) == []


def _wrong(op, output):
    """A copy of a correct output with its verdict or one value changed."""
    if op["kind"] == "sweep":
        return tuple(not v for v in output)
    if op["kind"] == "verify-lemma":
        return (_wrong({"kind": "cli"}, output[0]), output[1])
    code, text = output
    payload = json.loads(text)
    if "verdict" in payload:
        flipped = "Admissible" if payload["verdict"]["outcome"] == "Obstructed" else "Obstructed"
        payload["verdict"]["outcome"] = flipped
    elif "forced" in payload:
        payload["free_count_total"] += 1
    elif "witness_degree" in payload:
        payload["witness_degree"] += 1
    else:
        payload["criterion_passes"] = not payload["criterion_passes"]
    return code, json.dumps(payload)


def test_each_oracle_flags_a_wrong_verdict():
    ops = _sample_ops()
    right = []
    for op in ops:
        want = workloads.expected(op)
        if op["kind"] == "sweep":
            right.append(want)
        elif op["kind"] == "verify-lemma":
            right.append(tuple((c, json.dumps(p)) for c, p in want))
        else:
            right.append((want[0], json.dumps(want[1])))
    assert workloads.failed_ops(ops, right) == []
    for i, op in enumerate(ops):
        outputs = list(right)
        outputs[i] = _wrong(op, right[i])
        assert workloads.failed_ops(ops, outputs) == [i], op["kind"]


def test_wrong_verdicts_and_exceptions_count_as_failed():
    def brute(p, epsilon, k):
        if k < 0:
            raise ValueError("broken")
        return True  # claims both signs, which is wrong for every degree

    fake = types.SimpleNamespace(obstruction=types.SimpleNamespace(compatible_bruteforce=brute))
    rounds = workloads.generate("sweep", 5, 2)
    ops, outputs, latencies, probes = worker.run_rounds(fake, rounds)
    assert len(ops) == len(latencies) == len(probes) - 1 == 20
    assert len(workloads.failed_ops(ops, outputs)) == 20
    assert any(isinstance(out, ValueError) for out in outputs)


# -- spans and percentiles ----------------------------------------------------------


def _tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [9, 12], which outlasts it; a has child d [2, 3]
    return [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
        ["root", 20.0, 21.0, -1, 1],
    ]


def test_self_time_subtracts_what_children_cover():
    assert self_times(_tree()) == [4.0, 2.0, 1.0, 3.0, 3.0, 1.0]


def test_layer_metrics_sum_self_time_and_calls_per_layer():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["primes.is_prime", 1.0, 2.0, 0, 0],
        ["primes.is_prime", 3.0, 6.0, 0, 0],
        ["obstruction.compatible_bruteforce", 6.0, 9.0, 0, 0],
        ["genus.random_degree_map", 6.5, 7.0, 3, 0],
        ["genus.random_psi_model", 7.0, 7.25, 3, 0],
    ]
    counts = {"series.mul.coeff_products": 0, "primes.is_prime.distinct": 1}
    metrics = layer_metrics(spans, counts)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["primes.is_prime.calls"] == 2
    assert metrics["primes.is_prime.self_s"] == 4.0
    assert metrics["primes.is_prime.distinct_ratio"] == 0.5
    assert metrics["obstruction.trials_run"] == 1
    assert metrics["obstruction.trials_per_verdict"] == 1.0
    assert metrics["genus.random_models.self_s"] == 0.75
    assert metrics["series.mul.calls"] == 0
    assert set(metrics) | {"trace.overhead_ratio"} == {name for name, _, _ in LAYER_METRICS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_timed_pass_runs_at_least_the_op_floor(name):
    rounds = workloads.generate(name, 5, workloads.WORKLOADS[name].rounds)
    assert sum(map(len, rounds)) >= workloads.MIN_OPS


def test_latencies_pool_every_pass():
    ref = [run.PROBE_REF_S] * 4  # probes at the reference speed leave latencies as they are
    reports = [
        {"latencies": [0.010, 0.040, 0.030], "probes": ref, "peak_rss_mb": 20.0},
        {"latencies": [0.020, 0.020, 0.030], "probes": ref, "peak_rss_mb": 22.0},
        {"latencies": [0.015, 0.050, 0.010], "probes": ref, "peak_rss_mb": 21.0},
    ]
    metrics = run.end_to_end(reports, [0.3, 0.1, 0.2])
    assert metrics["op_p50_ms"] == pytest.approx(20.0)
    assert metrics["op_p90_ms"] == pytest.approx(42.0)
    assert metrics["ops_per_s"] == pytest.approx(9 / 0.225)
    assert metrics["setup_s"] == 0.2
    assert metrics["peak_rss_mb"] == 22.0
    assert run.end_to_end(reports, [0.2], scale=False) == metrics


def test_latencies_are_scaled_by_the_probes_around_them():
    n, ref = run.PROBE_WINDOW, run.PROBE_REF_S
    # the first n + 1 probes find the host at half speed, the rest at full speed
    probes = [2 * ref] * (n + 1) + [ref] * (3 * n)
    report = {"latencies": [0.1] * (len(probes) - 1), "probes": probes}
    scaled = run.scaled_latencies(report)
    assert scaled[0] == pytest.approx(0.05)
    # op n runs between probes n and n + 1: n half-speed probes on its left
    # (1..n) and n full-speed ones on its right (n + 1..2n)
    assert scaled[n] == pytest.approx(0.1 / 1.5)
    assert scaled[2 * n:] == pytest.approx([0.1] * (2 * n))


def test_percentile_interpolates_between_order_statistics():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert run.percentile(values, 0.5) == 5.5
    assert run.percentile(values, 0.9) == pytest.approx(9.1)
    assert run.percentile(values, 0.0) == 1
    assert run.percentile(values, 1.0) == 10
    assert run.percentile([4.0], 0.9) == 4.0


# -- tracing leaves the package as it was -------------------------------------------


def _package_state():
    owners = [hp.series.TruncatedSeries, hp.series, hp.adams, hp.genus, hp.obstruction,
              hp.primes, hp.cli]
    return [dict(vars(owner)) for owner in owners]


def test_untraced_run_touches_no_package_attribute():
    before = _package_state()
    worker.run_rounds(hp, [_sample_ops()[:2]])
    assert _package_state() == before


def test_tracer_restores_every_attribute_and_counts_repeat():
    before = _package_state()
    ops = [_sample_ops()[:2]]
    seen = []
    for _ in range(2):
        tracer = Tracer()
        tracer.patch(package_targets(hp, tracer.counts))
        assert _package_state() != before
        try:
            _, outputs, _, _ = worker.run_rounds(hp, ops, tracer=tracer)
        finally:
            tracer.unpatch()
        assert _package_state() == before
        assert workloads.failed_ops(ops[0], outputs) == []
        metrics = layer_metrics(tracer.spans, tracer.counts)
        assert all(0 <= span[4] < 2 for span in tracer.spans)
        seen.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert seen[0] == seen[1]
    assert seen[0]["series.mul.calls"] > 0
    assert seen[0]["cli.main.calls"] == 2


# -- the benchmark as a whole -----------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
               for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
