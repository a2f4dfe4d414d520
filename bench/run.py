"""The hpgenus benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

A run is a series of passes, each in a fresh interpreter running
``bench/worker.py`` on its own part of the operations generated from the
seed (at least 100 of them).  With ``--trace 0`` passes run until
``--seconds`` have gone by, and at least ``MIN_PASSES`` of them.  A probe,
one fixed big-integer multiplication, is timed before the first operation
of a pass and after every operation.  Each operation's latency is scaled
to the speed at which the probe takes ``PROBE_REF_S``, by the probes
around it: a shared host slows stretches of a run by up to about 1.8x,
and the operations and the probes next to them slow down alike.  The
end-to-end metrics are computed from the scaled latencies of every pass;
the metadata line also gives them unscaled.  With ``--trace 1`` a fixed
list of operations runs twice, untraced and then traced, and the
per-layer metrics are reported.

The last line of stdout is the JSON result; the line before it holds the
run's metadata.  Any pass that fails to run makes the benchmark exit 1
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from spans import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

#: (name, unit) of each end-to-end metric, in the order they are reported
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
MIN_PASSES = 3
#: seconds the probe takes at the reference speed, about an unloaded core of
#: the 2-vCPU Intel Xeon VM the bounds were set on
PROBE_REF_S = 0.0006
#: probes on each side of an operation that give the speed it ran at
PROBE_WINDOW = 5
RUN_LIMIT_S = 170.0


class PassFailed(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_pass(spec: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise PassFailed("out of time before the pass started")
    env = {k: v for k, v in os.environ.items() if k != "HPGENUS_SEED"}
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, env=env, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_latencies(report: dict) -> list[float]:
    """A pass's latencies at the reference speed.  Operation i runs between
    probes i and i + 1; its speed is the mean of the PROBE_WINDOW probes on
    each side."""
    probes, n = report["probes"], PROBE_WINDOW
    return [latency * PROBE_REF_S / statistics.fmean(probes[max(0, i + 1 - n):i + 1 + n])
            for i, latency in enumerate(report["latencies"])]


def end_to_end(reports: list[dict], setups: list[float], scale: bool = True) -> dict[str, float]:
    latencies = [t for r in reports for t in (scaled_latencies(r) if scale else r["latencies"])]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(latencies, 0.5) * 1000,
        "op_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """Passes, each over its own part of the inputs and after a set-up-only
    pass, until ``seconds`` have gone by; no pass starts that the last one
    says would overrun."""
    spec = {"workload": workload, "seed": seed, "trace": None,
            "rounds": workloads.WORKLOADS[workload].rounds}
    stop = time.perf_counter() + seconds
    reports: list[dict] = []
    setups: list[float] = []
    last_s = 0.0
    while len(reports) < MIN_PASSES or time.perf_counter() + last_s <= stop:
        started = time.perf_counter()
        part = {**spec, "part": len(reports)}
        setups.append(run_pass({**part, "setup_only": True}, deadline)["setup_s"])
        report = run_pass({**part, "setup_only": False}, deadline)
        reports.append(report)
        setups.append(report["setup_s"])
        last_s = time.perf_counter() - started
    units = dict(END_TO_END)
    values = end_to_end(reports, setups)
    raw = end_to_end(reports, setups, scale=False)
    samples = {
        "setup_samples": len(setups),
        "percentile_samples": sum(r["attempted"] for r in reports),
        "raw": {name: raw[name] for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")},
        "probe_median_ms": statistics.median(t for r in reports for t in r["probes"]) * 1000,
    }
    return reports, {name: (values[name], units[name]) for name, _ in END_TO_END}, samples


def measure_traced(workload: str, seed: int, deadline: float):
    """The same fixed operations untraced, then traced; per-layer metrics."""
    rounds = workloads.WORKLOADS[workload].trace_rounds
    spec = {"workload": workload, "seed": seed, "part": 0, "rounds": rounds,
            "setup_only": False}
    plain = run_pass({**spec, "trace": None}, deadline)
    traced = run_pass({**spec, "trace": os.path.join(TRACE_DIR, f"spans-{workload}.tsv")},
                      deadline)
    overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain))
    values = dict(traced["layers"], **{"trace.overhead_ratio": overhead})
    return [plain, traced], {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}, {}


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            reports, metrics, samples = measure_traced(args.workload, args.seed, deadline)
        else:
            reports, metrics, samples = measure(args.workload, args.seed, args.seconds, deadline)
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(reports),
        "ops": attempted,
        "ops_per_pass": [r["attempted"] for r in reports],
        **samples,
        "error_rate": failed / attempted,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
