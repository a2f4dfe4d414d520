"""One pass of a workload in a fresh interpreter.

Usage: ``python3 bench/worker.py '<pass spec as JSON>'``, started by
``run.py``.  The pass imports ``hpgenus`` from ``src/``, generates its
operations, runs them in a closed loop (one caller, each operation issued
when the previous one returns), checks every output against the oracle
after the loop, and prints one JSON line with its timings.

Spec keys: ``workload``, ``seed``, ``part`` (which part of the seed's
inputs), ``rounds`` (how many rounds to generate), ``setup_only`` (generate
the inputs but run none of them) and ``trace`` (a path to write spans to,
or null for an untraced pass).
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, package_targets  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


#: operands of the reference multiplication timed around every operation
_PROBE_A = random.Random(1).getrandbits(40000) | 1
_PROBE_B = random.Random(2).getrandbits(40000) | 1


def probe() -> float:
    """Seconds one fixed 40000-bit multiplication takes: a sample of the host's speed."""
    start = time.perf_counter()
    product = _PROBE_A * _PROBE_B
    elapsed = time.perf_counter() - start
    del product
    return elapsed


def run_rounds(hp, rounds, tracer=None):
    """Run every round of operations, with a probe before the first and
    after each one.

    Returns the operations run, their outputs (an exception raised by an
    operation is its output), their latencies and the probe times, in
    seconds; operation i runs between probes i and i + 1.
    """
    ops, outputs, latencies, probes = [], [], [], [probe()]
    clock, run_op = time.perf_counter, workloads.run_op
    for batch in rounds:
        for op in batch:
            if tracer is not None:
                tracer.op = len(ops)
            start = clock()
            try:
                out = run_op(hp, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            latencies.append(clock() - start)
            ops.append(op)
            outputs.append(out)
            probes.append(probe())
    return ops, outputs, latencies, probes


def main(spec: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "hpgenus", "__init__.py")):
        print(f"bench: no hpgenus package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    import hpgenus.cli  # imports every layer the workloads call

    hp = hpgenus
    rounds = workloads.generate(spec["workload"], spec["seed"], spec["rounds"], spec["part"])
    if spec["setup_only"]:
        rounds = []
    setup_s = time.perf_counter() - _STARTED

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.patch(package_targets(hp, tracer.counts))
    try:
        ops, outputs, latencies, probes = run_rounds(hp, rounds, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = workloads.failed_ops(ops, outputs)
    if failed:
        first = failed[0]
        print(f"bench: wrong output for {ops[first]}: {outputs[first]!r}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "probes": probes,
        "attempted": len(ops),
        "failed": len(failed),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        os.makedirs(os.path.dirname(spec["trace"]), exist_ok=True)
        tracer.write(spec["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
