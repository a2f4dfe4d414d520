"""Span tracing from outside the package, and the per-layer metrics built on it.

A traced run replaces public functions with wrappers at the places their
callers look them up: module attributes such as ``hpgenus.genus.psi_apply``
and ``hpgenus.obstruction.is_prime``, and ``TruncatedSeries`` methods on the
class.  Each call records one span ``[name, start, end, parent, op]``;
spans stay in memory until the run ends.  ``Tracer.unpatch`` puts every
original back, and an untraced run never patches anything.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

#: Per-layer metrics, in the order they are reported: (name, unit, better).
LAYER_METRICS = (
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.coeff_products", "count", "lower"),
    ("series.construct.calls", "count", "lower"),
    ("series.construct.self_s", "s", "lower"),
    ("series.pow.calls", "count", "lower"),
    ("series.pow.self_s", "s", "lower"),
    ("series.reduce.calls", "count", "lower"),
    ("series.reduce.self_s", "s", "lower"),
    ("adams.psi_apply.calls", "count", "lower"),
    ("adams.psi_apply.cold_calls", "count", "lower"),
    ("adams.psi_apply.cold_s", "s", "lower"),
    ("adams.psi_apply.warm_s", "s", "lower"),
    ("adams.psi_apply.warm_ratio", "ratio", "higher"),
    ("genus.psi_then_pullback.self_s", "s", "lower"),
    ("genus.pullback_then_psi.self_s", "s", "lower"),
    ("genus.random_models.self_s", "s", "lower"),
    ("obstruction.compatible_bruteforce.calls", "count", "lower"),
    ("obstruction.trials_run", "count", "lower"),
    ("obstruction.trials_per_verdict", "count", "lower"),
    ("obstruction.admissible.self_s", "s", "lower"),
    ("obstruction.forced_genus.self_s", "s", "lower"),
    ("obstruction.legendre.calls", "count", "lower"),
    ("primes.is_prime.calls", "count", "lower"),
    ("primes.is_prime.self_s", "s", "lower"),
    ("primes.is_prime.distinct_ratio", "ratio", "higher"),
    ("primes.odd_primes_upto.self_s", "s", "lower"),
    ("primes.distinct_odd_prime_factors.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: index of the operation in progress; spans record it
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, label):
        """``fn`` recording a span per call.  ``label`` is the span name, or a
        function of the call's arguments that returns it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_of = label if callable(label) else (lambda *args, **kwargs: label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_of(*args, **kwargs), clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def patch(self, targets) -> None:
        """Replace ``owner.attr`` for each ``(owner, attr, label)``.  One
        function found under several names gets one shared wrapper."""
        wrappers = {}
        for owner, attr, label in targets:
            original = vars(owner)[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(original, label)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def package_targets(hp, counts: Counter) -> list[tuple[object, str, object]]:
    """Where each traced function is looked up by its callers in ``hp``."""
    series_cls = hp.series.TruncatedSeries
    psi_seen: set = set()
    primes_seen: set = set()

    def mul_label(a, b):
        if isinstance(b, series_cls):
            counts["series.mul.coeff_products"] += a.order * (a.order + 1) // 2
        return "series.mul"

    def psi_label(r, f):
        # cold: the first call per (r, order), when the power table is built
        key = (r, f.order)
        if key in psi_seen:
            return "adams.psi_apply.warm"
        psi_seen.add(key)
        return "adams.psi_apply.cold"

    def prime_label(n):
        primes_seen.add(n)
        counts["primes.is_prime.distinct"] = len(primes_seen)
        return "primes.is_prime"

    targets = [
        (series_cls, "__mul__", mul_label),
        (series_cls, "__rmul__", mul_label),
        (series_cls, "__init__", "series.construct"),
        (series_cls, "__pow__", "series.pow"),
        (series_cls, "reduce", "series.reduce"),
        (hp.genus, "psi_apply", psi_label),
        (hp.obstruction, "random_degree_map", "genus.random_degree_map"),
        (hp.obstruction, "random_psi_model", "genus.random_psi_model"),
        (hp.obstruction, "compatible_bruteforce", "obstruction.compatible_bruteforce"),
        (hp.obstruction, "admissible", "obstruction.admissible"),
        (hp.obstruction, "forced_genus", "obstruction.forced_genus"),
        (hp.obstruction, "legendre", "obstruction.legendre"),
        (hp.obstruction, "distinct_odd_prime_factors", "primes.distinct_odd_prime_factors"),
        (hp.cli, "main", "cli.main"),
    ]
    for module in (hp.obstruction, hp.cli):
        targets.append((module, "psi_then_pullback", "genus.psi_then_pullback"))
        targets.append((module, "pullback_then_psi", "genus.pullback_then_psi"))
        targets.append((module, "odd_primes_upto", "primes.odd_primes_upto"))
    for module in (hp.obstruction, hp.genus, hp.adams):
        targets.append((module, "is_prime", prime_label))
    return targets


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, from one traced run."""
    calls, own, total = Counter(), Counter(), Counter()
    for (name, start, end, _, _), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += self_s
        total[name] += end - start
    psi_calls = calls["adams.psi_apply.cold"] + calls["adams.psi_apply.warm"]
    verdicts = calls["obstruction.compatible_bruteforce"]
    # every brute-force trial draws exactly one random degree map
    trials = calls["genus.random_degree_map"]
    prime_calls = calls["primes.is_prime"]
    out = {}
    for layer in ("series.mul", "series.construct", "series.pow", "series.reduce"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = own[layer]
    out["series.mul.coeff_products"] = counts["series.mul.coeff_products"]
    out.update({
        "adams.psi_apply.calls": psi_calls,
        "adams.psi_apply.cold_calls": calls["adams.psi_apply.cold"],
        "adams.psi_apply.cold_s": total["adams.psi_apply.cold"],
        "adams.psi_apply.warm_s": total["adams.psi_apply.warm"],
        "adams.psi_apply.warm_ratio": calls["adams.psi_apply.warm"] / psi_calls if psi_calls else 0.0,
        "genus.psi_then_pullback.self_s": own["genus.psi_then_pullback"],
        "genus.pullback_then_psi.self_s": own["genus.pullback_then_psi"],
        "genus.random_models.self_s":
            own["genus.random_degree_map"] + own["genus.random_psi_model"],
        "obstruction.compatible_bruteforce.calls": verdicts,
        "obstruction.trials_run": trials,
        "obstruction.trials_per_verdict": trials / verdicts if verdicts else 0.0,
        "obstruction.admissible.self_s": own["obstruction.admissible"],
        "obstruction.forced_genus.self_s": own["obstruction.forced_genus"],
        "obstruction.legendre.calls": calls["obstruction.legendre"],
        "primes.is_prime.calls": prime_calls,
        "primes.is_prime.self_s": own["primes.is_prime"],
        "primes.is_prime.distinct_ratio":
            counts["primes.is_prime.distinct"] / prime_calls if prime_calls else 0.0,
        "primes.odd_primes_upto.self_s": own["primes.odd_primes_upto"],
        "primes.distinct_odd_prime_factors.self_s": own["primes.distinct_odd_prime_factors"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": own["cli.main"],
    })
    return out
