"""Runs one workload for a fixed time and turns the passes into metrics.

A pass runs every operation of the workload's inputs once.  Passes
repeat while the next one is expected to end within the time given, and
the run checks that every pass did the same work.  Each pass-level
metric is built from each operation's median time over the passes
(``wall_s`` is their sum, the latency percentiles are taken over those
of the sampled operations): a pass that the machine slowed moves them
less than a pooled figure.
``setup_s`` is the median of several
set-ups, spread over the run (some before the first pass, some after
each pass) so that they see the same machine as the passes; every
set-up must generate the same inputs.

The speed a shared host gives this process drifts by tens of percent
over seconds to minutes.  So between operations the run also times a
fixed piece of pure-Python work, ``reference_work``, and reports every
timing as it would read on a machine where that work takes
``REFERENCE_S``: each operation's and set-up's time is multiplied by
``REFERENCE_S`` over the median reference time around it.  The record
keeps the unscaled metrics and every reference time beside them.

With tracing, the first half of the time runs untraced passes and the
second half traced ones, so the tracing overhead is measured in the same
process; per-layer values are medians over the traced passes, and
unlike the end-to-end times they are not scaled.
"""
from __future__ import annotations

import importlib
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Tally

perf = time.perf_counter

SETUP_FIRST, SETUP_BETWEEN = 3, 2  # set-ups before the first pass, after each pass

# On a shared 2-vCPU VM the speed a process gets drifts by 20-50% over
# seconds to minutes, with CPU time tracking wall time, so every timing
# is scaled to a machine on which reference_work() takes REFERENCE_S:
# about its median time on such a VM, quiet, under CPython 3.11.
REFERENCE_ITERS = 10_000
REFERENCE_S = 0.010
CALIBRATE_EVERY = 0.25  # seconds of operations per reference timing
BURST = 4  # most reference timings taken at once, after a long operation
WINDOW_S = 1.0  # a timing is scaled by the reference timings this close to it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "runs/s",
    "verify_p50_ms": "ms",
    "verify_p90_ms": "ms",
    "compile_gates_per_s": "gates/s",
    "run_apps_per_s": "applications/s",
    "peak_rss_mb": "MB",
}


def reference_work() -> int:
    """A fixed piece of interpreter work of the kind stepcrn does (list
    and dict indexing, small tuples, seeded random draws), without
    stepcrn: its time tracks the speed the machine gives this process."""
    rng = random.Random(1)
    counts = [0] * 64
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(REFERENCE_ITERS):
        o = rng.randrange(64)
        counts[o] += i & 7
        key = (o, counts[o] & 15)
        seen[key] = seen.get(key, 0) + 1
        if counts[o] > 100:
            counts[o] -= 100
            total += 1
    return total + len(seen)


class Clock:
    """Times ``reference_work`` between operations and scales a timing
    by ``REFERENCE_S`` over the median reference time within
    ``WINDOW_S`` of it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._last: float | None = None

    def tick(self, force: bool = False) -> None:
        """Time the reference once for every ``CALIBRATE_EVERY`` seconds
        since the last timing, up to ``BURST`` times, so that a long
        operation still has several timings next to it; at least once
        when ``force`` is true."""
        if self._last is None:
            due = BURST
        else:
            due = min(BURST, int((perf() - self._last) / CALIBRATE_EVERY))
        for _ in range(max(due, int(force))):
            start = perf()
            reference_work()
            self._last = perf()
            self.samples.append((start, self._last - start))

    def factor(self, start: float, end: float) -> float:
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)


@dataclass
class Pass:
    tally: Tally
    wall: float = 0.0  # unscaled
    ops: list[tuple[float, float, float, float]] = field(default_factory=list)  # per op: start, wall, compile, run
    failed: int = 0  # operations with a failure
    layers: dict | None = None  # per-layer values, traced passes only

    def scaled(self, clock: Clock | None) -> list[tuple[float, float, float]]:
        """Wall, compile and run seconds of each operation, scaled by
        the clock next to it (or not at all without a clock)."""
        out = []
        for start, wall, compile_s, run_s in self.ops:
            k = clock.factor(start, start + wall) if clock else 1.0
            out.append((k * wall, k * compile_s, k * run_s))
        return out


def per_op_medians(passes: list[Pass], clock: Clock | None) -> list[tuple[float, float, float]]:
    """Each operation's median wall, compile and run seconds over the
    passes: a pass the machine slowed then moves no metric."""
    per_pass = [p.scaled(clock) for p in passes]
    return [tuple(statistics.median(v) for v in zip(*op)) for op in zip(*per_pass)]


def _run_pass(inputs, tracer: Tracer | None, first_op: int, clock: Clock) -> Pass:
    """One closed-loop pass over every operation."""
    p = Pass(Tally())
    t = p.tally
    for i, op in enumerate(inputs.ops):
        clock.tick()
        if tracer is not None:
            tracer.op = first_op + i
        before = len(t.failures)
        compile_s, run_s = t.compile_s, t.run_s
        start = perf()
        try:
            op.fn(t)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            t.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        elapsed = perf() - start
        p.wall += elapsed
        p.ops.append((start, elapsed, t.compile_s - compile_s, t.run_s - run_s))
        p.failed += len(t.failures) > before
    clock.tick(force=True)
    if tracer is not None:
        p.layers = tracer.take_pass()
    return p


def _passes(inputs, seconds: float, tracer: Tracer | None, clock: Clock, between=None) -> tuple[list[Pass], float]:
    """At least one pass, then more while the next is expected to end
    within ``seconds`` of the start; ``between()`` runs after each pass.
    Also returns the peak RSS through the first pass: later passes
    repeat its work, and the engine's program cache would make their
    peak depend on how many fit."""
    start = perf()
    out: list[Pass] = []
    while True:
        out.append(_run_pass(inputs, tracer, len(out) * len(inputs.ops), clock))
        if len(out) == 1:
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if between is not None:
            between()
        if perf() - start + statistics.median(p.wall for p in out) > seconds:
            return out, first_pass_rss


def _import_s() -> float:
    """Seconds to import stepcrn afresh.  The modules loaded before are
    put back afterwards, so the benchmark keeps using one copy."""

    def ours():
        return [k for k in sys.modules if k == "stepcrn" or k.startswith("stepcrn.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        start = perf()
        importlib.import_module("stepcrn.cli")
        return perf() - start
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _end_to_end(passes: list[Pass], clock: Clock | None, sampled: list[int], setup_s: float, peak_rss_mb: float) -> dict:
    def p90(lat: list[float]) -> float:
        return statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]

    ops = per_op_medians(passes, clock)
    wall_s = sum(op[0] for op in ops)
    latencies = [ops[i][0] for i in sampled] or [0.0]
    t = passes[0].tally  # every pass did the same work; measure() checks
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "runs_per_s": _ratio(t.runs, wall_s),
        "verify_p50_ms": statistics.median(latencies) * 1e3,
        "verify_p90_ms": p90(latencies) * 1e3,
        "compile_gates_per_s": _ratio(t.gates, sum(op[1] for op in ops)),
        "run_apps_per_s": _ratio(t.applications, sum(op[2] for op in ops)),
        "peak_rss_mb": peak_rss_mb,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run workload ``name`` and return the full result record."""
    workload = WORKLOADS[name]
    clock = Clock()
    setups: list[tuple[float, float]] = []  # (start, unscaled seconds)
    digests: set[str] = set()

    def set_up(times: int):
        for _ in range(times):
            clock.tick(force=True)
            start = perf()
            import_s = _import_s()
            made_at = perf()
            made = workload.make(seed, smoke)
            setups.append((start, import_s + perf() - made_at))
            digests.add(made.digest)
        clock.tick(force=True)
        return made

    inputs = set_up(SETUP_FIRST)
    sampled = [i for i, op in enumerate(inputs.ops) if op.sample]

    tracer = None
    untraced: list[Pass] = []
    if trace:
        untraced, _ = _passes(inputs, seconds / 2, None, clock)
        tracer = Tracer()
        tracer.install()
        try:
            passes, _ = _passes(inputs, seconds / 2, tracer, clock)
        finally:
            tracer.uninstall()
    else:
        passes, peak_rss_mb = _passes(inputs, seconds, None, clock, lambda: set_up(SETUP_BETWEEN))

    everything = untraced + passes
    failures = [f for p in everything for f in p.tally.failures]
    failed = sum(p.failed for p in everything)
    attempted = len(everything) * len(inputs.ops)
    counts = {p.tally.counts() for p in everything}
    if len(counts) > 1:
        failures.append(f"passes over the same inputs disagree on counts {sorted(counts)}")
    if all(p.tally.runs == 0 for p in everything):
        failures.append("no operation completed")
    if len(digests) > 1:
        failures.append(f"set-ups from seed {seed} generated {len(digests)} different inputs")

    if trace:
        missing = sorted(workload.spans - tracer.seen)
        if missing:
            failures.append(f"expected spans never fired: {missing}")
        metrics = {m: statistics.median(p.layers[m] for p in passes) for m in LAYER_METRICS}
        metrics["tracing.overhead_s"] = sum(op[0] for op in per_op_medians(passes, clock)) - sum(
            op[0] for op in per_op_medians(untraced, clock)
        )
        units = LAYER_METRICS
        unscaled = None
    else:
        setup_s = statistics.median(d * clock.factor(t, t + d) for t, d in setups)
        metrics = _end_to_end(passes, clock, sampled, setup_s, peak_rss_mb)
        unscaled = _end_to_end(passes, None, sampled, statistics.median(d for _, d in setups), peak_rss_mb)
        units = END_TO_END

    t = passes[0].tally
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "inputs_sha256": inputs.digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "passes": len(passes),
        "untraced_passes": len(untraced),
        "ops_per_pass": len(inputs.ops),
        "latency_samples_per_pass": len(sampled),
        "runs_per_pass": t.runs,
        "applications_per_pass": t.applications,
        "gates_per_pass": t.gates,
        "enumerations_per_pass": t.enumerations,
        "decided_per_pass": t.decided,
        "reference_s": REFERENCE_S,
        "reference_median_s": statistics.median(d for _, d in clock.samples),
        "reference_runs_s": clock.samples,
        "setup_runs_s": [d for _, d in setups],
        "pass_wall_s": [p.wall for p in passes],
        "pass_scaled_wall_s": [sum(op[0] for op in p.scaled(clock)) for p in passes],
        "op_s": [p.ops for p in passes],
        "sampled_ops": sampled,
        "correct": not failures,
        "attempted": attempted,
        "failed": max(failed, 1) if failures else 0,
        "failures": failures[:20],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "unscaled_metrics": unscaled,
        "spans": tracer.spans if tracer is not None else None,
    }
