"""Span tracing for the traced benchmark run.

The tracer rebinds the public stepcrn names that callers look up at call
time (``stepcrn.cli.run_program``, ``stepcrn.lowering.normalize``,
``stepcrn.lowerbound.compile_circuit_exp`` and so on) to timing wrappers,
and restores them on ``uninstall``.  Nothing under ``src/`` changes.

Each span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the id of the
benchmark operation that caused it.  Spans stay in memory until the run
writes them out.  Per-layer counts are taken at the same boundaries and
summed per pass in ``metrics``: the ``lowering.*`` sizes, for one, add up
every compile of a pass, whether the benchmark, ``cli.verify_job`` or
``check_demand_growth`` asked for it.
"""
from __future__ import annotations

import functools
import time
import weakref
from collections import Counter

from stepcrn import circuits, cli, engine, lowerbound, lowering

perf = time.perf_counter

# Per-layer metrics with their units, in report order.
LAYER_METRICS = {
    "circuits.parse_s": "s",
    "circuits.evaluate_s": "s",
    "lowering.normalize_s": "s",
    "lowering.compile_s": "s",
    "lowering.compile_self_s": "s",
    "lowering.buffers": "count",
    "lowering.species": "count",
    "lowering.steps": "count",
    "lowering.rules": "count",
    "lowering.nonzero_additions": "count",
    "lowering.dense_entries": "count",
    "engine.run_cold_s": "s",
    "engine.run_warm_s": "s",
    "engine.run_calls": "count",
    "engine.applications": "count",
    "engine.peak_volume": "count",
    "engine.decode_s": "s",
    "engine.enumerate_s": "s",
    "engine.enumerate_decided": "count",
    "engine.enumerate_capped": "count",
    "engine.terminals": "count",
    "decided_share": "share",
    "lowerbound.check_s": "s",
    "cli.verify_self_s": "s",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}


def _compiled(m: Counter, args, result) -> None:
    program, report = result
    steps, species = program.step_count, len(program.alphabet)
    m["lowering.buffers"] += report.buffers.total
    m["lowering.species"] += species
    m["lowering.steps"] += steps
    m["lowering.rules"] += len(program.rules)
    m["lowering.nonzero_additions"] += sum(len(v) - v.count(0) for v in program.steps)
    m["lowering.dense_entries"] += steps * species


def _ran(m: Counter, args, result) -> None:
    m["engine.run_calls"] += 1
    m["engine.applications"] += result.applications
    m["engine.peak_volume"] = max(m["engine.peak_volume"], result.peak_volume)


def _enumerated(m: Counter, args, result) -> None:
    m["engine.enumerate_decided"] += 1
    m["engine.terminals"] += len(result)


# (module, attribute, span name, count hook).  Both the defining module
# and ``cli`` are rebound where ``cli`` imported the name itself.
TARGETS = (
    (circuits, "parse_circuit", "circuits.parse", None),
    (cli, "parse_circuit", "circuits.parse", None),
    (circuits, "evaluate", "circuits.evaluate", None),
    (cli, "evaluate", "circuits.evaluate", None),
    (lowering, "normalize", "lowering.normalize", None),
    (lowering, "compile_backend", "lowering.compile", _compiled),
    (cli, "compile_backend", "lowering.compile", _compiled),
    (lowerbound, "compile_circuit_exp", "lowering.compile", _compiled),
    (engine, "run_program", "engine.run", _ran),
    (cli, "run_program", "engine.run", _ran),
    (engine, "decode_output", "engine.decode", None),
    (cli, "decode_output", "engine.decode", None),
    (engine, "enumerate_program_terminals", "engine.enumerate", _enumerated),
    (cli, "enumerate_program_terminals", "engine.enumerate", _enumerated),
    (lowerbound, "check_demand_growth", "lowerbound.check", None),
    (cli, "verify_job", "cli.verify_job", None),
)

# Span name -> per-layer time metric that sums its duration.
_TIME_METRIC = {
    "circuits.parse": "circuits.parse_s",
    "circuits.evaluate": "circuits.evaluate_s",
    "lowering.normalize": "lowering.normalize_s",
    "lowering.compile": "lowering.compile_s",
    "engine.decode": "engine.decode_s",
    "engine.enumerate": "engine.enumerate_s",
    "lowerbound.check": "lowerbound.check_s",
}
# Span name -> per-layer metric that sums its self time.
_SELF_METRIC = {
    "lowering.compile": "lowering.compile_self_s",
    "cli.verify_job": "cli.verify_self_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.metrics: Counter = Counter()
        self.seen: set[str] = set()
        self.op = -1
        self._pass_start = 0
        self._open: list[list] = []  # [span index, child seconds]
        self._programs: dict[int, weakref.ref] = {}
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, hook, args, kwargs)

        return traced

    # -- recording ----------------------------------------------------------

    def _first_run(self, program) -> bool:
        """True on the first run of a program object, the one that pays
        rule preparation."""
        ref = self._programs.get(id(program))
        if ref is not None and ref() is program:
            return False
        self._programs[id(program)] = weakref.ref(program)
        return True

    def _call(self, fn, name, hook, args, kwargs):
        cold = name == "engine.run" and self._first_run(args[0])
        parent = self._open[-1][0] if self._open else -1
        span = [name, perf(), 0.0, parent, self.op]
        self._open.append([len(self.spans), 0.0])
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except engine.StateCapExceeded:
            if name == "engine.enumerate":
                self.metrics["engine.enumerate_capped"] += 1
            raise
        finally:
            span[2] = perf()
            _, child_s = self._open.pop()
            duration = span[2] - span[1]
            if self._open:
                self._open[-1][1] += duration
            self.seen.add(name)
            m = self.metrics
            if name in _TIME_METRIC:
                m[_TIME_METRIC[name]] += duration
            if name in _SELF_METRIC:
                m[_SELF_METRIC[name]] += duration - child_s
            if name == "engine.run":
                m["engine.run_cold_s" if cold else "engine.run_warm_s"] += duration
        if hook is not None:
            hook(self.metrics, args, result)
        return result

    def take_pass(self) -> dict:
        """Per-layer values of the pass that just ended; resets counts."""
        m, self.metrics = self.metrics, Counter()
        attempted = m["engine.enumerate_decided"] + m["engine.enumerate_capped"]
        m["decided_share"] = m["engine.enumerate_decided"] / attempted if attempted else 0
        m["tracing.spans"] = len(self.spans) - self._pass_start
        self._pass_start = len(self.spans)
        return {name: m[name] for name in LAYER_METRICS}
