"""Checks on the benchmark itself, at smoke size:

    python3 -m pytest -q perfbench

* every workload, run twice with one seed, repeats every count exactly,
  and a second seed generates different inputs;
* a traced run fails when an expected span never fires;
* a workload that completes no operation fails.
"""
from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_stepcrn()
import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 11
PER_PASS = ("attempted", "runs_per_pass", "applications_per_pass", "gates_per_pass",
            "enumerations_per_pass", "decided_per_pass")


def _counts(result: dict) -> dict:
    counts = {k: result[k] for k in PER_PASS}
    for name, metric in result["metrics"].items():
        if metric["unit"] in ("count", "share"):
            counts[name] = metric["value"]
    return counts


@pytest.mark.parametrize("name", tuple(workloads.WORKLOADS))
def test_counts_repeat_and_seed_changes_inputs(name):
    first = bench.measure(name, SEED, 0, True, smoke=True)
    second = bench.measure(name, SEED, 0, True, smoke=True)
    assert first["correct"], first["failures"]
    assert second["correct"], second["failures"]
    assert first["seed"] == SEED
    assert first["inputs_sha256"] == second["inputs_sha256"]
    assert _counts(first) == _counts(second)
    assert first["metrics"]["engine.run_calls"]["value"] > 0
    other = bench.measure(name, SEED + 1, 0, False, smoke=True)
    assert other["correct"], other["failures"]
    assert other["inputs_sha256"] != first["inputs_sha256"]


def test_missing_span_fails_the_run(monkeypatch):
    kept = tuple(t for t in tracing.TARGETS if t[2] != "engine.decode")
    monkeypatch.setattr(tracing, "TARGETS", kept)
    result = bench.measure("dag-catalyst", SEED, 0, True, smoke=True)
    assert not result["correct"]
    assert any("engine.decode" in f for f in result["failures"])


def test_no_operations_fails_the_run(monkeypatch):
    empty = workloads.Workload(lambda seed, smoke: workloads.Inputs((), "empty"), frozenset())
    monkeypatch.setitem(workloads.WORKLOADS, "dag-catalyst", empty)
    result = bench.measure("dag-catalyst", SEED, 0, False, smoke=True)
    assert not result["correct"]
    assert result["failed"] >= 1
