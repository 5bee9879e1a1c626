import hashlib
import json
from pathlib import Path

import pytest

from stepcrn import GateKind, stats, to_netlist
from stepcrn.corpus import CorpusSpec, generate_circuits


def test_deterministic_by_seed():
    spec = CorpusSpec(count=10, seed=7, fan_out=(1, 1))
    a = [to_netlist(c) for c in generate_circuits(spec)]
    b = [to_netlist(c) for c in generate_circuits(spec)]
    assert a == b
    c = [to_netlist(x) for x in generate_circuits(CorpusSpec(count=10, seed=8, fan_out=(1, 1)))]
    assert a != c


def test_formula_mode_generates_formulas():
    spec = CorpusSpec(count=15, seed=3, fan_out=(1, 1), gates=(2, 12))
    for circuit in generate_circuits(spec):
        assert circuit.is_formula


def test_maj_fraction_one_makes_every_gate_maj():
    spec = CorpusSpec(count=6, seed=1, fan_out=(1, 1), maj_fraction=1.0, gates=(2, 10))
    for circuit in generate_circuits(spec):
        for g in circuit.non_sources():
            assert g.kind is GateKind.MAJ


def test_force_maj_every():
    spec = CorpusSpec(count=9, seed=2, fan_out=(1, 1), gates=(2, 12))
    circuits = generate_circuits(spec, force_maj_every=3)
    for i in (0, 3, 6):
        assert any(g.kind is GateKind.MAJ for g in circuits[i].non_sources())


def test_force_maj_every_in_dag_mode():
    spec = CorpusSpec(count=6, seed=4, maj_fraction=0.0)
    assert not spec.formula
    for circuit in generate_circuits(spec, force_maj_every=1):
        assert any(g.kind is GateKind.MAJ for g in circuit.non_sources())


def test_dag_mode_respects_ranges():
    spec = CorpusSpec(
        count=12, seed=5, depth=(2, 4), gates=(4, 20),
        fan_in=(1, 2), fan_out=(1, 3), inputs=(2, 6),
    )
    for circuit in generate_circuits(spec):
        st = stats(circuit)
        assert 2 <= st.depth <= 4
        assert st.max_fanout <= 3
        assert len(circuit.input_ids) <= 6
        for g in circuit.non_sources():
            assert 1 <= len(g.inputs) <= 2
        # every wire joins adjacent levels, so compiling needs no span buffers
        for g in circuit.gates:
            for ref in g.inputs:
                assert circuit.level[g.gid] - circuit.level[ref] == 1


def test_dag_outputs_at_last_level():
    spec = CorpusSpec(count=8, seed=9, depth=(2, 3), fan_in=(1, 2))
    for circuit in generate_circuits(spec):
        st = stats(circuit)
        for o in circuit.outputs:
            assert circuit.level[o] == st.depth


def _odd_gate_count(circuit) -> bool:
    return stats(circuit).gate_count % 2 == 1


def test_accept_filter_advances_deterministically():
    spec = CorpusSpec(count=5, seed=4, fan_out=(1, 1), gates=(2, 12))
    a = [to_netlist(c) for c in generate_circuits(spec, accept=_odd_gate_count)]
    b = [to_netlist(c) for c in generate_circuits(spec, accept=_odd_gate_count)]
    assert a == b and all(
        stats(c).gate_count % 2 == 1 for c in generate_circuits(spec, accept=_odd_gate_count)
    )


def test_rejecting_every_candidate_raises_value_error():
    spec = CorpusSpec(count=2, seed=0)
    with pytest.raises(ValueError, match="keeps rejecting"):
        generate_circuits(spec, accept=lambda c: False)


# -- pinned corpora -------------------------------------------------------------

# ``tests/data/corpora.json`` holds the sha256 of each corpus's netlists.
# A change to how circuits are drawn must leave every digest as recorded:
# the acceptance criteria, the golden compiles and the benchmark all read
# these corpora.  Rewrite the file only for an intended re-draw:
#
#     PYTHONPATH=src python tests/test_corpus.py

PINNED = Path(__file__).parent / "data" / "corpora.json"

# The benchmark's corpus shapes (perfbench/workloads.py), written out so
# that this test does not import the benchmark.
FORMULA_SHAPE = dict(depth=(2, 5), gates=(3, 20), fan_in=(1, 3), fan_out=(1, 1), maj_fraction=0.35)
DAG_SHAPE = dict(depth=(2, 4), gates=(6, 18), fan_in=(1, 2), fan_out=(1, 3), maj_fraction=0.0)


# name -> (CorpusSpec fields, accept, force_maj_every)
PINNED_CORPORA = {
    "formula": (dict(count=20, seed=11, fan_out=(1, 1)), None, None),
    "formula-maj0.35-force3": (dict(count=20, seed=12, fan_out=(1, 1), maj_fraction=0.35), None, 3),
    "formula-maj1.0": (dict(count=10, seed=13, fan_out=(1, 1), maj_fraction=1.0), None, None),
    "formula-force1": (dict(count=10, seed=14, fan_out=(1, 1), gates=(2, 12)), None, 1),
    "formula-accept": (dict(count=10, seed=15, fan_out=(1, 1), gates=(2, 12)), _odd_gate_count, None),
    "formula-wide": (dict(count=15, seed=16, depth=(1, 6), gates=(1, 30), fan_in=(1, 5),
                          fan_out=(1, 1), inputs=(1, 8)), None, None),
    "dag": (dict(count=20, seed=21), None, None),
    "dag-maj0.35-force3": (dict(count=20, seed=22, maj_fraction=0.35), None, 3),
    "dag-maj1.0": (dict(count=10, seed=23, maj_fraction=1.0), None, None),
    "dag-force1": (dict(count=10, seed=24), None, 1),
    "dag-accept": (dict(count=10, seed=25), _odd_gate_count, None),
    "dag-fan-in-1": (dict(count=10, seed=26, fan_in=(1, 1)), None, None),
    "dag-wide": (dict(count=15, seed=27, depth=(1, 6), gates=(1, 30), fan_in=(1, 4),
                      fan_out=(1, 2), inputs=(1, 8)), None, None),
    "gen-corpus-dags": (dict(count=6, seed=7, inputs=(2, 4), gates=(4, 10), maj_fraction=0.3), None, None),
    "benchmark-formulas": (dict(count=12, seed=2405, inputs=(2, 3), **FORMULA_SHAPE), None, 3),
    "benchmark-dags": (dict(count=12, seed=2406, inputs=(2, 3), **DAG_SHAPE), None, None),
}


def _corpus_digests() -> dict:
    out = {}
    for name, (fields, accept, force) in PINNED_CORPORA.items():
        circuits = generate_circuits(CorpusSpec(**fields), accept=accept, force_maj_every=force)
        text = "".join(to_netlist(c) for c in circuits)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_corpora_match_the_recorded_digests():
    recorded = json.loads(PINNED.read_text())
    got = _corpus_digests()
    assert sorted(got) == sorted(recorded)
    changed = [name for name in recorded if got[name] != recorded[name]]
    assert not changed, f"generated corpora changed for {changed}"


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_corpus_digests(), indent=1, sort_keys=True) + "\n")
