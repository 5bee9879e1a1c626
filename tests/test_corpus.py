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


def test_accept_filter_advances_deterministically():
    spec = CorpusSpec(count=5, seed=4, fan_out=(1, 1), gates=(2, 12))
    odd_gates = lambda c: stats(c).gate_count % 2 == 1
    a = [to_netlist(c) for c in generate_circuits(spec, accept=odd_gates)]
    b = [to_netlist(c) for c in generate_circuits(spec, accept=odd_gates)]
    assert a == b and all(
        stats(c).gate_count % 2 == 1 for c in generate_circuits(spec, accept=odd_gates)
    )


def test_rejecting_every_candidate_raises_value_error():
    spec = CorpusSpec(count=2, seed=0)
    with pytest.raises(ValueError, match="keeps rejecting"):
        generate_circuits(spec, accept=lambda c: False)
