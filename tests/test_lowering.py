import itertools
import re
from dataclasses import replace

import pytest

from stepcrn import (
    Alphabet,
    Circuit,
    CircuitError,
    CorpusSpec,
    GateKind,
    Schedule,
    compile_circuit_catalyst,
    compile_circuit_exp,
    compile_formula,
    decode_output,
    enumerate_program_terminals,
    evaluate,
    generate_circuits,
    lower_gate,
    normalize,
    parse_circuit,
    parse_rule,
    program_to_text,
    run_program,
    stats,
)
from stepcrn.lowering import BACKENDS, LoweringError, compile_backend, x_name

from reference import configuration, count, one_step, rule_size, terminal_after
from test_compiled_identity import CONST_NET, _compiles as golden_compiles

FIG_FORMULA = """
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

FANOUT2_AND = """
circuit fanout2
gate 3 INPUT
gate 2 INPUT
gate 1 AND 3 2
outputs 1 1
"""


def _step_dict(prog, k):
    return {
        prog.alphabet.names[o]: c for o, c in prog.steps[k]
    }


def _encode_input(prog, bits):
    """The species an input assignment merges into step 0, by name."""
    return {prog.alphabet.names[o]: c for o, c in prog.input_step(bits)}


# -- lower_gate ---------------------------------------------------------------


def test_lower_and_gate():
    low = lower_gate(GateKind.AND, 4, (1, 2, 3))
    assert len(low.additions) == 1
    assert low.additions[0] == {
        "y[4]T": 1, "y[1->4]F": 1, "y[2->4]F": 1, "y[3->4]F": 1,
    }
    assert ("x[1]T", "y[1->4]F") in low.rules
    assert ("x[1]F", "y[4]T") in low.rules
    assert low.forms == (("y[4]T",), ("y[1->4]F", "y[2->4]F", "y[3->4]F"))
    assert low.species == (
        "y[4]T", "y[1->4]F", "y[2->4]F", "y[3->4]F", "x[4]T", "x[4]F",
    )


def test_lower_or_gate_mirrors_and():
    low = lower_gate(GateKind.OR, 4, (1, 2, 2), multiplicity=2)
    assert low.additions == ({"y[4]F": 2, "y[1->4]T": 2, "y[2->4]T": 4},)
    assert low.rules == (
        ("x[1]F", "y[1->4]T"), ("x[1]T", "y[4]F"),
        ("x[2]F", "y[2->4]T"), ("x[2]T", "y[4]F"),
    )
    assert low.forms == (("y[1->4]T", "y[2->4]T"), ("y[4]F",))
    assert low.species == ("y[1->4]T", "y[2->4]T", "y[4]F", "x[4]T", "x[4]F")


def test_lower_not_with_multiplicity():
    low = lower_gate(GateKind.NOT, 2, (1,), multiplicity=3)
    assert low.additions[0] == {"y[2]T": 3, "y[2]F": 3}
    assert set(low.rules) == {("x[1]T", "y[2]T"), ("x[1]F", "y[2]F")}
    assert low.forms == (("y[2]T",), ("y[2]F",))
    assert low.species == ("y[2]T", "y[2]F", "x[2]T", "x[2]F")
    with pytest.raises(LoweringError, match="multiplicity must be >= 1"):
        lower_gate(GateKind.NOT, 2, (1,), multiplicity=0)


def test_lower_maj_three_steps():
    low = lower_gate(GateKind.MAJ, 9, (1, 2, 3))
    assert len(low.additions) == 3
    assert low.additions[0] == {"a[9]T": 3, "a[9]F": 3}
    assert low.additions[1] == {"b[9]T": 1, "b[9]F": 1}
    assert low.additions[2] == {"y[9]T": 1, "y[9]F": 1}
    assert low.forms == (("y[9]T",), ("y[9]F",))
    assert low.species == (
        "a[9]T", "a[9]F", "b[9]T", "b[9]F", "y[9]T", "y[9]F", "x[9]T", "x[9]F",
    )


@pytest.mark.parametrize(
    "n, tally",
    [
        (1, {}),
        (2, {"b[9]F": 2}),
        (3, {"b[9]T": 2, "b[9]F": 2}),
        (4, {"b[9]T": 2, "b[9]F": 4}),
    ],
    ids=[f"fan-in-{n}" for n in range(1, 5)],
)
def test_lower_maj_tallies_only_its_real_wires(n, tally):
    # t = n // 2 + 1 of n wires: b[9]F gets (t - 1)·m copies and b[9]T
    # (n - t)·m, here at m = 2; a tally species with no copies is not
    # named, and neither is its rule.
    wires = tuple(range(1, n + 1))
    low = lower_gate(GateKind.MAJ, 9, wires, multiplicity=2)
    assert low.additions == ({"a[9]T": 2 * n, "a[9]F": 2 * n}, tally, {"y[9]T": 2, "y[9]F": 2})
    votes = [(f"x[{j}]{bit}", f"a[9]{'F' if bit == 'T' else 'T'}") for j in wires for bit in "TF"]
    tallies = [pair for pair in (("a[9]T", "b[9]F"), ("a[9]F", "b[9]T")) if pair[1] in tally]
    assert low.rules == tuple(votes + tallies + [("a[9]T", "y[9]F"), ("a[9]F", "y[9]T")])
    assert low.species == ("a[9]T", "a[9]F", *sorted(tally, reverse=True),
                           "y[9]T", "y[9]F", "x[9]T", "x[9]F")


@pytest.mark.parametrize(
    "kind, forms",
    [
        (GateKind.INPUT, (("y[1]T",), ("y[1]F",))),
        (GateKind.CONST_ZERO, ((), ("y[1]F",))),
        (GateKind.CONST_ONE, (("y[1]T",), ())),
    ],
    ids=["INPUT", "CONST_ZERO", "CONST_ONE"],
)
def test_lower_gate_on_a_source_adds_nothing(kind, forms):
    # A constant owns only its value's form, which step 0 adds.
    low = lower_gate(kind, 1, ())
    assert low.additions == () and low.rules == ()
    assert low.forms == forms
    assert low.species == forms[0] + forms[1] + ("x[1]T", "x[1]F")


# -- formula backend -------------------------------------------------------------


def test_formula_five_steps_match_reference_table():
    prog, report = compile_formula(parse_circuit(FIG_FORMULA))
    assert prog.step_count == 5
    assert _step_dict(prog, 0) == {
        "x[1]T": 1, "x[1]F": 1, "x[2]T": 1, "x[2]F": 1,
        "x[3]T": 1, "x[3]F": 1, "x[4]T": 1, "x[4]F": 1,
    }
    assert _step_dict(prog, 1) == {
        "y[5]T": 1, "y[1->5]F": 1, "y[2->5]F": 1,
        "y[6]T": 1, "y[3->6]F": 1, "y[4->6]F": 1,
    }
    assert _step_dict(prog, 2) == {"x[5]T": 1, "x[5]F": 1, "x[6]T": 1, "x[6]F": 1}
    assert _step_dict(prog, 3) == {"y[5->7]T": 1, "y[6->7]T": 1, "y[7]F": 1}
    assert _step_dict(prog, 4) == {"x[7]T": 1, "x[7]F": 1}
    assert run_program(prog, "1001", Schedule(0)).decoded == (0,)
    assert report.buffers.total == 0


def test_formula_single_and_step_skeleton():
    prog, _ = compile_formula(
        parse_circuit("circuit a\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n")
    )
    # initial conversion, gate step, output conversion
    assert prog.step_count == 3


def test_formula_single_maj_step_skeleton():
    prog, _ = compile_formula(
        parse_circuit(
            "circuit m\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 9 MAJ 1 2 3\noutputs 9\n"
        )
    )
    # initial conversion, three majority steps, output conversion
    assert prog.step_count == 5


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_maj_steps_skip_an_empty_tally(backend):
    # A level of fan-in-1 MAJ gates tallies nothing, so it has no tally
    # step; beside a wider MAJ gate the level keeps its tally step.
    # Conversion, the level-1 gate steps, conversion, the AND, conversion;
    # catalyst adds a sweeper and a killer for dy[0..2], dx[1] and dx[2].
    sweeps = 10 if backend == "catalyst" else 0
    for wires, steps in (("2", 2), ("2 3 4", 3)):
        inputs = "".join(f"gate {j} INPUT\n" for j in range(1, len(wires.split()) + 2))
        circuit = parse_circuit(
            f"circuit m\n{inputs}gate 5 MAJ 1\ngate 6 MAJ {wires}\ngate 7 AND 5 6\noutputs 7\n"
        )
        prog, _ = compile_backend(circuit, backend)
        assert all(prog.steps) and prog.step_count == 1 + steps + 3 + sweeps, wires
        for bits in itertools.product((0, 1), repeat=len(circuit.input_ids)):
            assert run_program(prog, bits, Schedule(0)).decoded == tuple(evaluate(circuit, bits))


def test_compile_backend_looks_up_the_table():
    c = parse_circuit(FIG_FORMULA)
    for name, compiler in BACKENDS.items():
        assert program_to_text(compile_backend(c, name)[0]) == program_to_text(compiler(c)[0])
    with pytest.raises(ValueError, match="unknown backend 'nope'"):
        compile_backend(c, "nope")


def test_formula_backend_rejects_circuits():
    with pytest.raises(LoweringError):
        compile_formula(parse_circuit(FANOUT2_AND))


def test_formula_encode_input():
    prog, _ = compile_formula(
        parse_circuit("circuit a\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n")
    )
    assert _encode_input(prog, "10") == {"y[1]T": 1, "y[2]F": 1}


@pytest.mark.parametrize("bits", ["21", "1", {1: 1}, {1: 0, 2: 1}])
@pytest.mark.parametrize(
    "call",
    [
        lambda c, p, bits: evaluate(c, bits),
        lambda c, p, bits: p.input_step(bits),
        lambda c, p, bits: run_program(p, bits, Schedule(0)),
    ],
    ids=["evaluate", "input_step", "run_program"],
)
def test_bad_input_bits_rejected_by_every_caller(call, bits):
    c = parse_circuit("circuit a\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n")
    prog, _ = compile_formula(c)
    with pytest.raises(CircuitError):
        call(c, prog, bits)


def test_constant_circuit_empty_merge():
    prog, _ = compile_formula(
        parse_circuit("circuit k\ngate 1 CONST_ONE\ngate 2 NOT 1\noutputs 2\n")
    )
    assert _encode_input(prog, "") == {}
    assert run_program(prog, "", Schedule(0)).decoded == (0,)


# -- exponential-volume backend ----------------------------------------------------


def test_exp_fanout_two_copies():
    c = parse_circuit(FANOUT2_AND)
    prog, report = compile_circuit_exp(c)
    assert report.demand[1] == 2 and report.max_input_multiplicity == 2
    assert _encode_input(prog, "10") == {"y[3]T": 2, "y[2]F": 2}
    assert terminal_after(prog, "10", 0, 1).as_dict() == {"y[2->1]F": 2}
    assert run_program(prog, "10", Schedule(0)).decoded == (0, 0)


MAJ_CONST_FORMULA = """
circuit majc
gate 1 INPUT
gate 2 INPUT
gate 3 INPUT
gate 4 CONST_ONE
gate 5 MAJ 1 2 3
gate 6 AND 5 4
outputs 6
"""


def test_exp_equals_formula_on_formulas():
    # On a formula every copy demand is 1, so the two (2,0) backends
    # build one program and one report, apart from the backend's name
    # and its predicted bounds.
    for text in (FIG_FORMULA, MAJ_CONST_FORMULA):
        c = parse_circuit(text)
        p1, r1 = compile_formula(c)
        p2, r2 = compile_circuit_exp(c)
        assert p1.steps == p2.steps
        assert [r.text for r in p1.rules] == [r.text for r in p2.rules]
        assert p1.alphabet == p2.alphabet
        assert p1.inputs == p2.inputs
        assert p1.outputs == p2.outputs
        t1, t2 = program_to_text(p1).splitlines(), program_to_text(p2).splitlines()
        assert (t1[1], t2[1]) == ("backend: formula", "backend: exp")
        assert t1[:1] + t1[2:] == t2[:1] + t2[2:]
        j1, j2 = r1.to_json_obj(), r2.to_json_obj()
        assert [k for k in j1 if j1[k] != j2[k]] == ["backend", "predicted"]
        assert replace(r1, backend="exp", predicted=r2.predicted) == r2


def test_exp_binary_chain_demand_grows():
    lines = ["circuit chain", "gate 1 INPUT"]
    prev, gid = [1], 2
    for _ in range(3):
        nxt = []
        for p in prev:
            for _ in range(2):
                lines.append(f"gate {gid} NOT {p}")
                nxt.append(gid)
                gid += 1
        prev = nxt
    lines.append("outputs " + " ".join(map(str, prev)))
    _, report = compile_circuit_exp(parse_circuit("\n".join(lines)))
    assert report.max_input_multiplicity == 8


# -- catalyst backend ---------------------------------------------------------------


def test_catalyst_cycle_and_decode():
    c = parse_circuit(FANOUT2_AND)
    prog, report = compile_circuit_catalyst(c)
    # strict inputs: one copy each
    assert _encode_input(prog, "10") == {"y[3]T": 1, "y[2]F": 1}
    result = run_program(prog, "10", Schedule(1))
    assert result.decoded == (0, 0)
    # sweepers killed, every spent carrier swept: only the decode copies remain
    assert result.final.as_dict() == {"x[1]F": 2}


def test_catalyst_single_not():
    c = parse_circuit("circuit n\ngate 1 INPUT\ngate 2 NOT 1\noutputs 2\n")
    prog, report = compile_circuit_catalyst(c)
    r = run_program(prog, "1", Schedule(0))
    assert r.decoded == (0,)
    assert r.peak_volume <= 8 * max(report.normalized.width, 1)


def test_catalyst_matches_formula_decodes():
    c = parse_circuit(FIG_FORMULA)
    pf, _ = compile_formula(c)
    pc, _ = compile_circuit_catalyst(c)
    for i in range(16):
        bits = [(i >> k) & 1 for k in range(4)]
        want = tuple(evaluate(c, bits))
        assert run_program(pf, bits, Schedule(2)).decoded == want
        assert run_program(pc, bits, Schedule(2)).decoded == want


def test_catalyst_early_output_survives():
    # output at level 1 of a depth-2 circuit must not be swept
    c = parse_circuit(
        "circuit e\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\ngate 4 NOT 3\noutputs 3 4\n"
    )
    prog, report = compile_circuit_catalyst(c)
    assert report.buffers.output_align_buffers == 1
    for bits in ("00", "01", "10", "11"):
        assert run_program(prog, bits, Schedule(0)).decoded == tuple(evaluate(c, bits))


# -- rule discipline ---------------------------------------------------------------


def test_void_backends_emit_only_true_void_pairs():
    for compiler in (compile_formula, compile_circuit_exp):
        prog, _ = compiler(parse_circuit(FIG_FORMULA))
        for rule in prog.rules:
            assert rule_size(rule) == (2, 0)


def test_catalyst_emits_only_void_families():
    prog, _ = compile_circuit_catalyst(parse_circuit(FANOUT2_AND))
    sizes = {rule_size(rule) for rule in prog.rules}
    assert sizes <= {(2, 0), (2, 1)}
    assert (2, 1) in sizes


def _owning_gate(name):
    # y[j->i]b is owned by gate i; y[i]b / a[i]b / b[i]b by gate i
    if name.startswith(("y[", "a[", "b[")):
        return int(name.split("]")[0].split("->")[-1].lstrip("yab["))
    return None


def test_gate_species_not_shared_between_lowerings():
    # no rule couples result carriers of two different gates; gates talk
    # only through the x[...] conversion species
    for compiler in (compile_formula, compile_circuit_exp, compile_circuit_catalyst):
        circuit = parse_circuit(FIG_FORMULA)
        prog, _ = compiler(circuit)
        for rule in prog.rules:
            owners = {
                _owning_gate(prog.alphabet.names[o])
                for o in (rule.a, rule.b)
            } - {None}
            assert len(owners) <= 1, rule.text


def test_each_species_added_at_one_step():
    for compiler in (compile_formula, compile_circuit_exp, compile_circuit_catalyst):
        prog, _ = compiler(parse_circuit(FIG_FORMULA))
        seen = {}
        for k, step in enumerate(prog.steps):
            for o, _ in step:
                assert seen.setdefault(o, k) == k


def test_completion_order_strictly_increases_along_paths():
    # Every species a gate's lowering adds comes after the carriers of
    # each of its inputs.
    for compiler in (compile_formula, compile_circuit_exp, compile_circuit_catalyst):
        c = parse_circuit(FIG_FORMULA if compiler is compile_formula else CLASH)
        prog, _ = compiler(c)
        norm, _ = normalize(c, align_outputs=(compiler is compile_circuit_catalyst))
        added_at = {name: prog.added_at[o] for name, o in prog.alphabet.index.items()}
        for g in norm.gates:
            added = {s for sub in lower_gate(g.kind, g.gid, g.inputs).additions for s in sub}
            for ref in g.inputs:
                carriers = max(added_at[x_name(ref, bit)] for bit in (True, False))
                assert all(added_at[s] > carriers for s in added), (g, ref)


# -- the majority lemma -------------------------------------------------------------


# MAJ wire lists of fan-in 1 to 6: distinct inputs, then each input read
# twice (the odd one out once).
_MAJ_WIRES = [tuple(range(1, n + 1)) for n in range(1, 7)] + [
    tuple(1 + i // 2 for i in range(n)) for n in range(2, 7)
]


@pytest.mark.parametrize("compiler", [compile_circuit_exp, compile_circuit_catalyst],
                         ids=["exp", "catalyst"])
def test_maj_decodes_more_than_half_of_its_wires_on_every_assignment(compiler):
    # A lone MAJ at every fan-in, duplicate wires included: every
    # terminal of every assignment decodes to whether more than half of
    # the wires are true, a tie being false, and so does evaluate.
    for wires in _MAJ_WIRES:
        inputs = sorted(set(wires))
        c = parse_circuit(
            "circuit maj\n" + "".join(f"gate {j} INPUT\n" for j in inputs)
            + f"gate 9 MAJ {' '.join(map(str, wires))}\noutputs 9\n"
        )
        prog, _ = compiler(c)
        for bits in itertools.product((0, 1), repeat=len(inputs)):
            true_wires = sum(bits[inputs.index(j)] for j in wires)
            want = (int(2 * true_wires > len(wires)),)
            assert tuple(evaluate(c, bits)) == want
            decoded = {tuple(decode_output(t, prog)) for t in enumerate_program_terminals(prog, bits)}
            assert decoded == {want}, (wires, bits)


# -- majority-input isolation -----------------------------------------------------


CLASH = """
circuit clash
gate 1 INPUT
gate 2 INPUT
gate 3 INPUT
gate 4 INPUT
gate 5 AND 3 4
gate 6 MAJ 1 2 3
outputs 5 6
"""


def test_vote_pools_can_skew_without_isolation():
    # Raw tables with a shared producer: the AND's true-output pool dies
    # to one false input, freeing the other false input's copy to eat an
    # extra vote carrier.  This is why normalize() buffers MAJ inputs.
    names = [
        "x[1]T", "x[2]T", "x[3]F", "x[4]F",
        "y[5]T", "y[3->5]F", "y[4->5]F",
        "a[6]T", "a[6]F",
    ]
    ab = Alphabet(names)
    rules = [
        parse_rule(t, ab)
        for t in (
            "x[3]F + y[5]T -> .",
            "x[4]F + y[5]T -> .",
            "x[1]T + a[6]F -> .",
            "x[2]T + a[6]F -> .",
            "x[3]F + a[6]T -> .",
        )
    ]
    entry = configuration(
        ab,
        {
            "x[1]T": 1, "x[2]T": 1, "x[3]F": 2, "x[4]F": 1,
            "y[5]T": 1, "y[3->5]F": 1, "y[4->5]F": 1,
            "a[6]T": 3, "a[6]F": 3,
        },
    )
    pools = {
        (count(t, "a[6]T"), count(t, "a[6]F"))
        for t in enumerate_program_terminals(one_step(entry, rules), ())
    }
    assert (2, 1) in pools  # the intended 2:1 tally
    assert (1, 1) in pools  # the skewed dead heat the buffers prevent


def test_isolated_maj_inputs_are_confluent():
    c = parse_circuit(CLASH)
    bits = "1100"
    want = tuple(evaluate(c, bits))
    for compiler in (compile_circuit_exp, compile_circuit_catalyst):
        prog, report = compiler(c)
        assert report.buffers.maj_input_buffers == 1
        terms = enumerate_program_terminals(prog, bits, state_cap=500_000)
        assert {tuple(decode_output(t, prog)) for t in terms} == {want}


def test_normalize_spans_every_wire_one_level():
    c = parse_circuit(
        "circuit skip\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\ngate 4 OR 3 1\noutputs 4\n"
    )
    norm, info = normalize(c)
    assert info.wire_span_buffers == 1
    for g in norm.gates:
        for ref in g.inputs:
            assert norm.level[g.gid] - norm.level[ref] == 1


# The corpus specs of criterion 5's DAGs (without its envelope filter) and
# of criterion 6c's MAJ DAGs, as in test_acceptance.
NORMALIZED_DAGS = CorpusSpec(count=100, seed=77, depth=(2, 4), gates=(6, 18), fan_in=(1, 2),
                             fan_out=(1, 3), inputs=(2, 6), maj_fraction=0.0, name_prefix="d")
NORMALIZED_MAJ_DAGS = CorpusSpec(count=20, seed=2405, depth=(2, 3), gates=(4, 12), fan_in=(1, 3),
                                 fan_out=(1, 3), inputs=(2, 4), maj_fraction=0.4, name_prefix="m")


def test_normalize_derives_the_validating_constructors_tables(monkeypatch):
    # normalize builds its circuit from its own levels, with no second
    # validation; every table equals what Circuit(...) derives, and a
    # gate it leaves unchanged is the input circuit's own Gate.
    circuits = {id(c): c for _, c, _ in golden_compiles()}
    for c in [*generate_circuits(NORMALIZED_DAGS),
              *generate_circuits(NORMALIZED_MAJ_DAGS, force_maj_every=2), parse_circuit(CONST_NET)]:
        circuits[id(c)] = c
    normalized = []
    with monkeypatch.context() as m:
        m.setattr(Circuit, "_validate", lambda self: pytest.fail("normalize re-validated"))
        for c in circuits.values():
            normalized += [(c, normalize(c, align_outputs=align)[0]) for align in (False, True)]
    kept = rebuilt = 0
    for c, norm in normalized:
        ref = Circuit(norm.name, norm.gates, norm.outputs)
        for table in ("gates", "outputs", "by_id", "consumers", "output_count", "input_ids",
                      "level", "levels", "order"):
            assert getattr(norm, table) == getattr(ref, table), (c.name, table)
        assert norm.sources() == ref.sources() and norm.non_sources() == ref.non_sources()
        for g in norm.gates:
            old = c.by_id.get(g.gid)
            if old is not None and old.inputs == g.inputs:
                assert g is old, (c.name, g.gid)
                kept += 1
            elif old is not None:
                rebuilt += 1
    assert kept and rebuilt


def test_levels_order_and_stats_read_each_gates_level():
    # Over the golden compile set, criterion 5's and 6c's DAG corpora, a
    # circuit of sources only, one that declares no level in id order, and
    # each one's normalized forms: levels[k] is level k's gates in
    # declaration order, order puts every gate after its inputs, and stats
    # equals a count from scratch.
    circuits = {id(c): c for _, c, _ in golden_compiles()}
    for c in [*generate_circuits(NORMALIZED_DAGS),
              *generate_circuits(NORMALIZED_MAJ_DAGS, force_maj_every=2),
              parse_circuit("circuit s\ngate 1 INPUT\ngate 2 CONST_ONE\noutputs 1 2 1\n"),
              parse_circuit("circuit p\ngate 4 INPUT\ngate 2 INPUT\ngate 9 AND 4 2\n"
                            "gate 5 OR 2 4\ngate 7 MAJ 9 5 4\noutputs 7 9\n")]:
        circuits[id(c)] = c
    checked = list(circuits.values())
    checked += [normalize(c, align_outputs=align)[0] for c in circuits.values() for align in (False, True)]
    for c in checked:
        depth = max(c.level.values())
        assert c.levels == tuple(
            tuple(g.gid for g in c.gates if c.level[g.gid] == k) for k in range(depth + 1)
        ), c.name
        seen: set[int] = set()
        for gid in c.order:
            assert seen.issuperset(c.by_id[gid].inputs), (c.name, gid)
            seen.add(gid)
        assert len(c.order) == len(c.gates) == len(seen), c.name
        internal = [g for g in c.gates if g.inputs]
        per_level: dict[int, int] = {}
        for g in internal:
            per_level[c.level[g.gid]] = per_level.get(c.level[g.gid], 0) + 1
        wires = [ref for g in c.gates for ref in g.inputs] + list(c.outputs)
        st = stats(c)
        assert st.gate_count == len(internal), c.name
        assert st.depth == max((c.level[g.gid] for g in internal), default=0), c.name
        assert st.width == max(per_level.values(), default=0), c.name
        assert st.max_fanout == max((wires.count(g.gid) for g in internal), default=0), c.name
    assert any(c.levels[1:] == () for c in checked)


# The species grammar of the ``stepcrn.lowering`` docstring.
SPECIES_RE = re.compile(r"^(?:[dk][xy]\[\d+\]|[xab]\[\d+\][TF]|y\[\d+(?:->\d+)?\][TF])$")


def test_compiled_species_follow_the_grammar():
    for compiler in (compile_formula, compile_circuit_exp, compile_circuit_catalyst):
        circuit = parse_circuit(FIG_FORMULA if compiler is compile_formula else CLASH)
        prog, _ = compiler(circuit)
        for name in prog.alphabet.names:
            assert SPECIES_RE.match(name), name


def test_report_renders():
    _, report = compile_circuit_exp(parse_circuit(FANOUT2_AND))
    text = report.to_text()
    assert "backend=exp" in text and "static_volume=" in text
    obj = report.to_json_obj()
    assert obj["demand"]["1"] == 2


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_report_timings_cover_each_layer_and_stay_out_of_equality(backend):
    circuit = parse_circuit(FIG_FORMULA)
    (_, first), (_, second) = compile_backend(circuit, backend), compile_backend(circuit, backend)
    assert list(first.timings) == ["normalize_s", "lower_s", "assemble_s"]
    assert all(s >= 0 for s in first.timings.values())
    second.timings = {k: s + 1.0 for k, s in second.timings.items()}
    assert first == second
    assert "timings" not in first.to_json() and "timings" not in repr(first)
