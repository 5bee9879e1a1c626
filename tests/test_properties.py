"""Property-based checks over random configurations, rules, and circuits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepcrn import (
    Alphabet,
    Configuration,
    GateKind,
    Rule,
    Schedule,
    decode_output,
    demand_analysis,
    enumerate_program_terminals,
    evaluate,
    parse_circuit,
    parse_rule,
    run_program,
    stats,
)
from stepcrn.circuits import max_fanout_any
from stepcrn.corpus import CorpusSpec, generate_circuits
from stepcrn.engine import StepProgram
from stepcrn.lowering import compile_backend

from reference import (
    applicable,
    apply_rule,
    configuration,
    is_terminal,
    one_step,
    reference_program_terminals,
    reference_terminals,
    replay_draws,
    rule_size,
    run_recording_rng,
)

AB = Alphabet([f"s{i}" for i in range(6)])

sparse_counts = st.dictionaries(
    st.sampled_from(AB.names), st.integers(min_value=1, max_value=4), max_size=4
)
configs = sparse_counts.map(lambda d: configuration(AB, d))


def _pairs(counts: dict) -> tuple:
    return tuple(sorted((AB.ordinal(n), c) for n, c in counts.items()))


rules = st.tuples(sparse_counts.filter(bool), sparse_counts).map(
    lambda rp: Rule(AB, _pairs(rp[0]), _pairs(rp[1]))
)


# Two distinct species of AB, as sorted ordinals.
species_pairs = st.lists(st.integers(0, len(AB) - 1), min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def void_rules(draw) -> Rule:
    """A rule of one of the two shapes: two distinct species, one copy
    each, and none or one of them kept."""
    a, b = draw(species_pairs)
    return Rule(AB, ((a, 1), (b, 1)), draw(st.sampled_from([(), ((a, 1),), ((b, 1),)])))


@given(configs, rules)
def test_apply_never_goes_negative(config, rule):
    if applicable(config, rule):
        out = apply_rule(config, rule)
        assert all(c >= 0 for c in out.counts)


@given(configs, void_rules())
def test_void_application_shrinks_volume_exactly(config, rule):
    if applicable(config, rule):
        out = apply_rule(config, rule)
        i, j = rule_size(rule)
        assert config.volume - out.volume == i - j


@settings(deadline=None, max_examples=60)
@given(configs, st.lists(void_rules(), min_size=1, max_size=5), st.integers(0, 10_000))
def test_void_run_ends_in_an_enumerated_terminal(config, rule_list, seed):
    # Rules drawn over six species share reactants far more densely than
    # compiled gates do, so a species reaching 0 drops many consumers.
    program = one_step(config, rule_list)
    out = run_program(program, (), Schedule(seed)).final
    assert is_terminal(out, rule_list)
    assert out in enumerate_program_terminals(program, ())


@settings(deadline=None, max_examples=200)
@given(configs, configs, st.lists(void_rules(), min_size=1, max_size=6))
def test_reduced_enumeration_matches_unreduced_reference(a, b, rule_list):
    config = Configuration(AB, tuple(x + y for x, y in zip(a.counts, b.counts)))
    terminals = enumerate_program_terminals(one_step(config, rule_list), ())
    assert terminals == reference_terminals(config, rule_list)


CATALYST = 0  # s0, the species the catalytic rules share


@st.composite
def catalytic_rule_sets(draw):
    """At least half of the rules are catalytic (``A + B -> A``), two or
    more of them keep s0, and now and then a rule deletes s0."""

    def catalytic(keep: int) -> Rule:
        drained = draw(st.sampled_from([o for o in range(6) if o != keep]))
        return Rule(AB, tuple(sorted([(keep, 1), (drained, 1)])), ((keep, 1),))

    shared = [catalytic(CATALYST) for _ in range(draw(st.integers(2, 4)))]
    others = [catalytic(draw(st.integers(1, 5))) for _ in range(draw(st.integers(0, 1)))]
    # Rules without products, which delete s0 when they read it.
    plain = [
        Rule(AB, ((a, 1), (b, 1)), ())
        for a, b in draw(st.lists(species_pairs, max_size=len(shared) - 1))
    ]
    if draw(st.booleans()):
        # s0 + s_j -> s_j or s0 + s_j -> . lowers the catalyst.
        j = draw(st.integers(1, 5))
        plain.append(Rule(AB, ((CATALYST, 1), (j, 1)), draw(st.sampled_from([(), ((j, 1),)]))))
    chosen = shared + others + plain
    assert 2 * (len(shared) + len(others)) >= len(chosen)
    return draw(st.permutations(chosen))


@settings(deadline=None, max_examples=200)
@given(configs, st.integers(0, 3), catalytic_rule_sets())
def test_catalytic_rules_keep_every_terminal(config, catalysts, rule_list):
    # Rules that only read s0 are independent of one another; a rule
    # that lowers s0 must join every reader of s0 again.
    counts = list(config.counts)
    counts[CATALYST] += catalysts
    start = Configuration(AB, tuple(counts))
    terminals = enumerate_program_terminals(one_step(start, rule_list), ())
    assert terminals == reference_terminals(start, rule_list)


WORKED_NETS = {
    "fig": "circuit fig\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 4 INPUT\n"
    "gate 5 AND 1 2\ngate 6 AND 3 4\ngate 7 OR 5 6\noutputs 7\n",
    "and3": "circuit and3\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 4 AND 1 2 3\noutputs 4\n",
    "fanout2": "circuit fanout2\ngate 3 INPUT\ngate 2 INPUT\ngate 1 AND 3 2\noutputs 1 1\n",
}


@pytest.mark.parametrize(
    "net, backend",
    [("fig", b) for b in ("formula", "exp", "catalyst")]
    + [("and3", b) for b in ("formula", "exp", "catalyst")]
    + [("fanout2", b) for b in ("exp", "catalyst")],
)
def test_reduced_program_enumeration_matches_reference(net, backend):
    circuit = parse_circuit(WORKED_NETS[net])
    program, _ = compile_backend(circuit, backend)
    n = len(circuit.input_ids)
    for i in range(1 << n):
        bits = [(i >> k) & 1 for k in range(n)]
        want = reference_program_terminals(program, bits)
        assert enumerate_program_terminals(program, bits) == want, bits


@st.composite
def staggered_steps(draw):
    """Two to four steps that add each species at one drawn step, or at
    none, with small counts."""
    adds = [[] for _ in range(draw(st.integers(min_value=2, max_value=4)))]
    for o in range(len(AB)):
        k = draw(st.integers(min_value=0, max_value=len(adds)))
        if k < len(adds):
            adds[k].append((o, draw(st.integers(min_value=1, max_value=3))))
    return tuple(map(tuple, adds))


@settings(deadline=None, max_examples=150)
@given(
    st.lists(void_rules(), min_size=1, max_size=5),
    staggered_steps(),
    st.integers(0, 10_000),
)
def test_multi_step_runs_with_staggered_species(rule_list, steps, seed):
    # Species arrive at different steps, so each rule must be checked at
    # the step its later reactant arrives, and a rule that fails that
    # check can never fire.
    program = StepProgram(
        name="p",
        backend="test",
        alphabet=AB,
        rules=tuple(rule_list),
        steps=steps,
        inputs=(),
        outputs=(),
    )
    result = run_program(program, (), Schedule(seed), trace=True)
    final, _ = replay_draws(program, (), seed, result.trace)  # fails on a non-terminal step
    assert final == result.final
    terminals = enumerate_program_terminals(program, ())
    assert result.final in terminals
    assert terminals == reference_program_terminals(program, ())


@settings(deadline=None, max_examples=150)
@given(
    st.lists(void_rules(), min_size=1, max_size=5),
    staggered_steps(),
    st.integers(0, 10_000),
)
def test_each_application_draws_once_among_the_enabled_rules(rule_list, steps, seed):
    # Replaying the trace with one randrange(n) per firing, n the rules
    # applicable before it, leaves a fresh Random(seed) in the state the
    # run left its own: one draw per application, each over the
    # enabled set.
    program = StepProgram(
        name="p",
        backend="test",
        alphabet=AB,
        rules=tuple(rule_list),
        steps=steps,
        inputs=(),
        outputs=(),
    )
    result, rng = run_recording_rng(program, (), seed)
    final, replayed = replay_draws(program, (), seed, result.trace)
    assert final == result.final
    assert replayed.getstate() == rng.getstate()


@pytest.mark.parametrize("net", sorted(WORKED_NETS))
def test_catalyst_per_step_terminals_are_terminal(net):
    circuit = parse_circuit(WORKED_NETS[net])
    program, _ = compile_backend(circuit, "catalyst")
    n = len(circuit.input_ids)
    for i in range(1 << n):
        bits = [(i >> k) & 1 for k in range(n)]
        for seed in range(3):
            result = run_program(program, bits, Schedule(seed), trace=True)
            final, _ = replay_draws(program, bits, seed, result.trace)
            assert final == result.final, (bits, seed)


@given(st.integers(min_value=0, max_value=10_000))
def test_void_runs_halt_within_entry_volume(seed):
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(5)]
    ab = Alphabet(names)
    pool = []
    for a in names:
        for b in names:
            if a != b:
                pool.append(parse_rule(f"{a} + {b} -> .", ab))
    chosen = rng.sample(pool, k=rng.randint(1, 6))
    counts = {n: rng.randint(0, 5) for n in names}
    start = configuration(ab, counts)
    out = run_program(one_step(start, chosen), (), Schedule(seed)).final
    # each application removes two copies, so the run halted within volume/2 steps
    assert out.volume <= start.volume
    assert all(c >= 0 for c in out.counts)


def _eval_recursive(circuit, bits):
    """Independent oracle: memoized recursion instead of the library's
    iterative topological pass."""
    assign = dict(zip(circuit.input_ids, bits))
    memo = {}

    def value(gid):
        if gid in memo:
            return memo[gid]
        g = circuit.by_id[gid]
        if g.kind is GateKind.INPUT:
            v = assign[gid]
        elif g.kind is GateKind.CONST_ZERO:
            v = 0
        elif g.kind is GateKind.CONST_ONE:
            v = 1
        else:
            ins = [value(r) for r in g.inputs]
            if g.kind is GateKind.AND:
                v = min(ins)
            elif g.kind is GateKind.OR:
                v = max(ins)
            elif g.kind is GateKind.NOT:
                v = 1 - ins[0]
            else:
                votes_true = sum(ins)
                votes_false = len(ins) - votes_true + (len(ins) + 1) % 2
                v = 1 if votes_true > votes_false else 0
        memo[gid] = v
        return v

    return [value(o) for o in circuit.outputs]


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_evaluate_matches_truth_table_oracle(seed, formula_mode):
    spec = CorpusSpec(
        count=1,
        seed=seed,
        depth=(1, 4),
        gates=(1, 10),
        fan_in=(1, 3),
        fan_out=(1, 1) if formula_mode else (1, 3),
        inputs=(1, 8),
        maj_fraction=0.4,
    )
    (circuit,) = generate_circuits(spec)
    n = len(circuit.input_ids)
    for i in range(1 << n):
        bits = [(i >> k) & 1 for k in range(n)]
        assert evaluate(circuit, bits) == _eval_recursive(circuit, bits)


def _paths_to_outputs(circuit, gid):
    memo = {}

    def paths(g):
        if g not in memo:
            memo[g] = circuit.outputs.count(g) + sum(
                paths(h.gid) * h.inputs.count(g) for h in circuit.gates if g in h.inputs
            )
        return memo[g]

    return paths(gid)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_demand_equals_output_path_count(seed):
    spec = CorpusSpec(
        count=1, seed=seed, depth=(1, 3), gates=(1, 12), fan_in=(1, 3),
        fan_out=(1, 3), inputs=(1, 5),
    )
    (circuit,) = generate_circuits(spec)
    demand = demand_analysis(circuit)
    for gid in circuit.by_id:
        assert demand[gid] == _paths_to_outputs(circuit, gid)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_input_demand_bounded_by_fanout_power_depth(seed):
    spec = CorpusSpec(
        count=1, seed=seed, depth=(1, 4), gates=(2, 14), fan_in=(1, 3),
        fan_out=(1, 3), inputs=(2, 5),
    )
    (circuit,) = generate_circuits(spec)
    st_ = stats(circuit)
    demand = demand_analysis(circuit)
    bound = max(max_fanout_any(circuit), 1) ** st_.depth
    assert max(demand[g] for g in circuit.input_ids) <= bound


@settings(deadline=None, max_examples=12)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["formula", "exp", "catalyst"]),
)
def test_runs_reproducible_and_correct(seed, backend):
    spec = CorpusSpec(
        count=1, seed=seed, depth=(1, 3), gates=(1, 8), fan_in=(1, 2),
        fan_out=(1, 1) if backend == "formula" else (1, 2),
        inputs=(1, 4), maj_fraction=0.3 if backend == "formula" else 0.0,
    )
    (circuit,) = generate_circuits(spec)
    program, _ = compile_backend(circuit, backend)
    n = len(circuit.input_ids)
    rng = random.Random(seed)
    bits = [rng.randint(0, 1) for _ in range(n)]
    want = tuple(evaluate(circuit, bits))
    first = run_program(program, bits, Schedule(17), trace=True)
    second = run_program(program, bits, Schedule(17), trace=True)
    assert first == second
    assert first.decoded == want
    for other_seed in range(6):
        assert run_program(program, bits, Schedule(other_seed)).decoded == want


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_small_programs_decode_uniformly_over_all_schedules(seed):
    spec = CorpusSpec(
        count=1, seed=seed, depth=(1, 2), gates=(1, 3), fan_in=(1, 2),
        fan_out=(1, 2), inputs=(1, 3), maj_fraction=0.25,
    )
    (circuit,) = generate_circuits(spec)
    n = len(circuit.input_ids)
    for backend in ("exp", "catalyst"):
        program, _ = compile_backend(circuit, backend)
        for i in range(1 << n):
            bits = [(i >> k) & 1 for k in range(n)]
            want = tuple(evaluate(circuit, bits))
            terminals = enumerate_program_terminals(program, bits, state_cap=200_000)
            assert {tuple(decode_output(t, program)) for t in terminals} == {want}
