import gc
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from stepcrn import (
    Alphabet,
    Schedule,
    StateCapExceeded,
    decode_output,
    enumerate_program_terminals,
    evaluate,
    parse_circuit,
    parse_rule,
    program_from_text,
    program_to_text,
    run_program,
)
from stepcrn import crn, engine
from stepcrn.crn import RuleTable
from stepcrn.engine import StepProgram
from stepcrn.lowering import (
    compile_backend,
    compile_circuit_catalyst,
    compile_circuit_exp,
    compile_formula,
)

from reference import (
    configuration,
    one_step,
    reference_program_terminals,
    replay_draws,
    run_recording_rng,
    terminal_after,
)

FIG_NET = (
    "circuit f\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 4 INPUT\n"
    "gate 5 AND 1 2\ngate 6 AND 3 4\ngate 7 OR 5 6\noutputs 7\n"
)


def _cfg(ab, **counts):
    return configuration(ab, counts)


def test_run_step_trivial_annihilation():
    ab = Alphabet(["A", "B"])
    rules = [parse_rule("A + B -> .", ab)]
    out = run_program(one_step(_cfg(ab, A=1, B=1), rules), ()).final
    assert out.as_dict() == {}


def test_run_step_and_gate_example():
    # fan-in-3 AND at index 4 with inputs T,T,F, built directly
    names = [
        "x[1]T", "x[2]T", "x[3]F",
        "y[4]T", "y[1->4]F", "y[2->4]F", "y[3->4]F",
    ]
    ab = Alphabet(names)
    rules = [
        parse_rule("x[1]T + y[1->4]F -> .", ab),
        parse_rule("x[2]T + y[2->4]F -> .", ab),
        parse_rule("x[3]F + y[4]T -> .", ab),
    ]
    entry = _cfg(ab, **{
        "x[1]T": 1, "x[2]T": 1, "x[3]F": 1,
        "y[4]T": 1, "y[1->4]F": 1, "y[2->4]F": 1, "y[3->4]F": 1,
    })
    program = one_step(entry, rules)
    out = run_program(program, (), Schedule(5)).final
    assert out.as_dict() == {"y[3->4]F": 1}
    # the terminal is unique over every application order
    terms = enumerate_program_terminals(program, ())
    assert {t.as_dict()["y[3->4]F"] for t in terms} == {1} and len(terms) == 1


def test_run_step_or_gate_example():
    names = ["x[1]F", "x[2]T", "y[1->1]T", "y[2->1]T", "y[1]F"]
    ab = Alphabet(names)
    rules = [
        parse_rule("x[1]F + y[1->1]T -> .", ab),
        parse_rule("x[2]T + y[1]F -> .", ab),
    ]
    entry = _cfg(ab, **{"x[1]F": 1, "x[2]T": 1, "y[1->1]T": 1, "y[2->1]T": 1, "y[1]F": 1})
    out = run_program(one_step(entry, rules), ()).final
    assert out.as_dict() == {"y[2->1]T": 1}


def test_programs_refuse_rules_of_other_shapes():
    # A program holds only A + B -> . and A + B -> A: a row that reads
    # one species twice is refused, and so is a void rule in program
    # text that reads three species, or two copies of one.
    ab = Alphabet(["A", "B", "C"])
    for kept in (-1, 0):
        with pytest.raises(ValueError, match="^reactant ordinals must be sorted and distinct$"):
            one_step(_cfg(ab, A=3, B=1, C=2), [crn.Rule(ab, 0, 0, kept)])
    shape = "rule must read two distinct species, one copy each"
    for line in ("A + B + C -> .", "A + A + C -> A"):
        with pytest.raises(ValueError, match=rf"^line 3: {shape}: '{re.escape(line)}'$"):
            program_from_text(f"alphabet: A B C\nrules:\n{line}\n")


def test_program_takes_only_a_rule_table():
    ab = Alphabet(["A", "B"])
    rule = parse_rule("A + B -> .", ab)
    for rules in ((rule,), [rule], ()):
        with pytest.raises(TypeError, match="^rules must be a RuleTable, got "):
            StepProgram(name="p", backend="test", alphabet=ab, rules=rules, steps=(), inputs=(), outputs=())
    with pytest.raises(ValueError, match="^the rule table is over another alphabet$"):
        StepProgram(
            name="p", backend="test", alphabet=Alphabet(["A", "B", "C"]),
            rules=RuleTable.from_rules(ab, [rule]), steps=(), inputs=(), outputs=(),
        )


def test_enumerate_two_maximal_schedules():
    ab = Alphabet(["A", "B", "C"])
    rules = [parse_rule("A + B -> .", ab), parse_rule("A + C -> .", ab)]
    terms = enumerate_program_terminals(one_step(_cfg(ab, A=1, B=1, C=1), rules), ())
    assert {frozenset(t.as_dict().items()) for t in terms} == {
        frozenset({("C", 1)}),
        frozenset({("B", 1)}),
    }


def test_enumerate_single_terminal():
    ab = Alphabet(["A", "B"])
    program = one_step(_cfg(ab, A=2, B=1), [parse_rule("A + B -> .", ab)])
    terms = enumerate_program_terminals(program, ())
    assert [t.as_dict() for t in terms] == [{"A": 1}]


def test_enumerate_state_cap():
    ab = Alphabet(["A", "B"])
    program = one_step(_cfg(ab, A=30, B=30), [parse_rule("A + B -> .", ab)])
    with pytest.raises(StateCapExceeded) as exc:
        enumerate_program_terminals(program, (), state_cap=5)
    assert exc.value.step == 0
    assert str(exc.value) == "step 0: more than 5 configurations reachable"


def test_enumerate_fires_independent_rules_in_one_order():
    # Every interleaving of two disjoint pairs is 31 x 31 = 961
    # configurations; firing one independent component per state visits
    # 31 + 30 of them, all of which count toward the cap.
    ab = Alphabet(["A", "B", "C", "D"])
    rules = [parse_rule("A + B -> .", ab), parse_rule("C + D -> .", ab)]
    program = one_step(_cfg(ab, A=30, B=30, C=30, D=30), rules)
    assert [t.as_dict() for t in enumerate_program_terminals(program, (), state_cap=100)] == [{}]
    with pytest.raises(StateCapExceeded):
        enumerate_program_terminals(program, (), state_cap=60)


def test_components_connect_only_through_a_lowered_species():
    ab = Alphabet(["c", "a", "b", "d"])
    rules = [parse_rule(t, ab) for t in ("c + a -> c", "c + b -> c", "c + d -> .")]
    step = _tiny_program(ab, rules, [((0, 1), (1, 1), (2, 1), (3, 1))], [])._prepared.local_by_step[0]
    # Both rules read c, but neither lowers it.
    assert engine._components([0, 1], step) == [[0], [1]]
    # c + d -> . lowers c, which every rule reads.
    assert engine._components([0, 1, 2], step) == [[0, 1, 2]]


def test_enumerate_does_not_interleave_gates_sharing_a_catalyst():
    # With c joining them, the two drains would be interleaved in every
    # order: 11 x 11 = 121 configurations.  Apart, they take 11 + 10.
    ab = Alphabet(["c", "a", "b"])
    rules = [parse_rule(t, ab) for t in ("c + a -> c", "c + b -> c")]
    program = one_step(_cfg(ab, c=1, a=10, b=10), rules)
    assert [t.as_dict() for t in enumerate_program_terminals(program, (), state_cap=21)] == [{"c": 1}]


def test_enumerate_searches_each_read_state_once(monkeypatch):
    # Step 0 ends with B or with C; step 1 reads neither, so its two
    # entries share one read state and one search.  That search visits
    # 6 configurations, entry included, and reaches 3 terminals; the
    # other entry's 3 terminals are derived from them, 9 in all.  A
    # search of each entry would visit 12.
    ab = Alphabet(["A", "B", "C", "X", "Y", "Z"])
    rules = [parse_rule(t, ab) for t in ("A + B -> .", "A + C -> .", "X + Y -> .", "X + Z -> .")]
    program = _tiny_program(ab, rules, [((0, 1), (1, 1), (2, 1)), ((3, 2), (4, 2), (5, 2))], [])
    searched = []
    search = engine._search_terminals

    def counting(entry, *args):
        searched.append(entry)
        return search(entry, *args)

    monkeypatch.setattr(engine, "_search_terminals", counting)
    terminals = enumerate_program_terminals(program, (), state_cap=9)
    assert terminals == reference_program_terminals(program, ())
    assert len(terminals) == 6 and len(searched) == 2
    with pytest.raises(StateCapExceeded, match=r"^step 1: more than 8 ") as exc:
        enumerate_program_terminals(program, (), state_cap=8)
    assert exc.value.step == 1


def test_enumerate_counts_each_search_of_a_step_on_its_own():
    # Step 0 ends with B or with C.  Step 1 reads both, so its entries
    # are two read states, which agree on every other count.  Each search
    # visits 5 configurations, and 2 of them, X=1 Y=2 and Y=1, are
    # reached by both: the step counts 5 + 5, not the 8 distinct ones.
    ab = Alphabet(["A", "B", "C", "X", "Y"])
    rules = [parse_rule(t, ab) for t in ("A + B -> .", "A + C -> .", "B + X -> .", "C + X -> .", "X + Y -> .")]
    program = _tiny_program(ab, rules, [((0, 1), (1, 1), (2, 1)), ((3, 2), (4, 2))], [])
    terminals = enumerate_program_terminals(program, (), state_cap=10)
    assert terminals == reference_program_terminals(program, ())
    with pytest.raises(StateCapExceeded, match=r"^step 1: more than 9 ") as exc:
        enumerate_program_terminals(program, (), state_cap=9)
    assert exc.value.step == 1


def test_enumerate_searches_only_the_species_a_step_reads(monkeypatch):
    # 2,000 species that no rule reads ride along with two small gates.
    # Each search holds one count per species its step's rules read,
    # not one per species of the alphabet.
    idle = [f"u{i}" for i in range(2000)]
    ab = Alphabet(["A", "B", "C", "X", "Y", "Z"] + idle)
    rules = [parse_rule(t, ab) for t in ("A + B -> .", "A + C -> .", "X + Y -> X", "X + Z -> .")]
    step0 = ((0, 1), (1, 1), (2, 1)) + tuple((o, 1) for o in range(6, len(ab)))
    program = _tiny_program(ab, rules, [step0, ((3, 1), (4, 2), (5, 1))], [])
    searched = []
    search = engine._search_terminals

    def counting(entry, rules, *args):
        searched.append((len(entry), len(rules[0])))
        return search(entry, rules, *args)

    monkeypatch.setattr(engine, "_search_terminals", counting)
    terminals = enumerate_program_terminals(program, ())
    assert terminals == reference_program_terminals(program, ())
    assert len(terminals) == 6 and all(t.counts[6:] == (1,) * 2000 for t in terminals)
    # Step 0 reads A, B and C; step 1's two entries share one read state
    # of X, Y and Z.
    assert searched == [(3, 3), (3, 3)]


FANOUT_NET = (
    "circuit fan\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\ngate 4 OR 1 3\n"
    "gate 5 NOT 3\noutputs 4 5\n"
)


@pytest.mark.parametrize("backend", ["exp", "catalyst"])
def test_enumerate_matches_the_reference_on_broken_copies(backend):
    # Gates 1 and 3 fan out.  Each broken copy lowers one addition by one
    # copy or drops one rule, so some of its terminals decode wrong; the
    # search must still find exactly the reference's terminals, wrong
    # ones included.
    circuit = parse_circuit(FANOUT_NET)
    program, _ = compile_backend(circuit, backend)
    copies = [program]
    for k, step in enumerate(program.steps):
        for i, (o, c) in enumerate(step):
            lowered = step[:i] + (((o, c - 1),) if c > 1 else ()) + step[i + 1 :]
            copies.append(replace(program, steps=program.steps[:k] + (lowered,) + program.steps[k + 1 :]))
    rules = tuple(program.rules)
    for q in range(len(rules)):
        dropped = RuleTable.from_rules(program.alphabet, rules[:q] + rules[q + 1 :])
        copies.append(replace(program, rules=dropped))
    wrong = 0
    for copy in copies:
        for bits in ("00", "01", "10", "11"):
            terminals = enumerate_program_terminals(copy, bits)
            assert terminals == reference_program_terminals(copy, bits), (copy.steps, len(copy.rules), bits)
            want = tuple(evaluate(circuit, bits))
            decodes = {tuple(decode_output(t, copy)) for t in terminals}
            if copy is program:
                assert decodes == {want}
            wrong += decodes != {want}
    assert wrong > 0


def _tiny_program(alphabet, rules, steps, outputs):
    return StepProgram(
        name="t",
        backend="test",
        alphabet=alphabet,
        rules=RuleTable.from_rules(alphabet, rules),
        steps=tuple(steps),
        inputs=(),
        outputs=tuple(outputs),
    )


def test_decode_basic_and_errors():
    ab = Alphabet(["y[7]F", "y[7]T"])
    prog = _tiny_program(ab, [], [()], [(0, 1)])
    assert decode_output(_cfg(ab, **{"y[7]F": 1}), prog) == [0]
    assert decode_output(_cfg(ab, **{"y[7]T": 2}), prog) == [1]
    assert decode_output(_cfg(ab, **{"y[7]F": 1, "y[7]T": 1}), prog) == ["ambiguous"]
    assert decode_output(_cfg(ab), prog) == ["missing"]


def test_decode_refuses_a_configuration_over_another_alphabet():
    # Outputs are read by ordinal, so a configuration over an alphabet
    # that merely contains the output names is refused, not misread.
    ab = Alphabet(["y[7]F", "y[7]T"])
    prog = _tiny_program(ab, [], [()], [(0, 1)])
    wider = Alphabet(["z", "y[7]T", "y[7]F"])
    with pytest.raises(ValueError, match="another alphabet"):
        decode_output(_cfg(wider, **{"y[7]T": 1}), prog)
    assert decode_output(_cfg(Alphabet(ab.names), **{"y[7]T": 1}), prog) == [1]


def test_per_step_terminal_keeps_a_step_that_readies_no_rule():
    # Step 1 adds C, which only C + E reads, and E arrives at step 2:
    # step 1 readies no rule, fires none, and still ends terminal.
    prog = program_from_text(
        "alphabet: A B C D E\nrules:\nA + B -> .\nC + E -> .\nD + E -> .\n"
        "steps:\nstep 0: A=2, B=1\nstep 1: C=2\nstep 2: D=1, E=2\n"
        "outputs:\n0 0=B 1=A\n"
    )
    assert prog._prepared.ready_by_step == ((0,), (), (1, 2))
    for seed in range(3):
        per_step = [terminal_after(prog, (), seed, k).as_dict() for k in (0, 1)]
        assert per_step == [{"A": 1}, {"A": 1, "C": 2}]
        assert run_program(prog, (), Schedule(seed)).final.volume == 2


def _io_program(inputs, outputs=()):
    ab = Alphabet(["A", "B"])
    return StepProgram(
        name="t",
        backend="test",
        alphabet=ab,
        rules=RuleTable.from_rules(ab, ()),
        steps=((),),
        inputs=inputs,
        outputs=outputs,
    )


def test_program_refuses_an_input_listed_twice():
    # Listed twice, input 1 would merge its species twice per run, above
    # what static_volume() counts.
    with pytest.raises(ValueError, match="input 1 listed twice"):
        _io_program(((1, (0, 1), (1, 1)), (1, (0, 1), (1, 1))))
    assert _io_program(((1, (0, 1), (1, 1)), (2, (0, 1), (1, 1)))).static_volume() == 2


def test_program_refuses_an_ordinal_outside_the_alphabet():
    with pytest.raises(ValueError, match="input 1: ordinal 2 is outside the alphabet"):
        _io_program(((1, (0, 1), (2, 1)),))
    with pytest.raises(ValueError, match="input 1: ordinal -1 is outside the alphabet"):
        _io_program(((1, (-1, 1), (1, 1)),))
    with pytest.raises(ValueError, match="output ordinals must be in the alphabet"):
        _io_program((), ((0, 2),))
    assert _io_program((), ((0, 1),)).outputs == ((0, 1),)


def test_program_refuses_an_input_count_of_zero():
    with pytest.raises(ValueError, match="input encoding counts must be >= 1"):
        _io_program(((1, (0, 1), (1, 0)),))


def test_input_step_merges_shared_species():
    # Two inputs naming one species for the same bit merge their counts;
    # either bit of any input may add its species at step 0.
    ab = Alphabet(["A", "B", "C"])
    prog = StepProgram(
        name="t",
        backend="test",
        alphabet=ab,
        rules=RuleTable.from_rules(ab, [parse_rule("A + B -> .", ab)]),
        steps=(((2, 1),),),
        inputs=((1, (1, 1), (0, 1)), (2, (2, 3), (0, 2))),
        outputs=((1, 0),),
    )
    assert prog.input_step("11") == ((0, 3),)
    assert prog.input_step("00") == ((1, 1), (2, 3))
    assert prog.added_at == (0, 0, 0)
    assert run_program(prog, "01", Schedule(0)).final.as_dict() == {"A": 1, "C": 1}
    terminals = enumerate_program_terminals(prog, "01")
    assert [t.as_dict() for t in terminals] == [{"A": 1, "C": 1}]


def test_non_void_rules_are_rejected():
    ab = Alphabet(["A", "B", "C"])
    # A + B -> C raises a count, so a firing could enable a rule.
    grow = crn.Rule(ab, 0, 1, 2)
    with pytest.raises(ValueError, match="not void"):
        _tiny_program(ab, [grow], [((0, 1),)], [(0, 1)])
    with pytest.raises(ValueError, match="not void"):
        one_step(_cfg(ab, A=1), [parse_rule("A + B -> .", ab), grow])
    with pytest.raises(ValueError, match="not void"):
        one_step(_cfg(ab, A=1), [grow])


def test_run_program_reproducible_and_decodes():
    prog, _ = compile_formula(parse_circuit(FIG_NET))
    runs = [run_program(prog, "1001", Schedule(9), trace=True) for _ in range(3)]
    assert runs[0].decoded == (0,)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].trace and all(
        line.startswith("step=") and "rule=" in line and "volume=" in line
        for line in runs[0].trace
    )
    # distinct seeds may reorder applications but must agree on decode
    assert {run_program(prog, "1001", Schedule(s)).decoded for s in range(10)} == {(0,)}


def test_run_program_not_gate():
    c = parse_circuit("circuit n\ngate 1 INPUT\ngate 2 NOT 1\noutputs 2\n")
    prog, _ = compile_formula(c)
    assert run_program(prog, "1", Schedule(0)).decoded == (0,)
    assert run_program(prog, "0", Schedule(0)).decoded == (1,)


def test_run_program_input_validation():
    c = parse_circuit("circuit n\ngate 1 INPUT\ngate 2 NOT 1\noutputs 2\n")
    prog, _ = compile_formula(c)
    with pytest.raises(ValueError):
        run_program(prog, "10", Schedule(0))
    with pytest.raises(ValueError):
        run_program(prog, [9], Schedule(0))


def test_per_step_terminals_are_terminal():
    c = parse_circuit(
        "circuit f\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n"
    )
    prog, _ = compile_formula(c)
    result = run_program(prog, "10", Schedule(3), trace=True)
    final, _ = replay_draws(prog, "10", 3, result.trace)  # fails on a non-terminal step
    assert final == result.final
    assert result.peak_volume >= result.final.volume


def test_program_text_round_trip():
    c = parse_circuit(
        "circuit f\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n"
    )
    prog, _ = compile_formula(c)
    text = program_to_text(prog)
    again = program_from_text(text)
    assert program_to_text(again) == text
    r1 = run_program(prog, "11", Schedule(4))
    r2 = run_program(again, "11", Schedule(4))
    assert r1.decoded == r2.decoded == (1,)
    # Blank lines and lines starting with '#' are skipped, in the header
    # and in a section alike.
    lines = text.splitlines()
    at = lines.index("rules:") + 1
    noisy = ["# header", "", *lines[:at], "", "  # first rule", *lines[at:], "# end", ""]
    again = program_from_text("\n".join(noisy))
    assert again == prog and program_to_text(again) == text
    for compiler in (compile_formula, compile_circuit_exp, compile_circuit_catalyst):
        prog, _ = compiler(parse_circuit(FIG_NET))
        again = program_from_text(program_to_text(prog))
        assert again.steps == prog.steps and again == prog


@pytest.mark.parametrize(
    "name",
    ["program", "backend:x", "alphabet:z", "step", "steps:", "0", "#x", ".", "->", "+", "a+b", "k=1", "a,b"],
)
def test_a_species_name_is_refused_or_survives_the_text_round_trip(name):
    # The name leads a rule line, is the catalyst a rule keeps, and is
    # added at step 0, by input 1 and read by output 0.
    try:
        ab = Alphabet([name, "A", "B"])
    except ValueError as refused:
        assert str(refused).startswith("bad species name")
        return
    prog = StepProgram(
        name="p",
        backend="test",
        alphabet=ab,
        rules=RuleTable.from_rules(ab, (crn.Rule(ab, 0, 1, -1), crn.Rule(ab, 0, 2, 0))),
        steps=(((0, 1),), ((1, 1), (2, 1))),
        inputs=((1, (0, 1), (0, 2)),),
        outputs=((0, 1),),
    )
    text = program_to_text(prog)
    assert program_from_text(text) == prog
    assert program_to_text(program_from_text(text)) == text


def test_program_name_is_one_token_so_the_header_reads_back():
    ab = Alphabet(["A"])
    none = RuleTable.from_rules(ab, ())
    for name in ("", "a b", "a#b", "x\ny"):
        with pytest.raises(ValueError, match="program name must be one token"):
            StepProgram(name=name, backend="test", alphabet=ab, rules=none, steps=(), inputs=(), outputs=())
    prog = StepProgram(name="p-1.x", backend="test", alphabet=ab, rules=none, steps=(), inputs=(), outputs=())
    assert program_from_text(program_to_text(prog)) == prog


def test_program_exhaustive_matches_runs():
    # Under every backend, each run's decode is every terminal's, and no
    # run holds more copies than the program adds.
    c = parse_circuit(
        "circuit f\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n"
    )
    for compiler in (compile_formula, compile_circuit_exp, compile_circuit_catalyst):
        prog, _ = compiler(c)
        for bits in ("00", "01", "10", "11"):
            result = run_program(prog, bits, Schedule(0))
            assert result.peak_volume <= prog.static_volume()
            terms = enumerate_program_terminals(prog, bits)
            assert {tuple(decode_output(t, prog)) for t in terms} == {result.decoded}


def test_program_exhaustive_state_cap():
    c = parse_circuit(
        "circuit f\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n"
    )
    prog, _ = compile_formula(c)
    with pytest.raises(StateCapExceeded, match=r"^step 0: more than 1 ") as exc:
        enumerate_program_terminals(prog, "11", state_cap=1)
    assert exc.value.step == 0
    # Step 0 visits only its entry; step 1's pairs need more than 3.
    ab = Alphabet(["A", "B", "C"])
    prog = _tiny_program(ab, [parse_rule("A + B -> .", ab)], [((2, 1),), ((0, 5), (1, 5))], [])
    with pytest.raises(StateCapExceeded, match=r"^step 1: ") as exc:
        enumerate_program_terminals(prog, (), state_cap=3)
    assert exc.value.step == 1


def test_program_rejects_a_rule_over_another_alphabet():
    ab, other = Alphabet(["A", "B"]), Alphabet(["B", "A"])
    with pytest.raises(ValueError, match="another alphabet"):
        _tiny_program(ab, [parse_rule("A + B -> .", other)], [((0, 1),)], [(0, 1)])
    same = Alphabet(["A", "B"])
    assert _tiny_program(ab, [parse_rule("A + B -> .", same)], [((0, 1),)], [(0, 1)])


def test_program_rejects_malformed_step_entries():
    ab = Alphabet(["A", "B"])
    for steps in ([((1, 1), (0, 1))], [((0, 1), (0, 1))], [((0, 0),)], [((2, 1),)], [((-1, 1),)]):
        with pytest.raises(ValueError):
            _tiny_program(ab, [], steps, [(0, 1)])
    assert _tiny_program(ab, [], [((0, 1), (1, 2)), ()], [(0, 1)]).static_volume() == 3


def test_static_volume_counts_the_larger_input_choice():
    prog = program_from_text(
        "alphabet: A B\nrules:\nA + B -> .\nsteps:\nstep 0: B=1\n"
        "inputs:\n1 0=B:1 1=A:5\noutputs:\n0 0=B 1=A\n"
    )
    assert prog.static_volume() == 6
    assert run_program(prog, "1").peak_volume == 6
    assert run_program(prog, "0").peak_volume == 2


def test_run_program_draws_once_per_application():
    # The engine's Random ends where a fresh Random(seed) ends after one
    # randrange(n) per firing, n the number of enabled rules before it:
    # this pins both the number of draws and the range of each.
    circuit = parse_circuit(
        "circuit m\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\n"
        "gate 4 MAJ 1 2 3\ngate 5 AND 1 4\ngate 6 OR 4 2\noutputs 5 6 6\n"
    )
    # 20 rules share B, and 10 copies of B (7, and 1 per input) shrink the
    # enabled set from 20 to 11, so the draws cross a power of two.
    wide = program_from_text(
        "alphabet: B " + " ".join(f"X{i}" for i in range(20)) + "\nrules:\n"
        + "".join(f"B + X{i} -> .\n" for i in range(20)) + "steps:\nstep 0: B=7, "
        + ", ".join(f"X{i}=1" for i in range(20)) + "\ninputs:\n1 0=B:1 1=B:1\n"
        "2 0=B:1 1=B:1\n3 0=B:1 1=B:1\noutputs:\n"
    )
    programs = [compiler(circuit)[0] for compiler in (compile_circuit_exp, compile_circuit_catalyst)]
    for prog in programs + [wide]:
        for seed in range(5):
            result, rng = run_recording_rng(prog, "101", seed)
            assert result.applications == len(result.trace) > 0
            final, replayed = replay_draws(prog, "101", seed, result.trace)
            assert final == result.final
            assert replayed.getstate() == rng.getstate()


MAJ_NET = (
    "circuit m\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\n"
    "gate 4 MAJ 1 2 3\ngate 5 AND 1 4\ngate 6 OR 4 2\noutputs 5 6 6\n"
)


def _hub_program_text():
    """60 rules share the hub species H, and only a few of them are
    enabled when H drops: the firing must remove just those, in rule
    order."""
    hub = [f"H + X{i} -> ." for i in range(1, 61)]
    pairs = [f"Y{j} + W{j} -> ." for j in range(1, 5)]
    names = ["H"] + [f"Y{j}" for j in range(1, 5)] + [f"W{j}" for j in range(1, 5)]
    names += [f"X{i}" for i in range(1, 61)]
    return "\n".join(
        ["alphabet: " + " ".join(names), "rules:", *hub[:30], *pairs, *hub[30:], "steps:",
         "step 0: H=1, Y1=1, W1=1, Y2=1, W2=1, Y3=2, W3=2, Y4=1, W4=1, X1=1, X59=1, X60=1",
         "outputs:", "0 0=Y1 1=Y2"]
    ) + "\n"


TRACES = Path(__file__).parent / "data" / "traces.json"


def _trace_programs():
    """fig under every backend, the MAJ circuit (fan-out 2, so no
    formula) under the other two, and the hand-written hub program."""
    programs = {
        (name, b): compile_backend(parse_circuit(net), b)[0]
        for name, net in (("fig", FIG_NET), ("maj", MAJ_NET))
        for b in ("formula", "exp", "catalyst")
        if (name, b) != ("maj", "formula")
    }
    programs["hub", "unknown"] = program_from_text(_hub_program_text())
    return programs


def _trace_record(programs, name, backend, bits, seed):
    result = run_program(programs[name, backend], bits, Schedule(seed), trace=True)
    return {
        "applications": result.applications,
        "backend": backend,
        "bits": bits,
        "decoded": list(result.decoded),
        "final": result.final.as_dict(),
        "peak_volume": result.peak_volume,
        "program": name,
        "seed": seed,
        "trace": list(result.trace),
    }


def test_traces_match_the_recorded_ones():
    """The same (program, input, seed) fires the same rules in the same
    order, to the same final counts, as recorded in
    ``tests/data/traces.json``.  Rewrite the file under the same keys
    only for an intended change of the compiled programs or of the
    draws:

        PYTHONPATH=src python tests/test_engine.py
    """
    recorded = json.loads(TRACES.read_text())
    programs = _trace_programs()
    assert {(r["program"], r["backend"]) for r in recorded} == set(programs)
    assert {r["seed"] for r in recorded} == set(range(5))
    for rec in recorded:
        where = (rec["program"], rec["backend"], rec["bits"], rec["seed"])
        assert _trace_record(programs, *where) == rec, where


def _layered_net(width, depth):
    """``width`` inputs, then ``depth`` levels of ``width`` fan-in-2 gates,
    gate i of a level reading gates i and i+1 of the level below."""
    lines = ["circuit layered"] + [f"gate {g} INPUT" for g in range(1, width + 1)]
    prev = list(range(1, width + 1))
    for level in range(depth):
        cur = [prev[-1] + 1 + i for i in range(width)]
        for i, gid in enumerate(cur):
            kind = "AND" if (i + level) % 2 else "OR"
            lines.append(f"gate {gid} {kind} {prev[i]} {prev[(i + 1) % width]}")
        prev = cur
    lines.append("outputs " + " ".join(map(str, prev)))
    return "\n".join(lines) + "\n"


class _CountingTable(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountingTable.reads += 1
        return tuple.__getitem__(self, i)


def test_catalyst_entry_checks_follow_firings():
    # Every rule is checked once, at its ready step: a program adds each
    # species at one step, so no later step checks a rule again and the
    # checks do not grow with rules x depth.
    for depth in (6, 12):
        program, _ = compile_circuit_catalyst(parse_circuit(_layered_net(8, depth)))
        prep = program._prepared
        ready = [q for step in prep.ready_by_step for q in step]
        assert len(ready) == len(set(ready))
        # An entry check reads the rule's first reactant once, and so
        # does each firing, which lowers it unless the rule keeps it.
        program.rules.a = _CountingTable(program.rules.a)
        for seed in range(3):
            _CountingTable.reads = 0
            result = run_program(program, "10110010", Schedule(seed))
            assert 0 < _CountingTable.reads - result.applications <= len(program.rules)


def test_prepared_rules_cost_at_most_100_bytes_per_rule():
    # A program's first run builds its rule tables; they hold rule
    # numbers in one list per species and per step, not an object per
    # rule.
    program, _ = compile_circuit_catalyst(parse_circuit(_layered_net(8, 12)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prep = engine._PreparedRules(program, [[] for _ in program.added_at])
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert prep.ready_by_step and size <= 100 * len(program.rules), size / len(program.rules)


def test_a_run_builds_no_enumerator_table():
    program, _ = compile_circuit_catalyst(parse_circuit(_layered_net(4, 3)))
    run_program(program, "1011", Schedule(0))
    assert set(vars(program._prepared)) == {"table", "watch", "ready_by_step"}
    # An enumeration adds its one table and no table per rule.
    enumerate_program_terminals(program, "1011")
    assert set(vars(program._prepared)) == {"table", "watch", "ready_by_step", "local_by_step"}


def test_a_program_that_has_run_compares_hashes_and_prints_as_before():
    # The cached rule tables are no field: a run changes neither
    # equality, nor hash, nor repr.
    program, _ = compile_circuit_catalyst(parse_circuit(_layered_net(4, 3)))
    run_program(program, "1011", Schedule(0))
    assert "_prepared" in vars(program)
    back = program_from_text(program_to_text(program))
    assert program == back and hash(program) == hash(back) and repr(program) == repr(back)
    assert "_prepared" not in vars(back)


def test_catalyst_compile_and_untraced_run_build_no_rule_object(monkeypatch):
    # Rules live in the program's rule table; a rule object is built only
    # to read rule text, here for each traced firing.
    built = []
    row = crn.RuleTable._rule

    def counting(table, q):
        built.append(q)
        return row(table, q)

    monkeypatch.setattr(crn.RuleTable, "_rule", counting)
    program, _ = compile_circuit_catalyst(parse_circuit(_layered_net(8, 6)))
    run_program(program, "10110010", Schedule(0))
    prefix = replace(program, steps=program.steps[:4])
    assert prefix.rules is program.rules and len(program.rules) > 0
    assert built == []
    traced = run_program(program, "10110010", Schedule(0), trace=True)
    assert len(built) == traced.applications
    texts = {rule.text for rule in program.rules}
    assert {line.split(" rule=")[1].rsplit(" volume=")[0] for line in traced.trace} <= texts


def test_addition_discipline_rejects_a_species_added_at_two_steps():
    # A program adds each species, input species included, at one step;
    # one that adds a species at two steps is refused.
    ab = Alphabet(["A", "B", "C"])

    def program(*steps):
        return StepProgram(
            name="p",
            backend="test",
            alphabet=ab,
            rules=RuleTable.from_rules(ab, [parse_rule("A + B -> .", ab)]),
            steps=steps,
            inputs=((1, (1, 1), (2, 1)),),
            outputs=((1, 2),),
        )

    assert program(((0, 1),), ()).added_at == (0, 0, 0)
    with pytest.raises(ValueError, match=r"species A added at steps 0 and 2"):
        program(((0, 1),), (), ((0, 1),))
    with pytest.raises(ValueError, match=r"species C added at steps 0 and 1"):
        program(((0, 1),), ((2, 1),))
    # A species no step adds is added at len(steps).
    assert _tiny_program(ab, [], [((1, 1),), (), ((0, 1),)], []).added_at == (2, 0, 3)


if __name__ == "__main__":
    programs = _trace_programs()
    keys = [(r["program"], r["backend"], r["bits"], r["seed"]) for r in json.loads(TRACES.read_text())]
    TRACES.write_text(
        json.dumps([_trace_record(programs, *key) for key in keys], indent=1, sort_keys=True)
    )
