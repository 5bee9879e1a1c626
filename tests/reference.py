"""The unreduced reference semantics the tests compare the engine with.

Rules are the two shapes a program holds, ``A + B -> .`` and
``A + B -> A``, read as rows ``(a, b, kept)``.  They fire by plain
configuration arithmetic, and the reference search fires every
applicable rule in every state: no prepared tables, no step candidates,
no ample sets.  Being unreduced is what makes it the reference.  The
library itself fires rules only through ``run_program`` and enumerates
only through ``enumerate_program_terminals``; ``one_step`` wraps a bare
configuration as a program so tests can drive both from one.

``configuration`` builds a configuration from counts by name, and
``count`` reads one species' count by name.

``rule_size`` is a rule's (reactant volume, product volume): a rule of
size (2, 0) is a true-void pair, one of size (2, 1) catalytic.

``run_recording_rng`` runs a program with its trace and keeps the
``Random`` it drew from; ``replay_draws`` replays that trace by name and
advances a fresh ``Random(seed)`` by one ``randrange(n)`` per firing, n
the number of rules applicable before it, so the two states can be
compared.  The replay fails when the run leaves a step with a rule
still applicable, so it also checks that every step ends terminal.

``terminal_after`` is a run's terminal after step k, read as the final
terminal of the same program cut after step k.

``reference_demand_growth`` is the lower-bound check without the suffix
read-out: it compiles every chain of the worst-case family in full.
"""
from __future__ import annotations

import dataclasses
import random
from collections.abc import Iterable, Mapping, Sequence
from types import SimpleNamespace
from unittest import mock

from stepcrn import (
    Alphabet,
    Configuration,
    Rule,
    RuleTable,
    RunResult,
    Schedule,
    build_stage_chain,
    compile_circuit_exp,
    fibonacci,
    run_program,
)
from stepcrn import engine
from stepcrn.engine import StepProgram
from stepcrn.lowerbound import GrowthRow, StageSpec


def configuration(alphabet: Alphabet, counts: Mapping[str, int]) -> Configuration:
    """The configuration holding ``counts``, by species name."""
    dense = [0] * len(alphabet)
    for name, c in counts.items():
        dense[alphabet.ordinal(name)] += c
    return Configuration(alphabet, tuple(dense))


def count(config: Configuration, name: str) -> int:
    """The count of species ``name`` in ``config``."""
    return config.counts[config.alphabet.ordinal(name)]


def applicable(config: Configuration, rule: Rule) -> bool:
    """True iff the configuration holds both of the rule's reactants."""
    return config.counts[rule.a] > 0 and config.counts[rule.b] > 0


def apply_rule(config: Configuration, rule: Rule) -> Configuration:
    """Apply the rule once, returning the successor configuration."""
    if not applicable(config, rule):
        raise ValueError(f"rule not applicable: {rule.text}")
    counts = list(config.counts)
    counts[rule.a] -= 1
    counts[rule.b] -= 1
    if rule.kept >= 0:
        counts[rule.kept] += 1
    return Configuration(config.alphabet, tuple(counts))


def rule_size(rule: Rule) -> tuple[int, int]:
    """A rule's size: (reactant volume, product volume).  A row reads
    one copy each of two species."""
    return 2, int(rule.kept >= 0)


def is_terminal(config: Configuration, rules: Iterable[Rule]) -> bool:
    """True iff no rule applies to the configuration."""
    return not any(applicable(config, r) for r in rules)


def one_step(config: Configuration, rules: Iterable[Rule]) -> StepProgram:
    """A program whose single step adds ``config``'s non-zero counts, so
    a run or an enumeration of it starts from ``config``."""
    return StepProgram(
        name="one-step",
        backend="test",
        alphabet=config.alphabet,
        rules=RuleTable.from_rules(config.alphabet, rules),
        steps=(tuple((o, c) for o, c in enumerate(config.counts) if c),),
        inputs=(),
        outputs=(),
    )


def reference_terminals(config: Configuration, rule_list) -> set[Configuration]:
    """Unreduced search: every applicable rule fires in every state."""
    terminals, seen, stack = set(), {config}, [config]
    while stack:
        cur = stack.pop()
        successors = [apply_rule(cur, r) for r in rule_list if applicable(cur, r)]
        if not successors:
            terminals.add(cur)
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return terminals


def reference_program_terminals(program: StepProgram, bits) -> set[Configuration]:
    """The unreduced search lifted over the steps, every entry checking
    every rule."""
    inputs = program.input_step(bits)
    frontier = {Configuration(program.alphabet, (0,) * len(program.alphabet))}
    for k, step in enumerate(program.steps):
        reached = set()
        for term in frontier:
            counts = list(term.counts)
            for o, c in step + inputs if k == 0 else step:
                counts[o] += c
            entry = Configuration(program.alphabet, tuple(counts))
            reached |= reference_terminals(entry, program.rules)
        frontier = reached
    return frontier


def run_recording_rng(program: StepProgram, bits, seed: int) -> tuple[RunResult, random.Random]:
    """``run_program`` with ``trace=True``, and the ``Random`` it drew
    from, in the state the run left it."""
    made: list[random.Random] = []

    def recording(seed):
        made.append(random.Random(seed))
        return made[-1]

    with mock.patch.object(engine, "random", SimpleNamespace(Random=recording)):
        result = run_program(program, bits, Schedule(seed), trace=True)
    (rng,) = made
    return result, rng


def replay_draws(
    program: StepProgram, bits, seed: int, trace: Sequence[str]
) -> tuple[Configuration, random.Random]:
    """Fire the rules ``trace`` names, step by step, and draw
    ``randrange(n)`` from a fresh ``Random(seed)`` before each firing,
    n the number of rules applicable then.  A disabled rule never
    revives, so those are exactly the rules the scheduler draws among.
    Returns the final configuration and the advanced ``Random``."""
    by_text = {r.text: r for r in program.rules}
    rng = random.Random(seed)
    inputs = program.input_step(bits)
    lines = iter(trace)
    config = Configuration(program.alphabet, (0,) * len(program.alphabet))
    for k, step in enumerate(program.steps):
        counts = list(config.counts)
        for o, c in step + inputs if k == 0 else step:
            counts[o] += c
        config = Configuration(program.alphabet, tuple(counts))
        while n := sum(applicable(config, r) for r in program.rules):
            rng.randrange(n)
            line = next(lines, "")
            head = f"step={k} rule="
            assert line.startswith(head), f"step {k} ends with a rule applicable: {line!r}"
            config = apply_rule(config, by_text[line[len(head):line.rindex(" volume=")]])
    assert next(lines, None) is None, "the trace fires past a terminal"
    return config, rng


def terminal_after(program: StepProgram, bits, seed: int, k: int) -> Configuration:
    """The terminal a ``Schedule(seed)`` run reaches after step ``k``:
    the final terminal of the program cut after step ``k``, since a
    run's draws up to then do not depend on later steps."""
    prefix = dataclasses.replace(program, steps=program.steps[: k + 1])
    return run_program(prefix, bits, Schedule(seed)).final


def reference_demand_growth(max_depth: int, spec: StageSpec = StageSpec()) -> list[GrowthRow]:
    """Compile each chain of 1 to ``max_depth`` stages on its own and
    read its first input's demand and its static volume."""
    rows = []
    for depth in range(1, max_depth + 1):
        circuit = build_stage_chain(depth, spec)
        _, report = compile_circuit_exp(circuit)
        rows.append(
            GrowthRow(
                depth=depth,
                bound=fibonacci(depth),
                input_demand=report.demand[circuit.input_ids[0]],
                static_volume=report.static_volume,
            )
        )
    return rows
