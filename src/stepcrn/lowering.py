"""Lowering of threshold circuits to step programs.

Three backends share one per-gate rule scheme:

* ``formula``  — annihilation-only (2,0) rules, one copy of everything;
  accepts fan-out-1 single-output circuits.
* ``exp``      — the same scheme with every addition count for a gate
  scaled by its copy demand, which lets arbitrary fan-out work at the
  price of exponential volume.
* ``catalyst`` — (2,0) rules plus (2,1) catalytic rules; a surviving
  output species stamps its truth value onto as many next-level input
  copies as needed, and deleter species sweep spent species between
  levels, keeping the resident volume proportional to circuit width.
  Each sweep has its own sweeper ``d{x,y}[k]``, deleted by its killer
  ``k{x,y}[k]`` one step later.

Every species, under every backend, is added at exactly one step.

One routine, :func:`_compile`, builds every backend's program.  The
step skeleton per depth level is: one gate step (three for levels
containing MAJ gates: vote conversion, tally annihilation, output
conversion; no tally step when every MAJ gate of the level has fan-in
1, for it would add nothing), then a conversion step that turns
surviving output species into the next level's input species, as many
carrier copies of each polarity as the level after it reads.  Step 0 adds the constant
sources' species and converts every source; the conversion after the
last level produces the species the decoder reads.  Sources and inputs
enter at their gate's multiplicity.  Under ``catalyst``, level k's gate
sub-steps are followed by the sweeper and killer steps of ``dx[k]``,
and every conversion step by those of ``dy[k]``.

Before lowering, circuits are normalized so that every wire spans
exactly one depth level and every MAJ gate reads from producers that
feed nothing else.  The second condition matters for soundness: the
majority tally counts exact per-input copy contributions, and a shared
producer with spare copies (spare because a sibling consumer's shared
target pool was already emptied by another input) could otherwise dump
those copies into the tally pools under an adversarial schedule and
skew the vote.  Single-consumer buffers make such spares impossible.
Buffering is done with fan-in-1 OR gates and reported.

Species emitted by the compilers follow this grammar (one token, no
whitespace); :func:`lower_gate` names every species a gate owns:

    x[<i>]T | x[<i>]F        per-wire input carrier for gate <i>
    y[<i>]T | y[<i>]F        single-form gate output
    y[<j>-><i>]T|F           per-input gate output (input <j> into gate <i>)
    a[<i>]T|F, b[<i>]T|F     majority-gate vote and tally helpers
    dx[<k>], dy[<k>]         catalyst sweepers of level <k>
    kx[<k>], ky[<k>]         killers of those sweepers
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .circuits import (
    Circuit,
    CircuitError,
    CircuitStats,
    Gate,
    GateKind,
    demand_analysis,
    max_fanout_any,
    stats,
)
from .crn import Alphabet, RuleTable
from .engine import Step, StepProgram

# Repo-documented resource-bound constants (see README):
#   species <= SPECIES_C * gates          (formula, exp; catalyst + 4*sources + 4*depth + 2)
#   steps   <= STEPS_C * depth + STEPS_C0 (formula, exp)
#   steps   <= CAT_STEPS_C * depth + CAT_STEPS_C0 (catalyst)
#   volume  <= VOLUME_C * gates           (formula: static and peak)
#   volume  <= VOLUME_C * gates * max_fanout**depth (exp: static)
#   resident volume <= RESIDENT_C * width (catalyst: peak)
# All against the normalized circuit's statistics.
SPECIES_C = 8
STEPS_C = 4
STEPS_C0 = 2
CAT_STEPS_C = 8
CAT_STEPS_C0 = 3
VOLUME_C = 8
RESIDENT_C = 8


class LoweringError(CircuitError):
    """Raised when a circuit cannot be lowered by the chosen backend."""


@dataclass(frozen=True)
class GateLowering:
    """One gate's species, additions and annihilation rules; only the
    addition counts scale with the gate's multiplicity.

    ``species`` lists every species the gate owns, in alphabet order:
    MAJ helpers, true forms, false forms, then the carriers
    ``x[i]T``/``x[i]F`` its consumers read.  ``forms`` splits the
    species that can carry the gate's result into (true forms, false
    forms).  A constant owns only its value's form.  A source adds
    nothing at its level and has no rules.
    """

    species: tuple[str, ...]
    forms: tuple[tuple[str, ...], tuple[str, ...]]
    additions: tuple[dict, ...]  # one dict per gate sub-step
    rules: tuple[tuple[str, str], ...]  # annihilating reactant pairs


@dataclass(frozen=True)
class NormalizationInfo:
    maj_input_buffers: int = 0
    wire_span_buffers: int = 0
    output_align_buffers: int = 0

    @property
    def total(self) -> int:
        return self.maj_input_buffers + self.wire_span_buffers + self.output_align_buffers


@dataclass
class CompilationReport:
    backend: str
    circuit_name: str
    original: CircuitStats
    normalized: CircuitStats
    buffers: NormalizationInfo
    species_count: int
    step_count: int
    static_volume: int
    max_input_multiplicity: int
    demand: dict[int, int]
    predicted: dict[str, int]
    # Seconds spent in normalize, lowering (alphabet, per-gate lowering and
    # rules) and assembly (steps, program checks, report); kept out of
    # comparisons and of the text and JSON forms.
    timings: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    def to_text(self) -> str:
        lines = [
            f"backend={self.backend}",
            f"circuit={self.circuit_name}",
            f"gates={self.normalized.gate_count}",
            f"depth={self.normalized.depth}",
            f"max_fanout={self.normalized.max_fanout}",
            f"width={self.normalized.width}",
            f"buffers_inserted={self.buffers.total}",
            f"species_count={self.species_count}",
            f"step_count={self.step_count}",
            f"static_volume={self.static_volume}",
            f"max_input_multiplicity={self.max_input_multiplicity}",
        ]
        lines += [f"predicted_{k}={v}" for k, v in sorted(self.predicted.items())]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def to_json_obj(self) -> dict:
        return {
            "backend": self.backend,
            "circuit": self.circuit_name,
            "original": vars(self.original).copy(),
            "normalized": vars(self.normalized).copy(),
            "buffers_inserted": self.buffers.total,
            "species_count": self.species_count,
            "step_count": self.step_count,
            "static_volume": self.static_volume,
            "max_input_multiplicity": self.max_input_multiplicity,
            "demand": {str(k): v for k, v in sorted(self.demand.items())},
            "predicted": dict(sorted(self.predicted.items())),
        }


# -- per-gate lowering -------------------------------------------------------


def x_name(gid: int, bit: bool) -> str:
    return f"x[{gid}]{'T' if bit else 'F'}"


def y_name(gid: int, bit: bool) -> str:
    return f"y[{gid}]{'T' if bit else 'F'}"


def y_arrow_name(src: int, dst: int, bit: bool) -> str:
    return f"y[{src}->{dst}]{'T' if bit else 'F'}"


def a_name(gid: int, bit: bool) -> str:
    return f"a[{gid}]{'T' if bit else 'F'}"


def b_name(gid: int, bit: bool) -> str:
    return f"b[{gid}]{'T' if bit else 'F'}"


# The input value that decides an AND (0) or OR (1) on its own.  The
# gate's result species ``y[i]`` of the other value survives unless some
# input shows the controlling value; each input's arrow form
# ``y[j->i]`` carries the controlling value and survives when input j
# shows it.
_CONTROLLING = {GateKind.AND: False, GateKind.OR: True}


def lower_gate(
    kind: GateKind,
    gate_id: int,
    fan_in: Sequence[int],
    multiplicity: int = 1,
) -> GateLowering:
    """Species, additions and rules computing one gate of any kind at
    the given output multiplicity.  ``fan_in`` lists input gate ids,
    duplicates allowed; rules are count-free so only addition counts
    scale."""
    if multiplicity < 1:
        raise LoweringError(f"gate {gate_id}: multiplicity must be >= 1")
    m = multiplicity
    fan_in = tuple(fan_in)
    distinct = sorted(set(fan_in))
    true, false = y_name(gate_id, True), y_name(gate_id, False)
    forms: tuple[tuple[str, ...], tuple[str, ...]] = ((true,), (false,))
    helpers: tuple[str, ...] = ()
    additions: tuple[dict, ...] = ()
    rules: list[tuple[str, str]] = []
    if kind in _CONTROLLING:
        c = _CONTROLLING[kind]
        result = y_name(gate_id, not c)
        arrows = tuple(y_arrow_name(j, gate_id, c) for j in distinct)
        forms = (arrows, (result,)) if c else ((result,), arrows)
        adds: dict[str, int] = {result: m}
        for j in fan_in:
            arrow = y_arrow_name(j, gate_id, c)
            adds[arrow] = adds.get(arrow, 0) + m
        additions = (adds,)
        for j, arrow in zip(distinct, arrows):
            rules.append((x_name(j, not c), arrow))
            rules.append((x_name(j, c), result))
    elif kind is GateKind.NOT:
        (j,) = fan_in
        additions = ({true: m, false: m},)
        rules = [(x_name(j, True), true), (x_name(j, False), false)]
    elif kind is GateKind.MAJ:
        # More than half of the n wires true: at least t of them.  Each
        # wire deletes m copies of the vote against it, so k true wires
        # leave k·m a[i]T and (n - k)·m a[i]F.  The tally deletes
        # (t - 1)·m of the first and (n - t)·m of the second, so exactly
        # one survives, to delete the other result form.
        n = len(fan_in)
        t = n // 2 + 1
        a_true, a_false = a_name(gate_id, True), a_name(gate_id, False)
        b_true, b_false = b_name(gate_id, True), b_name(gate_id, False)
        tally = {b: c * m for b, c in ((b_true, n - t), (b_false, t - 1)) if c}
        helpers = (a_true, a_false, *tally)
        additions = ({a_true: n * m, a_false: n * m}, tally, {true: m, false: m})
        for j in distinct:
            rules.append((x_name(j, True), a_false))
            rules.append((x_name(j, False), a_true))
        rules += [pair for pair in ((a_true, b_false), (a_false, b_true)) if pair[1] in tally]
        rules += [(a_true, false), (a_false, true)]
    elif kind is not GateKind.INPUT:  # a constant has only its value's form
        forms = ((true,), ()) if kind is GateKind.CONST_ONE else ((), (false,))
    species = helpers + forms[0] + forms[1] + (x_name(gate_id, True), x_name(gate_id, False))
    return GateLowering(species, forms, additions, tuple(rules))


# -- normalization -----------------------------------------------------------


def normalize(
    circuit: Circuit, *, align_outputs: bool = False
) -> tuple[Circuit, NormalizationInfo]:
    """Insert fan-in-1 OR buffers so every wire spans one depth level
    and every MAJ input comes from a single-consumer producer; with
    ``align_outputs``, additionally route every output to the deepest
    level (the catalyst backend's sweepers would otherwise delete
    earlier outputs)."""
    gates: dict[int, list] = {g.gid: [g.kind, list(g.inputs)] for g in circuit.gates}
    gate_order = [g.gid for g in circuit.gates]
    outputs = list(circuit.outputs)
    next_id = max(gates) + 1
    maj_buffers = 0
    span_buffers = 0
    out_buffers = 0

    def add_buffer(src: int) -> int:
        nonlocal next_id
        gid = next_id
        next_id += 1
        gates[gid] = [GateKind.OR, [src]]
        gate_order.append(gid)
        return gid

    # MAJ inputs from producers with any other obligation get a private
    # buffer, so their copy supply exactly equals their duty at the gate.
    for gid in list(gate_order):
        kind, ins = gates[gid]
        if kind is not GateKind.MAJ:
            continue
        for slot, ref in enumerate(ins):
            if circuit.fanout(ref) > 1:
                ins[slot] = add_buffer(ref)
                maj_buffers += 1

    # ``circuit.order`` is topological; a MAJ buffer sits one level above
    # its source and is levelled when its only consumer is reached.
    level: dict[int, int] = {}
    for gid in circuit.order:
        _, ins = gates[gid]
        for ref in ins:
            if ref not in level:
                level[ref] = level[gates[ref][1][0]] + 1
        level[gid] = 1 + max((level[ref] for ref in ins), default=-1)

    for gid in list(gate_order):
        _, ins = gates[gid]
        for slot, ref in enumerate(ins):
            gap = level[gid] - level[ref]
            while gap > 1:
                ref = add_buffer(ref)
                level[ref] = level[gates[ref][1][0]] + 1
                gap -= 1
                span_buffers += 1
            ins[slot] = ref

    if align_outputs:
        depth = max(level.values(), default=0)
        for i, o in enumerate(outputs):
            cur = o
            while level[cur] < depth:
                nxt = add_buffer(cur)
                level[nxt] = level[cur] + 1
                cur = nxt
                out_buffers += 1
            outputs[i] = cur

    norm = Circuit(
        circuit.name,
        [Gate(gid, gates[gid][0], tuple(gates[gid][1])) for gid in gate_order],
        outputs,
    )
    info = NormalizationInfo(maj_buffers, span_buffers, out_buffers)
    return norm, info


# -- compilation ---------------------------------------------------------------


def _deleters(axis: str, level: int) -> tuple[str, str]:
    """The sweeper and the killer of the catalyst backend's ``axis``
    sweep at ``level``, each added alone at its own step."""
    return f"d{axis}[{level}]", f"k{axis}[{level}]"


def _conversion_pairs(gid: int, low: GateLowering) -> list[tuple[str, str]]:
    """(output form, input carrier of the other polarity) pairs: a
    surviving form deletes the carriers that disagree with it."""
    true_forms, false_forms = low.forms
    return [(f, x_name(gid, False)) for f in true_forms] + [
        (f, x_name(gid, True)) for f in false_forms
    ]


class _RuleColumns:
    """The columns of a :class:`~stepcrn.crn.RuleTable`, filled one
    compiled rule at a time, in emission order, from ordinals."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.index = alphabet.index
        self.a: list[int] = []
        self.b: list[int] = []
        self.kept: list[int] = []

    def add(self, first: str, second: str, catalytic: bool = False) -> None:
        """``first + second -> .``, or ``first + second -> first`` when
        ``catalytic``."""
        x, y = self.index[first], self.index[second]
        self.kept.append(x if catalytic else -1)
        if x > y:  # x == y fails the table's check: reactants must be distinct
            x, y = y, x
        self.a.append(x)
        self.b.append(y)

    def table(self) -> RuleTable:
        return RuleTable(self.alphabet, self.a, self.b, self.kept)


def _void_rules(
    alphabet: Alphabet, levels: list[list[int]], lowerings: Mapping[int, GateLowering]
) -> RuleTable:
    """Per level, its gates' annihilations, then the annihilating
    conversions of their outputs."""
    rules = _RuleColumns(alphabet)
    for group in levels:
        for gid in group:
            for pair in lowerings[gid].rules:
                rules.add(*pair)
        for gid in group:
            for pair in _conversion_pairs(gid, lowerings[gid]):
                rules.add(*pair)
    return rules.table()


def _catalyst_rules(
    alphabet: Alphabet, norm: Circuit, lowerings: Mapping[int, GateLowering]
) -> RuleTable:
    """Every gate's annihilations in level order, then, each in
    declaration order, the catalytic conversions, the x-sweeps and the
    y-sweeps, each sweep followed by its killers."""
    level = norm.level
    depth = max(level.values())
    rules = _RuleColumns(alphabet)
    add = rules.add
    for low in lowerings.values():
        for pair in low.rules:
            add(*pair)

    # Each sweep deletes what its level left behind: the carriers level
    # k read and its MAJ helpers go to dx[k], its output forms to dy[k].
    # The deepest carriers are the decoded outputs and stay.
    pairs = {g.gid: _conversion_pairs(g.gid, lowerings[g.gid]) for g in norm.gates}
    for g in norm.gates:
        for form, carrier in pairs[g.gid]:
            add(form, carrier, True)
    for g in norm.gates:
        k = level[g.gid]
        if k < depth:
            sweeper = _deleters("x", k + 1)[0]
            add(sweeper, x_name(g.gid, True), True)
            add(sweeper, x_name(g.gid, False), True)
        # A MAJ's helpers lead its species.  The true ones are swept
        # first: rule order fixes each seed's draws.
        low = lowerings[g.gid]
        helpers = low.species[: -2 - len(low.forms[0]) - len(low.forms[1])]
        if helpers:
            sweeper = _deleters("x", k)[0]
            for helper in sorted(helpers, key=lambda s: s.endswith("F")):
                add(sweeper, helper, True)
    for k in range(1, depth + 1):
        add(*_deleters("x", k))
    for g in norm.gates:
        sweeper = _deleters("y", level[g.gid])[0]
        for form, _ in pairs[g.gid]:
            add(sweeper, form, True)
    for k in range(depth + 1):
        add(*_deleters("y", k))
    return rules.table()


def _compile(circuit: Circuit, backend: str) -> tuple[StepProgram, CompilationReport]:
    """Normalize, lower and assemble ``circuit`` under ``backend``.

    The backends differ in four ways only: the catalyst backend routes
    every output to the deepest level, gives each gate multiplicity 1
    and fan-out carrier copies where the (2,0) backends use its copy
    demand for both, builds catalytic conversions and sweeps instead of
    annihilating conversions, and adds the sweep steps.
    """
    catalyst = backend == "catalyst"
    t0 = time.perf_counter()
    norm, info = normalize(circuit, align_outputs=catalyst)
    t1 = time.perf_counter()
    if catalyst:
        # Strict single-copy inputs: demand degenerates to fan-out copies
        # of each gate's input carrier.
        multiplicity = {g.gid: 1 for g in norm.gates}
        copies = {g.gid: norm.fanout(g.gid) for g in norm.gates}
    else:
        multiplicity = copies = demand_analysis(norm)

    # Gate ids by depth level, each group in declaration order (level 0
    # holds the sources).  Gates are lowered in level order, the order
    # in which _catalyst_rules emits their annihilations.
    depth = max(norm.level.values())
    levels: list[list[int]] = [[] for _ in range(depth + 1)]
    for g in norm.gates:
        levels[norm.level[g.gid]].append(g.gid)
    lowerings: dict[int, GateLowering] = {}
    for group in levels:
        for gid in group:
            g = norm.by_id[gid]
            lowerings[gid] = lower_gate(g.kind, gid, g.inputs, multiplicity[gid])

    # Every gate's species in declaration order, then the sweepers and
    # killers.
    names = [s for g in norm.gates for s in lowerings[g.gid].species]
    if catalyst:
        names += [s for k in range(1, depth + 1) for s in _deleters("x", k)]
        names += [s for k in range(depth + 1) for s in _deleters("y", k)]
    alphabet = Alphabet(names)
    index = alphabet.index
    if catalyst:
        rules = _catalyst_rules(alphabet, norm, lowerings)
    else:
        rules = _void_rules(alphabet, levels, lowerings)
    t2 = time.perf_counter()

    def step(adds: Mapping[str, int]) -> Step:
        return tuple(sorted((index[name], c) for name, c in adds.items()))

    steps: list[Step] = []
    for k, group in enumerate(levels):
        if k:
            for sub in range(max(len(lowerings[gid].additions) for gid in group)):
                adds: dict[str, int] = {}
                for gid in group:
                    subs = lowerings[gid].additions
                    if sub < len(subs):
                        for species, c in subs[sub].items():
                            adds[species] = adds.get(species, 0) + c
                if adds:  # the tally of fan-in-1 MAJ gates only adds nothing
                    steps.append(step(adds))
            if catalyst:
                steps += [((index[s], 1),) for s in _deleters("x", k)]
        convert = {}
        for gid in group:
            convert[x_name(gid, True)] = convert[x_name(gid, False)] = copies[gid]
        if k == 0:  # each constant's one form, as its lowering names it
            for g in norm.sources():
                if g.kind is not GateKind.INPUT:
                    (form,) = sum(lowerings[g.gid].forms, ())
                    convert[form] = multiplicity[g.gid]
        steps.append(step(convert))
        if catalyst:
            steps += [((index[s], 1),) for s in _deleters("y", k)]

    inputs = []
    for gid in norm.input_ids:
        m = multiplicity[gid]
        inputs.append((gid, (index[y_name(gid, False)], m), (index[y_name(gid, True)], m)))
    program = StepProgram(
        name=circuit.name,
        backend=backend,
        alphabet=alphabet,
        rules=rules,
        steps=tuple(steps),
        inputs=tuple(inputs),
        outputs=tuple((index[x_name(o, False)], index[x_name(o, True)]) for o in norm.outputs),
    )

    st = stats(norm)
    gates, d = max(st.gate_count, 1), max(depth, 1)
    if catalyst:
        predicted = {
            # At most 4 species per source (y[i]T/F, x[i]T/F), 4·D + 2 deleters.
            "species": SPECIES_C * gates + 4 * (len(norm.sources()) + depth) + 2,
            "steps": CAT_STEPS_C * d + CAT_STEPS_C0,
            "peak_volume": RESIDENT_C * max(st.width, 1),
        }
    else:
        predicted = {"species": SPECIES_C * gates, "steps": STEPS_C * d + STEPS_C0}
        if backend == "formula":
            predicted["static_volume"] = predicted["peak_volume"] = VOLUME_C * gates
        else:
            predicted["static_volume"] = VOLUME_C * gates * max(max_fanout_any(norm), 1) ** d
    return program, CompilationReport(
        backend=backend,
        circuit_name=circuit.name,
        original=stats(circuit),
        normalized=st,
        buffers=info,
        species_count=len(alphabet),
        step_count=program.step_count,
        static_volume=program.static_volume(),
        max_input_multiplicity=max((multiplicity[g.gid] for g in norm.sources()), default=0),
        demand=dict(multiplicity),
        predicted=predicted,
        timings={
            "normalize_s": t1 - t0,
            "lower_s": t2 - t1,
            "assemble_s": time.perf_counter() - t2,
        },
    )


def compile_formula(circuit: Circuit) -> tuple[StepProgram, CompilationReport]:
    """Lower a formula (all non-source fan-out 1, single output)."""
    if not circuit.is_formula:
        raise LoweringError(
            "formula backend needs fan-out 1 everywhere and a single output"
        )
    return _compile(circuit, "formula")


def compile_circuit_exp(circuit: Circuit) -> tuple[StepProgram, CompilationReport]:
    """Lower an arbitrary circuit; every gate's additions are scaled by
    its copy demand, so input multiplicities grow with fan-out and
    depth."""
    return _compile(circuit, "exp")


def compile_circuit_catalyst(circuit: Circuit) -> tuple[StepProgram, CompilationReport]:
    """Lower a circuit with (2,0) gate rules plus (2,1) catalytic
    conversion and sweeper rules; strict single-copy inputs."""
    return _compile(circuit, "catalyst")


BACKENDS = {
    "formula": compile_formula,
    "exp": compile_circuit_exp,
    "catalyst": compile_circuit_catalyst,
}


def compile_backend(circuit: Circuit, backend: str):
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    return BACKENDS[backend](circuit)
