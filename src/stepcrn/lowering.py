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

One gate scheme, ``_scheme``, lowers each gate to the species it owns
and its rules, forms and additions, all as indices into that block or
into its producers' carriers; :func:`lower_gate` is its view by name.
A species gets its ordinal by position: each gate's species are one
contiguous block of the alphabet, in gate declaration order, and the
catalyst backend's sweepers and killers follow.  The compiler emits the
rule table's columns, the steps and the input/output encodings straight
from block offsets, so it builds each species name once, for the
alphabet, and looks none up.

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
Buffering is done with fan-in-1 OR gates and reported.  The normalized
circuit is built from the levels ``normalize`` finds and is not
validated again: each buffer is a fan-in-1 OR gate with a fresh id above
the input's largest, one level above its source, so the buffered circuit
is valid whenever its input is.  The compiler reads the normalized
circuit's gates level by level from ``Circuit.levels``.

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

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Sequence

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
    addition counts scale with the gate's multiplicity.  This is the
    compilers' gate scheme with every index replaced by its name.

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
    # Seconds spent in normalize, lowering (gate schemes, alphabet, rule
    # columns and the table's check) and assembly (steps, encodings,
    # program checks, report); kept out of comparisons and of the text
    # and JSON forms.
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


# _scheme tells kinds apart through these aliases: a GateKind attribute
# is an enum class lookup each time, and a compile lowers every gate.
_AND, _OR, _NOT, _MAJ, _INPUT, _CONST_ONE = (
    GateKind.AND, GateKind.OR, GateKind.NOT, GateKind.MAJ, GateKind.INPUT, GateKind.CONST_ONE
)


def _scheme(kind: GateKind, gate_id: int, fan_in: tuple[int, ...], m: int):
    """One gate's lowering at multiplicity ``m``, as ``(names, helpers,
    true, reads, rules, additions)``.

    ``names`` are the species the gate owns, one alphabet block in this
    order: ``helpers`` MAJ helpers, ``true`` true forms, the false forms,
    then the carriers ``x[i]T``, ``x[i]F`` its consumers read.  A rule
    is a pair of indices into the gate's view: index ``s`` below
    ``len(names)`` is ``names[s]``, and ``len(names) + 2k`` and
    ``len(names) + 2k + 1`` are ``x[j]T`` and ``x[j]F`` of the producer
    ``j = reads[k]``.  ``additions`` holds one tuple of ``(s, count)``
    pairs per gate sub-step, ``s`` ascending; only the counts scale with
    ``m``.  Each name ends in the bit it carries, as :func:`x_name`'s
    do.  Only tuples are returned: the collector stops tracking a tuple
    of ints, so a large compile's collections skip the gates' schemes."""
    if m < 1:
        raise LoweringError(f"gate {gate_id}: multiplicity must be >= 1")
    reads = tuple(sorted(set(fan_in)))
    x, y = f"x[{gate_id}]", f"y[{gate_id}]"
    if kind is _AND or kind is _OR:
        # The controlling input value decides the gate on its own: 0 for
        # AND, 1 for OR.  The result ``y[i]`` of the other value survives
        # unless some input shows the controlling value; each input's
        # arrow form ``y[j->i]`` carries the controlling value and
        # survives when input j shows it.  The true forms lead.
        c = kind is _OR
        bit = "T" if c else "F"
        arrow, at = (0, len(reads)) if c else (1, 0)
        view = len(reads) + 3
        arrows, rules, counts = [], [], []
        for k, j in enumerate(reads):  # x[j] not c + y[j->i], x[j] c + y[i]
            arrows.append(f"y[{j}->{gate_id}]{bit}")
            rules += ((view + 2 * k + c, arrow + k), (view + 2 * k + 1 - c, at))
            counts.append((arrow + k, fan_in.count(j) * m))
        if c:
            return (*arrows, y + "F", x + "T", x + "F"), 0, len(reads), reads, tuple(rules), ((*counts, (at, m)),)
        return (y + "T", *arrows, x + "T", x + "F"), 0, 1, reads, tuple(rules), (((at, m), *counts),)
    helpers, rules, additions = (), (), ()
    if kind is _NOT:
        (_,) = fan_in
        rules = ((4, 0), (5, 1))  # x[j]T + y[i]T, x[j]F + y[i]F
        additions = (((0, m), (1, m)),)
    elif kind is _MAJ:
        # More than half of the n wires true: at least t of them.  Each
        # wire deletes m copies of the vote against it, so k true wires
        # leave k·m a[i]T and (n - k)·m a[i]F.  The tally deletes
        # (t - 1)·m of the first and (n - t)·m of the second, so exactly
        # one survives, to delete the other result form.  A tally
        # species with no copies is not named.
        n = len(fan_in)
        t = n // 2 + 1
        a, b = f"a[{gate_id}]", f"b[{gate_id}]"
        helpers = (a + "T", a + "F") + (b + "T",) * (n > t) + (b + "F",) * (t > 1)
        h = len(helpers)
        for k in range(len(reads)):  # x[j]T + a[i]F, x[j]F + a[i]T
            rules += ((h + 4 + 2 * k, 1), (h + 5 + 2 * k, 0))
        # b[i]T is index 2 and b[i]F index h - 1, when named.
        tally = ((2, (n - t) * m),) * (n > t) + ((h - 1, (t - 1) * m),) * (t > 1)
        rules += ((0, h - 1),) * (t > 1) + ((1, 2),) * (n > t)  # a[i]T + b[i]F, a[i]F + b[i]T
        rules += ((0, h + 1), (1, h))  # a[i]T + y[i]F, a[i]F + y[i]T
        additions = (((0, n * m), (1, n * m)), tally, ((h, m), (h + 1, m)))
    elif kind is not _INPUT:  # a constant has only its value's form
        one = kind is _CONST_ONE
        return (y + ("T" if one else "F"), x + "T", x + "F"), 0, int(one), reads, rules, additions
    return (*helpers, y + "T", y + "F", x + "T", x + "F"), len(helpers), 1, reads, rules, additions


def lower_gate(
    kind: GateKind,
    gate_id: int,
    fan_in: Sequence[int],
    multiplicity: int = 1,
) -> GateLowering:
    """Species, additions and rules computing one gate of any kind at
    the given output multiplicity.  ``fan_in`` lists input gate ids,
    duplicates allowed; rules are count-free so only addition counts
    scale.  This names what the compilers emit for the gate."""
    names, h, true, reads, rules, additions = _scheme(kind, gate_id, tuple(fan_in), multiplicity)
    view = names + tuple(x_name(j, bit) for j in reads for bit in (True, False))
    return GateLowering(
        names,
        (names[h : h + true], names[h + true : -2]),
        tuple({view[s]: c for s, c in sub} for sub in additions),
        tuple((view[u], view[v]) for u, v in rules),
    )


# -- normalization -----------------------------------------------------------


def normalize(
    circuit: Circuit, *, align_outputs: bool = False
) -> tuple[Circuit, NormalizationInfo]:
    """Insert fan-in-1 OR buffers so every wire spans one depth level
    and every MAJ input comes from a single-consumer producer; with
    ``align_outputs``, additionally route every output to the deepest
    level (the catalyst backend's sweepers would otherwise delete
    earlier outputs).

    The result is built from the levels found here and is not validated
    again: each buffer is a fan-in-1 OR gate with a fresh id above the
    input's largest, one level above its source, and feeds one consumer
    or output, so the buffered circuit is valid whenever ``circuit`` is.
    A gate whose inputs are unchanged is ``circuit``'s own ``Gate``."""
    gates = dict(circuit.by_id)
    ids = itertools.count(max(gates) + 1)

    def add_buffer(src: int) -> int:
        gid = next(ids)
        gates[gid] = Gate(gid, _OR, (src,))
        return gid

    # MAJ inputs from producers with any other obligation get a private
    # buffer, so their copy supply exactly equals their duty at the gate.
    for g in circuit.gates:
        if g.kind is _MAJ:
            ins = tuple(add_buffer(ref) if circuit.fanout(ref) > 1 else ref for ref in g.inputs)
            if ins != g.inputs:
                gates[g.gid] = Gate(g.gid, _MAJ, ins)
    maj_buffers = len(gates) - len(circuit.gates)

    # ``circuit.order`` is topological; a MAJ buffer sits one level above
    # its source and is levelled when its only consumer is reached.
    level: dict[int, int] = {}
    for gid in circuit.order:
        ins = gates[gid].inputs
        for ref in ins:
            if ref not in level:
                level[ref] = level[gates[ref].inputs[0]] + 1
        level[gid] = 1 + max(map(level.__getitem__, ins)) if ins else 0

    def lift(ref: int, top: int) -> int:
        """``ref`` behind a chain of buffers up to level ``top``."""
        while level[ref] < top:
            buffer = add_buffer(ref)
            level[buffer] = level[ref] + 1
            ref = buffer
        return ref

    # A wire that spans more than one level gets a chain of buffers.
    before = len(gates)
    for gid, g in list(gates.items()):
        ins = tuple(lift(ref, level[gid] - 1) for ref in g.inputs)
        if ins != g.inputs:
            gates[gid] = Gate(gid, g.kind, ins)
    span_buffers = len(gates) - before

    before = len(gates)
    outputs = circuit.outputs
    if align_outputs:
        depth = max(level.values())
        outputs = tuple(lift(o, depth) for o in outputs)

    norm = Circuit._leveled(circuit.name, gates.values(), outputs, level)
    return norm, NormalizationInfo(maj_buffers, span_buffers, len(gates) - before)


# -- compilation ---------------------------------------------------------------


def _deleters(axis: str, level: int) -> tuple[str, str]:
    """The sweeper and the killer of the catalyst backend's ``axis``
    sweep at ``level``, each added alone at its own step."""
    return f"d{axis}[{level}]", f"k{axis}[{level}]"


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

    # Each gate's species are one block of the alphabet, in declaration
    # order; the sweepers and killers follow.  ``base`` is a block's
    # first ordinal and ``carrier`` that of its x[i]T, before x[i]F.
    names: list[str] = []
    schemes, base, carrier = {}, {}, {}
    for g in norm.gates:
        gid = g.gid
        schemes[gid] = scheme = _scheme(g.kind, gid, g.inputs, multiplicity[gid])
        base[gid] = len(names)
        names += scheme[0]
        carrier[gid] = len(names) - 2
    # Gate ids by depth level, each group in declaration order (level 0
    # holds the sources).
    level, levels = norm.level, norm.levels
    depth = len(levels) - 1
    # The sweeper dx[k], k = 1..depth, is ordinal dx + 2k, and dy[k],
    # k = 0..depth, is dy + 2k; each killer follows its sweeper.
    dx, dy = len(names) - 2, len(names) + 2 * depth
    if catalyst:
        names += [s for k in range(1, depth + 1) for s in _deleters("x", k)]
        names += [s for k in range(depth + 1) for s in _deleters("y", k)]
    alphabet = Alphabet(names)
    # The alphabet's own ordinal objects, o[i] == i: the rules and steps
    # share them, so a program holds one int object per species.
    o = list(alphabet.index.values())

    # The rule table's columns: rule q reads a[q] < b[q] and puts back
    # kept[q], or -1 for none.
    a: list[int] = []
    b: list[int] = []

    def gate_rules(group: Sequence[int]) -> None:
        for gid in group:
            reads, rules = schemes[gid][3:5]
            view = o[base[gid] : carrier[gid] + 2]
            for j in reads:
                view += o[carrier[j] : carrier[j] + 2]
            for u, v in rules:
                x, y = view[u], view[v]
                if x < y:
                    a.append(x)
                    b.append(y)
                else:
                    a.append(y)
                    b.append(x)

    def forms(gid: int) -> list[int]:
        """The gate's true forms, then its false forms."""
        return o[base[gid] + schemes[gid][1] : carrier[gid]]

    def conversions(group: Sequence[int]) -> None:
        # A surviving form deletes the carriers that disagree with it.
        for gid in group:
            x, f, true = carrier[gid], forms(gid), schemes[gid][2]
            a.extend(f)
            b.extend([o[x + 1]] * true + [o[x]] * (len(f) - true))

    if catalyst:
        # Every gate's annihilations in level order, then, each in
        # declaration order, the catalytic conversions, the x-sweeps and
        # the y-sweeps, each sweep followed by its killers.  Each sweep
        # deletes what its level left behind: the carriers level k read
        # and its MAJ helpers go to dx[k], its output forms to dy[k].  The
        # deepest carriers are the decoded outputs and stay.  A
        # conversion keeps its form, a sweep its sweeper.
        for group in levels:
            gate_rules(group)
        kept = [-1] * len(a)
        order = [g.gid for g in norm.gates]
        conversions(order)
        kept += a[len(kept) :]
        swept = len(a)
        for gid in order:
            k = level[gid]
            if k < depth:
                a.extend(o[carrier[gid] : carrier[gid] + 2])
                b.extend([o[dx + 2 * k + 2]] * 2)
            # A MAJ's helpers lead its block.  The true ones are swept
            # first: rule order fixes each seed's draws.
            block, h = schemes[gid][:2]
            if h:
                first = base[gid]
                a.extend(o[first + i] for i in sorted(range(h), key=lambda i: block[i][-1] == "F"))
                b.extend([o[dx + 2 * k]] * h)
        kept += b[swept:] + [-1] * depth
        a += o[dx + 2 : dy : 2]
        b += o[dx + 3 : dy : 2]
        swept = len(a)
        for gid in order:
            f = forms(gid)
            a.extend(f)
            b.extend([o[dy + 2 * level[gid]]] * len(f))
        kept += b[swept:] + [-1] * (depth + 1)
        a += o[dy::2]
        b += o[dy + 1 :: 2]
    else:
        # Per level, its gates' annihilations, then the annihilating
        # conversions of their outputs.
        for group in levels:
            gate_rules(group)
            conversions(group)
        kept = [-1] * len(a)
    rules = RuleTable(alphabet, a, b, kept)
    del a, b, kept  # the table copied them; free the lists before building the steps
    t2 = time.perf_counter()

    # A step lists its entries by ordinal: blocks ascend along each
    # group and a scheme's additions ascend within its block.
    steps: list[Step] = []
    for k, group in enumerate(levels):
        if k:
            subs = [schemes[gid][5] for gid in group]
            for sub in range(max(map(len, subs))):
                adds = [
                    (o[base[gid] + s], c)
                    for gid, additions in zip(group, subs)
                    if sub < len(additions)
                    for s, c in additions[sub]
                ]
                if adds:  # the tally of fan-in-1 MAJ gates only adds nothing
                    steps.append(tuple(adds))
            if catalyst:
                steps += [((o[dx + 2 * k], 1),), ((o[dx + 2 * k + 1], 1),)]
        convert = []
        for gid in group:
            if k == 0 and norm.by_id[gid].kind is not _INPUT:
                convert.append((o[base[gid]], multiplicity[gid]))  # a constant's one form
            x, c = carrier[gid], copies[gid]
            convert += ((o[x], c), (o[x + 1], c))
        steps.append(tuple(convert))
        if catalyst:
            steps += [((o[dy + 2 * k], 1),), ((o[dy + 2 * k + 1], 1),)]

    # An input's block is y[i]T, y[i]F, x[i]T, x[i]F.
    inputs = [
        (gid, (o[base[gid] + 1], multiplicity[gid]), (o[base[gid]], multiplicity[gid]))
        for gid in norm.input_ids
    ]
    program = StepProgram(
        name=circuit.name,
        backend=backend,
        alphabet=alphabet,
        rules=rules,
        steps=tuple(steps),
        inputs=tuple(inputs),
        outputs=tuple((o[carrier[g] + 1], o[carrier[g]]) for g in norm.outputs),
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
