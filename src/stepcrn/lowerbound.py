"""Worst-case circuit family for the copy-demand growth check.

Each stage computes a fixed 3-bit transfer function chosen so that, at
the all-ones point, flipping the first input flips all three outputs
while flipping either other input flips exactly one.  Chaining the
stage forces any per-gate copy budget to satisfy
``need(k) >= need(k-1) + need(k-2)`` across stages, i.e. Fibonacci
growth, which the exponential-volume compiler's demand accounting must
reproduce.

Five rows of the transfer function are fixed; the remaining three are a
free completion (identity by default) that callers may override.

``check_demand_growth`` compiles only the deepest chain: every shallower
chain is a suffix of it, so each row is read off that one program and
its report, and the check costs one compile, linear in depth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .circuits import Circuit, Gate, GateKind
from .lowering import compile_circuit_exp, x_name

Row = tuple[int, int, int]

CONSTRAINED_ROWS: dict[Row, Row] = {
    (1, 1, 1): (1, 1, 1),
    (0, 1, 1): (0, 0, 0),
    (1, 0, 1): (0, 1, 1),
    (1, 1, 0): (1, 0, 1),
    (0, 0, 0): (1, 1, 0),
}

FREE_ROWS: tuple[Row, ...] = ((0, 0, 1), (0, 1, 0), (1, 0, 0))

IDENTITY_COMPLETION: dict[Row, Row] = {r: r for r in FREE_ROWS}


@dataclass(frozen=True)
class StageSpec:
    """The stage transfer function: five fixed rows plus a completion
    for the three unconstrained rows."""

    completion: Mapping[Row, Row] = field(default_factory=lambda: dict(IDENTITY_COMPLETION))

    def __post_init__(self):
        if set(self.completion) != set(FREE_ROWS):
            raise ValueError(f"completion must cover exactly the rows {FREE_ROWS}")
        for row, out in self.completion.items():
            if len(out) != 3 or any(b not in (0, 1) for b in out):
                raise ValueError(f"bad completion row {row} -> {out}")

    def table(self) -> dict[Row, Row]:
        full = dict(CONSTRAINED_ROWS)
        full.update({r: tuple(v) for r, v in self.completion.items()})
        return full


def fibonacci(k: int) -> int:
    """a_k with a_0 = a_1 = 1."""
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# -- circuit synthesis ---------------------------------------------------------


def _emit_stage(
    gates: list[Gate],
    next_id: int,
    in_ids: tuple[int, int, int],
    table: dict[Row, Row],
) -> tuple[tuple[int, int, int], int]:
    """Append one stage (sum-of-products per output bit over the three
    stage inputs) and return its three output gate ids."""
    negation: dict[int, int] = {}

    def negated(src: int) -> int:
        nonlocal next_id
        if src not in negation:
            gates.append(Gate(next_id, GateKind.NOT, (src,)))
            negation[src] = next_id
            next_id += 1
        return negation[src]

    outs: list[int] = []
    for bit in range(3):
        # Rows 111 -> 111 and 011 -> 000 give every bit one to seven minterms.
        minterms = [row for row, out in table.items() if out[bit] == 1]
        term_ids = []
        for row in sorted(minterms):
            literals = tuple(
                in_ids[i] if row[i] else negated(in_ids[i]) for i in range(3)
            )
            gates.append(Gate(next_id, GateKind.AND, literals))
            term_ids.append(next_id)
            next_id += 1
        gates.append(Gate(next_id, GateKind.OR, tuple(term_ids)))
        outs.append(next_id)
        next_id += 1
    return (outs[0], outs[1], outs[2]), next_id


def _stage_chain(
    depth: int, spec: StageSpec
) -> tuple[Circuit, list[tuple[int, int, int]]]:
    """The chain of ``build_stage_chain`` and its stage boundaries:
    boundary k holds the ids of stage k's three outputs, boundary 0 the
    circuit's inputs."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    table = spec.table()
    gates = [Gate(1, GateKind.INPUT), Gate(2, GateKind.INPUT), Gate(3, GateKind.INPUT)]
    boundaries: list[tuple[int, int, int]] = [(1, 2, 3)]
    next_id = 4
    for _ in range(depth):
        out, next_id = _emit_stage(gates, next_id, boundaries[-1], table)
        boundaries.append(out)
    return Circuit(f"chain{depth}", gates, boundaries[-1]), boundaries


def build_stage_chain(depth: int, spec: StageSpec = StageSpec()) -> Circuit:
    """``depth`` chained stages: each stage's three outputs feed the
    next stage's inputs; the last stage's outputs are the circuit's."""
    return _stage_chain(depth, spec)[0]


# -- demand bounds ---------------------------------------------------------------


def min_copy_bounds(depth: int) -> list[int]:
    """Per-stage minimum copy counts implied by the flip-sensitivity
    inequalities, propagated from one copy per final output upward.

    The chain (stage k needs what stages k-1 and k-2 needed, combined)
    bottoms out at 1 and 1, so the tightest derivable bounds are exactly
    the Fibonacci numbers.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return [fibonacci(k) for k in range(depth + 1)]


@dataclass(frozen=True)
class GrowthRow:
    depth: int
    bound: int
    input_demand: int
    static_volume: int

    @property
    def ok(self) -> bool:
        return self.input_demand >= self.bound and self.static_volume >= self.bound


def check_demand_growth(max_depth: int, spec: StageSpec = StageSpec()) -> list[GrowthRow]:
    """Check, for every chain of 1 to ``max_depth`` stages compiled with
    the exponential-volume backend, the first input's copy demand and
    the program's static volume against the Fibonacci bound.

    Only the deepest chain (``max_depth`` stages) is built and compiled.
    Chain d is that chain's last d stages, with the outputs of stage
    ``max_depth - d`` (its boundary) standing for chain d's inputs:

    * Demand flows backward from the outputs, so every gate of the last
      d stages owes the same copies in both circuits, and chain d's
      first input owes what bit 0 of the boundary owes.
    * Every output bit of a stage has a minterm with a negated literal
      (the constrained rows ``000`` and ``101`` cover all three bits), so
      its OR sits three levels below the stage inputs, and every stage
      spans exactly three levels.  The boundary level then holds only
      the three stage outputs: the NOT and AND gates and the span
      buffers normalization inserts sit on the two levels in between.
      So the step converting the boundary level adds just what chain
      d's step 0 adds, and every later step matches one of chain d's.
    * The five constrained rows make no output bit constant under any
      completion (row ``011`` maps to ``000``, row ``111`` to ``111``),
      so no boundary gate becomes a constant source.

    Chain d's static volume is therefore the additions of the deepest
    program from that conversion step on, plus its input merge: the
    demand of each of the three boundary gates.  Both figures are read
    from the compiled program and its report, so no second volume
    formula exists.  ``max_depth`` below 1 raises ``ValueError``, as in
    ``build_stage_chain``.
    """
    circuit, boundaries = _stage_chain(max_depth, spec)
    program, report = compile_circuit_exp(circuit)
    added_after = [0] * (len(program.steps) + 1)
    for k in range(len(program.steps) - 1, -1, -1):
        added_after[k] = added_after[k + 1] + sum(c for _, c in program.steps[k])
    bounds = min_copy_bounds(max_depth)
    rows = []
    for depth in range(1, max_depth + 1):
        boundary = boundaries[max_depth - depth]
        convert = program.added_at[program.alphabet.ordinal(x_name(boundary[0], True))]
        rows.append(
            GrowthRow(
                depth=depth,
                bound=bounds[depth],
                input_demand=report.demand[boundary[0]],
                static_volume=added_after[convert] + sum(report.demand[g] for g in boundary),
            )
        )
    return rows
