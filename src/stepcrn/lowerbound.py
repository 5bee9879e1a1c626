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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .circuits import Circuit, Gate, GateKind
from .lowering import compile_circuit_exp

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
        minterms = [row for row, out in table.items() if out[bit] == 1]
        if not minterms:
            gates.append(Gate(next_id, GateKind.CONST_ZERO))
            outs.append(next_id)
            next_id += 1
            continue
        if len(minterms) == 8:
            gates.append(Gate(next_id, GateKind.CONST_ONE))
            outs.append(next_id)
            next_id += 1
            continue
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


def build_stage_chain(depth: int, spec: StageSpec = StageSpec()) -> Circuit:
    """``depth`` chained stages: each stage's three outputs feed the
    next stage's inputs; the last stage's outputs are the circuit's."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    table = spec.table()
    gates = [Gate(1, GateKind.INPUT), Gate(2, GateKind.INPUT), Gate(3, GateKind.INPUT)]
    cur: tuple[int, int, int] = (1, 2, 3)
    next_id = 4
    for _ in range(depth):
        cur, next_id = _emit_stage(gates, next_id, cur, table)
    return Circuit(f"chain{depth}", gates, cur)


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
    """Compile each chain with the exponential-volume backend and check
    the first input's copy demand (and the program's total volume)
    against the Fibonacci bound."""
    rows = []
    for depth in range(1, max_depth + 1):
        circuit = build_stage_chain(depth, spec)
        _, report = compile_circuit_exp(circuit)
        first_input = circuit.input_ids[0]
        rows.append(
            GrowthRow(
                depth=depth,
                bound=fibonacci(depth),
                input_demand=report.demand[first_input],
                static_volume=report.static_volume,
            )
        )
    return rows

