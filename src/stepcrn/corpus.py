"""Deterministic random circuit generation for differential testing.

Two shapes: trees (formulas — every internal gate feeds exactly one
consumer and there is a single output) and layered DAGs (every wire
connects adjacent levels, outputs are the last level's gates, and every
gate is consumed somewhere, so generated circuits always pass
validation).  Identical spec and seed reproduce identical circuits.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .circuits import Circuit, Gate, GateKind


@dataclass(frozen=True)
class CorpusSpec:
    count: int = 10
    seed: int = 0
    depth: tuple[int, int] = (2, 4)
    gates: tuple[int, int] = (4, 16)
    fan_in: tuple[int, int] = (1, 3)
    fan_out: tuple[int, int] = (1, 3)
    inputs: tuple[int, int] = (2, 6)
    maj_fraction: float = 0.0
    name_prefix: str = "c"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count {self.count} must be >= 1")
        for lo, hi in (self.depth, self.gates, self.fan_in, self.fan_out, self.inputs):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must be 1 <= lo <= hi")
        if not 0.0 <= self.maj_fraction <= 1.0:
            raise ValueError("maj_fraction must be in [0, 1]")

    @property
    def formula(self) -> bool:
        return self.fan_out == (1, 1)


def generate_circuits(
    spec: CorpusSpec,
    accept: Callable[[Circuit], bool] | None = None,
    force_maj_every: int | None = None,
) -> list[Circuit]:
    """Generate ``spec.count`` circuits.  ``accept`` filters candidates
    (rejected draws advance the stream deterministically);
    ``force_maj_every=k`` guarantees every k-th circuit contains a MAJ
    gate.  Raises :class:`ValueError` when candidates keep being
    rejected."""
    rng = random.Random(spec.seed)
    out: list[Circuit] = []
    attempts = 0
    while len(out) < spec.count:
        attempts += 1
        if attempts > 200 * spec.count + 200:
            raise ValueError("corpus generation keeps rejecting candidates")
        force_maj = (
            force_maj_every is not None and len(out) % force_maj_every == 0
        )
        name = f"{spec.name_prefix}{len(out):04d}"
        builder = _gen_formula if spec.formula else _gen_dag
        circuit = builder(rng, spec, name, force_maj)
        if circuit is None:
            continue
        if accept is not None and not accept(circuit):
            continue
        out.append(circuit)
    return out


def _pick_kind(rng: random.Random, spec: CorpusSpec, fan_in: int) -> GateKind:
    if spec.maj_fraction and rng.random() < spec.maj_fraction:
        return GateKind.MAJ
    return rng.choice((GateKind.NOT, GateKind.OR, GateKind.AND) if fan_in == 1 else (GateKind.AND, GateKind.OR))


# -- formulas --------------------------------------------------------------------


def _gen_formula(
    rng: random.Random, spec: CorpusSpec, name: str, force_maj: bool
) -> Circuit | None:
    depth = rng.randint(*spec.depth)
    budget = rng.randint(*spec.gates)
    want_inputs = rng.randint(*spec.inputs)

    # Grow a tree from the root; each internal node sits one level below
    # its consumer, with at least one child continuing to full depth.
    # Node k is the k-th node grown.  A slot holds child node k as k and
    # the j-th leaf as ~j.
    nodes: list[tuple[GateKind, list[int]]] = []
    leaves = 0

    def grow(levels_left: int, budget_left: int) -> int:
        nonlocal leaves
        fan = rng.randint(*spec.fan_in)
        slots: list[int] = []
        nodes.append((_pick_kind(rng, spec, fan), slots))
        spine = rng.randrange(fan) if levels_left > 1 else -1
        used = 0
        for s in range(fan):
            if levels_left > 1 and (
                s == spine or (budget_left - used > 0 and rng.random() < 0.55)
            ):
                slots.append(len(nodes))
                used += 1 + grow(levels_left - 1, budget_left - used - 1)
            else:
                slots.append(~leaves)
                leaves += 1
        return used

    grow(depth, budget - 1)
    if not spec.gates[0] <= len(nodes) <= spec.gates[1]:
        return None

    if force_maj and not any(k is GateKind.MAJ for k, _ in nodes):
        k = rng.randrange(len(nodes))
        nodes[k] = (GateKind.MAJ, nodes[k][1])

    # Every input feeds some leaf: the first n leaves of a shuffle take
    # inputs 1..n, the rest draw one.  Gate ids: inputs 1..n, then node k
    # as n + 1 + k.
    n = min(want_inputs, leaves)
    order = list(range(leaves))
    rng.shuffle(order)
    input_of_leaf = [0] * leaves
    for i, leaf in enumerate(order):
        input_of_leaf[leaf] = 1 + (i if i < n else rng.randrange(n))
    gates = [Gate(i, GateKind.INPUT) for i in range(1, n + 1)]
    for k, (kind, slots) in enumerate(nodes):
        ins = tuple(n + 1 + s if s >= 0 else input_of_leaf[~s] for s in slots)
        gates.append(Gate(n + 1 + k, kind, ins))
    return Circuit(name, gates, [n + 1])


# -- layered DAGs ------------------------------------------------------------------


def _gen_dag(
    rng: random.Random, spec: CorpusSpec, name: str, force_maj: bool
) -> Circuit | None:
    depth = rng.randint(*spec.depth)
    n = rng.randint(*spec.inputs)
    target = rng.randint(*spec.gates)
    fi_lo, fi_hi = spec.fan_in
    fo_hi = spec.fan_out[1]

    # Pick level widths so that each level can both consume everything
    # the previous level produced and stay within fan-out caps.
    widths: list[int] = []
    prev = n
    remaining = target
    for lvl in range(depth):
        lo = -(-prev // fi_hi)  # ceil(prev / fi_hi): consume everything
        hi = min(prev * fo_hi, max(lo, remaining - (depth - lvl - 1)))
        prev = rng.randint(lo, min(hi, lo + max(1, target // depth)))
        widths.append(prev)
        remaining -= prev

    gates = [Gate(i, GateKind.INPUT) for i in range(1, n + 1)]
    prev_ids = range(1, n + 1)
    for w in widths:
        if fi_lo > len(prev_ids) * fo_hi:
            raise ValueError(
                f"--fan-in {fi_lo}:{fi_hi} cannot be drawn: a gate takes at least {fi_lo} wires, "
                f"and the level below it, {len(prev_ids)} gates at --fan-out up to {fo_hi}, "
                f"gives at most {len(prev_ids) * fo_hi}"
            )
        # w >= ceil(len(prev_ids) / fi_hi): while the fans are short of
        # the producers, some fan is below fi_hi.
        fans = [rng.randint(fi_lo, min(fi_hi, len(prev_ids) * fo_hi)) for _ in range(w)]
        while sum(fans) < len(prev_ids):
            fans[rng.choice([i for i, f in enumerate(fans) if f < fi_hi])] += 1
        if sum(fans) > len(prev_ids) * fo_hi:
            return None
        # Slots are numbered gate by gate and wired in a shuffled order:
        # every producer once, then random producers under the fan-out
        # cap, which the sum check leaves room for.
        wires = [0] * sum(fans)
        order = list(range(len(wires)))
        rng.shuffle(order)
        producers = list(prev_ids)
        rng.shuffle(producers)
        for slot, p in zip(order, producers):
            wires[slot] = p
        use = dict.fromkeys(prev_ids, 1)
        for slot in order[len(producers):]:
            p = rng.choice([q for q in prev_ids if use[q] < fo_hi])
            wires[slot] = p
            use[p] += 1
        start = 0
        for f in fans:
            kind = _pick_kind(rng, spec, f)
            gates.append(Gate(len(gates) + 1, kind, tuple(wires[start:start + f])))
            start += f
        prev_ids = range(len(gates) - w + 1, len(gates) + 1)

    if force_maj and not any(g.kind is GateKind.MAJ for g in gates):
        i = rng.randrange(len(gates) - len(prev_ids), len(gates))
        gates[i] = Gate(gates[i].gid, GateKind.MAJ, gates[i].inputs)
    return Circuit(name, gates, list(prev_ids))
