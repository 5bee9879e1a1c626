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
    internal: list[tuple[int, GateKind, list]] = []  # (node, kind, child slots)
    leaves: list[tuple[int, int]] = []  # (node, slot) -> input assignment later
    counter = [0]

    def new_node() -> int:
        counter[0] += 1
        return counter[0]

    def grow(node: int, levels_left: int, budget_left: int) -> int:
        fan = rng.randint(*spec.fan_in)
        kind = _pick_kind(rng, spec, 1 if fan == 1 else fan)
        if kind is GateKind.NOT:
            fan = 1
        slots: list = [None] * fan
        internal.append((node, kind, slots))
        spine = rng.randrange(fan) if levels_left > 1 else -1
        used = 0
        for s in range(fan):
            deeper = levels_left > 1 and (
                s == spine or (budget_left - used > 0 and rng.random() < 0.55)
            )
            if deeper:
                child = new_node()
                slots[s] = ("gate", child)
                used += 1 + grow(child, levels_left - 1, budget_left - used - 1)
            else:
                slots[s] = ("leaf", len(leaves))
                leaves.append((node, s))
        return used

    root = new_node()
    grow(root, depth, budget - 1)
    if not spec.gates[0] <= len(internal) <= spec.gates[1]:
        return None

    if force_maj and not any(k is GateKind.MAJ for _, k, _ in internal):
        idx = rng.randrange(len(internal))
        node, _, slots = internal[idx]
        internal[idx] = (node, GateKind.MAJ, slots)

    n = min(want_inputs, len(leaves))
    if n < min(spec.inputs[0], len(leaves)) or n == 0:
        return None
    input_of_leaf: dict[int, int] = {}
    leaf_ids = list(range(len(leaves)))
    rng.shuffle(leaf_ids)
    for i, leaf in enumerate(leaf_ids):
        input_of_leaf[leaf] = (i % n) if i < n else rng.randrange(n)

    # Gate ids: inputs 1..n, then internal nodes in creation order.
    id_of_input = {i: i + 1 for i in range(n)}
    id_of_node = {node: n + i + 1 for i, (node, _, _) in enumerate(internal)}
    gates = [Gate(id_of_input[i], GateKind.INPUT) for i in range(n)]
    for node, kind, slots in internal:
        ins = []
        for s in slots:
            tag, ref = s
            ins.append(id_of_node[ref] if tag == "gate" else id_of_input[input_of_leaf[ref]])
        gates.append(Gate(id_of_node[node], kind, tuple(ins)))
    return Circuit(name, gates, [id_of_node[root]])


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
        lo = max(1, -(-prev // fi_hi))  # ceil(prev / fi_hi): consume everything
        hi = max(lo, min(prev * fo_hi, max(lo, remaining - (depth - lvl - 1))))
        if lo > hi:
            return None
        w = rng.randint(lo, min(hi, lo + max(1, target // depth)))
        widths.append(w)
        remaining -= w
        prev = w

    gid = 0
    gates: list[Gate] = []
    for _ in range(n):
        gid += 1
        gates.append(Gate(gid, GateKind.INPUT))
    prev_ids = [g.gid for g in gates]

    has_maj = False
    for w in widths:
        fans = [rng.randint(fi_lo, min(fi_hi, len(prev_ids) * fo_hi)) for _ in range(w)]
        while sum(fans) < len(prev_ids):
            bumpable = [i for i, f in enumerate(fans) if f < fi_hi]
            if not bumpable:
                fans.append(rng.randint(fi_lo, fi_hi))
            else:
                fans[rng.choice(bumpable)] += 1
        w = len(fans)
        if sum(fans) > len(prev_ids) * fo_hi:
            return None
        # Slot assignment: cover every producer once, then fill randomly
        # under the fan-out cap.
        slots = [(g, s) for g, f in enumerate(fans) for s in range(f)]
        rng.shuffle(slots)
        chosen: dict[tuple[int, int], int] = {}
        use = {p: 0 for p in prev_ids}
        producers = list(prev_ids)
        rng.shuffle(producers)
        for p, slot in zip(producers, slots):
            chosen[slot] = p
            use[p] += 1
        for slot in slots[len(producers):]:
            open_p = [p for p in prev_ids if use[p] < fo_hi]
            if not open_p:
                return None
            p = rng.choice(open_p)
            chosen[slot] = p
            use[p] += 1
        level_ids = []
        for g, f in enumerate(fans):
            gid += 1
            ins = tuple(chosen[(g, s)] for s in range(f))
            kind = _pick_kind(rng, spec, f)
            if kind is GateKind.NOT and f != 1:
                kind = GateKind.AND
            if kind is GateKind.MAJ:
                has_maj = True
            gates.append(Gate(gid, kind, ins))
            level_ids.append(gid)
        prev_ids = level_ids

    if force_maj and not has_maj:
        idx = rng.randrange(len(gates) - len(prev_ids), len(gates))
        g = gates[idx]
        if g.kind in (GateKind.AND, GateKind.OR, GateKind.NOT):
            gates[idx] = Gate(g.gid, GateKind.MAJ, g.inputs)

    return Circuit(name, gates, prev_ids)
