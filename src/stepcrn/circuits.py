"""Threshold-circuit intermediate representation.

Circuits are DAGs of AND/OR/NOT/MAJ gates over INPUT and constant source
gates, with arbitrary fan-in and fan-out.  This module owns parsing
(netlist text and an equivalent JSON form), validation, reference
evaluation, structural statistics, and the per-gate copy-demand analysis
used by the circuit compilers.

Netlist format (line oriented, ``#`` starts a comment):

    circuit <name>
    gate <id> <KIND> [input ids...]
    outputs <id> [<id> ...]

The JSON form is an object with keys ``name``, ``gates`` (array of
``{"id":..., "kind":..., "inputs":[...]}``) and ``outputs``.  The parser
auto-detects JSON by a leading ``{``.

Conventions fixed here and relied on everywhere else:

* Input bits are assigned to INPUT gates in netlist declaration order.
* A gate's fan-out counts its outgoing wires plus its occurrences in the
  output list (an output designation consumes one copy of the result).
* A circuit derives its tables once, in ``Circuit._derive``.  Among them
  is ``levels``: ``levels[k]`` holds the ids of the gates at depth level
  k in declaration order, level 0 holding exactly the sources.  The
  compiler lowers level by level from it, :func:`stats` reads depth and
  width off it, and ``order`` is it flattened.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain


class CircuitError(ValueError):
    """A structurally invalid circuit."""


class NetlistParseError(CircuitError):
    """A malformed circuit document; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class GateKind(Enum):
    INPUT = "INPUT"
    CONST_ZERO = "CONST_ZERO"
    CONST_ONE = "CONST_ONE"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    MAJ = "MAJ"


@dataclass(frozen=True)
class Gate:
    gid: int
    kind: GateKind
    inputs: tuple[int, ...] = ()


@dataclass(frozen=True)
class CircuitStats:
    gate_count: int
    depth: int
    max_fanout: int
    width: int


class Circuit:
    """A validated gate DAG.  Immutable after construction and safe to
    share across workers."""

    def __init__(self, name: str, gates: Iterable[Gate], outputs: Sequence[int]):
        self.name = str(name)
        self.gates = tuple(gates)
        self.outputs = tuple(int(o) for o in outputs)
        self._validate()

    @classmethod
    def _leveled(
        cls, name: str, gates: Iterable[Gate], outputs: Sequence[int], level: dict[int, int]
    ) -> Circuit:
        """A circuit the caller knows to be valid, with each gate's level:
        its tables are derived and nothing is checked.  ``normalize``
        builds its result this way."""
        circuit = cls.__new__(cls)
        circuit.name, circuit.gates, circuit.outputs = name, tuple(gates), tuple(outputs)
        circuit._derive(level)
        return circuit

    # -- construction helpers -------------------------------------------------

    def _validate(self) -> None:
        """Check the name, gates and outputs and derive the tables:
        ``_derive`` finds the levels and refuses a cycle, and the liveness
        walk reads its ``by_id``."""
        # The name is a netlist and program file token.
        if self.name.split() != [self.name] or "#" in self.name:
            raise CircuitError(
                f"circuit name must be one token without whitespace or '#', got {self.name!r}"
            )
        if not self.gates:
            raise CircuitError("circuit has no gates")
        if not self.outputs:
            raise CircuitError("circuit has no outputs")

        ids: set[int] = set()
        for g in self.gates:
            if g.gid <= 0:
                raise CircuitError(f"gate id must be positive, got {g.gid}")
            if g.gid in ids:
                raise CircuitError(f"duplicate gate id {g.gid}")
            ids.add(g.gid)

        # Kinds are told apart with ``is`` against locals: a GateKind
        # attribute is an enum class lookup, and a set test hashes.
        input_, zero, one, not_ = GateKind.INPUT, GateKind.CONST_ZERO, GateKind.CONST_ONE, GateKind.NOT
        for g in self.gates:
            kind = g.kind
            if kind is input_ or kind is zero or kind is one:
                if g.inputs:
                    raise CircuitError(f"gate {g.gid}: {kind.value} takes no inputs")
            elif kind is not_:
                if len(g.inputs) != 1:
                    raise CircuitError(
                        f"gate {g.gid}: NOT takes exactly one input, got {len(g.inputs)}"
                    )
            elif len(g.inputs) < 1:
                raise CircuitError(f"gate {g.gid}: {kind.value} needs fan-in >= 1")
            for ref in g.inputs:
                if ref not in ids:
                    raise CircuitError(f"gate {g.gid}: unknown input gate {ref}")
        for o in self.outputs:
            if o not in ids:
                raise CircuitError(f"unknown output gate {o}")

        self._derive(None)

        # Every gate must feed some output (directly or transitively);
        # dangling subgraphs would compile to dead species.
        live: set[int] = set()
        stack = list(self.outputs)
        while stack:
            gid = stack.pop()
            if gid in live:
                continue
            live.add(gid)
            stack.extend(self.by_id[gid].inputs)
        dead = sorted(ids - live)
        if dead:
            raise CircuitError(f"gates {dead} reach no output")

    def _derive(self, level: dict[int, int] | None) -> None:
        """The tables every query reads, from the gates, the outputs and
        each gate's level; without ``level``, Kahn's walk over the wires
        finds the levels and refuses a cycle.  ``consumers[gid]`` holds
        one consumer id per outgoing wire.  ``levels[k]`` holds the ids of
        the gates at level k, in declaration order, and ``order`` is
        ``levels`` flattened, so it is topological."""
        self.by_id = by_id = {g.gid: g for g in self.gates}
        consumers: dict[int, list[int]] = {gid: [] for gid in by_id}
        # In a valid circuit, exactly the sources have no inputs.
        sources: list[Gate] = []
        non_sources: list[Gate] = []
        for g in self.gates:
            if g.inputs:
                non_sources.append(g)
                for ref in g.inputs:
                    consumers[ref].append(g.gid)
            else:
                sources.append(g)
        if level is None:
            # Kahn over the multigraph: a gate is ready once every wire
            # into it is, and a gate on a cycle never is.
            indeg = {g.gid: len(g.inputs) for g in non_sources}
            ready = [g.gid for g in sources]
            level = {}
            while ready:
                gid = ready.pop()
                ins = by_id[gid].inputs
                level[gid] = 1 + max(map(level.__getitem__, ins)) if ins else 0
                for cid in consumers[gid]:
                    indeg[cid] -= 1
                    if indeg[cid] == 0:
                        ready.append(cid)
            if len(level) != len(self.gates):
                cyclic = sorted(gid for gid, d in indeg.items() if d > 0)
                raise CircuitError(f"cycle detected through gates {cyclic}")
        self.consumers = {gid: tuple(cs) for gid, cs in consumers.items()}
        output_count: dict[int, int] = {}
        for o in self.outputs:
            output_count[o] = output_count.get(o, 0) + 1
        self.output_count = output_count
        self._sources, self._non_sources = tuple(sources), tuple(non_sources)
        self.input_ids = tuple(g.gid for g in sources if g.kind is GateKind.INPUT)
        self.level = level
        levels: list[list[int]] = [[] for _ in range(max(level.values()) + 1)]
        for g in self.gates:
            levels[level[g.gid]].append(g.gid)
        self.levels = tuple(map(tuple, levels))
        self.order = tuple(chain.from_iterable(self.levels))

    # -- queries ---------------------------------------------------------------

    def fanout(self, gid: int) -> int:
        return len(self.consumers[gid]) + self.output_count.get(gid, 0)

    def sources(self) -> tuple[Gate, ...]:
        return self._sources

    def non_sources(self) -> tuple[Gate, ...]:
        return self._non_sources

    @property
    def is_formula(self) -> bool:
        return len(self.outputs) == 1 and all(
            self.fanout(g.gid) == 1 for g in self.non_sources()
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Circuit({self.name!r}, gates={len(self.gates)}, outputs={self.outputs})"


# -- operations ------------------------------------------------------------------


_BIT = {0: 0, 1: 1, "0": 0, "1": 1}


def input_bits(input_ids: Sequence[int], bits) -> dict[int, int]:
    """Map an input assignment onto INPUT gate ids.

    ``bits`` is a string or sequence of bits aligned with ``input_ids``
    (INPUT declaration order).  Raises :class:`CircuitError` on a
    mapping (iterating ``{gate id: bit}`` would read its ids as bits), a
    wrong length or a bit other than 0/1.
    """
    if isinstance(bits, Mapping):
        raise CircuitError(
            "an input assignment is a bit string or a sequence of bits, not a mapping"
        )
    seq = list(bits)
    if len(seq) != len(input_ids):
        raise CircuitError(f"expected {len(input_ids)} input bits, got {len(seq)}")
    try:
        return {gid: _BIT[b] for gid, b in zip(input_ids, seq)}
    except (KeyError, TypeError):
        raise CircuitError("input bits must be 0 or 1") from None


def evaluate(circuit: Circuit, assignment) -> list[int]:
    """Evaluate the circuit on one input assignment (any form
    :func:`input_bits` takes).  Returns the output bits aligned with
    ``circuit.outputs``.
    """
    bits = input_bits(circuit.input_ids, assignment)
    # Kinds are read from locals: a GateKind attribute is an enum class
    # lookup each time, as in Circuit._validate.
    input_, zero, one, and_, or_, not_ = (
        GateKind.INPUT, GateKind.CONST_ZERO, GateKind.CONST_ONE, GateKind.AND, GateKind.OR, GateKind.NOT
    )
    value: dict[int, int] = {}
    for gid in circuit.order:
        g = circuit.by_id[gid]
        kind = g.kind
        if kind is input_:
            value[gid] = bits[gid]
        elif kind is zero:
            value[gid] = 0
        elif kind is one:
            value[gid] = 1
        else:
            ins = [value[r] for r in g.inputs]
            if kind is and_:
                value[gid] = int(all(ins))
            elif kind is or_:
                value[gid] = int(any(ins))
            elif kind is not_:
                value[gid] = 1 - ins[0]
            else:  # MAJ: more than half of its wires true
                value[gid] = int(2 * sum(ins) > len(ins))
    return [value[o] for o in circuit.outputs]


def stats(circuit: Circuit) -> CircuitStats:
    """Structural statistics over the non-source gates, which are the
    gates above level 0."""
    internal = circuit.non_sources()
    return CircuitStats(
        gate_count=len(internal),
        depth=len(circuit.levels) - 1,
        max_fanout=max((circuit.fanout(g.gid) for g in internal), default=0),
        width=max(map(len, circuit.levels[1:]), default=0),
    )


def max_fanout_any(circuit: Circuit) -> int:
    """Maximum fan-out over all gates, sources included.  This is the
    figure demand bounds need; :func:`stats` reports fan-out over
    non-source gates only so that formulas (whose sources may fan out
    freely) keep their fan-out-1 characterization."""
    return max(circuit.fanout(g.gid) for g in circuit.gates)


def demand_analysis(circuit: Circuit) -> dict[int, int]:
    """Copies of its result each gate must produce.

    A gate owes one copy per output designation plus, for every outgoing
    wire, the consumer's own demand.  Computed by a backward topological
    pass; covers every gate including sources.
    """
    demand: dict[int, int] = {}
    for gid in reversed(circuit.order):
        d = circuit.output_count.get(gid, 0)
        for c in circuit.consumers[gid]:
            d += demand[c]
        demand[gid] = d
    return demand


# -- parsing / serialization ------------------------------------------------------


_KINDS = {k.value: k for k in GateKind}


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit document, auto-detecting netlist vs JSON form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise NetlistParseError(f"bad JSON: {e}", line=e.lineno) from e
        except RecursionError:
            raise NetlistParseError("bad JSON: nested too deeply") from None
        return circuit_from_json(obj)
    return _parse_netlist(text)


def _parse_netlist(text: str) -> Circuit:
    name = None
    gates: list[Gate] = []
    outputs: list[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "circuit":
            if name is not None:
                raise NetlistParseError("duplicate circuit header", lineno)
            if len(parts) != 2:
                raise NetlistParseError("expected: circuit <name>", lineno)
            name = parts[1]
        elif head == "gate":
            if len(parts) < 3:
                raise NetlistParseError("expected: gate <id> <KIND> [inputs...]", lineno)
            gid = _parse_id(parts[1], lineno)
            kind = _KINDS.get(parts[2])
            if kind is None:
                raise NetlistParseError(f"unknown gate kind {parts[2]!r}", lineno)
            ins = tuple(_parse_id(tok, lineno) for tok in parts[3:])
            gates.append(Gate(gid, kind, ins))
        elif head == "outputs":
            if outputs is not None:
                raise NetlistParseError("duplicate outputs line", lineno)
            if len(parts) < 2:
                raise NetlistParseError("outputs line lists no gates", lineno)
            outputs = [_parse_id(tok, lineno) for tok in parts[1:]]
        else:
            raise NetlistParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise NetlistParseError("missing circuit header")
    if outputs is None:
        raise NetlistParseError("missing outputs line")
    return Circuit(name, gates, outputs)


def _parse_id(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise NetlistParseError(f"expected gate id, got {token!r}", lineno) from None
    if value <= 0:
        raise NetlistParseError(f"gate ids are positive, got {value}", lineno)
    return value


def _json_id(value) -> int:
    # JSON true and 1.7 would pass int(); neither is a gate id.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"gate id {json.dumps(value)} is not an integer")
    return value


def circuit_from_json(obj) -> Circuit:
    try:
        gates = [
            Gate(_json_id(g["id"]), _KINDS[str(g["kind"])], tuple(map(_json_id, g.get("inputs", ()))))
            for g in obj["gates"]
        ]
        outputs = [_json_id(o) for o in obj["outputs"]]
    except (KeyError, TypeError, ValueError) as e:
        raise NetlistParseError(f"bad circuit JSON: {e}") from e
    return Circuit(str(obj.get("name", "circuit")), gates, outputs)


def to_netlist(circuit: Circuit) -> str:
    lines = [f"circuit {circuit.name}"]
    for g in circuit.gates:
        ins = "".join(f" {r}" for r in g.inputs)
        lines.append(f"gate {g.gid} {g.kind.value}{ins}")
    lines.append("outputs " + " ".join(str(o) for o in circuit.outputs))
    return "\n".join(lines) + "\n"

