"""Species alphabets, multiset configurations, and annihilation rules.

Configurations are dense count vectors over a frozen, ordered alphabet;
rules are sparse (ordinal, count) pairs for reactants and products.  All
counts are plain Python ints, so the exponential-volume compiler can
exceed 64-bit ranges without ceremony.

A species is any whitespace-free token; the compilers' naming grammar
lives in :mod:`stepcrn.lowering`, and nothing here reads it.

Rule text is one rule per line: reactants joined by `` + ``, then
``->``, then products (``.`` for none).  A catalytic rule repeats the
surviving reactant on the right, e.g. ``dx[2] + x[1]T -> dx[2]``.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field


class Alphabet:
    """Frozen ordered species alphabet; name <-> ordinal bijection."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self.index: dict[str, int] = {}
        for i, n in enumerate(self.names):
            if n.split() != [n]:  # empty, or holds whitespace
                raise ValueError(f"bad species name {n!r}")
            if n in self.index:
                raise ValueError(f"duplicate species {n!r}")
            self.index[n] = i

    def __len__(self) -> int:
        return len(self.names)

    def ordinal(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"species {name!r} not in alphabet") from None

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Alphabet) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Alphabet({len(self.names)} species)"


@dataclass(frozen=True)
class Configuration:
    """A multiset of species: dense counts over one alphabet."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.alphabet):
            raise ValueError("counts length does not match alphabet")
        if min(self.counts, default=0) < 0:
            raise ValueError("negative species count")

    @property
    def volume(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict[str, int]:
        """Sparse view for display: only species with nonzero count."""
        return {
            self.alphabet.names[i]: c for i, c in enumerate(self.counts) if c
        }

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{n}:{c}" for n, c in self.as_dict().items())
        return "{" + inner + "}"


@dataclass(frozen=True, slots=True)
class Rule:
    """A reaction: sparse reactant and product count vectors.

    ``reactants``/``products`` are sorted (ordinal, count) pairs with
    positive counts.  The net change (products - reactants) is cached
    for the engine.  Construction is lean, because compiles build tens
    of thousands of rules: slots instead of a per-instance ``__dict__``,
    and a rule without products takes its ``delta`` straight from sorted,
    distinct reactants.
    """

    alphabet: Alphabet
    reactants: tuple[tuple[int, int], ...]
    products: tuple[tuple[int, int], ...]
    delta: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        reactants, products = self.reactants, self.products
        if not reactants:
            raise ValueError("rule needs at least one reactant with positive count")
        ordered, prev, size = True, -1, len(self.alphabet.names)
        for o, c in reactants:
            if c <= 0:
                raise ValueError("rule needs at least one reactant with positive count")
            if not 0 <= o < size:
                raise ValueError(f"reactant ordinal {o} is outside the alphabet")
            if o <= prev:
                ordered = False
            prev = o
        for o, c in products:
            if c <= 0:
                raise ValueError("product counts must be positive")
            if not 0 <= o < size:
                raise ValueError(f"product ordinal {o} is outside the alphabet")
        if ordered and not products:
            delta = tuple([(o, -c) for o, c in reactants])
        else:
            net: dict[int, int] = {}
            for o, c in reactants:
                net[o] = net.get(o, 0) - c
            for o, c in products:
                net[o] = net.get(o, 0) + c
            delta = tuple(sorted([(o, d) for o, d in net.items() if d]))
        object.__setattr__(self, "delta", delta)

    @property
    def text(self) -> str:
        names = self.alphabet.names
        lhs = " + ".join(names[o] for o, c in self.reactants for _ in range(c))
        rhs = " + ".join(names[o] for o, c in self.products for _ in range(c))
        return f"{lhs} -> {rhs or '.'}"

    def __str__(self) -> str:  # pragma: no cover
        return self.text


# -- operations ------------------------------------------------------------------


def is_void_family(rule: Rule) -> bool:
    """True iff the rule is true-void or catalytic-void: it lowers some
    count and raises none (``delta`` holds no zero entries)."""
    return bool(rule.delta) and all(d < 0 for _, d in rule.delta)


# -- rule text -----------------------------------------------------------------


def parse_rule(text: str, alphabet: Alphabet) -> Rule:
    """Parse ``A + B -> .`` style rule text (coefficients like ``2 A``
    are accepted too).  The arrow is space-delimited because species
    names themselves may contain ``->``."""
    if " -> " not in text:
        raise ValueError("bad rule (no ' -> ')")  # the caller has the text
    lhs, rhs = text.split(" -> ", 1)
    return Rule(
        alphabet,
        _parse_side(lhs, alphabet, empty_ok=False),
        _parse_side(rhs, alphabet, empty_ok=True),
    )


def _parse_side(side: str, alphabet: Alphabet, empty_ok: bool) -> tuple[tuple[int, int], ...]:
    side = side.strip()
    if side in (".", "", "0"):
        if not empty_ok:
            raise ValueError("rule has no reactants")
        return ()
    acc: dict[int, int] = {}
    for term in side.split("+"):
        parts = term.split()
        if len(parts) == 1:
            coeff, name = 1, parts[0]
        elif len(parts) == 2 and parts[0].isdigit():
            coeff, name = int(parts[0]), parts[1]
        else:
            raise ValueError(f"bad rule term {term.strip()!r}")
        o = alphabet.ordinal(name)
        acc[o] = acc.get(o, 0) + coeff
    return tuple(sorted(acc.items()))
