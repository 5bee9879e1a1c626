"""Species alphabets, multiset configurations, and annihilation rules.

Configurations are dense count vectors over a frozen, ordered alphabet.
A program keeps its rules in one flat :class:`RuleTable`.  Every rule
reads two distinct species, one copy each, and is ``A + B -> .`` or the
catalytic ``A + B -> A``: the (2,0) rules of the paper's circuit
compiler and the catalyst backend's conversions and sweeps.  Building a
table is the one place a rule is checked, and any other rule is
refused.  A :class:`Rule` is a plain record of one rule as sparse
(ordinal, count) pairs for reactants and products; it exists only where
rules meet text or a caller: :func:`parse_rule`, and indexing a table.
All counts are plain Python ints, so the exponential-volume compiler
can exceed 64-bit ranges without ceremony.

A species is any whitespace-free token except ``.``, ``->``, a name
holding ``+`` or ``,`` and a name starting with ``#``, which rule text
and program files read otherwise; the compilers' naming grammar lives in
:mod:`stepcrn.lowering`, and nothing here reads it.

Rule text is one rule per line: two reactant names joined by `` + ``,
then ``->``, then ``.`` for no product.  A catalytic rule repeats the
surviving reactant on the right, e.g. ``dx[2] + x[1]T -> dx[2]``.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import lt


class Alphabet:
    """Frozen ordered species alphabet; name <-> ordinal bijection."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self.index: dict[str, int] = {}
        for i, n in enumerate(self.names):
            # Empty or holding whitespace, or read otherwise by rule text
            # (``.``, ``->``, ``+``) or by a program file (``,`` between
            # step entries, ``#`` comments).
            if n.split() != [n] or n in (".", "->") or "+" in n or "," in n or n[0] == "#":
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
    """A reaction as a plain record: sparse reactant and product count
    vectors.

    ``reactants``/``products`` are (ordinal, count) pairs.  A rule is
    not checked when it is built; :class:`RuleTable` checks it, and
    :func:`parse_rule` and indexing a table give it two sorted, distinct
    reactants of count 1 and at most one of them as its product.
    ``delta`` is the net change, products minus reactants, sorted by
    ordinal, without zero entries.
    """

    alphabet: Alphabet
    reactants: tuple[tuple[int, int], ...]
    products: tuple[tuple[int, int], ...]
    delta: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        net: dict[int, int] = {}
        for o, c in self.reactants:
            net[o] = net.get(o, 0) - c
        for o, c in self.products:
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


# The refusals of :meth:`RuleTable.from_rules`; the table's own checks share _NOT_VOID.
_SHAPE = "rule must read two distinct species, one copy each"
_BAD_PRODUCT = "product counts must be positive"
_NOT_VOID = "rule is not void: it must lower some count and raise none"


class RuleTable(Sequence):
    """A rule set as one flat, immutable table of three columns.

    Every rule reads two distinct species, one copy each, and is
    ``A + B -> .`` or the catalytic ``A + B -> A``.  Rule ``q`` reads
    ``a[q]`` and ``b[q]``, with ``a[q] < b[q]``, and ``kept[q]`` is the
    reactant it puts back, or -1 for none.  So ``A + B -> .`` is
    ``(A, B, -1)``, and ``Y + X -> Y`` is ``(X, Y, Y)`` when X has the
    lower ordinal.

    Construction is the one place a rule is checked: the columns have
    one length, both ordinals lie in the alphabet, ``a < b``, and
    ``kept`` is -1, ``a`` or ``b``, so a rule lowers one or two counts
    and raises none.  A refusal does not name the rule; the caller has
    it.  Compilers fill the columns straight from ordinals; a
    :class:`Rule` is built only when the table is indexed or iterated,
    for rule text and for callers, and ``len`` costs O(1).
    """

    __slots__ = ("alphabet", "a", "b", "kept")

    def __init__(self, alphabet: Alphabet, a: Iterable[int], b: Iterable[int], kept: Iterable[int]):
        self.alphabet = alphabet
        self.a, self.b, self.kept = a, b, kept = tuple(a), tuple(b), tuple(kept)
        if not len(a) == len(b) == len(kept):
            raise ValueError("rule table columns do not match")
        bound = len(alphabet.names)
        if a and (min(min(a), min(b)) < 0 or max(max(a), max(b)) >= bound):
            o = next(o for pair in zip(a, b) for o in pair if not 0 <= o < bound)
            raise ValueError(f"reactant ordinal {o} is outside the alphabet")
        if not all(map(lt, a, b)):
            raise ValueError("reactant ordinals must be sorted and distinct")
        if any(k != -1 and k != x and k != y for x, y, k in zip(a, b, kept)):
            raise ValueError(_NOT_VOID)

    @classmethod
    def from_rules(cls, alphabet: Alphabet, rules: Iterable[Rule]) -> RuleTable:
        """The table of ``rules``, in their order, each over ``alphabet``,
        its reactants sorted.  A product count below 1 is refused, then
        a rule whose net change raises a count or changes none, then
        any other rule that does not read two distinct species, one copy
        each.  What passes puts back at most one copy of one reactant."""
        a, b, kept = [], [], []
        for rule in rules:
            if rule.alphabet is not alphabet and rule.alphabet != alphabet:
                raise ValueError(f"rule {rule.text!r} is over another alphabet")
            if any(c < 1 for _, c in rule.products):
                raise ValueError(_BAD_PRODUCT)
            if not rule.delta or max(d for _, d in rule.delta) > 0:
                raise ValueError(_NOT_VOID)
            reads = rule.reactants
            if [c for _, c in reads] != [1, 1] or reads[0][0] == reads[1][0]:
                raise ValueError(_SHAPE)
            x, y = sorted(o for o, _ in reads)
            a.append(x)
            b.append(y)
            kept.append(rule.products[0][0] if rule.products else -1)
        return cls(alphabet, a, b, kept)

    def _rule(self, q: int) -> Rule:
        k = self.kept[q]
        return Rule(self.alphabet, ((self.a[q], 1), (self.b[q], 1)), ((k, 1),) if k >= 0 else ())

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, q):
        picked = range(len(self))[q]
        if isinstance(picked, range):
            return tuple(map(self._rule, picked))
        return self._rule(picked)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, RuleTable)
            and self.alphabet == other.alphabet
            and self.a == other.a
            and self.b == other.b
            and self.kept == other.kept
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.kept))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RuleTable({len(self)} rules)"


# -- rule text -----------------------------------------------------------------


def parse_rule(text: str, alphabet: Alphabet) -> Rule:
    """Parse ``A + B -> .`` or ``A + B -> A`` rule text (``.`` is the
    empty side) into the rule a one-row :class:`RuleTable` reads back,
    so any other rule is refused.  The arrow is space-delimited because
    species names themselves may contain ``->``."""
    return rule_row(text, alphabet)[0]


def rule_row(text: str, alphabet: Alphabet) -> RuleTable:
    """The one-row :class:`RuleTable` of one line of rule text, as
    :func:`parse_rule` reads it; a program file joins its rows' columns
    into its table."""
    if " -> " not in text:
        raise ValueError("bad rule (no ' -> ')")  # the caller has the text
    lhs, rhs = text.split(" -> ", 1)
    rule = Rule(alphabet, _parse_side(lhs, alphabet), _parse_side(rhs, alphabet))
    return RuleTable.from_rules(alphabet, [rule])


def _parse_side(side: str, alphabet: Alphabet) -> tuple[tuple[int, int], ...]:
    """One (ordinal, 1) pair per term of ``side``, each a species name."""
    if side.strip() == ".":
        return ()
    terms = []
    for term in side.split("+"):
        parts = term.split()
        if len(parts) != 1:
            raise ValueError(f"bad rule term {term.strip()!r}")
        terms.append((alphabet.ordinal(parts[0]), 1))
    return tuple(terms)
