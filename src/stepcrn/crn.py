"""Species alphabets, multiset configurations, and annihilation rules.

Configurations are dense count vectors over a frozen, ordered alphabet.
A program keeps its rules in one flat :class:`RuleTable`.  Every rule
reads two distinct species, one copy each, and is ``A + B -> .`` or the
catalytic ``A + B -> A``: the (2,0) rules of the paper's circuit
compiler and the catalyst backend's conversions and sweeps.  Building a
table is the one place a row is checked.  :func:`parse_rule`'s text
checks refuse every rule a table would, and a program file's rule lines
are joined into one table.  A :class:`Rule` is one row of a table,
``(a, b, kept)``; it exists only where rules meet text or a caller:
:func:`parse_rule`, and indexing a table.
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

import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import eq, lt

# What str.split() splits at.
_SPACE = re.compile(r"\s")


class Alphabet:
    """Frozen ordered species alphabet; name <-> ordinal bijection."""

    def __init__(self, names: Iterable[str]):
        self.names = names = tuple(names)
        self.index: dict[str, int] = dict(zip(names, range(len(names))))
        # The loop's checks, run over the whole alphabet at once; when
        # one fails, the loop runs to name the first bad name.
        text = "+" + "+".join(names)
        if len(self.index) == len(names) == text.count("+") and not (
            _SPACE.search(text) or "," in text or "+#" in text or {"", ".", "->"} & self.index.keys()
        ):
            return
        self.index = {}
        for i, n in enumerate(names):
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
    """One rule as the row a :class:`RuleTable` holds: it reads ``a``
    and ``b`` and puts back ``kept``, or -1 for none.

    A rule is not checked when it is built; a table checks it when it
    holds it.  :func:`parse_rule`, by its text checks, and indexing a
    table give checked rows.
    """

    alphabet: Alphabet
    a: int
    b: int
    kept: int

    @property
    def text(self) -> str:
        names = self.alphabet.names
        rhs = names[self.kept] if self.kept >= 0 else "."
        return f"{names[self.a]} + {names[self.b]} -> {rhs}"

    def __str__(self) -> str:  # pragma: no cover
        return self.text


# The refusals of rule text; the table's own check shares _NOT_VOID.
_SHAPE = "rule must read two distinct species, one copy each"
_NOT_VOID = "rule is not void: it must lower some count and raise none"


class RuleTable(Sequence):
    """A rule set as one flat, immutable table of three columns.

    Every rule reads two distinct species, one copy each, and is
    ``A + B -> .`` or the catalytic ``A + B -> A``.  Rule ``q`` reads
    ``a[q]`` and ``b[q]``, with ``a[q] < b[q]``, and ``kept[q]`` is the
    reactant it puts back, or -1 for none.  So ``A + B -> .`` is
    ``(A, B, -1)``, and ``Y + X -> Y`` is ``(X, Y, Y)`` when X has the
    lower ordinal.

    Construction is the one place a row is checked: the columns have
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
        # Each row counts once when kept is -1, a or b, and at most once,
        # as a < b and both are ordinals.
        if kept.count(-1) + sum(map(eq, kept, a)) + sum(map(eq, kept, b)) != len(kept):
            raise ValueError(_NOT_VOID)

    @classmethod
    def from_rules(cls, alphabet: Alphabet, rules: Iterable[Rule]) -> RuleTable:
        """The table of the rows ``rules``, in their order, each over
        ``alphabet``; the table checks them as it checks any columns.  A
        row over another alphabet is refused by its position, since its
        ordinals need not name a species of either alphabet."""
        rules = tuple(rules)
        for q, rule in enumerate(rules):
            if rule.alphabet is not alphabet and rule.alphabet != alphabet:
                raise ValueError(f"rule {q} is over another alphabet")
        return cls(alphabet, (r.a for r in rules), (r.b for r in rules), (r.kept for r in rules))

    def _rule(self, q: int) -> Rule:
        return Rule(self.alphabet, self.a[q], self.b[q], self.kept[q])

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
    empty side) into a table's row.  A rule that is not void is refused
    first, then one that does not read two distinct species, one copy
    each; so the text checks refuse every rule a :class:`RuleTable`
    would, and a program file joins the rows into its one table.  The
    arrow is space-delimited because species names themselves may
    contain ``->``."""
    if " -> " not in text:
        raise ValueError("bad rule (no ' -> ')")  # the caller has the text
    lhs, rhs = text.split(" -> ", 1)
    reads, puts = _parse_side(lhs, alphabet), _parse_side(rhs, alphabet)
    if Counter(puts) - Counter(reads) or not Counter(reads) - Counter(puts):
        raise ValueError(_NOT_VOID)
    if len(reads) != 2 or reads[0] == reads[1]:
        raise ValueError(_SHAPE)
    # What is left puts back at most one of the two species it reads.
    return Rule(alphabet, min(reads), max(reads), puts[0] if puts else -1)


def _parse_side(side: str, alphabet: Alphabet) -> list[int]:
    """The ordinal of each term of ``side``, each a species name."""
    if side.strip() == ".":
        return []
    terms = []
    for term in side.split("+"):
        parts = term.split()
        if len(parts) != 1:
            raise ValueError(f"bad rule term {term.strip()!r}")
        terms.append(alphabet.ordinal(parts[0]))
    return terms
