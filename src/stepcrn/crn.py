"""Species alphabets, multiset configurations, and annihilation rules.

Configurations are dense count vectors over a frozen, ordered alphabet.
A program keeps its rules in one flat :class:`RuleTable`, which lists
each rule's reactant ordinals, the copies of each it needs, and the
copies of each it removes.  A :class:`Rule` holds one rule as sparse
(ordinal, count) pairs for reactants and products; it exists only where
rules meet text or a caller: :func:`parse_rule`, and indexing a table.
All counts are plain Python ints, so the exponential-volume compiler can
exceed 64-bit ranges without ceremony.

A species is any whitespace-free token; the compilers' naming grammar
lives in :mod:`stepcrn.lowering`, and nothing here reads it.

Rule text is one rule per line: reactants joined by `` + ``, then
``->``, then products (``.`` for none).  A catalytic rule repeats the
surviving reactant on the right, e.g. ``dx[2] + x[1]T -> dx[2]``.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from operator import ge, le, lt


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

    ``reactants``/``products`` are (ordinal, count) pairs with positive
    counts; :func:`parse_rule` and :class:`RuleTable` give them sorted
    and distinct.  ``delta`` is the net change (products - reactants),
    sorted by ordinal, without zero entries.
    """

    alphabet: Alphabet
    reactants: tuple[tuple[int, int], ...]
    products: tuple[tuple[int, int], ...]
    delta: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.reactants:
            raise ValueError("rule needs at least one reactant with positive count")
        size = len(self.alphabet.names)
        for o, c in self.reactants:
            if c <= 0:
                raise ValueError("rule needs at least one reactant with positive count")
            if not 0 <= o < size:
                raise ValueError(f"reactant ordinal {o} is outside the alphabet")
        for o, c in self.products:
            if c <= 0:
                raise ValueError("product counts must be positive")
            if not 0 <= o < size:
                raise ValueError(f"product ordinal {o} is outside the alphabet")
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


def _not_void(text: str) -> ValueError:
    return ValueError(f"rule {text!r} is not void: it must lower some count and raise none")


class RuleTable(Sequence):
    """A rule set as one flat, immutable table, in CSR form.

    Rule ``q`` owns the entries ``start[q]`` up to ``start[q + 1]`` of
    three columns: ``species`` holds its reactant ordinals, sorted and
    distinct; ``need`` the copies of each it needs, all >= 1; and
    ``loss`` the copies of each it removes, its need minus the copies it
    puts back.  A product is always one of the reactants, so
    ``A + B -> .`` is ``(A, 1, 1), (B, 1, 1)``, and the catalytic
    ``Y + X -> Y`` is ``(X, 1, 1), (Y, 1, 0)`` when X has the lower
    ordinal.

    Every rule must be void-family: it lowers some count and raises
    none, so each loss is between 0 and the need and one is positive.
    Construction checks this, the ordinal range, the order and the
    needs once, with the messages :class:`Rule` and :func:`parse_rule`
    give.  Compilers fill the columns straight from ordinals; a
    :class:`Rule` is built only when the table is indexed or iterated,
    for rule text and for callers, and ``len`` costs O(1).
    """

    __slots__ = ("alphabet", "start", "species", "need", "loss")

    def __init__(
        self,
        alphabet: Alphabet,
        start: Iterable[int],
        species: Iterable[int],
        need: Iterable[int],
        loss: Iterable[int],
    ):
        self.alphabet = alphabet
        self.start, self.species = start, species = tuple(start), tuple(species)
        self.need, self.loss = need, loss = tuple(need), tuple(loss)
        size, bound = len(species), len(alphabet.names)
        if not start or start[0] != 0 or start[-1] != size or len(need) != size or len(loss) != size:
            raise ValueError("rule table offsets and columns do not match")
        # The checks run over whole columns; a failed one then finds the
        # rule its message names.
        if not all(map(lt, start, start[1:])) or min(need, default=1) < 1:
            raise ValueError("rule needs at least one reactant with positive count")
        if size and (min(species) < 0 or max(species) >= bound):
            o = next(o for o in species if not 0 <= o < bound)
            raise ValueError(f"reactant ordinal {o} is outside the alphabet")
        # An entry not above the one before it must open a rule.
        unsorted = set(compress(count(1), map(ge, species, species[1:]))) - set(start)
        if unsorted:
            q = bisect_right(start, min(unsorted)) - 1
            raise ValueError(f"rule {q}: reactant ordinals must be sorted and distinct")
        if not all(map(le, loss, need)):
            raise ValueError("product counts must be positive")
        # Void: no loss below 0, and a positive loss in every rule.
        if min(loss, default=0) < 0:
            e = next(e for e, d in enumerate(loss) if d < 0)
            raise _not_void(self[bisect_right(start, e) - 1].text)
        lost = list(accumulate(loss, initial=0))
        lost = list(map(lost.__getitem__, start))  # lost before each rule
        if not all(map(lt, lost, lost[1:])):
            raise _not_void(self[next(q for q, (a, b) in enumerate(zip(lost, lost[1:])) if a == b)].text)

    @classmethod
    def from_rules(cls, alphabet: Alphabet, rules: Iterable[Rule]) -> RuleTable:
        """The table of ``rules``, in their order; each must be over
        ``alphabet`` and void-family."""
        start, species, need, loss = [0], [], [], []
        for rule in rules:
            if rule.alphabet is not alphabet and rule.alphabet != alphabet:
                raise ValueError(f"rule {rule.text!r} is over another alphabet")
            if not is_void_family(rule):
                raise _not_void(rule.text)
            lost = dict(rule.delta)  # void: only reactants, all below 0
            reads: dict[int, int] = {}
            for o, c in rule.reactants:
                reads[o] = reads.get(o, 0) + c
            for o, c in sorted(reads.items()):
                species.append(o)
                need.append(c)
                loss.append(-lost.get(o, 0))
            start.append(len(species))
        return cls(alphabet, start, species, need, loss)

    def _rule(self, q: int) -> Rule:
        i, j = self.start[q], self.start[q + 1]
        species, need, loss = self.species, self.need, self.loss
        kept = tuple((species[e], need[e] - loss[e]) for e in range(i, j) if need[e] > loss[e])
        return Rule(self.alphabet, tuple(zip(species[i:j], need[i:j])), kept)

    def __len__(self) -> int:
        return len(self.start) - 1

    def __getitem__(self, q):
        picked = range(len(self))[q]
        if isinstance(picked, range):
            return tuple(map(self._rule, picked))
        return self._rule(picked)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, RuleTable)
            and self.alphabet == other.alphabet
            and self.start == other.start
            and self.species == other.species
            and self.need == other.need
            and self.loss == other.loss
        )

    def __hash__(self) -> int:
        return hash((self.start, self.species, self.need, self.loss))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RuleTable({len(self)} rules)"


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
