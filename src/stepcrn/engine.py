"""Execution of step programs: add species, run to terminal, repeat.

Rules fire along two paths only, both over a whole program.  The
randomized maximal scheduler, :func:`run_program`, applies
uniformly-chosen applicable rules until none applies; identical
(program, input, seed) triples reproduce identical traces bit for bit.
The exhaustive enumerator, :func:`enumerate_program_terminals`, computes
the exact set of terminal configurations a program run can reach, which
is the ground truth the verifier uses to check that decoding is schedule
independent.  The tests keep an unreduced, name-level reference of both
and compare the two with it.

Every rule reads two distinct species, one copy each, and is
``A + B -> .`` or the catalytic ``A + B -> A``.  Each application then
lowers one or two counts by one and raises none, so every run
terminates.  A program holds its rules as one
:class:`~stepcrn.crn.RuleTable`, whose construction is the one rule
check and refuses any other rule; the engine checks no rule again.
Both paths read the table's columns and a few tables built from them:
neither builds a :class:`~stepcrn.crn.Rule`, the record of one table
row, except to print the rule text of a traced firing.  A firing, in a
run or in the search, reads the species it lowers from columns, the
table's or the step's renumbered copy of them, so neither path builds a
tuple per rule.

A randomized run costs time per firing, not per rule and step.  The
scheduler keeps the set of enabled rules exact, so every draw fires a
rule.  Since void rules never raise a count, only a step's additions
enable a rule.  A program adds each species at one step, so a step
checks only the rules whose last reactant it adds, and each rule is
checked once.  A firing touches only the consumers of what it lowered.
This is the dependency graph of Gibson and Bruck (J. Phys. Chem. A,
2000): after an event, touch only what it affects.  Every rule reads one
copy of each reactant, so a species drops all its consumers when it
reaches 0, and none before.

The enumerator is reduced, and the reduction keeps every terminal.  A
void rule changes only its own reactants' counts, and only downward, so
no firing enables a rule.  Two enabled rules depend only when one lowers
a species the other reads, so rules that share only a catalyst
(``dx[k]``, ``y[i]T``) commute.  Each configuration therefore fires only
one connected component of its enabled rules (an ample set), and the
interleavings of independent gates are explored once, not in every
order.  A step's search also depends only on the counts its ready rules
read (the cone of influence of the step, after Clarke, Grumberg and
Peled, *Model Checking*, 1999).  So it runs in step-local coordinates:
a state is a tuple over the species those rules read, not over the
alphabet, entries that agree on those counts share one search, and a
rule list is split into components once per step.  The state cap
bounds the states a step's searches visit, summed over its searches,
and the terminals derived from them.
"""
from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from .circuits import input_bits
from .crn import Alphabet, Configuration, RuleTable, parse_rule


class StateCapExceeded(RuntimeError):
    """Exhaustive enumeration visited more configurations than allowed.
    ``step`` is the program step whose search stopped."""

    step: int | None = None


DEFAULT_STATE_CAP = 20_000


@dataclass(frozen=True)
class Schedule:
    """The seed of one randomized maximal schedule."""

    seed: int = 0


Step = tuple[tuple[int, int], ...]
# A step's ready rules in step-local coordinates: (reads, a, b, kept);
# see _PreparedRules.local_by_step.
_StepRules = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class StepProgram:
    """A rule set, an ordered sequence of species additions and an
    input/output encoding, all by species ordinal.

    ``rules`` is one :class:`~stepcrn.crn.RuleTable`, which checked
    every rule when it was built; anything else is refused with
    :class:`TypeError`.  Indexing or iterating ``program.rules`` builds
    one :class:`~stepcrn.crn.Rule` row per rule read.

    ``steps`` holds one sparse addition per step: ``(ordinal, count)``
    pairs sorted by ordinal, each count >= 1, so a program costs memory
    in its non-zero additions, not in steps x species.
    ``inputs`` lists, in bit order, one ``(gate id, (ordinal, count),
    (ordinal, count))`` entry per input: the species merged into step 0
    for bit 0 and for bit 1; exactly one of the two is merged per run.
    ``outputs`` pairs the (0-species, 1-species) ordinals per declared
    output.  Species names appear only in the text form.

    Each species, input species included, is added at one step, so a
    rule disabled at a terminal stays disabled: the reactant it lacks
    never returns.  ``added_at[o]`` is that step for ordinal ``o`` (0
    for an input species, ``len(steps)`` when no step adds it); a
    program that adds a species at a second step is refused.
    """

    name: str
    backend: str
    alphabet: Alphabet
    rules: RuleTable
    steps: tuple[Step, ...]
    inputs: tuple[tuple[int, tuple[int, int], tuple[int, int]], ...]
    outputs: tuple[tuple[int, int], ...]
    added_at: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The name is the program file's header token.
        if self.name.split() != [self.name] or "#" in self.name:
            raise ValueError(
                f"program name must be one token without whitespace or '#', got {self.name!r}"
            )
        alphabet = self.alphabet
        if not isinstance(self.rules, RuleTable):
            raise TypeError(f"rules must be a RuleTable, got {type(self.rules).__name__}")
        if self.rules.alphabet is not alphabet and self.rules.alphabet != alphabet:
            raise ValueError("the rule table is over another alphabet")
        if self.inputs and not self.steps:
            raise ValueError("a program with inputs needs a step 0 to merge them into")
        n = len(self.alphabet)
        added_at = [len(self.steps)] * n
        gids = set()
        for gid, zero, one in self.inputs:
            if gid in gids:
                raise ValueError(f"input {gid} listed twice")
            gids.add(gid)
            for o, count in (zero, one):
                if not 0 <= o < n:
                    raise ValueError(f"input {gid}: ordinal {o} is outside the alphabet")
                if count < 1:
                    raise ValueError("input encoding counts must be >= 1")
                added_at[o] = 0
        if any(not 0 <= o < n for pair in self.outputs for o in pair):
            raise ValueError("output ordinals must be in the alphabet")
        for k, step in enumerate(self.steps):
            prev = -1
            for o, c in step:
                if not prev < o < n:
                    raise ValueError(
                        f"step {k}: species ordinals must be sorted, distinct "
                        f"and below the alphabet size {n}"
                    )
                if c < 1:
                    raise ValueError(f"step {k}: addition counts must be >= 1")
                if added_at[o] < k:
                    raise ValueError(
                        f"species {alphabet.names[o]} added at steps {added_at[o]} and {k}"
                    )
                added_at[o] = k
                prev = o
        object.__setattr__(self, "added_at", tuple(added_at))
        # The empty lists that the first run fills as _PreparedRules.watch.
        # Made with the program, they keep a first run from allocating a
        # collector-tracked object per species.
        object.__setattr__(self, "_watch", [[] for _ in added_at])

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def input_step(self, bits) -> Step:
        """The species an input assignment (any form
        :func:`~stepcrn.circuits.input_bits` takes) merges into step 0,
        as sorted (ordinal, count) pairs."""
        inputs = self.inputs
        chosen = input_bits([gid for gid, _, _ in inputs], bits)
        merge: dict[int, int] = {}
        for gid, zero, one in inputs:
            o, count = one if chosen[gid] else zero
            merge[o] = merge.get(o, 0) + count
        return tuple(sorted(merge.items()))

    @cached_property
    def _prepared(self) -> _PreparedRules:
        """Rule tables shared by every run, built on the first run."""
        return _PreparedRules(self, self._watch)

    def static_volume(self) -> int:
        """Copies added over all steps plus the input merge, at the
        larger count of each input's two bit choices."""
        total = sum(c for step in self.steps for _, c in step)
        total += sum(max(n0, n1) for _, (_, n0), (_, n1) in self.inputs)
        return total


@dataclass(frozen=True)
class RunResult:
    final: Configuration
    peak_volume: int
    applications: int
    decoded: tuple[object, ...]
    trace: tuple[str, ...] | None = None

    @property
    def ok(self) -> bool:
        return all(isinstance(b, int) for b in self.decoded)


# -- rule tables ---------------------------------------------------------------


class _PreparedRules:
    """Rule tables shared by the randomized scheduler and the exhaustive
    search, built from the program's :class:`~stepcrn.crn.RuleTable`
    without building a rule object.

    Both keep the set of enabled rules exact.  ``watch[o]`` lists the
    rules that read species ``o``; each reads one copy, so when a firing
    takes ``o`` to 0 every rule of ``watch[o]`` leaves the enabled set
    at once.  A firing in a run lowers the table's columns ``a[q]`` and
    then ``b[q]``, each unless it is ``kept[q]``; the search fires the
    same rule from its step's copy of those columns.

    Rules never raise a count, so only additions enable a rule, and a
    program adds each species at one step.  A rule is therefore checked
    at its ready step alone, the step that adds its later reactant:
    ``ready_by_step[k]`` lists those rules in rule order, and holds each
    rule at most once.

    A program's first run builds these tables in one pass of list
    appends over the rule table: one list of rule numbers per species
    and per step, and no object per rule, so that a cold run costs
    little more than a warm one.  The species' lists are ``watch``, one
    empty list per species, which the program made when it was built:
    a first run then allocates collector-tracked objects per step, not
    per species, and seldom sets off a collection.
    ``local_by_step``, which only the enumerator reads, is built on its
    first use.
    """

    def __init__(self, program: StepProgram, watch: list[list[int]]):
        added_at = program.added_at
        self.table = table = program.rules
        self.watch = watch
        never = len(program.steps)
        by_step: list[list[int]] = [[] for _ in range(never)]
        for q, x, y in zip(count(), table.a, table.b):
            watch[x].append(q)
            watch[y].append(q)
            ready = added_at[x] if added_at[x] > added_at[y] else added_at[y]
            if ready < never:  # else a reactant is never added
                by_step[ready].append(q)
        self.ready_by_step = tuple(map(tuple, by_step))

    @cached_property
    def local_by_step(self) -> tuple[_StepRules, ...]:
        """``local_by_step[k]``: the rules ready at step k in step-local
        coordinates, the exhaustive search's view of the step, as four
        tuples ``(reads, a, b, kept)``.

        ``reads`` holds the species that the step's ready rules read, in
        the order the rules first read them, and a search state holds
        one count per entry of it.  Local rule ``i`` is the step's
        ``i``-th ready rule, in rule order.  Its columns ``a[i]``,
        ``b[i]`` and ``kept[i]`` (-1 when the rule keeps neither) are
        positions in ``reads``.  Only the enumerator reads the table, so
        it is built on the enumerator's first use and a run never pays
        for it."""
        a, b, kept = self.table.a, self.table.b, self.table.kept
        steps = []
        for ready in self.ready_by_step:
            # at[o]: the position of species o, in the order the step's
            # rules first read them.  One loop of appends, as in
            # __init__, since a step readies few rules.
            at: dict[int, int] = {}
            la, lb, lk = [], [], []
            for q in ready:
                x = at.setdefault(a[q], len(at))
                y = at.setdefault(b[q], len(at))
                la.append(x)
                lb.append(y)
                keep = kept[q]
                lk.append(-1 if keep < 0 else x if keep == a[q] else y)
            steps.append((tuple(at), tuple(la), tuple(lb), tuple(lk)))
        return tuple(steps)

    def run(
        self,
        steps: Sequence[Step],
        inputs: Step,
        rng: random.Random,
        trace: list[str] | None = None,
    ) -> tuple[list[int], int, int]:
        """Run every step from the empty configuration, ``inputs`` merged
        into step 0: add the step's species, then fire uniformly-drawn
        enabled rules until none is enabled.

        ``enabled`` holds exactly the applicable rules, and ``pos[q]``
        the index of rule ``q`` in it (-1 when absent), so every draw
        fires a rule.  A step enters, as the enumerator does, with the
        applicable rules among those ready at it, in rule order: the
        previous step ended with none enabled, and no step re-adds a
        species.  A step that readies no rule fires none.  A firing
        that takes a species ``o`` to 0 swap-removes, in rule order,
        every enabled rule of ``watch[o]``.

        Each draw is ``rng.randrange(len(enabled))`` with CPython's
        rejection sampler (``Random._randbelow_with_getrandbits``)
        inlined: the same ``getrandbits`` calls, so the same rules fire
        and every per-seed trace is unchanged.  ``tests/data/traces.json``
        pins those traces.

        Appends a line per firing to ``trace`` when given, with the rule
        text of a rule object built for it.  Returns
        (final counts, peak volume, applications).
        """
        watch, ready_by_step = self.watch, self.ready_by_step
        table = self.table
        a, b, kept = table.a, table.b, table.kept
        getrandbits = rng.getrandbits
        counts = [0] * len(watch)
        pos = [-1] * len(a)
        volume = peak = apps = 0
        for k, step in enumerate(steps):
            for o, c in (step + inputs if k == 0 else step):
                counts[o] += c
                volume += c
            if volume > peak:
                peak = volume
            enabled = [q for q in ready_by_step[k] if counts[a[q]] and counts[b[q]]]
            for i, q in enumerate(enabled):
                pos[q] = i

            # Fire to a terminal.
            while enabled:
                n = len(enabled)
                width = n.bit_length()
                pick = getrandbits(width)
                while pick >= n:
                    pick = getrandbits(width)
                q = enabled[pick]
                keep = kept[q]
                # The two lowerings are written out, swap-remove and all,
                # because a loop over (a[q], b[q]) made short runs
                # measurably slower.
                o = a[q]
                if o != keep:
                    c = counts[o] - 1
                    counts[o] = c
                    volume -= 1
                    if not c:
                        for r in watch[o]:
                            i = pos[r]
                            if i >= 0:
                                tail = enabled.pop()
                                if tail != r:
                                    enabled[i] = tail
                                    pos[tail] = i
                                pos[r] = -1
                o = b[q]
                if o != keep:
                    c = counts[o] - 1
                    counts[o] = c
                    volume -= 1
                    if not c:
                        for r in watch[o]:
                            i = pos[r]
                            if i >= 0:
                                tail = enabled.pop()
                                if tail != r:
                                    enabled[i] = tail
                                    pos[tail] = i
                                pos[r] = -1
                apps += 1
                if trace is not None:
                    trace.append(f"step={k} rule={table[q].text} volume={volume}")
        return counts, peak, apps


# -- public operations ---------------------------------------------------------


def run_program(
    program: StepProgram,
    bits,
    sched: Schedule = Schedule(),
    *,
    trace: bool = False,
) -> RunResult:
    """Execute every step of the program and decode the final terminal.

    The terminal after step k is the final terminal of the same program
    cut after step k, under the same schedule.
    """
    inputs = program.input_step(bits)
    trace_lines: list[str] | None = [] if trace else None
    counts, peak, apps = program._prepared.run(
        program.steps, inputs, random.Random(sched.seed), trace_lines
    )
    final = Configuration(program.alphabet, tuple(counts))
    return RunResult(
        final=final,
        peak_volume=peak,
        applications=apps,
        decoded=tuple(decode_output(final, program)),
        trace=tuple(trace_lines) if trace_lines is not None else None,
    )


def decode_output(config: Configuration, program: StepProgram) -> list[object]:
    """Decode each declared output from a terminal configuration.

    An output decodes to 1 when its 1-species is present and its
    0-species absent (0 symmetric); otherwise the entry is the string
    ``"ambiguous"`` or ``"missing"``.  The configuration must be over
    the program's alphabet, since outputs are read by ordinal.
    """
    if config.alphabet != program.alphabet:
        raise ValueError("configuration is over another alphabet than the program")
    counts = config.counts
    out: list[object] = []
    for zero, one in program.outputs:
        c0 = counts[zero]
        c1 = counts[one]
        if c1 >= 1 and c0 == 0:
            out.append(1)
        elif c0 >= 1 and c1 == 0:
            out.append(0)
        elif c0 and c1:
            out.append("ambiguous")
        else:
            out.append("missing")
    return out


# -- exhaustive enumeration ------------------------------------------------------


def _search_terminals(
    entry: tuple[int, ...],
    rules: _StepRules,
    limit: int,
    splits: dict[tuple[int, ...], list[list[int]]],
) -> tuple[set[tuple[int, ...]], int]:
    """Every terminal reachable from ``entry`` under the step's ready
    rules.  A state, ``entry`` and every terminal included, is a tuple
    over the step's read species: ``state[j]`` counts species
    ``reads[j]`` of ``rules``, the step's entry of
    :attr:`_PreparedRules.local_by_step`, whose local rules are the
    rules searched.  The counts of every other species stay as
    the entry has them, since no ready rule reads or lowers them.

    Each stack entry carries its state and its enabled rules, split into
    connected components: two rules connect when they share a reactant
    species that some enabled rule lowers (see :func:`_components`).  No
    firing enables a rule, so a successor's enabled rules are its
    parent's minus the readers of each species the firing took to 0.
    Those read a species the fired rule lowers, so they share its
    component, and only it is split again, keeping the rules whose two
    reactants the successor still holds; no rule of another component
    lowers a species it reads.  The other components stay closed under
    the relation, if coarser than it requires.  The split of the
    surviving rules is a function of that rule list alone, so ``splits``
    keeps each split the step has made, keyed by the rule tuple, and a
    repeated list is not split again.  A firing reads what it lowers
    from the step's columns, written out as :meth:`_PreparedRules.run`
    writes them: a loop was slower.

    Each state fires only the rules of its smallest component (an ample
    set; Valmari 1990, Godefroid 1996).  This keeps every terminal:

    - A firing lowers only its own rule's reactants, and never raises
      a count.
    - So a rule outside a component lowers no species that a component
      rule reads, and a component rule lowers none that an outside rule
      reads.
    - Every component rule therefore stays enabled until a component
      rule fires, and every path to a terminal fires one.
    - The first such firing leaves the outside firings before it
      enabled, so it commutes past them to the front of the path,
      which reaches the same terminal.
    - Volume strictly drops, so the state graph is acyclic and needs no
      cycle proviso.

    The search holds the states it visits, ``entry`` included, in a set
    of its own, and returns its terminals with the number of states it
    visited.  ``entry`` joins the set unchecked; the search raises
    :class:`StateCapExceeded` once a state it adds takes that number
    past ``limit``, the room that the step's state cap leaves it.
    """
    _, a, b, kept = rules
    terminals: set[tuple[int, ...]] = set()
    seen = {entry}
    enabled = [q for q, x, y in zip(count(), a, b) if entry[x] and entry[y]]
    stack = [(entry, _components(enabled, rules))]
    while stack:
        cur, components = stack.pop()
        if not components:
            terminals.add(cur)
            continue
        ample = min(components, key=len)
        rest = [c for c in components if c is not ample]
        for q in ample:
            nxt = list(cur)
            emptied = False
            keep = kept[q]
            o = a[q]
            if o != keep:
                c = nxt[o] - 1
                nxt[o] = c
                emptied = not c
            o = b[q]
            if o != keep:
                c = nxt[o] - 1
                nxt[o] = c
                emptied = emptied or not c
            key = tuple(nxt)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > limit:
                raise StateCapExceeded
            if emptied:
                left = [r for r in ample if nxt[a[r]] and nxt[b[r]]]
                if len(left) < 2:
                    split = _components(left, rules)
                else:
                    survivors = tuple(left)
                    split = splits.get(survivors)
                    if split is None:
                        split = splits[survivors] = _components(left, rules)
                stack.append((key, rest + split))
            else:
                stack.append((key, components))
    return terminals, len(seen)


def _components(enabled: list[int], rules: _StepRules) -> list[list[int]]:
    """``enabled``, local rules of one step, split into connected
    components: two rules connect when they share a reactant species
    that some enabled rule lowers, so a catalyst that none of them
    deletes joins nothing."""
    if len(enabled) < 2:
        return [enabled] if enabled else []
    _, a, b, kept = rules
    # users[o]: the enabled rules reading o, for each species o that an
    # enabled rule lowers.
    users: dict[int, list[int]] = {o: [] for q in enabled for o in (a[q], b[q]) if o != kept[q]}
    for q in enabled:
        for o in (a[q], b[q]):
            if o in users:
                users[o].append(q)
    components = []
    seen: set[int] = set()
    for q in enabled:
        if q in seen:
            continue
        seen.add(q)
        component = [q]
        for p in component:  # grows as the walk reaches new rules
            for o in (a[p], b[p]):
                for r in users.get(o, ()):
                    if r not in seen:
                        seen.add(r)
                        component.append(r)
        components.append(component)
    return components


def enumerate_program_terminals(
    program: StepProgram,
    bits,
    state_cap: int = DEFAULT_STATE_CAP,
) -> set[Configuration]:
    """Exact set of final terminal configurations over all schedules.

    The library's one exhaustive search.  It lifts
    :func:`_search_terminals` over the step sequence: every terminal of
    step k, combined with step k+1's additions, seeds the next
    exploration.  Those entries check only the rules step k+1 is
    ready for: a rule disabled at a terminal revives only through an
    addition, and no step adds a species an earlier step added.

    A step searches in step-local coordinates, once per distinct read
    state.  ``reads``, the first entry of ``local_by_step[k]``, holds the
    species that its ready rules read.  Its entries are grouped by
    their counts on those species, and one search runs from that read
    state alone, over tuples of ``len(reads)`` counts.  Each local
    terminal is written back into every member of the group, each with
    the member's own counts outside those species.  This keeps every
    terminal:

    - Only rules ready at step k can fire in it, and each reads only
      species of ``reads``.
    - A firing lowers only its own rule's reactants.
    - So which rules are enabled, what a firing changes, and hence every
      path and terminal from an entry depend only on its counts on those
      species; the others ride along unchanged.

    Each search counts the states it visits, its read state included,
    and each other member of its group counts the terminals derived for
    it.  ``held``, the step's sum of these counts, is never below the
    number of distinct configurations the step holds, and never above
    what a search of each entry would visit: a configuration that two
    searches both reach counts once per search.  Once ``held`` passes
    ``state_cap``, the step raises :class:`StateCapExceeded`, with that
    step as its ``step``, and a search stops as soon as its own states
    take ``held`` past the cap.
    """
    inputs = program.input_step(bits)
    local_by_step = program._prepared.local_by_step
    n = len(program.alphabet)

    frontier: set[tuple[int, ...]] = {(0,) * n}
    for k, step in enumerate(program.steps):
        add = step + inputs if k == 0 else step
        entries: list[tuple[int, ...]] = []
        for term in frontier:
            entry = list(term)
            for o, c in add:
                entry[o] += c
            entries.append(tuple(entry))
        rules = local_by_step[k]
        reads = rules[0]
        if len(entries) == 1:
            groups = {tuple(map(entries[0].__getitem__, reads)): entries}
        else:
            groups = {}
            for entry in entries:
                groups.setdefault(tuple(map(entry.__getitem__, reads)), []).append(entry)
        splits: dict[tuple[int, ...], list[list[int]]] = {}
        held = 0
        frontier = set()
        try:
            for local, group in groups.items():
                found, visited = _search_terminals(local, rules, state_cap - held, splits)
                # Every other member's terminals are derived from found.
                held += visited + (len(group) - 1) * len(found)
                if held > state_cap:
                    raise StateCapExceeded
                if local in found:  # no rule is enabled: each entry is terminal
                    frontier.update(group)
                    continue
                for term in found:
                    changed = [(o, c) for o, c, was in zip(reads, term, local) if c != was]
                    for member in group:
                        derived = list(member)
                        for o, c in changed:
                            derived[o] = c
                        frontier.add(tuple(derived))
        except StateCapExceeded as e:
            e.step, e.args = k, (f"step {k}: more than {state_cap} configurations reachable",)
            raise
    return {Configuration(program.alphabet, t) for t in frontier}


# -- serialization ----------------------------------------------------------------


def program_to_text(program: StepProgram) -> str:
    lines = [f"program {program.name}", f"backend: {program.backend}"]
    lines.append("alphabet: " + " ".join(program.alphabet.names))
    lines.append("rules:")
    lines.extend(r.text for r in program.rules)
    lines.append("steps:")
    names = program.alphabet.names
    for k, step in enumerate(program.steps):
        parts = ", ".join(f"{names[o]}={c}" for o, c in step)
        lines.append(f"step {k}: {parts}")
    lines.append("inputs:")
    for gid, (o0, n0), (o1, n1) in program.inputs:
        lines.append(f"{gid} 0={names[o0]}:{n0} 1={names[o1]}:{n1}")
    lines.append("outputs:")
    for j, (o0, o1) in enumerate(program.outputs):
        lines.append(f"{j} 0={names[o0]} 1={names[o1]}")
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> StepProgram:
    """Parse the text form :func:`program_to_text` writes.  A malformed
    line raises :class:`ValueError` naming its 1-based line number."""
    name = "program"
    backend = "unknown"
    alphabet: Alphabet | None = None
    # The rule table's columns, one entry per rule line.
    a, b, kept = [], [], []
    steps: list[Step] = []
    inputs: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    declared: set[int] = set()
    outputs: list[tuple[int, int]] = []
    section = None

    def species(sp: str) -> int:
        if sp not in alphabet.index:
            raise ValueError(f"unknown species {sp!r}")
        return alphabet.index[sp]

    def integer(token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"{what} {token!r} is not an integer") from None

    def count(token: str) -> int:
        c = integer(token, "count")
        if c < 1:
            raise ValueError(f"count {c} is not positive")
        return c

    def counted(entry: str, sep: str) -> tuple[int, int]:
        # A step's name=count or an input's name:count entry.
        sp, found, cnt = entry.rpartition(sep)
        if not found:
            raise ValueError(f"entry {entry!r} has no {sep}count")
        return species(sp), count(cnt)

    def by_bit(parts: list[str], what: str) -> dict[str, str]:
        entries = dict(part.partition("=")[::2] for part in parts)
        if len(parts) != 2 or set(entries) != {"0", "1"}:
            raise ValueError(f"{what} needs one 0= and one 1= entry")
        return entries

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("rules:", "steps:", "inputs:", "outputs:"):
            section = line[:-1]
            continue
        try:
            # The header precedes every section, so no section's line,
            # whatever species it names, reads as a header line.
            if section is None and line.startswith("program "):
                name = line.split(None, 1)[1]
                continue
            if section is None and line.startswith("backend:"):
                backend = line.split(":", 1)[1].strip()
                continue
            if section is None and line.startswith("alphabet:"):
                if alphabet is not None:
                    raise ValueError("alphabet declared twice")
                alphabet = Alphabet(line.split(":", 1)[1].split())
                continue
            if alphabet is None:
                raise ValueError("program file must declare its alphabet first")
            if section == "rules":
                rule = parse_rule(line, alphabet)
                a.append(rule.a)
                b.append(rule.b)
                kept.append(rule.kept)
            elif section == "steps":
                head, _, rest = line.partition(":")
                words = head.split()
                if len(words) != 2 or words[0] != "step":
                    raise ValueError("not a step line")
                k = integer(words[1], "step index")
                if k != len(steps):
                    raise ValueError(f"step {k} out of order")
                acc: dict[int, int] = {}
                rest = rest.strip()
                if rest:
                    for item in rest.split(","):
                        o, c = counted(item.strip(), "=")
                        if o in acc:
                            raise ValueError(f"species {alphabet.names[o]!r} listed twice in one step")
                        acc[o] = c
                steps.append(tuple(sorted(acc.items())))
            elif section == "inputs":
                parts = line.split()
                gid = integer(parts[0], "input id")
                if gid in declared:
                    raise ValueError(f"input {gid} declared twice")
                declared.add(gid)
                enc = {}
                for bit, entry in by_bit(parts[1:], f"input {gid}").items():
                    enc[bit] = counted(entry, ":")
                inputs.append((gid, enc["0"], enc["1"]))
            elif section == "outputs":
                parts = line.split()
                if parts[0] != str(len(outputs)):
                    raise ValueError(f"output {parts[0]} out of order")
                pair = by_bit(parts[1:], f"output {parts[0]}")
                outputs.append((species(pair["0"]), species(pair["1"])))
            else:
                raise ValueError("line outside any section")
        except (KeyError, IndexError, ValueError) as e:
            raise ValueError(f"line {lineno}: {e.args[0] if e.args else e}: {line!r}") from None
    if alphabet is None:
        raise ValueError("program file has no alphabet")
    return StepProgram(
        name=name,
        backend=backend,
        alphabet=alphabet,
        rules=RuleTable(alphabet, a, b, kept),
        steps=tuple(steps),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )
