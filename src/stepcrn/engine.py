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

Every rule must be void: it lowers some count and raises none.  Each
application then strictly shrinks the volume, so every run terminates.
A program holds its rules as one :class:`~stepcrn.crn.RuleTable`,
whose construction is the one rule check and refuses any other rule;
the engine checks no rule again.  Both paths read flat tables built
from it: neither builds a :class:`~stepcrn.crn.Rule`, a plain record,
except to print the rule text of a traced firing.

A randomized run costs time per firing, not per rule and step.  The
scheduler keeps the set of enabled rules exact, so every draw fires a
rule.  Since void rules never raise a count, only a step's additions
enable a rule.  A program adds each species at one step, so a step
checks only the rules whose last reactant it adds, and each rule is
checked once.  A firing touches only the consumers of what it lowered.
This is the dependency graph of Gibson and Bruck (J. Phys. Chem. A,
2000): after an event, touch only what it affects.  A species whose
consumers each need one copy, as in every compiled program, drops them
all when it reaches 0, without comparing a need.

The enumerator is reduced, and the reduction keeps every terminal.  A
void rule changes only its own reactants' counts, and only downward, so
no firing enables a rule.  Two enabled rules depend only when one lowers
a species the other reads, so rules that share only a catalyst
(``dx[k]``, ``y[i]T``) commute.  Each configuration therefore fires only
one connected component of its enabled rules (an ample set), and the
interleavings of independent gates are explored once, not in every
order.  A step's search also depends only on the counts its ready rules
read, so entries that agree on those counts share one search (the cone
of influence of the step, after Clarke, Grumberg and Peled, *Model
Checking*, 1999), and a rule list is split into components once per
step.  The state cap bounds the configurations a step holds, each
counted once.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat
from operator import add

from .circuits import input_bits
from .crn import Alphabet, Configuration, RuleTable, rule_row


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


@dataclass(frozen=True)
class StepProgram:
    """A rule set, an ordered sequence of species additions and an
    input/output encoding, all by species ordinal.

    ``rules`` is one :class:`~stepcrn.crn.RuleTable`, which checked
    every rule when it was built.  Rule objects given instead are
    converted into one; indexing or iterating ``program.rules`` builds
    rule objects again, one per rule read.

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
    # Rule tables shared by every run, built on the first run.
    _prepared: _PreparedRules | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # The name is the program file's header token.
        if self.name.split() != [self.name] or "#" in self.name:
            raise ValueError(
                f"program name must be one token without whitespace or '#', got {self.name!r}"
            )
        alphabet = self.alphabet
        if not isinstance(self.rules, RuleTable):
            object.__setattr__(self, "rules", RuleTable.from_rules(alphabet, self.rules))
        elif self.rules.alphabet is not alphabet and self.rules.alphabet != alphabet:
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
    rules that consume species ``o`` and ``needs[o]`` how many copies
    each needs, so when a firing lowers ``o`` below a rule's need that
    rule leaves the enabled set at once.  ``max_need[o]`` is the largest
    of those needs: when it is 1, a count below it is 0 and every rule
    of ``watch[o]`` leaves without ``needs[o]`` being read.
    ``delta[q]`` holds rule ``q``'s (ordinal, -loss) pairs for its
    positive losses.

    Void rules never raise a count, so only additions enable a rule, and
    a program adds each species at one step.  A rule is therefore
    checked at its ready step alone, the step that adds its last
    reactant: ``ready_by_step[k]`` lists those rules in rule order, and
    holds each rule at most once.  Programs keep these tables for their
    lifetime, so they hold flat tuples.
    """

    def __init__(self, program: StepProgram):
        added_at = program.added_at
        self.table = table = program.rules
        start, species, need, loss = table.start, table.species, table.need, table.loss
        heads, ends = start[:-1], start[1:]
        tails = [j - 1 for j in ends]
        # Rules share one (o, 1) read and one ((o, -1),) delta per species,
        # so these tables allocate little beyond the rule table.
        ones = list(zip(range(len(added_at)), repeat(1)))
        solo = [((o, -1),) for o in range(len(added_at))]
        reads = [ones[o] if c == 1 else (o, c) for o, c in zip(species, need)]
        lowers = [(solo[o] if d == 1 else ((o, -d),)) if d else () for o, d in zip(species, loss)]
        # Most rules have two reactant species, and a delta joins the
        # first's and the last's lowerings; CPython gives ``t`` itself for
        # ``() + t``, so a rule that lowers one species shares its delta.
        delta = list(map(add, map(lowers.__getitem__, heads), map(lowers.__getitem__, tails)))
        odd = [q for q, i, j in zip(count(), heads, ends) if j - i != 2]
        for q in odd:
            delta[q] = sum(lowers[start[q] : ends[q]], ())
        self.delta = tuple(delta)
        # Applicability checks read a rule's first and last reactant
        # inline; the rare rule with more than two reactant species is
        # checked whole, from ``wide``.
        self.first = first = tuple(map(reads.__getitem__, heads))
        self.last = last = tuple(map(reads.__getitem__, tails))
        self.wide = wide = {
            q: tuple(reads[start[q] : ends[q]]) for q in odd if ends[q] - start[q] > 2
        }
        watch: list[list[int]] = [[] for _ in added_at]
        needs: list[list[int]] = [[] for _ in added_at]
        max_need = [0] * len(added_at)
        never = len(program.steps)
        by_step: list[list[int]] = [[] for _ in range(never)]
        for q, a, b in zip(count(), first, last):
            ready = 0
            for o, c in wide.get(q) or ((a, b) if a != b else (a,)):
                watch[o].append(q)
                needs[o].append(c)
                if c > max_need[o]:
                    max_need[o] = c
                if added_at[o] > ready:
                    ready = added_at[o]
            if ready < never:  # else a reactant is never added
                by_step[ready].append(q)
        self.ready_by_step = tuple(map(tuple, by_step))
        self.watch = tuple(map(tuple, watch))
        self.needs = tuple(map(tuple, needs))
        self.max_need = tuple(max_need)

    @cached_property
    def reads_by_step(self) -> tuple[tuple[int, ...], ...]:
        """``reads_by_step[k]``: the sorted species that the rules ready
        at step k read.  Only the enumerator reads it, so it is built on
        the enumerator's first use and a run never pays for it."""
        start, species = self.table.start, self.table.species
        return tuple(
            tuple(sorted({o for q in ready for o in species[start[q] : start[q + 1]]}))
            for ready in self.ready_by_step
        )

    def applicable(self, counts: Sequence[int], candidates: Iterable[int]) -> list[int]:
        """The rules among ``candidates`` whose reactants ``counts``
        covers, in candidate order."""
        first, last, wide = self.first, self.last, self.wide
        out = []
        for q in candidates:
            a, na = first[q]
            b, nb = last[q]
            if counts[a] >= na and counts[b] >= nb and (
                q not in wide or all(counts[o] >= c for o, c in wide[q])
            ):
                out.append(q)
        return out

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
        swap-removes, in rule order, every enabled rule it pushed below
        a need: all of ``watch[o]`` when ``max_need[o]`` is 1, else
        those whose need the new count misses.

        Each draw is ``rng.randrange(len(enabled))`` with CPython's
        rejection sampler (``Random._randbelow_with_getrandbits``)
        inlined: the same ``getrandbits`` calls, so the same rules fire
        and every per-seed trace is unchanged.  ``tests/data/traces.json``
        pins those traces.

        Appends a line per firing to ``trace`` when given, with the rule
        text of a rule object built for it.  Returns
        (final counts, peak volume, applications).
        """
        delta, watch, needs, max_need = self.delta, self.watch, self.needs, self.max_need
        table, ready_by_step = self.table, self.ready_by_step
        getrandbits = rng.getrandbits
        counts = [0] * len(watch)
        pos = [-1] * len(delta)
        volume = peak = apps = 0
        for k, step in enumerate(steps):
            for o, c in (step + inputs if k == 0 else step):
                counts[o] += c
                volume += c
            if volume > peak:
                peak = volume
            ready = ready_by_step[k]
            enabled = self.applicable(counts, ready) if ready else []
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
                for o, d in delta[q]:
                    c = counts[o] + d
                    counts[o] = c
                    volume += d
                    m = max_need[o]
                    if c < m:
                        for r in watch[o] if m == 1 else [r for r, need in zip(watch[o], needs[o]) if c < need]:
                            if pos[r] >= 0:
                                i = pos[r]
                                tail = enabled.pop()
                                if tail != r:
                                    enabled[i] = tail
                                    pos[tail] = i
                                pos[r] = -1
                apps += 1
                if trace is not None:
                    trace.append(f"step={k} rule={table[q].text} volume={volume}")
        return counts, peak, apps


def _prepared(program: StepProgram) -> _PreparedRules:
    prep = program._prepared
    if prep is None:
        prep = _PreparedRules(program)
        object.__setattr__(program, "_prepared", prep)
    return prep


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
    counts, peak, apps = _prepared(program).run(
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
    candidates: Sequence[int],
    prep: _PreparedRules,
    state_cap: int,
    visited: dict[tuple[int, ...], tuple[int, ...]],
    splits: dict[tuple[int, ...], list[list[int]]],
) -> set[tuple[int, ...]]:
    """Every terminal reachable from ``entry``, whose enabled rules all
    lie among ``candidates``.

    Each stack entry carries its configuration and its enabled rules,
    split into connected components: two rules connect when they share
    a reactant species that some enabled rule lowers (see
    :func:`_components`).  Void rules never enable a rule, so a
    successor's enabled rules are its parent's minus those the firing
    pushed below a need.  Those read a species the fired rule lowers, so
    they share its component, and only it is split again; no rule of
    another component lowers a species it reads.  The other components
    stay closed under the relation, if coarser than it requires.  A
    species whose consumers each need one copy drops all of them when it
    reaches 0, without comparing needs.  The split of the surviving
    rules is a function of that rule list alone, so ``splits`` keeps
    each split the step has made, keyed by the rule tuple, and a
    repeated list is not split again.

    Each configuration fires only the rules of its smallest component
    (an ample set; Valmari 1990, Godefroid 1996).  This keeps every
    terminal:

    - A void rule's ``delta`` touches only its own reactants, and only
      downward.
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

    ``visited`` is shared by the searches of one step, and maps each
    configuration to the entry whose search reached it.  A configuration
    an earlier search reached is explored again, since its terminals
    belong to this entry too, but it is counted once.  ``entry`` joins
    ``visited`` unchecked; the search raises :class:`StateCapExceeded`
    once a configuration it adds takes ``visited`` past ``state_cap``.
    """
    delta = prep.delta
    watch, needs, max_need = prep.watch, prep.needs, prep.max_need
    terminals: set[tuple[int, ...]] = set()
    visited[entry] = entry
    stack = [(entry, _components(prep.applicable(entry, candidates), prep))]
    while stack:
        cur, components = stack.pop()
        if not components:
            terminals.add(cur)
            continue
        ample = min(components, key=len)
        rest = [c for c in components if c is not ample]
        for q in ample:
            nxt = list(cur)
            dead: list[int] = []
            for o, d in delta[q]:
                c = nxt[o] + d
                nxt[o] = c
                m = max_need[o]
                if c < m:
                    dead += watch[o] if m == 1 else [r for r, need in zip(watch[o], needs[o]) if c < need]
            key = tuple(nxt)
            root = visited.get(key)
            if root is entry:
                continue
            visited[key] = entry
            if root is None and len(visited) > state_cap:
                raise StateCapExceeded(f"more than {state_cap} configurations reachable")
            if dead:
                left = [r for r in ample if r not in dead]
                if len(left) < 2:
                    split = _components(left, prep)
                else:
                    survivors = tuple(left)
                    split = splits.get(survivors)
                    if split is None:
                        split = splits[survivors] = _components(left, prep)
                stack.append((key, rest + split))
            else:
                stack.append((key, components))
    return terminals


def _components(enabled: list[int], prep: _PreparedRules) -> list[list[int]]:
    """``enabled`` split into connected components: two rules connect
    when they share a reactant species that some enabled rule lowers, so
    a catalyst that none of them deletes joins nothing."""
    if len(enabled) < 2:
        return [enabled] if enabled else []
    start, species, delta = prep.table.start, prep.table.species, prep.delta
    # users[o]: the enabled rules reading o, for each species o that an
    # enabled rule lowers.
    users: dict[int, list[int]] = {o: [] for q in enabled for o, _ in delta[q]}
    for q in enabled:
        for o in species[start[q] : start[q + 1]]:
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
            for o in species[start[p] : start[p + 1]]:
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

    A step searches once per distinct read state.  Its entries are
    grouped by their counts on ``reads_by_step[k]``, the species its
    ready rules read, and one entry of each group is searched.  Every
    other member reaches the same terminals, each with the member's own
    counts outside those species.  This keeps every terminal:

    - Only rules ready at step k can fire in it, and each reads only
      species of ``reads_by_step[k]``.
    - A rule's ``delta`` touches only its own reactants.
    - So which rules are enabled, what a firing changes, and hence every
      path and terminal from an entry depend only on its counts on those
      species; the others ride along unchanged.

    A step with one entry is searched as it is, without a group key.
    The searches of a step share one set of visited configurations
    (see :func:`_search_terminals`), and each terminal derived for a
    group member joins it too.  Every configuration in it is one that a
    search of each entry would reach, so it never holds more than such
    searches would visit.  Once a configuration added to it, other than
    a searched entry, takes it past ``state_cap``, the step raises
    :class:`StateCapExceeded`, with that step as its ``step``.
    """
    inputs = program.input_step(bits)
    prep = _prepared(program)
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
        if len(entries) == 1:
            reads, groups = (), (entries,)
        else:
            reads = prep.reads_by_step[k]
            by_reads: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for entry in entries:
                by_reads.setdefault(tuple([entry[o] for o in reads]), []).append(entry)
            groups = by_reads.values()
        visited: dict[tuple[int, ...], tuple[int, ...]] = {}
        splits: dict[tuple[int, ...], list[list[int]]] = {}
        frontier = set()
        try:
            for searched, *members in groups:
                found = _search_terminals(searched, prep.ready_by_step[k], prep, state_cap, visited, splits)
                frontier |= found
                if not members:
                    continue
                for term in found:
                    changed = [(o, term[o]) for o in reads if term[o] != searched[o]]
                    for member in members:
                        derived = list(member)
                        for o, c in changed:
                            derived[o] = c
                        key = tuple(derived)
                        if visited.setdefault(key, member) is member and len(visited) > state_cap:
                            raise StateCapExceeded(f"more than {state_cap} configurations reachable")
                        frontier.add(key)
        except StateCapExceeded as e:
            e.step, e.args = k, (f"step {k}: {e}",)
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
    # The rule table's columns, joined from each rule line's checked row.
    start, rule_species, need, loss = [0], [], [], []
    steps: list[Step] = []
    inputs: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    declared: set[int] = set()
    outputs: list[tuple[int, int]] = []
    section = None

    def species(sp: str) -> int:
        if sp not in alphabet.index:
            raise ValueError(f"unknown species {sp!r}")
        return alphabet.index[sp]

    def count(token: str) -> int:
        try:
            c = int(token)
        except ValueError:
            raise ValueError(f"count {token!r} is not an integer") from None
        if c < 1:
            raise ValueError(f"count {c} is not positive")
        return c

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
                row = rule_row(line, alphabet)
                rule_species += row.species
                need += row.need
                loss += row.loss
                start.append(len(rule_species))
            elif section == "steps":
                head, _, rest = line.partition(":")
                words = head.split()
                if len(words) != 2 or words[0] != "step":
                    raise ValueError("not a step line")
                k = int(words[1])
                if k != len(steps):
                    raise ValueError(f"step {k} out of order")
                acc: dict[int, int] = {}
                rest = rest.strip()
                if rest:
                    for item in rest.split(","):
                        sp, _, cnt = item.strip().rpartition("=")
                        o = species(sp)
                        if o in acc:
                            raise ValueError(f"species {sp!r} listed twice in one step")
                        acc[o] = count(cnt)
                steps.append(tuple(sorted(acc.items())))
            elif section == "inputs":
                parts = line.split()
                gid = int(parts[0])
                if gid in declared:
                    raise ValueError(f"input {gid} declared twice")
                declared.add(gid)
                enc = {}
                for bit, entry in by_bit(parts[1:], f"input {gid}").items():
                    sp, _, cnt = entry.rpartition(":")
                    enc[bit] = (species(sp), count(cnt))
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
        rules=RuleTable(alphabet, start, rule_species, need, loss),
        steps=tuple(steps),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )
