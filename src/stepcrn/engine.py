"""Execution of step programs: add species, run to terminal, repeat.

Two schedulers are provided.  The randomized maximal scheduler applies
uniformly-chosen applicable rules until none applies; identical
(program, input, seed) triples reproduce identical traces bit for bit.
The exhaustive enumerator computes the exact set of terminal
configurations reachable from a configuration (and, lifted over steps,
of a whole program run), which is the ground truth the verifier uses to
check that decoding is schedule independent.

Every rule must be void-family: it lowers some count and raises none.
Each application then strictly shrinks the volume, so every run
terminates; programs, ``run_step`` and ``enumerate_terminals`` reject
any other rule.

The enumerator is reduced, and the reduction keeps every terminal.  A
void rule changes only its own reactants' counts, and only downward, so
no firing enables a rule and two enabled rules that share no reactant
species commute.  Each configuration therefore fires only one connected
component of its enabled rules (an ample set), and the interleavings of
independent gates are explored once, not in every order.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .circuits import input_bits
from .crn import (
    Alphabet,
    Configuration,
    Rule,
    is_void_family,
    parse_rule,
)


class StateCapExceeded(RuntimeError):
    """Exhaustive enumeration visited more configurations than allowed."""


DEFAULT_STATE_CAP = 2_000_000

RANDOM_MAXIMAL = "random-maximal"


@dataclass(frozen=True)
class Schedule:
    seed: int = 0
    policy: str = RANDOM_MAXIMAL

    def __post_init__(self):
        if self.policy != RANDOM_MAXIMAL:
            raise ValueError(f"unknown schedule policy {self.policy!r}")


Step = tuple[tuple[int, int], ...]


def _check_void(rule: Rule) -> None:
    if not is_void_family(rule):
        raise ValueError(
            f"rule {rule.text!r} is not void: it must lower some count and raise none"
        )


@dataclass(frozen=True)
class StepProgram:
    """A rule set plus an ordered sequence of species additions.

    ``steps`` holds one sparse addition per step: ``(ordinal, count)``
    pairs sorted by ordinal, each count >= 1, so a program costs memory
    in its non-zero additions, not in steps x species.
    ``input_encoding`` maps an input id to the (species, count) merged
    into step 0 for bit 0 and bit 1; exactly one of the two is merged
    per run.  ``output_decoding`` pairs (species-for-0, species-for-1)
    per declared output.
    """

    name: str
    backend: str
    alphabet: Alphabet
    rules: tuple[Rule, ...]
    steps: tuple[Step, ...]
    input_order: tuple[int, ...]
    input_encoding: dict[int, tuple[tuple[str, int], tuple[str, int]]]
    output_decoding: tuple[tuple[str, str], ...]
    # Rule tables shared by every run, built on the first run.
    _prepared: _PreparedRules | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for rule in self.rules:
            _check_void(rule)
        n = len(self.alphabet)
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
                prev = o
        for pair in self.input_encoding.values():
            for name, count in pair:
                self._known(name)
                if count < 1:
                    raise ValueError("input encoding counts must be >= 1")
        for zero, one in self.output_decoding:
            self._known(zero)
            self._known(one)

    def _known(self, name: str) -> None:
        if name not in self.alphabet.index:
            raise ValueError(f"species {name!r} not in alphabet")

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def input_step(self, bits) -> Step:
        """The species an input assignment (any form
        :func:`~stepcrn.circuits.input_bits` takes) merges into step 0,
        as sorted (ordinal, count) pairs."""
        chosen = input_bits(self.input_order, bits)
        merge: dict[int, int] = {}
        for gid in self.input_order:
            name, count = self.input_encoding[gid][chosen[gid]]
            o = self.alphabet.ordinal(name)
            merge[o] = merge.get(o, 0) + count
        return tuple(sorted(merge.items()))

    def input_species(self) -> frozenset[int]:
        """The ordinals either bit choice of any input may add at step 0."""
        return frozenset(
            self.alphabet.ordinal(name)
            for pair in self.input_encoding.values()
            for name, _ in pair
        )

    def static_volume(self) -> int:
        """Copies added over all steps plus the input merge, at the
        larger count of each input's two bit choices."""
        total = sum(c for step in self.steps for _, c in step)
        total += sum(max(n0, n1) for (_, n0), (_, n1) in self.input_encoding.values())
        return total


@dataclass(frozen=True)
class RunResult:
    final: Configuration
    per_step_terminal: tuple[Configuration, ...]  # empty unless requested
    peak_volume: int
    step_count: int
    applications: int
    decoded: tuple[object, ...]
    trace: tuple[str, ...] | None = None

    @property
    def ok(self) -> bool:
        return all(isinstance(b, int) for b in self.decoded)


# -- rule tables ---------------------------------------------------------------


class _PreparedRules:
    """Rule tables shared by the randomized scheduler and the exhaustive
    search.

    Both keep the set of enabled rules exact:
    ``watch[o]`` lists the rules that consume species ``o`` and
    ``needs[o]`` how many copies each needs, so when a firing lowers
    ``o`` below a rule's need that rule leaves the enabled set at once.
    Void rules never raise a count, so only additions can enable a rule;
    ``candidates_by_step[k]`` lists the rules that can become enabled
    when step ``k``'s additions arrive.  Programs keep these tables for
    their lifetime, so they hold flat tuples of shared objects.
    """

    def __init__(self, rules: Sequence[Rule], n_species: int, step_species=()):
        self.rules = rules = tuple(rules)
        self.delta = tuple(r.delta for r in rules)
        watch: dict[int, list[int]] = {}
        needs: dict[int, list[int]] = {}
        for q, r in enumerate(rules):
            for o, need in r.reactants:
                watch.setdefault(o, []).append(q)
                needs.setdefault(o, []).append(need)
        self.watch = tuple(tuple(watch.get(o, ())) for o in range(n_species))
        self.needs = tuple(tuple(needs.get(o, ())) for o in range(n_species))
        self.max_need = tuple(max(w, default=0) for w in self.needs)
        # Applicability checks read a rule's first and last reactant
        # inline; the rare rule with more than two reactant species is
        # checked whole.
        self.first = tuple(r.reactants[0] for r in rules)
        self.last = tuple(r.reactants[-1] for r in rules)
        self.wide = frozenset(q for q, r in enumerate(rules) if len(r.reactants) > 2)

        # ``step_species[k]`` holds the ordinals step k may add.  A rule
        # can first fire once every reactant has been added and — its
        # applicability only falling between additions — can only revive
        # at a step that re-adds one of its reactants.  Rules with an
        # unaddable reactant never fire.
        adds: dict[int, list[int]] = {}
        for k, ordinals in enumerate(step_species):
            for o in ordinals:
                adds.setdefault(o, []).append(k)
        by_step: list[list[int]] = [[] for _ in step_species]
        for q, r in enumerate(rules):
            reactant_adds = [adds.get(o) for o, _ in r.reactants]
            if not all(reactant_adds):
                continue
            ready = max(s[0] for s in reactant_adds)
            entries = {ready}
            for s in reactant_adds:
                entries.update(s[bisect_right(s, ready):])
            for k in entries:
                by_step[k].append(q)
        self.candidates_by_step = tuple(map(tuple, by_step))

    def applicable(self, counts: Sequence[int], candidates: Iterable[int]) -> list[int]:
        """The rules among ``candidates`` whose reactants ``counts``
        covers, in candidate order."""
        first, last, wide, rules = self.first, self.last, self.wide, self.rules
        out = []
        for q in candidates:
            a, na = first[q]
            b, nb = last[q]
            if counts[a] >= na and counts[b] >= nb and (
                q not in wide or all(counts[o] >= c for o, c in rules[q].reactants)
            ):
                out.append(q)
        return out

    def enter(self, counts: list[int], enabled: list[int], pos: list[int], candidates) -> None:
        """Enable every applicable rule among ``candidates``; ``enabled``
        must be empty, as it is at every terminal."""
        enabled += self.applicable(counts, candidates)
        for i, q in enumerate(enabled):
            pos[q] = i

    def run_to_terminal(
        self,
        counts: list[int],
        enabled: list[int],
        pos: list[int],
        rng: random.Random,
        volume: int,
        trace: list[str] | None = None,
        step_no: int = 0,
    ) -> tuple[int, int]:
        """Fire uniformly-drawn enabled void rules until none is enabled.

        ``enabled`` must hold exactly the applicable rules, with
        ``pos[q]`` the index of rule ``q`` in it (-1 when absent); every
        draw fires a rule, and a rule is swap-removed the moment one of
        its reactants drops below its need.  Mutates ``counts``,
        ``enabled`` and ``pos``.  Returns (applications, volume).
        """
        delta, watch, needs, max_need = self.delta, self.watch, self.needs, self.max_need
        randrange = rng.randrange
        apps = 0
        while enabled:
            q = enabled[randrange(len(enabled))]
            for o, d in delta[q]:
                c = counts[o] + d
                counts[o] = c
                volume += d
                if c < max_need[o]:
                    for r, need in zip(watch[o], needs[o]):
                        if c < need and pos[r] >= 0:
                            i = pos[r]
                            last = enabled.pop()
                            if last != r:
                                enabled[i] = last
                                pos[last] = i
                            pos[r] = -1
            apps += 1
            if trace is not None:
                trace.append(f"step={step_no} rule={self.rules[q].text} volume={volume}")
        return apps, volume


def _prepared(program: StepProgram) -> _PreparedRules:
    prep = program._prepared
    if prep is None:
        step_species = [[o for o, _ in step] for step in program.steps]
        if step_species:
            step_species[0] += program.input_species()
        prep = _PreparedRules(program.rules, len(program.alphabet), step_species)
        object.__setattr__(program, "_prepared", prep)
    return prep


# -- public operations ---------------------------------------------------------


def run_step(
    config: Configuration,
    additions: Mapping[str, int] | Configuration,
    rules: Iterable[Rule],
    sched: Schedule = Schedule(),
) -> Configuration:
    """Add species to a configuration, then run void rules to a terminal."""
    rules = tuple(rules)
    for rule in rules:
        _check_void(rule)
    counts = list(config.counts)
    if isinstance(additions, Configuration):
        add_items = enumerate(additions.counts)
    else:
        add_items = (
            (config.alphabet.ordinal(name), c) for name, c in additions.items()
        )
    for o, c in add_items:
        if c < 0:
            raise ValueError("additions must be non-negative")
        counts[o] += c
    prep = _PreparedRules(rules, len(counts))
    enabled: list[int] = []
    pos = [-1] * len(rules)
    prep.enter(counts, enabled, pos, range(len(rules)))
    prep.run_to_terminal(counts, enabled, pos, random.Random(sched.seed), sum(counts))
    return Configuration(config.alphabet, tuple(counts))


def run_program(
    program: StepProgram,
    bits,
    sched: Schedule = Schedule(),
    *,
    trace: bool = False,
    per_step_terminal: bool = False,
) -> RunResult:
    """Execute every step of the program and decode the final terminal.

    With ``per_step_terminal`` the result also keeps the terminal
    configuration reached at every step; by default it keeps none.
    """
    inputs = program.input_step(bits)
    prep = _prepared(program)
    rng = random.Random(sched.seed)
    alphabet = program.alphabet
    counts = [0] * len(alphabet)
    volume = 0
    peak = 0
    apps_total = 0
    trace_lines: list[str] | None = [] if trace else None
    per_step: list[Configuration] = []
    enabled: list[int] = []
    pos = [-1] * len(prep.rules)

    for k, step in enumerate(program.steps):
        for o, c in (step + inputs if k == 0 else step):
            counts[o] += c
            volume += c
        peak = max(peak, volume)
        prep.enter(counts, enabled, pos, prep.candidates_by_step[k])
        apps, volume = prep.run_to_terminal(
            counts, enabled, pos, rng, volume, trace_lines, k
        )
        apps_total += apps
        if per_step_terminal:
            per_step.append(Configuration(alphabet, tuple(counts)))

    final = per_step[-1] if per_step else Configuration(alphabet, tuple(counts))
    return RunResult(
        final=final,
        per_step_terminal=tuple(per_step),
        peak_volume=peak,
        step_count=len(program.steps),
        applications=apps_total,
        decoded=tuple(decode_output(final, program)),
        trace=tuple(trace_lines) if trace_lines is not None else None,
    )


def decode_output(config: Configuration, program: StepProgram) -> list[object]:
    """Decode each declared output from a terminal configuration.

    An output decodes to 1 when its 1-species is present and its
    0-species absent (0 symmetric); otherwise the entry is the string
    ``"ambiguous"`` or ``"missing"``.
    """
    out: list[object] = []
    for zero, one in program.output_decoding:
        c0 = config.get(zero)
        c1 = config.get(one)
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


def enumerate_terminals(
    config: Configuration,
    rules: Iterable[Rule],
    state_cap: int = DEFAULT_STATE_CAP,
) -> set[Configuration]:
    """Exact set of terminal configurations reachable from ``config``.

    Exhaustive search over the rule-application graph with memoization
    on the configuration vector, reduced as :func:`_search_terminals`
    describes; raises :class:`StateCapExceeded` when more than
    ``state_cap`` distinct configurations are visited.  Every rule must
    be void.
    """
    rules = tuple(rules)
    for rule in rules:
        _check_void(rule)
    prep = _PreparedRules(rules, len(config.counts))
    terminals = _search_terminals({tuple(config.counts)}, range(len(rules)), prep, state_cap)
    return {Configuration(config.alphabet, t) for t in terminals}


def _search_terminals(
    entries: set[tuple[int, ...]],
    candidates: Sequence[int],
    prep: _PreparedRules,
    state_cap: int,
) -> set[tuple[int, ...]]:
    """Every terminal reachable from any of ``entries``, whose enabled
    rules all lie among ``candidates``.

    Each stack entry carries its configuration and its enabled rules,
    split into connected components: two rules connect when they share
    a reactant species.  Void rules never enable a rule, so a
    successor's enabled rules are its parent's minus those the firing
    pushed below a need.  Only the fired rule's component can lose
    rules, so only it is split again.

    Each configuration fires only the rules of its smallest component
    (an ample set; Valmari 1990, Godefroid 1996).  This keeps every
    terminal:

    - A void rule's ``delta`` touches only its own reactants, and only
      downward.
    - So the rules outside a component never change that component's
      counts.
    - Every component rule therefore stays enabled until a component
      rule fires.
    - Every path to a terminal fires one, and the first such firing
      commutes with the outside firings before it to the front of the
      path, which reaches the same terminal.
    - Volume strictly drops, so the state graph is acyclic and needs no
      cycle proviso.

    Every configuration the search visits counts toward ``state_cap``.
    """
    rules, delta = prep.rules, prep.delta
    watch, needs, max_need = prep.watch, prep.needs, prep.max_need
    terminals: set[tuple[int, ...]] = set()
    visited: set[tuple[int, ...]] = set(entries)
    stack = [(e, _components(prep.applicable(e, candidates), rules)) for e in entries]
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
                if c < max_need[o]:
                    dead += [r for r, need in zip(watch[o], needs[o]) if c < need]
            key = tuple(nxt)
            if key in visited:
                continue
            if len(visited) >= state_cap:
                raise StateCapExceeded(f"more than {state_cap} configurations reachable")
            visited.add(key)
            if dead:
                left = [r for r in ample if r not in dead]
                stack.append((key, rest + _components(left, rules)))
            else:
                stack.append((key, components))
    return terminals


def _components(enabled: list[int], rules: Sequence[Rule]) -> list[list[int]]:
    """``enabled`` split into connected components under shared
    reactant species."""
    if len(enabled) < 2:
        return [enabled] if enabled else []
    users: dict[int, list[int]] = {}
    for q in enabled:
        for o, _ in rules[q].reactants:
            users.setdefault(o, []).append(q)
    components = []
    seen: set[int] = set()
    for q in enabled:
        if q in seen:
            continue
        seen.add(q)
        component = [q]
        for p in component:  # grows as the walk reaches new rules
            for o, _ in rules[p].reactants:
                for r in users[o]:
                    if r not in seen:
                        seen.add(r)
                        component.append(r)
        components.append(component)
    return components


def enumerate_program_terminals(
    program: StepProgram,
    bits,
    state_cap: int = DEFAULT_STATE_CAP,
    entry_volume_cap: int | None = None,
) -> set[Configuration]:
    """Exact set of final terminal configurations over all schedules.

    Lifts :func:`enumerate_terminals` over the step sequence: every
    terminal of step k, combined with step k+1's additions, seeds the
    next exploration.  Those entries check only step k+1's candidate
    rules, as the scheduler's do: a rule disabled at a terminal revives
    only through an addition.  ``entry_volume_cap`` aborts (with
    :class:`StateCapExceeded`) when any step entry exceeds the cap,
    signalling the instance is too large for exhaustive mode.
    """
    inputs = program.input_step(bits)
    prep = _prepared(program)
    n = len(program.alphabet)

    frontier: set[tuple[int, ...]] = {(0,) * n}
    for k, step in enumerate(program.steps):
        add = step + inputs if k == 0 else step
        entries: set[tuple[int, ...]] = set()
        for term in frontier:
            entry = list(term)
            for o, c in add:
                entry[o] += c
            if entry_volume_cap is not None and sum(entry) > entry_volume_cap:
                raise StateCapExceeded(
                    f"step {k} entry volume {sum(entry)} exceeds cap {entry_volume_cap}"
                )
            entries.add(tuple(entry))
        frontier = _search_terminals(entries, prep.candidates_by_step[k], prep, state_cap)
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
    for gid in program.input_order:
        (sp0, n0), (sp1, n1) = program.input_encoding[gid]
        lines.append(f"{gid} 0={sp0}:{n0} 1={sp1}:{n1}")
    lines.append("outputs:")
    for j, (sp0, sp1) in enumerate(program.output_decoding):
        lines.append(f"{j} 0={sp0} 1={sp1}")
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> StepProgram:
    """Parse the text form :func:`program_to_text` writes.  A malformed
    line raises :class:`ValueError` naming its 1-based line number."""
    name = "program"
    backend = "unknown"
    alphabet: Alphabet | None = None
    rules: list[Rule] = []
    steps: list[Step] = []
    input_order: list[int] = []
    input_encoding: dict[int, tuple[tuple[str, int], tuple[str, int]]] = {}
    output_decoding: list[tuple[str, str]] = []
    section = None

    def species(sp: str) -> str:
        if sp not in alphabet.index:
            raise ValueError(f"unknown species {sp!r}")
        return sp

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
        if line.startswith("program "):
            name = line.split(None, 1)[1]
            continue
        if line.startswith("backend:"):
            backend = line.split(":", 1)[1].strip()
            continue
        if line == "rules:":
            section = "rules"
            continue
        if line == "steps:":
            section = "steps"
            continue
        if line == "inputs:":
            section = "inputs"
            continue
        if line == "outputs:":
            section = "outputs"
            continue
        if line.startswith("step ") and section in ("steps", "rules"):
            section = "steps"
        try:
            if line.startswith("alphabet:"):
                alphabet = Alphabet(line.split(":", 1)[1].split())
                continue
            if alphabet is None:
                raise ValueError("program file must declare its alphabet first")
            if section == "rules":
                rule = parse_rule(line, alphabet)
                _check_void(rule)  # here, so the error names the line
                rules.append(rule)
            elif section == "steps":
                head, _, rest = line.partition(":")
                k = int(head.split()[1])
                if k != len(steps):
                    raise ValueError(f"step {k} out of order")
                acc: dict[int, int] = {}
                rest = rest.strip()
                if rest:
                    for item in rest.split(","):
                        sp, _, cnt = item.strip().partition("=")
                        o = alphabet.ordinal(species(sp))
                        acc[o] = acc.get(o, 0) + count(cnt)
                steps.append(tuple(sorted(acc.items())))
            elif section == "inputs":
                parts = line.split()
                gid = int(parts[0])
                if gid in input_encoding:
                    raise ValueError(f"input {gid} declared twice")
                enc = {}
                for bit, entry in by_bit(parts[1:], f"input {gid}").items():
                    sp, _, cnt = entry.partition(":")
                    enc[bit] = (species(sp), count(cnt))
                input_order.append(gid)
                input_encoding[gid] = (enc["0"], enc["1"])
            elif section == "outputs":
                parts = line.split()
                pair = by_bit(parts[1:], f"output {parts[0]}")
                output_decoding.append((species(pair["0"]), species(pair["1"])))
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
        rules=tuple(rules),
        steps=tuple(steps),
        input_order=tuple(input_order),
        input_encoding=input_encoding,
        output_decoding=tuple(output_decoding),
    )
