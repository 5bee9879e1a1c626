"""The benchmark's workloads.

There are three: ``verify-small`` (``cli.verify_job`` over small
circuits), ``dag-catalyst`` (compile and run of large layered DAGs, plus
the lower-bound demand check) and ``exhaustive`` (the enumerator).

A workload turns its seed into inputs: a fixed list of operations that
one pass runs in order, one call at a time, in one thread.  Every call
into stepcrn goes through a module attribute (``engine.run_program(...)``),
so the traced run's rebinding reaches the benchmark's own calls as well
as those made inside ``cli.verify_job``.

Every randomized decode and every enumerated terminal is compared with
``circuits.evaluate``.  A mismatch is recorded as a failure naming the
circuit, backend, input bits and seed.
"""
from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from stepcrn import circuits, cli, corpus, engine, lowerbound, lowering

perf = time.perf_counter

# Circuit shapes of the acceptance suite: criterion 4 formulas and
# criterion 5 DAGs.  Strata are (min inputs, max inputs, count).  Like
# the acceptance suite, the corpora come from a fixed seed: their cost
# per circuit is heavy-tailed, so a corpus drawn per workload seed would
# make the seed, not the program, set the timings.  The workload seed
# picks the schedules, the randomness the decoding claim ranges over.
CORPUS_SEED = 2405_00940
FORMULA_SHAPE = dict(depth=(2, 5), gates=(3, 20), fan_in=(1, 3), fan_out=(1, 1), maj_fraction=0.35)
DAG_SHAPE = dict(depth=(2, 4), gates=(6, 18), fan_in=(1, 2), fan_out=(1, 3), maj_fraction=0.0)

# 100 jobs, so 10 lie above p90.  The strata lean to few inputs to keep
# a pass near 10 s at the CLI's 25 seeds per assignment; compile is
# then about 2% of verify_job's time, runs the rest.
VERIFY_FORMULAS = ((2, 3, 40), (4, 5, 10), (6, 6, 2))
VERIFY_DAGS = ((2, 3, 18), (4, 5, 5), (6, 6, 1))
VERIFY_SEEDS = len(cli.DEFAULT_SEEDS)  # 25, as `stepcrn verify` and the acceptance suite

# G = width * depth = 1,050 gates.  G ~ 3k is left out: one compile plus
# run of it takes about as long as a whole measured run.
DAG_WIDTH, DAG_DEPTH, DAG_SPARE = 35, 30, 2
# The first run of a program pays rule preparation and takes about
# twice as long as the next: three runs per DAG keep the median latency
# among the warm runs instead of straddling the two kinds.
DAGS_PER_PASS, RUNS_PER_DAG = 2, 3

LOWERBOUND_DEPTH = 20

EXHAUSTIVE_FORMULAS = ((2, 3, 6),)
EXHAUSTIVE_DAGS = ((2, 3, 2), (4, 4, 1))
STATE_CAP = 2_000  # no entry-volume cap

SMOKE = dict(
    VERIFY_FORMULAS=((2, 3, 3),),
    VERIFY_DAGS=((2, 3, 2),),
    DAG=(8, 6, 1),
    LOWERBOUND_DEPTH=6,
    EXHAUSTIVE_FORMULAS=((2, 3, 3),),
    EXHAUSTIVE_DAGS=((2, 3, 1),),
)


@dataclass
class Tally:
    """What one pass did, as the end-to-end metrics need it."""

    runs: int = 0
    applications: int = 0
    run_s: float = 0.0
    gates: int = 0
    compile_s: float = 0.0
    enumerations: int = 0
    decided: int = 0
    failures: list[str] = field(default_factory=list)

    def counts(self) -> tuple[int, ...]:
        return (self.runs, self.applications, self.gates, self.enumerations, self.decided)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.  A ``sample`` op is one checked
    verification (a verify job, a run, an enumerated instance); its time
    feeds verify_p50_ms and verify_p90_ms."""

    label: str
    fn: Callable[[Tally], None]
    sample: bool = True


@dataclass(frozen=True)
class Inputs:
    ops: tuple[Op, ...]
    digest: str  # sha256 of everything generated from the seed


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, bool], Inputs]
    spans: frozenset[str]  # span names the traced run must see


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _bits(n: int, i: int) -> tuple[int, ...]:
    return tuple((i >> k) & 1 for k in range(n))


def _all_bits(n: int) -> list[tuple[int, ...]]:
    return [_bits(n, i) for i in range(1 << n)]


def _where(circuit, backend, bits, seed) -> str:
    return f"circuit={circuit.name} backend={backend} bits={''.join(map(str, bits))} seed={seed}"


def _compile(t: Tally, circuit, backend: str):
    start = perf()
    program, report = lowering.compile_backend(circuit, backend)
    t.compile_s += perf() - start
    t.gates += report.normalized.gate_count
    return program


def _run(t: Tally, program, bits, seed: int):
    start = perf()
    result = engine.run_program(program, bits, engine.Schedule(seed))
    t.run_s += perf() - start
    t.runs += 1
    t.applications += result.applications
    return result


def _check(t: Tally, got, want, where: str) -> bool:
    if tuple(got) != tuple(want):
        t.failures.append(f"{where}: decoded {list(got)}, expected {list(want)}")
        return False
    return True


def _corpus(rng: random.Random, strata, shape: dict, prefix: str) -> list:
    out = []
    for k, (lo, hi, count) in enumerate(strata):
        spec = corpus.CorpusSpec(
            count=count,
            seed=rng.randrange(2**32),
            inputs=(lo, hi),
            name_prefix=f"{prefix}{k}_",
            **shape,
        )
        out += corpus.generate_circuits(spec, force_maj_every=3 if shape["maj_fraction"] else None)
    return out


def _compiled_ops(netlist: str, backend: str, instances, check: Callable, sample: bool = True) -> list[Op]:
    """An op that parses and compiles ``netlist``, then one op per
    instance, each calling ``check(tally, circuit, program, backend,
    *instance)`` on the compiled program."""
    compiled: dict = {}

    def compile_op(t: Tally) -> None:
        compiled.clear()
        circuit = circuits.parse_circuit(netlist)
        compiled["circuit"] = circuit
        compiled["program"] = _compile(t, circuit, backend)

    def instance_op(instance) -> Callable:
        def op(t: Tally) -> None:
            check(t, compiled["circuit"], compiled["program"], backend, *instance)

        return op

    name = netlist.split(None, 2)[1]
    ops = [Op(f"compile {name} {backend}", compile_op, sample=False)]
    ops += [Op(f"{name} {backend} {instance}", instance_op(instance), sample) for instance in instances]
    return ops


def _run_check(t: Tally, circuit, program, backend: str, bits, seed: int):
    """One randomized run, its decode compared with ``evaluate``.
    Returns the run's result and the expected bits."""
    result = _run(t, program, bits, seed)
    want = circuits.evaluate(circuit, bits)
    _check(t, result.decoded, want, _where(circuit, backend, bits, seed))
    return result, want


# -- verify-small ------------------------------------------------------------------


def _verify_op(netlist: str, backend: str, seeds: tuple[int, ...]) -> Callable:
    """Parse ``netlist`` and run ``cli.verify_job`` over every assignment
    and the seed range, as one `stepcrn verify` job does.  verify_job
    compares each decode with ``evaluate``; every run must pass."""

    def op(t: Tally) -> None:
        circuit = circuits.parse_circuit(netlist)
        summary = cli.verify_job(cli.VerifyJob(circuit, backend, seeds=seeds))
        want_runs = (1 << len(circuit.input_ids)) * len(seeds)
        if summary.failed or summary.runs != want_runs or summary.passed != want_runs:
            t.failures.append(
                f"circuit={circuit.name} backend={backend}: verify_job passed "
                f"{summary.passed}/{summary.runs} runs, expected {want_runs}; "
                f"counterexample {summary.counterexample}"
            )
        t.runs += summary.runs

    return op


def make_verify_small(seed: int, smoke: bool = False) -> Inputs:
    """One sampled op per (circuit, backend) job: its time is the job
    latency.  After each job, unsampled ops compile the circuit once
    more and run one fresh seed per assignment, checked here; they give
    compile_gates_per_s and run_apps_per_s, which verify_job does not
    expose, and add about 2% compile and 4% runs to the pass."""
    fixed = random.Random(CORPUS_SEED)
    formulas = _corpus(fixed, SMOKE["VERIFY_FORMULAS"] if smoke else VERIFY_FORMULAS, FORMULA_SHAPE, "f")
    dags = _corpus(fixed, SMOKE["VERIFY_DAGS"] if smoke else VERIFY_DAGS, DAG_SHAPE, "d")
    first = random.Random(seed).randrange(2**31)
    seeds = tuple(range(first, first + VERIFY_SEEDS))
    replay_seed = first + VERIFY_SEEDS
    jobs = [(c, "formula") for c in formulas] + [(c, b) for c in dags for b in ("exp", "catalyst")]
    parts, ops = [], []
    for circuit, backend in jobs:
        netlist = circuits.to_netlist(circuit)
        parts.append((netlist, backend))
        ops.append(Op(f"verify {circuit.name} {backend}", _verify_op(netlist, backend, seeds)))
        instances = [(bits, replay_seed) for bits in _all_bits(len(circuit.input_ids))]
        ops += _compiled_ops(netlist, backend, instances, _run_check, sample=False)
    return Inputs(tuple(ops), _digest((parts, seeds, replay_seed)))


# -- dag-catalyst ------------------------------------------------------------------


def layered_dag(rng: random.Random, name: str, width: int, depth: int, spare: int) -> str:
    """Netlist of a layered DAG: ``width`` inputs, then ``depth`` levels
    of ``width`` fan-in-2 AND/OR gates wired to the level below.  At every
    level but the last, exactly ``spare`` gates feed nothing; they are
    outputs along with the last level, so output alignment adds buffers
    and the size of every DAG of one shape is the same."""
    lines = [f"circuit {name}"]
    prev = list(range(1, width + 1))
    lines += [f"gate {g} INPUT" for g in prev]
    outputs: list[int] = []
    gid = width
    for level in range(depth):
        unused = set(rng.sample(prev, spare if level else 0))
        used = [p for p in prev if p not in unused]
        firsts = used + [rng.choice(used) for _ in range(width - len(used))]
        rng.shuffle(firsts)
        cur = []
        for a in firsts:
            b = rng.choice(used)
            while b == a:
                b = rng.choice(used)
            gid += 1
            lines.append(f"gate {gid} {rng.choice(('AND', 'OR'))} {a} {b}")
            cur.append(gid)
        outputs += sorted(unused)
        prev = cur
    outputs += prev
    lines.append("outputs " + " ".join(map(str, outputs)))
    return "\n".join(lines) + "\n"


def _lowerbound_op(max_depth: int) -> Callable:
    def op(t: Tally) -> None:
        rows = lowerbound.check_demand_growth(max_depth)
        bad = [r.depth for r in rows if not r.ok]
        if len(rows) != max_depth or bad:
            t.failures.append(f"check_demand_growth({max_depth}): {len(rows)} rows, below bound at {bad}")

    return op


def make_dag_catalyst(seed: int, smoke: bool = False) -> Inputs:
    """Layered DAGs of one size under ``catalyst``, drawn from a fixed
    seed like the other corpora: each is compiled once per pass, then
    run on inputs and schedules drawn from the workload seed.  Then
    ``check_demand_growth``, the other lowering-bound operation: it
    compiles the Fibonacci stage chains under ``exp`` and checks their
    big-integer demand against the bound."""
    fixed, rng = random.Random(CORPUS_SEED + 2), random.Random(seed)
    width, depth, count = SMOKE["DAG"] if smoke else (DAG_WIDTH, DAG_DEPTH, DAGS_PER_PASS)
    max_depth = SMOKE["LOWERBOUND_DEPTH"] if smoke else LOWERBOUND_DEPTH
    parts, ops = [], []
    for i in range(count):
        netlist = layered_dag(fixed, f"dag{width}x{depth}_{i}", width, depth, DAG_SPARE)
        runs = [(tuple(rng.randint(0, 1) for _ in range(width)), rng.randrange(2**31)) for _ in range(RUNS_PER_DAG)]
        parts.append((netlist, runs))
        ops += _compiled_ops(netlist, "catalyst", runs, _run_check)
    ops.append(Op(f"check_demand_growth({max_depth})", _lowerbound_op(max_depth), sample=False))
    return Inputs(tuple(ops), _digest((parts, max_depth)))


# -- exhaustive ---------------------------------------------------------------------


def _exhaustive_check(t: Tally, circuit, program, backend: str, bits, seed: int) -> None:
    """Enumerate every terminal under the state cap and check each
    decode; one randomized run must decode the same and, when the search
    finished, end in an enumerated terminal."""
    t.enumerations += 1
    try:
        terminals = engine.enumerate_program_terminals(program, bits, state_cap=STATE_CAP)
    except engine.StateCapExceeded:
        terminals = None
    result, want = _run_check(t, circuit, program, backend, bits, seed)
    if terminals is None:
        return
    t.decided += 1
    where = _where(circuit, backend, bits, seed)
    for term in terminals:
        if not _check(t, engine.decode_output(term, program), want, f"{where} (enumerated terminal)"):
            break
    if result.final.counts not in {term.counts for term in terminals}:
        t.failures.append(f"{where}: randomized terminal is not an enumerated terminal")


def make_exhaustive(seed: int, smoke: bool = False) -> Inputs:
    """Every assignment of a fixed corpus; one sampled op per
    (circuit, backend, assignment) instance, so the latencies are times
    to a verdict."""
    fixed = random.Random(CORPUS_SEED + 1)
    formulas = _corpus(fixed, SMOKE["EXHAUSTIVE_FORMULAS"] if smoke else EXHAUSTIVE_FORMULAS, FORMULA_SHAPE, "f")
    dags = _corpus(fixed, SMOKE["EXHAUSTIVE_DAGS"] if smoke else EXHAUSTIVE_DAGS, DAG_SHAPE, "d")
    rng = random.Random(seed)
    parts, ops = [], []
    for circuit, backend in [(c, "formula") for c in formulas] + [(c, b) for c in dags for b in ("exp", "catalyst")]:
        netlist = circuits.to_netlist(circuit)
        instances = [(bits, rng.randrange(2**31)) for bits in _all_bits(len(circuit.input_ids))]
        parts.append((netlist, backend, instances))
        ops += _compiled_ops(netlist, backend, instances, _exhaustive_check)
    return Inputs(tuple(ops), _digest(parts))


_COMMON = {"circuits.parse", "circuits.evaluate", "lowering.compile", "lowering.normalize", "engine.run", "engine.decode"}

WORKLOADS = {
    "verify-small": Workload(make_verify_small, frozenset(_COMMON | {"cli.verify_job"})),
    "dag-catalyst": Workload(make_dag_catalyst, frozenset(_COMMON | {"lowerbound.check"})),
    "exhaustive": Workload(make_exhaustive, frozenset(_COMMON | {"engine.enumerate"})),
}
