"""Command-line front end.

Subcommands: ``compile``, ``run``, ``verify``, ``lowerbound``,
``gen-corpus``.  Exit codes: 0 success / verification passed, 1
verification counterexample or decode failure, 2 usage or input error.
Input errors are the :class:`ValueError` family (:class:`CliInputError`
and every library reader's error), reported once, by :func:`main`.
Everything is deterministic given the arguments and seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

from .circuits import Circuit, CircuitError, evaluate, parse_circuit, stats, to_netlist
from .corpus import CorpusSpec, generate_circuits
from .engine import (
    Schedule,
    StateCapExceeded,
    decode_output,
    enumerate_program_terminals,
    program_from_text,
    program_to_text,
    run_program,
)
from .lowerbound import check_demand_growth, min_copy_bounds
from .lowering import BACKENDS, compile_backend

DEFAULT_SEEDS = tuple(range(25))
DEFAULT_ALL_INPUTS_CAP = 12
DEFAULT_RANDOM_COUNT = 16


@dataclass(frozen=True)
class VerifyJob:
    circuit: Circuit
    backend: str
    random_count: int | None = None  # None: every assignment
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    exhaustive: bool = False


@dataclass
class VerifySummary:
    circuit: str
    backend: str
    assignments: int = 0
    runs: int = 0
    passed: int = 0
    failed: int = 0
    exhaustive_checked: int = 0
    exhaustive_skipped: int = 0
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        """Passed: at least one run, no run or terminal failed, and at
        least one exhaustive check decided if any was skipped."""
        decided = self.exhaustive_checked > 0 or self.exhaustive_skipped == 0
        return self.runs > 0 and self.failed == 0 and decided

    def to_json_obj(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "counterexample"}
        out["ok"] = self.ok
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


def _assignments(job: VerifyJob) -> list[tuple[int, ...]]:
    """Every assignment, or ``random_count`` distinct ones drawn from the
    first seed; a count that covers every assignment means every one."""
    n = len(job.circuit.input_ids)
    count = job.random_count
    if count is None or count >= 1 << n:
        if count is None and n > DEFAULT_ALL_INPUTS_CAP:
            raise CircuitError(
                f"{n} inputs exceed the all-assignments cap {DEFAULT_ALL_INPUTS_CAP}; "
                "use random mode"
            )
        return [tuple((i >> k) & 1 for k in range(n)) for i in range(1 << n)]
    rng_bits = random.Random(job.seeds[0] if job.seeds else 0)
    drawn: dict[tuple[int, ...], None] = {}
    while len(drawn) < count:
        drawn[tuple(rng_bits.randint(0, 1) for _ in range(n))] = None
    return list(drawn)


def _verify_chunk(
    job: VerifyJob, chunk: list[tuple[int, tuple[int, ...]]]
) -> tuple[VerifySummary, tuple[int, int] | None]:
    """Reference evaluation vs decoded runs (and, optionally, vs every
    exhaustively-reachable terminal) over ``(index, bits)`` assignments
    and every seed.

    Returns the summary and the (assignment index, position) of its
    counterexample, the first failure in assignment order: runs in seed
    order come before the exhaustive check.
    """
    program, _ = compile_backend(job.circuit, job.backend)
    summary = VerifySummary(circuit=job.circuit.name, backend=job.backend)
    first = None

    def fail(index, position, bits, seed, want, decoded, terminal) -> None:
        nonlocal first
        summary.failed += 1
        if first is None:
            first = (index, position)
            summary.counterexample = {
                "circuit": job.circuit.name,
                "input": "".join(map(str, bits)),
                "seed": seed,
                "expected": list(want),
                "decoded": list(decoded),
                "terminal": terminal.as_dict(),
            }

    for index, bits in chunk:
        summary.assignments += 1
        want = tuple(evaluate(job.circuit, bits))
        for position, seed in enumerate(job.seeds):
            summary.runs += 1
            result = run_program(program, bits, Schedule(seed))
            if result.decoded == want:
                summary.passed += 1
            else:
                fail(index, position, bits, seed, want, result.decoded, result.final)
        if job.exhaustive:
            try:
                terminals = enumerate_program_terminals(program, bits)
            except StateCapExceeded:
                summary.exhaustive_skipped += 1
            else:
                summary.exhaustive_checked += 1
                for term in sorted(terminals, key=lambda t: t.counts):
                    decoded = tuple(decode_output(term, program))
                    if decoded != want:
                        fail(index, len(job.seeds), bits, "exhaustive", want, decoded, term)
                        break
    return summary, first


# The counters: every summary field that starts at 0.
_COUNTS = tuple(f.name for f in fields(VerifySummary) if f.default == 0)


def _merge(job: VerifyJob, parts) -> VerifySummary:
    """Sum chunk summaries; keep the counterexample of the earliest
    failure, so the result equals verifying every chunk in one pass."""
    summary = VerifySummary(circuit=job.circuit.name, backend=job.backend)
    first = None
    for part, key in parts:
        for name in _COUNTS:
            setattr(summary, name, getattr(summary, name) + getattr(part, name))
        if key is not None and (first is None or key < first):
            first, summary.counterexample = key, part.counterexample
    return summary


def verify_job(job: VerifyJob, jobs: int = 1) -> VerifySummary:
    """Verify every assignment of the job over at most ``jobs`` worker
    processes, one per non-empty chunk of assignments and none beyond
    the CPU count, or in this process when one chunk is all there is."""
    indexed = list(enumerate(_assignments(job)))
    # Each chunk starts a worker process, so no more chunks than CPUs.
    workers = min(jobs, len(indexed), os.cpu_count() or 1)
    if workers <= 1:
        return _verify_chunk(job, indexed)[0]
    chunks = [indexed[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge(job, pool.map(_verify_chunk, [job] * workers, chunks))


# -- argument helpers ---------------------------------------------------------


class CliInputError(ValueError):
    pass


def _parse_range(flag: str, text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise CliInputError(f"bad {flag} {text!r} (use lo:hi or one integer)") from None


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = tuple(range(int(lo), int(hi)))
        else:
            seeds = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliInputError(f"bad --seeds {text!r} (use lo:hi or a comma list)") from None
    if not seeds:
        raise CliInputError(f"--seeds {text!r} selects no seeds")
    return seeds


def _parse_inputs(text: str) -> int | None:
    """``--inputs``: ``all``, ``random`` or ``random:N`` with N >= 1, as
    the random count, ``None`` for ``all``."""
    if text == "all":
        return None
    mode, sep, n = text.partition(":")
    try:
        count = int(n) if sep else DEFAULT_RANDOM_COUNT
    except ValueError:
        count = 0
    if mode != "random" or count < 1:
        raise CliInputError(f"bad --inputs {text!r} (use all or random[:N], N >= 1)")
    return count


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliInputError(f"cannot open {path}: {e.strerror}") from e
    except UnicodeDecodeError:
        raise CliInputError(f"cannot read {path}: not UTF-8 text") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CliInputError(f"cannot write {path}: {e.strerror}") from e


def _makedirs(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise CliInputError(f"cannot create directory {path}: {e.strerror}") from e


# -- subcommands ----------------------------------------------------------------


def cmd_compile(args) -> int:
    program, report = compile_backend(parse_circuit(_read(args.circuit)), args.backend)
    _write(args.out, program_to_text(program))
    _write(args.report or args.out + ".report", report.to_json() if args.json else report.to_text())
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(), end="")
    if args.profile:
        for layer, seconds in report.timings.items():
            print(f"{layer} {seconds:.6f}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    program = program_from_text(_read(args.program))
    try:
        result = run_program(program, args.bits, Schedule(args.seed), trace=args.trace)
    except CircuitError as e:
        raise CliInputError(f"{e}: {args.bits!r}") from e
    if args.trace:
        for line in result.trace:
            print(line)
    if args.json:
        print(
            json.dumps(
                {
                    "output": [str(b) for b in result.decoded],
                    "peak_volume": result.peak_volume,
                    "steps": program.step_count,
                    "applications": result.applications,
                    "terminal": result.final.as_dict(),
                },
                sort_keys=True,
            )
        )
    else:
        rendered = "".join(
            str(b) if isinstance(b, int) else f"<{b}@{j}>"
            for j, b in enumerate(result.decoded)
        )
        print(f"output: {rendered}")
        print(f"peak_volume: {result.peak_volume}")
        print(f"steps: {program.step_count}")
        for j, b in enumerate(result.decoded):
            if not isinstance(b, int):
                print(f"decode error at output {j}: {b}", file=sys.stderr)
    return 0 if result.ok else 1


def cmd_verify(args) -> int:
    circuit = parse_circuit(_read(args.circuit))
    random_count = _parse_inputs(args.inputs)
    if args.jobs < 1:
        raise CliInputError(f"--jobs {args.jobs} must be >= 1")
    job = VerifyJob(
        circuit=circuit,
        backend=args.backend,
        random_count=random_count,
        seeds=_parse_seeds(args.seeds),
        exhaustive=args.exhaustive,
    )
    summary = verify_job(job, args.jobs)
    if args.json:
        print(json.dumps(summary.to_json_obj(), sort_keys=True))
    else:
        print(
            f"{summary.circuit} backend={summary.backend}: "
            f"{summary.passed}/{summary.runs} runs passed, "
            f"{summary.exhaustive_checked} exhaustive checks, "
            f"{summary.exhaustive_skipped} skipped"
        )
        if summary.counterexample:
            print("counterexample:", json.dumps(summary.counterexample, sort_keys=True))
        if summary.exhaustive_skipped and not summary.exhaustive_checked:
            print("no exhaustive check was decided: every instance exceeded the state cap")
    return 0 if summary.ok else 1


def cmd_lowerbound(args) -> int:
    rows = check_demand_growth(args.max_depth)
    bounds = min_copy_bounds(args.max_depth)
    if args.json:
        print(
            json.dumps(
                {
                    "bounds": bounds,
                    "rows": [{**asdict(r), "ok": r.ok} for r in rows],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"{'depth':>5} {'bound':>10} {'demand':>14} {'volume':>16} pass")
        for r in rows:
            print(
                f"{r.depth:>5} {r.bound:>10} {r.input_demand:>14} "
                f"{r.static_volume:>16} {'yes' if r.ok else 'NO'}"
            )
    return 0 if all(r.ok for r in rows) else 1


def cmd_gen_corpus(args) -> int:
    spec = CorpusSpec(
        count=args.count,
        seed=args.seed,
        depth=_parse_range("--depth", args.depth),
        gates=_parse_range("--gates", args.gates),
        fan_in=_parse_range("--fan-in", args.fan_in),
        fan_out=_parse_range("--fan-out", args.fan_out),
        inputs=_parse_range("--inputs", args.inputs),
        maj_fraction=args.maj_fraction,
    )
    circuits = generate_circuits(spec)
    _makedirs(args.out)
    for c in circuits:
        path = os.path.join(args.out, f"{c.name}.net")
        _write(path, to_netlist(c))
        st = stats(c)
        print(
            f"{path}: gates={st.gate_count} depth={st.depth} "
            f"fanout={st.max_fanout} width={st.width} inputs={len(c.input_ids)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepcrn",
        description="Compile threshold circuits to step programs of "
        "annihilation rules, run them, and verify the decodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a circuit to a step program")
    p.add_argument("circuit")
    p.add_argument("--backend", choices=tuple(BACKENDS), default="formula")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--profile", action="store_true", help="print per-layer compile seconds to stderr"
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run a compiled program on an input bitstring")
    p.add_argument("program")
    p.add_argument("bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check decoded runs against direct evaluation")
    p.add_argument("circuit")
    p.add_argument("--backend", choices=tuple(BACKENDS), default="formula")
    p.add_argument("--inputs", default="all", help="all or random[:N]")
    p.add_argument("--seeds", default="0:25", help="lo:hi or comma list")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lowerbound", help="demand growth of the worst-case family")
    p.add_argument("--max-depth", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("gen-corpus", help="generate random circuits")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", default="2:4")
    p.add_argument("--gates", default="4:16")
    p.add_argument("--fan-in", default="1:3")
    p.add_argument("--fan-out", default="1:3")
    p.add_argument("--inputs", default="2:6")
    p.add_argument("--maj-fraction", type=float, default=0.0)
    p.set_defaults(func=cmd_gen_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # CliInputError and every library input error
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
