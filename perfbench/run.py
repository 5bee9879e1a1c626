"""stepcrn benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 40 --trace 0

Run from the root of a stepcrn checkout; the package is imported from
its ``src/`` directory.  Workloads: verify-small, dag-catalyst,
exhaustive (see BENCHMARK.json for why each was chosen).

Human-readable lines come first.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full record (seed, input digest, nproc,
Python version, per-pass times, and with tracing every span) is written
to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.  End-to-end
times are scaled by a reference computation timed during the run (see
``bench.py``); the record keeps them unscaled too.  Peak RSS comes
from ``getrusage`` on this process only; nothing machine-wide is traced.
Exit status: 0 when every check passed, 1 on a wrong decode or a failed
check, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_stepcrn() -> None:
    """Import stepcrn from this checkout's ``src``; exits when the
    package is not there."""
    if not os.path.isfile(os.path.join(SRC, "stepcrn", "__init__.py")):
        sys.exit(f"error: no stepcrn package under {SRC}; run from a stepcrn checkout")
    sys.path.insert(0, SRC)
    import stepcrn

    if not os.path.abspath(stepcrn.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: stepcrn was imported from {stepcrn.__file__}, not from {SRC}")


def _report(result: dict) -> None:
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['passes']} passes of {result['ops_per_pass']} ops "
        f"(+{result['untraced_passes']} untraced), nproc {result['nproc']}, "
        f"python {result['python']}, inputs sha256 {result['inputs_sha256'][:16]}"
    )
    print(
        f"  per pass: {result['runs_per_pass']} runs, {result['applications_per_pass']} applications, "
        f"{result['gates_per_pass']} compiled gates, {result['decided_per_pass']}/"
        f"{result['enumerations_per_pass']} enumerations decided; "
        f"{result['latency_samples_per_pass']} latency samples per pass"
    )
    print(f"  pass times (s): {' '.join(f'{w:.3f}' for w in result['pass_wall_s'])}")
    print(
        f"  reference work: median {result['reference_median_s'] * 1e3:.3f} ms over "
        f"{len(result['reference_runs_s'])} timings; end-to-end times are scaled to "
        f"{result['reference_s'] * 1e3:g} ms"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")


def main(argv=None) -> int:
    import_stepcrn()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    _report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
