import json
import os
from pathlib import Path

import pytest

from stepcrn import CorpusSpec, cli, evaluate, parse_circuit
from stepcrn.cli import VerifyJob, VerifySummary, main, verify_job
from stepcrn.engine import StateCapExceeded

AND_NET = "circuit a\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n"
FIG_NET = (
    "circuit fig\n"
    "gate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 4 INPUT\n"
    "gate 5 AND 1 2\ngate 6 AND 3 4\ngate 7 OR 5 6\n"
    "outputs 7\n"
)


@pytest.fixture
def fig_net(tmp_path):
    path = tmp_path / "fig.net"
    path.write_text(FIG_NET)
    return str(path)


def test_compile_writes_program_and_report(fig_net, tmp_path, capsys):
    out = str(tmp_path / "fig.prog")
    assert main(["compile", fig_net, "--backend", "formula", "-o", out]) == 0
    assert os.path.exists(out) and os.path.exists(out + ".report")
    text = open(out).read()
    assert text.count("step ") == 5
    assert "backend=formula" in capsys.readouterr().out


def test_compile_exp_reports_input_multiplicity(tmp_path, capsys):
    net = tmp_path / "f2.net"
    net.write_text("circuit f2\ngate 3 INPUT\ngate 2 INPUT\ngate 1 AND 3 2\noutputs 1 1\n")
    out = str(tmp_path / "f2.prog")
    assert main(["compile", str(net), "--backend", "exp", "-o", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_input_multiplicity"] == 2


@pytest.mark.parametrize("backend", ["formula", "exp", "catalyst"])
@pytest.mark.parametrize("as_json", [False, True])
def test_compile_profile_prints_timings_and_changes_no_output(fig_net, tmp_path, capsys, backend, as_json):
    outputs = {}
    for profile in (False, True):
        out = str(tmp_path / f"fig{profile}.prog")
        argv = ["compile", fig_net, "--backend", backend, "-o", out]
        argv += ["--json"] * as_json + ["--profile"] * profile
        assert main(argv) == 0
        captured = capsys.readouterr()
        files = tuple(open(path, "rb").read() for path in (out, out + ".report"))
        outputs[profile] = (files, captured.out, captured.err)
    assert outputs[True][:2] == outputs[False][:2]
    assert outputs[False][2] == ""
    lines = [line.split() for line in outputs[True][2].splitlines()]
    assert [layer for layer, _ in lines] == ["normalize_s", "lower_s", "assemble_s"]
    assert all(float(seconds) >= 0 for _, seconds in lines)


def test_compile_missing_file_exits_2(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.net"), "-o", str(tmp_path / "x")]) == 2
    assert "cannot open" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-o", "--report"])
def test_compile_unwritable_output_exits_2(fig_net, tmp_path, capsys, flag):
    argv = ["compile", fig_net, "-o", str(tmp_path / "x.prog")]
    argv += [flag, str(tmp_path / "missing_dir" / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "missing_dir" in err


def test_compile_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("circuit x\ngate 1 FROB\noutputs 1\n")
    assert main(["compile", str(bad), "-o", str(tmp_path / "x")]) == 2
    assert "line 2" in capsys.readouterr().err


def _input_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["compile", "run", "verify"])
def test_non_utf8_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.net"
    path.write_bytes(b"circuit caf\xe9\ngate 1 INPUT\noutputs 1\n")
    argv = {
        "compile": ["compile", str(path), "-o", str(tmp_path / "x.prog")],
        "run": ["run", str(path), "1"],
        "verify": ["verify", str(path)],
    }[command]
    assert main(argv) == 2
    assert f"cannot read {path}: not UTF-8 text" in _input_error(capsys)


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_deeply_nested_json_circuit_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text('{"a":' * 100_000)
    argv = [command, str(path)] + ["-o", str(tmp_path / "x.prog")] * (command == "compile")
    assert main(argv) == 2
    assert _input_error(capsys).startswith("error: bad JSON")


def test_run_decodes_and_prints(fig_net, tmp_path, capsys):
    out = str(tmp_path / "fig.prog")
    main(["compile", fig_net, "-o", out])
    capsys.readouterr()
    assert main(["run", out, "1001"]) == 0
    printed = capsys.readouterr().out
    assert "output: 0" in printed
    assert "peak_volume:" in printed and "steps: 5" in printed


def test_run_json_prints_the_run(fig_net, tmp_path, capsys):
    out = str(tmp_path / "fig.prog")
    main(["compile", fig_net, "-o", out])
    capsys.readouterr()
    assert main(["run", out, "1001", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert sorted(result) == ["applications", "output", "peak_volume", "steps", "terminal"]
    assert result["output"] == ["0"] and result["steps"] == 5
    assert result["terminal"] == {"x[7]F": 1}


def test_run_bad_bitstring_exits_2(fig_net, tmp_path, capsys):
    out = str(tmp_path / "fig.prog")
    main(["compile", fig_net, "-o", out])
    capsys.readouterr()
    assert main(["run", out, "10"]) == 2
    assert main(["run", out, "10x1"]) == 2


def test_run_trace_lines(fig_net, tmp_path, capsys):
    out = str(tmp_path / "fig.prog")
    main(["compile", fig_net, "-o", out])
    capsys.readouterr()
    assert main(["run", out, "1001", "--trace", "--seed", "3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("step=")]
    assert lines and all("rule=" in l and "volume=" in l for l in lines)


def test_run_is_deterministic(fig_net, tmp_path, capsys):
    out = str(tmp_path / "fig.prog")
    main(["compile", fig_net, "-o", out])
    capsys.readouterr()
    main(["run", out, "1001", "--trace", "--seed", "11"])
    first = capsys.readouterr().out
    main(["run", out, "1001", "--trace", "--seed", "11"])
    assert capsys.readouterr().out == first


def test_verify_formula_all_inputs(fig_net, capsys):
    assert main(["verify", fig_net, "--backend", "formula", "--seeds", "0:5", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] and summary["runs"] == 16 * 5


def test_verify_exhaustive_small(tmp_path, capsys):
    net = tmp_path / "a.net"
    net.write_text(AND_NET)
    assert (
        main(
            ["verify", str(net), "--seeds", "0:3", "--exhaustive", "--json"]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["exhaustive_checked"] == 4 and summary["failed"] == 0


def test_corrupted_program_file_fails_with_decode_error(tmp_path, capsys):
    # negative control: deleting a rule leaves both output carriers alive
    net = tmp_path / "a.net"
    net.write_text(AND_NET)
    out = str(tmp_path / "a.prog")
    main(["compile", str(net), "-o", out])
    capsys.readouterr()
    text = open(out).read()
    corrupted = "\n".join(
        line for line in text.splitlines() if line != "y[3]T + x[3]F -> ."
    )
    assert corrupted != text
    open(out, "w").write(corrupted)
    assert main(["run", out, "11"]) == 1
    captured = capsys.readouterr()
    assert "ambiguous" in captured.out + captured.err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1 0=y[1]F:1 1=y[1]T:1", "1 0=y[1]F:1", "0= and one 1="),
        ("step 1: y[3]T=1,", "step 1: y[3]T=one,", "not an integer"),
        ("step 2: x[3]T=1", "step 2: x[9]T=1", "unknown species"),
        ("y[3]T + x[3]F -> .", "x[3]T -> x[3]T + y[3]T", "not void"),
        ("2 0=y[2]F:1 1=y[2]T:1", "1 0=y[1]F:1 1=y[1]T:1", "input 1 declared twice"),
        ("rules:", "alphabet: x[3]F\nrules:", "alphabet declared twice"),
        ("0 0=x[3]F", "zz 0=x[3]F", "output zz out of order"),
        ("0 0=x[3]F", "1 0=x[3]F", "output 1 out of order"),
    ],
)
def test_malformed_program_file_exits_2(tmp_path, capsys, old, new, message):
    net = tmp_path / "a.net"
    net.write_text(AND_NET)
    out = tmp_path / "a.prog"
    main(["compile", str(net), "-o", str(out)])
    capsys.readouterr()
    text = out.read_text()
    lineno = next(i for i, l in enumerate(text.splitlines(), 1) if l.startswith(old))
    out.write_text(text.replace(old, new))
    assert main(["run", str(out), "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {lineno}" in err and message in err


def test_program_file_with_inputs_but_no_steps_exits_2(tmp_path, capsys):
    # With no step 0 the inputs would never be merged: the run would
    # report output <missing@0> instead of naming the problem.
    prog = tmp_path / "a.prog"
    prog.write_text(
        "alphabet: A B\nrules:\nA + B -> .\ninputs:\n1 0=B:1 1=A:1\noutputs:\n0 0=B 1=A\n"
    )
    assert main(["run", str(prog), "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "step 0" in err


@pytest.mark.parametrize(
    "steps, where",
    [
        ("step 0: A=1\nstep 1: A=1\n", "species A added at steps 0 and 1"),
        ("step 0: A=1\nstep 1: B=1\n", "species B added at steps 0 and 1"),
    ],
    ids=["later-step", "input-species"],
)
def test_program_file_that_re_adds_a_species_exits_2(tmp_path, capsys, steps, where):
    # A later step re-adding a step-0 species, or adding an input
    # species, would revive rules its earlier terminal disabled.
    prog = tmp_path / "a.prog"
    prog.write_text(
        "alphabet: A B\nrules:\nA + B -> .\nsteps:\n" + steps
        + "inputs:\n1 0=B:1 1=B:1\noutputs:\n0 0=B 1=A\n"
    )
    assert main(["run", str(prog), "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err and "Traceback" not in err


@pytest.mark.parametrize("seeds", ["x", "1:y", "5:5", "3:1"])
def test_verify_bad_or_empty_seed_range_exits_2(fig_net, capsys, seeds):
    assert main(["verify", fig_net, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seeds" in err


@pytest.mark.parametrize("inputs", ["random:x", "random:0", "random5", "randomly", "random:"])
def test_verify_bad_random_input_count_exits_2(fig_net, capsys, inputs):
    assert main(["verify", fig_net, "--inputs", inputs]) == 2
    assert "--inputs" in capsys.readouterr().err


def test_verify_random_inputs_are_counted_and_repeatable(fig_net, capsys):
    argv = ["verify", fig_net, "--inputs", "random:5", "--seeds", "0:2", "--json"]
    printed = []
    for extra in ([], [], ["--jobs", "2"]):
        assert main(argv + extra) == 0
        printed.append(capsys.readouterr().out)
    summary = json.loads(printed[0])
    assert summary["assignments"] == 5 and summary["runs"] == 10
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_verify_random_inputs_are_distinct_and_capped_at_every_assignment(tmp_path, capsys):
    net = tmp_path / "a.net"
    net.write_text(AND_NET)
    assert main(["verify", str(net), "--inputs", "random", "--seeds", "0:2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["assignments"] == 4
    fig = VerifyJob(parse_circuit(FIG_NET), "formula", random_count=5, seeds=(0, 1))
    drawn = cli._assignments(fig)
    assert len(drawn) == len(set(drawn)) == 5
    # 70 inputs: more assignments than a machine integer counts.
    ids = " ".join(str(i) for i in range(1, 71))
    wide = parse_circuit(
        "circuit wide\n" + "".join(f"gate {i} INPUT\n" for i in range(1, 71))
        + f"gate 71 AND {ids}\noutputs 71\n"
    )
    drawn = cli._assignments(VerifyJob(wide, "formula", random_count=3))
    assert len(set(drawn)) == 3 and all(len(bits) == 70 for bits in drawn)


def test_verify_all_inputs_over_the_cap_exits_2(tmp_path, capsys):
    ids = " ".join(str(i) for i in range(1, 14))
    net = tmp_path / "wide.net"
    net.write_text(
        "circuit wide\n" + "".join(f"gate {i} INPUT\n" for i in range(1, 14))
        + f"gate 14 AND {ids}\noutputs 14\n"
    )
    assert main(["verify", str(net), "--inputs", "all"]) == 2
    assert "13 inputs exceed the all-assignments cap" in _input_error(capsys)


def test_verify_never_passes_with_zero_runs():
    circuit = parse_circuit(FIG_NET)
    summary = verify_job(VerifyJob(circuit, "formula", seeds=()))
    assert summary.runs == 0 and summary.failed == 0
    assert not summary.ok and summary.to_json_obj()["ok"] is False


@pytest.mark.parametrize(
    "doc",
    [
        '{"gates": [{"id": "x", "kind": "INPUT"}], "outputs": ["x"]}',
        '{"gates": [{"id": 1, "kind": "INPUT"}, {"id": 2, "kind": "NOT", "inputs": ["q"]}], '
        '"outputs": [2]}',
        # int() would truncate these to gates 1 and 2, and true to 1.
        '{"gates": [{"id": 1.7, "kind": "INPUT"}, {"id": 2, "kind": "NOT", "inputs": [1]}], '
        '"outputs": [2]}',
        '{"gates": [{"id": 1, "kind": "INPUT"}, {"id": true, "kind": "NOT", "inputs": [1]}], '
        '"outputs": [1]}',
        '{"gates": [{"id": 1, "kind": "INPUT"}, {"id": 2, "kind": "NOT", "inputs": [1]}], '
        '"outputs": [2.9]}',
    ],
)
def test_verify_non_integer_json_id_exits_2(tmp_path, capsys, doc):
    net = tmp_path / "c.json"
    net.write_text(doc)
    assert main(["verify", str(net)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad circuit JSON")
    assert "is not an integer" in err


def test_verify_detects_bad_backend_on_circuit(tmp_path, capsys):
    net = tmp_path / "c.net"
    net.write_text("circuit c\ngate 3 INPUT\ngate 2 INPUT\ngate 1 AND 3 2\noutputs 1 1\n")
    assert main(["verify", str(net), "--backend", "formula", "--seeds", "0:2"]) == 2


def test_verify_parallel_matches_serial(fig_net, capsys):
    assert main(["verify", fig_net, "--seeds", "0:3", "--jobs", "2", "--json"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert main(["verify", fig_net, "--seeds", "0:3", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert parallel == serial


def test_parallel_merge_reports_the_serial_counterexample(monkeypatch):
    # Flip the reference on assignments 1 = (1,0) and 2 = (0,1): every run
    # and the exhaustive check fail there.  Serial verification reports
    # assignment 1's seed-0 run; so must merged chunks, in any order.
    def wrong_on_two(circuit, bits):
        want = evaluate(circuit, bits)
        return [1 - b for b in want] if tuple(bits) in ((1, 0), (0, 1)) else want

    monkeypatch.setattr(cli, "evaluate", wrong_on_two)
    job = VerifyJob(parse_circuit(AND_NET), "formula", seeds=(0, 1, 2), exhaustive=True)
    serial = verify_job(job)
    assert serial.counterexample["input"] == "10" and serial.counterexample["seed"] == 0
    assert serial.failed == 8
    indexed = list(enumerate(cli._assignments(job)))
    for workers in (2, 3, 4):
        chunks = [indexed[i::workers] for i in range(workers)]
        parts = [cli._verify_chunk(job, chunk) for chunk in reversed(chunks)]
        assert cli._merge(job, parts).to_json_obj() == serial.to_json_obj()


def test_verify_text_prints_the_counterexample(monkeypatch, tmp_path, capsys):
    def wrong(circuit, bits):
        return [1 - b for b in evaluate(circuit, bits)]

    monkeypatch.setattr(cli, "evaluate", wrong)
    net = tmp_path / "a.net"
    net.write_text(AND_NET)
    assert main(["verify", str(net), "--seeds", "0:1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a backend=formula: 0/4 runs passed, 0 exhaustive checks, 0 skipped"
    counterexample = json.loads(lines[1].removeprefix("counterexample: "))
    assert counterexample["input"] == "00" and counterexample["expected"] == [1]


def test_verify_rejects_the_removed_cap_flag(fig_net, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", fig_net, "--exhaustive", "--volume-cap", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--volume-cap" in captured.err and captured.out == ""


def _every_check_capped(program, bits):
    raise StateCapExceeded("forced")


def test_verify_exhaustive_fails_when_no_check_is_decided(fig_net, capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_program_terminals", _every_check_capped)
    argv = ["verify", fig_net, "--seeds", "0:2", "--exhaustive"]
    assert main(argv + ["--json"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed"] == 0 and summary["passed"] == summary["runs"] == 32
    assert summary["exhaustive_checked"] == 0 and summary["exhaustive_skipped"] == 16
    assert summary["ok"] is False
    assert main(argv) == 1
    assert "no exhaustive check was decided" in capsys.readouterr().out


def test_undecided_exhaustive_fails_serially_and_merged(monkeypatch):
    monkeypatch.setattr(cli, "enumerate_program_terminals", _every_check_capped)
    job = VerifyJob(parse_circuit(AND_NET), "formula", seeds=(0,), exhaustive=True)
    serial = verify_job(job)
    assert serial.runs == serial.passed == 4 and serial.exhaustive_skipped == 4
    assert not serial.ok
    indexed = list(enumerate(cli._assignments(job)))
    parts = [cli._verify_chunk(job, indexed[i::2]) for i in range(2)]
    assert cli._merge(job, parts) == serial
    # One decided check anywhere is enough; skipped checks alone are not.
    skipped = VerifySummary("a", "formula", runs=2, passed=2, exhaustive_skipped=2)
    decided = VerifySummary("a", "formula", runs=2, passed=2, exhaustive_checked=1, exhaustive_skipped=1)
    assert not skipped.ok and decided.ok
    assert not cli._merge(job, [(skipped, None), (skipped, None)]).ok
    assert cli._merge(job, [(skipped, None), (decided, None)]).ok


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records the pool size and maps
    in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def test_verify_pool_is_sized_to_non_empty_chunks(monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _PoolRecorder)
    _PoolRecorder.sizes = []
    and_job = VerifyJob(parse_circuit(AND_NET), "formula", seeds=(0, 1))
    assert verify_job(and_job, 64) == verify_job(and_job)
    fig_job = VerifyJob(parse_circuit(FIG_NET), "formula", seeds=(0,))
    assert verify_job(fig_job, 3) == verify_job(fig_job)
    one = VerifyJob(parse_circuit("circuit k\ngate 1 CONST_ONE\noutputs 1\n"), "formula")
    assert verify_job(one, 8) == verify_job(one)
    assert _PoolRecorder.sizes == [4, 3]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_exits_2(fig_net, capsys, jobs):
    assert main(["verify", fig_net, "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--jobs" in err


def test_gen_corpus_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "d1")
    out2 = str(tmp_path / "d2")
    args = ["--count", "4", "--seed", "7", "--fan-out", "1:1", "--gates", "2:10"]
    assert main(["gen-corpus", "--out", out1] + args) == 0
    assert main(["gen-corpus", "--out", out2] + args) == 0
    files1 = sorted(os.listdir(out1))
    assert files1 == sorted(os.listdir(out2))
    for name in files1:
        assert open(os.path.join(out1, name)).read() == open(os.path.join(out2, name)).read()


def test_gen_corpus_contradictory_ranges(tmp_path, capsys):
    assert main(["gen-corpus", "--out", str(tmp_path / "x"), "--depth", "4:2"]) == 2
    assert main(["gen-corpus", "--out", str(tmp_path / "x"), "--depth", "x"]) == 2
    assert "--depth" in capsys.readouterr().err
    for count in ("0", "-1"):
        assert main(["gen-corpus", "--out", str(tmp_path / "x"), "--count", count]) == 2
        assert "count" in capsys.readouterr().err
        with pytest.raises(ValueError):
            CorpusSpec(count=int(count))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--depth", "--gates", "--fan-in", "--fan-out", "--inputs"])
@pytest.mark.parametrize("text", ["x", "3:"])
def test_gen_corpus_unparsable_range_names_its_flag(tmp_path, capsys, flag, text):
    assert main(["gen-corpus", "--out", str(tmp_path / "x"), flag, text]) == 2
    assert f"bad {flag} {text!r}" in _input_error(capsys)
    assert not (tmp_path / "x").exists()


def test_gen_corpus_out_is_a_file_exits_2(fig_net, capsys):
    assert main(["gen-corpus", "--out", fig_net, "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create directory")


def test_lowerbound_table(capsys):
    assert main(["lowerbound", "--max-depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "depth" in out and out.count("yes") == 6


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_lowerbound_bad_max_depth_exits_2(capsys, depth):
    assert main(["lowerbound", "--max-depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: depth must be >= 1\n"
    assert captured.out == ""


def test_lowerbound_json(capsys):
    assert main(["lowerbound", "--max-depth", "10", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bounds"][10] == 89
    assert all(r["ok"] for r in data["rows"])


def test_lowerbound_depth_20_output_is_pinned(capsys):
    # tests/data/lowerbound20.json holds the exact output for depths 1 to
    # 20, so any faster way of computing the rows must print the same.
    want = (Path(__file__).parent / "data" / "lowerbound20.json").read_text()
    assert main(["lowerbound", "--max-depth", "20", "--json"]) == 0
    assert capsys.readouterr().out == want


# One library call per subcommand, and the arguments that reach it.
_BOUNDARY_CASES = [
    ("compile_backend", lambda net, prog, out: ["compile", net, "-o", out]),
    ("run_program", lambda net, prog, out: ["run", prog, "1001"]),
    ("verify_job", lambda net, prog, out: ["verify", net]),
    ("check_demand_growth", lambda net, prog, out: ["lowerbound", "--max-depth", "2"]),
    ("generate_circuits", lambda net, prog, out: ["gen-corpus", "--out", out]),
]


@pytest.mark.parametrize("name, argv", _BOUNDARY_CASES, ids=[c[0] for c in _BOUNDARY_CASES])
@pytest.mark.parametrize("exc", [ValueError, KeyError, RuntimeError])
def test_main_reports_only_value_errors_as_input_errors(
    fig_net, tmp_path, capsys, monkeypatch, name, argv, exc
):
    prog = str(tmp_path / "fig.prog")
    assert main(["compile", fig_net, "-o", prog]) == 0
    capsys.readouterr()

    def boom(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(cli, name, boom)
    argv = argv(fig_net, prog, str(tmp_path / "out"))
    if exc is ValueError:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: boom\n" and captured.out == ""
    else:
        with pytest.raises(exc, match="boom"):
            main(argv)


# Malformed input that the readers already refuse: each case exits 2
# with exactly one error line.  ``verify`` reads the text as a circuit
# file, ``run`` as a program file, and ``gen-corpus`` takes it as flags.
_MALFORMED = [
    # netlist parser
    ("duplicate-header", "verify", "circuit a\ncircuit b\ngate 1 INPUT\noutputs 1\n",
     "line 2: duplicate circuit header"),
    ("unnamed-circuit", "verify", "circuit\ngate 1 INPUT\noutputs 1\n",
     "line 1: expected: circuit <name>"),
    ("short-gate", "verify", "circuit a\ngate 1\noutputs 1\n",
     "line 2: expected: gate <id> <KIND> [inputs...]"),
    ("empty-outputs", "verify", "circuit a\ngate 1 INPUT\noutputs\n",
     "line 3: outputs line lists no gates"),
    ("unknown-directive", "verify", "circuit a\nfrob 1\ngate 1 INPUT\noutputs 1\n",
     "line 2: unknown directive 'frob'"),
    ("missing-header", "verify", "gate 1 INPUT\noutputs 1\n", "missing circuit header"),
    ("gate-id-x", "verify", "circuit a\ngate x INPUT\noutputs 1\n",
     "line 2: expected gate id, got 'x'"),
    ("gate-id-0", "verify", "circuit a\ngate 0 INPUT\noutputs 0\n",
     "line 2: gate ids are positive, got 0"),
    # JSON circuits
    ("json-gate-id-0", "verify", '{"gates": [{"id": 0, "kind": "INPUT"}], "outputs": [0]}',
     "gate id must be positive, got 0"),
    ("json-gate-id-negative", "verify", '{"gates": [{"id": -3, "kind": "INPUT"}], "outputs": [-3]}',
     "gate id must be positive, got -3"),
    ("json-no-outputs", "verify", '{"gates": [{"id": 1, "kind": "INPUT"}], "outputs": []}',
     "circuit has no outputs"),
    ("json-truncated", "verify", '{"gates": [',
     "line 1: bad JSON: Expecting value: line 1 column 12 (char 11)"),
    ("json-empty-name", "verify", '{"name": "", "gates": [{"id": 1, "kind": "INPUT"}], "outputs": [1]}',
     "circuit name must be one token without whitespace or '#', got ''"),
    ("json-name-with-newline", "verify",
     '{"name": "x\\ny", "gates": [{"id": 1, "kind": "INPUT"}], "outputs": [1]}',
     "circuit name must be one token without whitespace or '#', got 'x\\ny'"),
    ("json-name-with-hash", "verify", '{"name": "a#b", "gates": [{"id": 1, "kind": "INPUT"}], "outputs": [1]}',
     "circuit name must be one token without whitespace or '#', got 'a#b'"),
    # netlist validation
    ("no-gates", "verify", "circuit a\noutputs 1\n", "circuit has no gates"),
    ("source-with-input", "verify", "circuit a\ngate 1 INPUT 1\noutputs 1\n",
     "gate 1: INPUT takes no inputs"),
    ("and-without-inputs", "verify", "circuit a\ngate 1 INPUT\ngate 2 AND\noutputs 2\n",
     "gate 2: AND needs fan-in >= 1"),
    ("unknown-output", "verify", "circuit a\ngate 1 INPUT\noutputs 5\n",
     "unknown output gate 5"),
    # program file
    ("step-1-first", "run", "alphabet: A B\nsteps:\nstep 1: A=1\n",
     "line 3: step 1 out of order: 'step 1: A=1'"),
    ("outside-sections", "run", "alphabet: A B\nA + B -> .\n",
     "line 2: line outside any section: 'A + B -> .'"),
    ("rule-before-alphabet", "run", "rules:\nA + B -> .\nalphabet: A B\n",
     "line 2: program file must declare its alphabet first: 'A + B -> .'"),
    ("no-alphabet", "run", "program p\nrules:\n", "program file has no alphabet"),
    ("duplicate-species", "run", "alphabet: A A\nrules:\n",
     "line 1: duplicate species 'A': 'alphabet: A A'"),
    ("zero-count", "run", "alphabet: A B\nsteps:\nstep 0: A=0\n",
     "line 3: count 0 is not positive: 'step 0: A=0'"),
    ("step-line-without-step", "run", "alphabet: A B\nsteps:\nfrob 0: A=1\n",
     "line 3: not a step line: 'frob 0: A=1'"),
    ("comma-in-species", "run", "alphabet: a,b A\nrules:\n",
     "line 1: bad species name 'a,b': 'alphabet: a,b A'"),
    ("program-name-two-tokens", "run", "program a b\nalphabet: A B\nrules:\n",
     "program name must be one token without whitespace or '#', got 'a b'"),
    ("step-repeats-species", "run", "alphabet: A B\nsteps:\nstep 0: A=1, A=2, B=1\n",
     "line 3: species 'A' listed twice in one step: 'step 0: A=1, A=2, B=1'"),
    ("rule-without-arrow", "run", "alphabet: A B\nrules:\nA + B\n",
     "line 3: bad rule (no ' -> '): 'A + B'"),
    ("bad-term", "run", "alphabet: A B\nrules:\n2 3 A -> .\n",
     "line 3: bad rule term '2 3 A': '2 3 A -> .'"),
    ("unknown-species", "run", "alphabet: A B\nrules:\nA + C -> .\n",
     "line 3: species 'C' not in alphabet: 'A + C -> .'"),
    ("rule-raises-a-reactant", "run", "alphabet: A B\nrules:\nA -> A + B\n",
     "line 3: rule is not void: it must lower some count and raise none: 'A -> A + B'"),
    ("rule-makes-a-product", "run", "alphabet: A B C\nrules:\nA + B -> C\n",
     "line 3: rule is not void: it must lower some count and raise none: 'A + B -> C'"),
    ("rule-from-nothing", "run", "alphabet: A B\nrules:\n. -> A\n",
     "line 3: rule is not void: it must lower some count and raise none: '. -> A'"),
    ("rule-changes-nothing", "run", "alphabet: A B\nrules:\nA -> A\n",
     "line 3: rule is not void: it must lower some count and raise none: 'A -> A'"),
    ("rule-needs-zero", "run", "alphabet: A B\nrules:\n0 A + B -> .\n",
     "line 3: bad rule term '0 A': '0 A + B -> .'"),
    # A rule must read two distinct species, one copy each.
    ("rule-reads-a-species-twice", "run", "alphabet: A B\nrules:\nA + A -> .\n",
     "line 3: rule must read two distinct species, one copy each: 'A + A -> .'"),
    ("rule-with-a-coefficient", "run", "alphabet: A B\nrules:\n2 A + B -> .\n",
     "line 3: bad rule term '2 A': '2 A + B -> .'"),
    ("rule-reads-three-species", "run", "alphabet: A B C\nrules:\nA + B + C -> .\n",
     "line 3: rule must read two distinct species, one copy each: 'A + B + C -> .'"),
    ("rule-reads-one-species", "run", "alphabet: A B\nrules:\nA -> .\n",
     "line 3: rule must read two distinct species, one copy each: 'A -> .'"),
    ("step-entry-without-count", "run", "alphabet: A B\nsteps:\nstep 0: A\n",
     "line 3: entry 'A' has no =count: 'step 0: A'"),
    ("input-entry-without-count", "run", "alphabet: A B\nsteps:\nstep 0: A=1\ninputs:\n1 0=B 1=A:1\n",
     "line 5: entry 'B' has no :count: '1 0=B 1=A:1'"),
    ("step-index-not-an-integer", "run", "alphabet: A B\nsteps:\nstep x: A=1\n",
     "line 3: step index 'x' is not an integer: 'step x: A=1'"),
    ("input-id-not-an-integer", "run", "alphabet: A B\nsteps:\nstep 0: A=1\ninputs:\nx 0=B:1 1=A:1\n",
     "line 5: input id 'x' is not an integer: 'x 0=B:1 1=A:1'"),
    # corpus specification
    ("maj-fraction-2", "gen-corpus", "--maj-fraction 2", "maj_fraction must be in [0, 1]"),
]


@pytest.mark.parametrize(
    "command, text, message", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED]
)
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad"
    path.write_text(text)
    argv = {
        "verify": ["verify", str(path)],
        "run": ["run", str(path), "1"],
        "gen-corpus": ["gen-corpus", "--out", str(path) + ".d"] + text.split(),
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
