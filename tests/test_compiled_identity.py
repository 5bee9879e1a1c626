"""Compiled programs and reports stay byte-identical.

``tests/data/compiled.json`` holds, for a fixed set of compiles, the
sha256 of ``program_to_text(program)`` and of ``report.to_json()``.  A
change to how rules or steps are built must leave every digest as
recorded.  Rewrite the file only for an intended change of the compiled
output:

    PYTHONPATH=src python tests/test_compiled_identity.py
"""
import hashlib
import json
import random
from pathlib import Path

from stepcrn import (
    CorpusSpec,
    build_stage_chain,
    generate_circuits,
    lower_gate,
    normalize,
    parse_circuit,
    parse_rule,
    program_from_text,
    program_to_text,
    stats,
)
from stepcrn.lowering import SPECIES_C, compile_backend

GOLDEN = Path(__file__).parent / "data" / "compiled.json"

MAJ_NET = (
    "circuit m\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\n"
    "gate 4 MAJ 1 2 3\ngate 5 AND 1 4\ngate 6 OR 4 2\noutputs 5 6 6\n"
)
# Constants of both values, and MAJ gates of fan-in 1, 2 and 4.
CONST_NET = (
    "circuit k\ngate 1 INPUT\ngate 2 CONST_ONE\ngate 3 CONST_ZERO\n"
    "gate 4 MAJ 1 2\ngate 5 MAJ 3\ngate 6 MAJ 4 5 1 1\noutputs 6\n"
)


def _layered_dag(rng: random.Random, width: int, depth: int) -> str:
    """``width`` inputs, then ``depth`` levels of ``width`` fan-in-2
    AND/OR gates, each reading two distinct gates of the level below.
    Every gate that feeds nothing is an output."""
    lines = [f"circuit dag{width}x{depth}"]
    prev = list(range(1, width + 1))
    lines += [f"gate {g} INPUT" for g in prev]
    gid = width
    read: set[int] = set()
    for _ in range(depth):
        cur = []
        for _ in range(width):
            a, b = rng.sample(prev, 2)
            read |= {a, b}
            gid += 1
            lines.append(f"gate {gid} {rng.choice(('AND', 'OR'))} {a} {b}")
            cur.append(gid)
        prev = cur
    outputs = [g for g in range(1, gid + 1) if g not in read]
    lines.append("outputs " + " ".join(map(str, outputs)))
    return "\n".join(lines) + "\n"


def _compiles():
    """(key, circuit, backend) for every compile in the golden set."""
    formulas = generate_circuits(
        CorpusSpec(count=12, seed=41, depth=(2, 5), gates=(3, 20), fan_in=(1, 3),
                   fan_out=(1, 1), inputs=(2, 6), maj_fraction=0.35, name_prefix="f"),
        force_maj_every=3,
    )
    dags = generate_circuits(
        CorpusSpec(count=12, seed=77, depth=(2, 4), gates=(6, 18), fan_in=(1, 2),
                   fan_out=(1, 3), inputs=(2, 6), name_prefix="d"),
    )
    maj_dags = generate_circuits(
        CorpusSpec(count=6, seed=2405, depth=(2, 3), gates=(4, 12), fan_in=(1, 3),
                   fan_out=(1, 3), inputs=(2, 4), maj_fraction=0.4, name_prefix="m"),
        force_maj_every=2,
    )
    jobs = [(c, b) for c in formulas for b in ("formula", "exp", "catalyst")]
    jobs += [(c, b) for c in dags + maj_dags for b in ("exp", "catalyst")]
    jobs += [(build_stage_chain(d), "exp") for d in (1, 5, 10)]
    jobs += [(parse_circuit(MAJ_NET), b) for b in ("exp", "catalyst")]
    jobs += [(parse_circuit(CONST_NET), b) for b in ("formula", "exp", "catalyst")]
    jobs.append((parse_circuit(_layered_dag(random.Random(12), 12, 8)), "catalyst"))
    return [(f"{c.name}/{b}", c, b) for c, b in jobs]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict:
    out = {}
    for key, circuit, backend in _compiles():
        program, report = compile_backend(circuit, backend)
        out[key] = {"program": _sha(program_to_text(program)), "report": _sha(report.to_json())}
    return out


def test_compiled_programs_and_reports_match_the_recorded_digests():
    recorded = json.loads(GOLDEN.read_text())
    got = _digests()
    assert sorted(got) == sorted(recorded)
    changed = [k for k in recorded if got[k] != recorded[k]]
    assert not changed, f"compiled output changed for {changed}"


def test_every_compiled_species_is_added_at_some_step():
    # No compile names a species whose count is 0: a step adds each one.
    for key, circuit, backend in _compiles():
        program, _ = compile_backend(circuit, backend)
        assert all(k < program.step_count for k in program.added_at), key


def test_rule_tables_survive_the_text_round_trip():
    # Text back to a program gives the same rule table, the same rule
    # objects and the same tables for runs and searches.
    for key, circuit, backend in _compiles():
        program, _ = compile_backend(circuit, backend)
        back = program_from_text(program_to_text(program))
        assert back.rules == program.rules, key
        assert list(back.rules) == list(program.rules), key
        for table in ("_readers", "_local_by_step"):
            assert getattr(program, table) == getattr(back, table), (key, table)


def test_compiled_rules_have_the_two_shapes():
    # Every compiled rule is A + B -> . or A + B -> A|B with A != B, and
    # reads back from its text as the same rule.
    for key, circuit, backend in _compiles():
        program, _ = compile_backend(circuit, backend)
        alphabet = program.alphabet
        for rule in program.rules:
            assert rule.a < rule.b and rule.kept in (-1, rule.a, rule.b), (key, rule.text)
            assert parse_rule(rule.text, alphabet) == rule, (key, rule.text)


def test_every_gate_lowering_is_one_alphabet_block_and_its_rules_are_rows():
    # One gate scheme: lower_gate's named view of each normalized gate
    # names one block of the compiled alphabet, the blocks in gate
    # declaration order, and each of its rules is a row of the table.
    for key, circuit, backend in _compiles():
        program, report = compile_backend(circuit, backend)
        norm, _ = normalize(circuit, align_outputs=backend == "catalyst")
        alphabet, table = program.alphabet, program.rules
        rows = set(zip(table.a, table.b, table.kept))
        start = 0
        for g in norm.gates:
            low = lower_gate(g.kind, g.gid, g.inputs, report.demand[g.gid])
            assert alphabet.names[start : start + len(low.species)] == low.species, (key, g)
            start += len(low.species)
            for x, y in low.rules:
                rule = parse_rule(f"{x} + {y} -> .", alphabet)
                assert (rule.a, rule.b, rule.kept) in rows, (key, g, x, y)


def test_catalyst_species_stay_under_the_predicted_bound():
    # 8·G + 4·S + 4·D + 2: eight species per gate, at most four per source
    # (y[i]T/F, x[i]T/F) and the 4·D + 2 deleters, over the normalized
    # circuit.  f0004 meets it exactly.
    for key, circuit, backend in _compiles():
        if backend != "catalyst":
            continue
        _, report = compile_backend(circuit, backend)
        norm, _ = normalize(circuit, align_outputs=True)
        st = stats(norm)
        bound = SPECIES_C * max(st.gate_count, 1) + 4 * (len(norm.sources()) + st.depth) + 2
        assert report.predicted["species"] == bound, key
        assert report.species_count <= bound, (key, report.species_count, bound)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
