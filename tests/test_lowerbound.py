import itertools

import pytest

from stepcrn import (
    GateKind,
    build_stage_chain,
    check_demand_growth,
    evaluate,
    fibonacci,
    lowerbound,
    min_copy_bounds,
    stats,
)
from stepcrn.lowerbound import CONSTRAINED_ROWS, FREE_ROWS, StageSpec

from reference import reference_demand_growth


def _eval3(circuit, row):
    return tuple(evaluate(circuit, row))


def iterate_stage(spec, row, times):
    """Reference semantics: the stage's transfer table applied ``times``
    times."""
    table = spec.table()
    cur = tuple(row)
    for _ in range(times):
        cur = table[cur]
    return cur


def test_stage_matches_fixed_rows():
    c = build_stage_chain(1)
    assert _eval3(c, (1, 1, 1)) == (1, 1, 1)
    assert _eval3(c, (0, 0, 0)) == (1, 1, 0)
    for row, want in CONSTRAINED_ROWS.items():
        assert _eval3(c, row) == want


def test_stage_matches_full_table_exhaustively():
    # Every one of the 8**3 completions: no output bit is ever constant.
    outs = [((i >> 2) & 1, (i >> 1) & 1, i & 1) for i in range(8)]
    for choice in itertools.product(outs, repeat=len(FREE_ROWS)):
        spec = StageSpec(completion=dict(zip(FREE_ROWS, choice)))
        circuit = build_stage_chain(1, spec)
        assert all(g.kind is GateKind.INPUT for g in circuit.sources())
        for row, want in spec.table().items():
            assert _eval3(circuit, row) == want, (choice, row)


def test_alternate_completion_is_honored():
    spec = StageSpec(completion={r: (1, 1, 1) for r in FREE_ROWS})
    c = build_stage_chain(1, spec)
    for row in FREE_ROWS:
        assert _eval3(c, row) == (1, 1, 1)
    for row, want in CONSTRAINED_ROWS.items():
        assert _eval3(c, row) == want


def test_bad_completion_rejected():
    with pytest.raises(ValueError):
        StageSpec(completion={(0, 0, 1): (0, 0, 1)})
    # Every row is covered, but one output is not all bits.
    with pytest.raises(ValueError, match="bad completion row"):
        StageSpec(completion={**{r: (0, 0, 0) for r in FREE_ROWS}, FREE_ROWS[0]: (0, 2, 1)})


def test_chain_single_stage():
    assert _eval3(build_stage_chain(1), (0, 1, 1)) == (0, 0, 0)


def test_chain_fixed_point_all_depths():
    for depth in range(1, 25):
        assert _eval3(build_stage_chain(depth), (1, 1, 1)) == (1, 1, 1)


def test_chain_three_iterations():
    # 011 -> 000 -> 110 -> 101
    assert iterate_stage(StageSpec(), (0, 1, 1), 3) == (1, 0, 1)
    assert _eval3(build_stage_chain(3), (0, 1, 1)) == (1, 0, 1)


def test_chain_matches_iterated_table():
    spec = StageSpec()
    for depth in (1, 2, 4, 7):
        c = build_stage_chain(depth, spec)
        for i in range(8):
            row = ((i >> 2) & 1, (i >> 1) & 1, i & 1)
            assert _eval3(c, row) == iterate_stage(spec, row, depth)


def test_flip_sensitivity_at_stage():
    c = build_stage_chain(1)
    base = _eval3(c, (1, 1, 1))
    flip_x1 = _eval3(c, (0, 1, 1))
    flip_x2 = _eval3(c, (1, 0, 1))
    flip_x3 = _eval3(c, (1, 1, 0))
    assert all(a != b for a, b in zip(base, flip_x1))  # all three outputs flip
    assert [a != b for a, b in zip(base, flip_x2)] == [True, False, False]
    assert [a != b for a, b in zip(base, flip_x3)] == [False, True, False]


def test_chain_size_is_linear_in_depth():
    per_stage = stats(build_stage_chain(1)).gate_count
    for depth in (2, 5, 10):
        assert stats(build_stage_chain(depth)).gate_count == depth * per_stage


def test_min_copy_bounds_is_fibonacci():
    bounds = min_copy_bounds(20)
    assert bounds[0] == 1 and bounds[1] == 1
    for k in range(2, 21):
        assert bounds[k] == bounds[k - 1] + bounds[k - 2]
    # independent recursion
    a, b = 1, 1
    fib = [1, 1]
    for _ in range(19):
        a, b = b, a + b
        fib.append(b)
    assert bounds == fib
    assert bounds[20] == 10946 == fibonacci(20)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        min_copy_bounds(-1)


def test_demand_growth_small_depths():
    rows = check_demand_growth(8)
    for r in rows:
        assert r.input_demand >= r.bound
        assert r.static_volume >= r.bound
        assert r.ok
    assert rows[0].input_demand >= 1


_COMPLETIONS = {
    "identity": StageSpec(),
    "all-ones": StageSpec(completion={r: (1, 1, 1) for r in FREE_ROWS}),
    "all-zeros": StageSpec(completion={r: (0, 0, 0) for r in FREE_ROWS}),
    "permuted": StageSpec(completion=dict(zip(FREE_ROWS, FREE_ROWS[1:] + FREE_ROWS[:1]))),
}


@pytest.mark.parametrize("spec", _COMPLETIONS.values(), ids=_COMPLETIONS.keys())
def test_demand_growth_matches_per_depth_compiles(spec):
    # Every row read off the deepest chain equals the full compile of
    # that chain, whichever chain is the deepest.
    want = reference_demand_growth(10, spec)
    for max_depth in range(1, 11):
        assert check_demand_growth(max_depth, spec) == want[:max_depth]


def test_demand_growth_compiles_once(monkeypatch):
    compiled = []
    compile_circuit_exp = lowerbound.compile_circuit_exp

    def counting(circuit):
        compiled.append(circuit.name)
        return compile_circuit_exp(circuit)

    monkeypatch.setattr(lowerbound, "compile_circuit_exp", counting)
    assert len(check_demand_growth(12)) == 12
    assert compiled == ["chain12"]


@pytest.mark.parametrize("max_depth", [0, -1])
def test_demand_growth_rejects_depth_below_one(max_depth):
    with pytest.raises(ValueError):
        check_demand_growth(max_depth)
