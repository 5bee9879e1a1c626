import json

import pytest

from stepcrn import (
    CircuitError,
    NetlistParseError,
    demand_analysis,
    evaluate,
    parse_circuit,
    stats,
    to_netlist,
)

FIG_FORMULA = """
circuit fig
gate 1 INPUT
gate 2 INPUT
gate 3 INPUT
gate 4 INPUT
gate 5 AND 1 2
gate 6 AND 3 4
gate 7 OR 5 6
outputs 7
"""


def small_and():
    return parse_circuit(
        "circuit a\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\noutputs 3\n"
    )


# -- parsing ---------------------------------------------------------------


def test_parse_smallest_and():
    c = small_and()
    st = stats(c)
    assert st.gate_count == 1 and st.depth == 1
    assert c.input_ids == (1, 2)


def test_parse_fig_formula():
    c = parse_circuit(FIG_FORMULA)
    assert c.is_formula
    st = stats(c)
    assert (st.gate_count, st.depth) == (3, 2)


def test_parse_json_form():
    obj = {
        "name": "fig",
        "gates": [
            {"id": 1, "kind": "INPUT"},
            {"id": 2, "kind": "INPUT"},
            {"id": 3, "kind": "INPUT"},
            {"id": 4, "kind": "INPUT"},
            {"id": 5, "kind": "AND", "inputs": [1, 2]},
            {"id": 6, "kind": "AND", "inputs": [3, 4]},
            {"id": 7, "kind": "OR", "inputs": [5, 6]},
        ],
        "outputs": [7],
    }
    c = parse_circuit(json.dumps(obj))
    assert c.is_formula and stats(c).depth == 2


def test_netlist_round_trip():
    c = parse_circuit(FIG_FORMULA)
    again = parse_circuit(to_netlist(c))
    assert to_netlist(again) == to_netlist(c)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(NetlistParseError) as err:
        parse_circuit("circuit x\ngate 1 BOGUS\noutputs 1\n")
    assert err.value.line == 2


def test_deeply_nested_json_is_a_parse_error():
    # json.loads gives up with RecursionError, which is no ValueError.
    with pytest.raises(NetlistParseError, match="^bad JSON"):
        parse_circuit('{"a":' * 100_000)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("circuit x\ngate 1 INPUT\ngate 2 NOT 1 1\noutputs 2\n", "NOT takes exactly one"),
        ("circuit x\ngate 1 INPUT\ngate 2 AND 1 9\noutputs 2\n", "unknown input gate"),
        ("circuit x\ngate 1 INPUT\noutputs 1\noutputs 1\n", "duplicate outputs"),
        ("circuit x\ngate 1 INPUT\n", "missing outputs"),
        ("circuit x\ngate 1 INPUT\ngate 1 INPUT\noutputs 1\n", "duplicate gate id"),
        ("circuit x\ngate 1 AND 2\ngate 2 AND 1\noutputs 1\n", "cycle"),
        ("circuit x\ngate 1 INPUT\ngate 2 INPUT\ngate 3 NOT 1\noutputs 3\n", "reach no output"),
    ],
)
def test_validation_errors(text, fragment):
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)


def test_duplicate_wires_get_slots():
    # Each duplicate edge is its own wire: one consumer entry, one unit
    # of fan-out and one unit of demand per edge.
    c = parse_circuit("circuit d\ngate 1 INPUT\ngate 2 AND 1 1\noutputs 2\n")
    assert c.consumers[1] == (2, 2) and c.consumers[2] == ()
    assert c.fanout(1) == 2
    assert demand_analysis(c)[1] == 2
    assert evaluate(c, "1") == [1] and evaluate(c, "0") == [0]


# -- evaluation ---------------------------------------------------------------


def test_and_any_false_input():
    c = parse_circuit(
        "circuit a\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 4 AND 1 2 3\noutputs 4\n"
    )
    assert evaluate(c, "110") == [0]
    assert evaluate(c, "111") == [1]


def test_fig_formula_on_1001():
    # AND(1,0)=0, AND(0,1)=0, OR(0,0)=0
    assert evaluate(parse_circuit(FIG_FORMULA), "1001") == [0]


def test_maj_two_of_three():
    c = parse_circuit(
        "circuit m\ngate 1 INPUT\ngate 2 INPUT\ngate 3 INPUT\ngate 4 MAJ 1 2 3\noutputs 4\n"
    )
    assert evaluate(c, "110") == [1]
    assert evaluate(c, "100") == [0]


def test_maj_even_fan_in_ties_to_zero():
    c = parse_circuit(
        "circuit m\ngate 1 INPUT\ngate 2 INPUT\ngate 4 MAJ 1 2\noutputs 4\n"
    )
    # more than half of the wires must be true, so a tie is false
    assert evaluate(c, "11") == [1]
    assert evaluate(c, "10") == [0]
    assert evaluate(c, "00") == [0]


def test_constants_evaluate():
    c = parse_circuit(
        "circuit k\ngate 1 CONST_ONE\ngate 2 CONST_ZERO\ngate 3 OR 1 2\noutputs 3\n"
    )
    assert evaluate(c, []) == [1]


def test_assignment_errors():
    c = small_and()
    with pytest.raises(CircuitError):
        evaluate(c, "1")
    with pytest.raises(CircuitError):
        evaluate(c, [1, 0, 1])
    # A mapping is refused, not iterated: list({1: 0}) is [1].
    one = parse_circuit("circuit n\ngate 1 INPUT\ngate 2 NOT 1\noutputs 2\n")
    with pytest.raises(CircuitError, match="mapping"):
        evaluate(one, {1: 0})


# -- statistics ---------------------------------------------------------------


def test_stats_not_gate_fanout_three():
    c = parse_circuit(
        "circuit f\n"
        "gate 1 INPUT\n"
        "gate 2 NOT 1\n"
        "gate 3 NOT 2\ngate 4 NOT 2\ngate 5 NOT 2\n"
        "outputs 3 4 5\n"
    )
    assert stats(c).max_fanout == 3


def test_stats_single_and():
    st = stats(small_and())
    assert (st.gate_count, st.depth, st.width) == (1, 1, 1)


def test_formula_flag_matches_stats():
    c = parse_circuit(FIG_FORMULA)
    st = stats(c)
    assert c.is_formula and st.max_fanout == 1 and len(c.outputs) == 1


# -- demand ---------------------------------------------------------------


def test_formula_demand_all_ones():
    assert set(demand_analysis(parse_circuit(FIG_FORMULA)).values()) == {1}


def test_fanout_two_demand():
    c = parse_circuit(
        "circuit f\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\n"
        "gate 4 NOT 3\ngate 5 NOT 3\noutputs 4 5\n"
    )
    d = demand_analysis(c)
    assert d[3] == 2 and d[1] == 2 and d[2] == 2


def test_binary_fanout_chain_demand():
    # three levels, each NOT pair doubling the demand below: k^D = 2^3
    lines = ["circuit chain", "gate 1 INPUT"]
    prev = [1]
    gid = 2
    for _ in range(3):
        nxt = []
        for p in prev:
            for _ in range(2):
                lines.append(f"gate {gid} NOT {p}")
                nxt.append(gid)
                gid += 1
        prev = nxt
    lines.append("outputs " + " ".join(map(str, prev)))
    c = parse_circuit("\n".join(lines))
    assert demand_analysis(c)[1] == 8


def _path_count_oracle(c, gid):
    # directed paths to outputs, each output listing counted separately
    memo = {}

    def paths(g):
        if g not in memo:
            memo[g] = c.outputs.count(g) + sum(
                paths(h.gid) * h.inputs.count(g) for h in c.gates if g in h.inputs
            )
        return memo[g]

    return paths(gid)


def test_demand_equals_path_count():
    c = parse_circuit(
        "circuit p\ngate 1 INPUT\ngate 2 INPUT\ngate 3 AND 1 2\ngate 4 OR 3 1\n"
        "gate 5 NOT 3\ngate 6 AND 4 5\noutputs 6 4\n"
    )
    d = demand_analysis(c)
    for g in c.by_id:
        assert d[g] == _path_count_oracle(c, g)
