import pickle

import pytest

from stepcrn import Alphabet, Configuration, Rule, RuleTable, parse_rule
from stepcrn.lowering import _RuleColumns

from reference import applicable, apply_rule, configuration, count, is_terminal, rule_size

AB = Alphabet(["A", "B", "C", "Y", "X", "H", "O", "W"])


def cfg(**counts):
    return configuration(AB, counts)


@pytest.mark.parametrize("text", ["A -> A + B", "A + B -> C", "A -> A", "A + B -> A + B", "A + B -> A + A"])
def test_parse_rule_refuses_a_rule_that_is_not_void(text):
    # It raises a count, makes a species, or changes nothing.
    with pytest.raises(ValueError, match=r"^rule is not void: it must lower some count and raise none$"):
        parse_rule(text, AB)


def test_empty_reactants_rejected():
    with pytest.raises(ValueError):
        parse_rule(". -> A", AB)


def test_classification_stable_under_alphabet_reordering():
    ab2 = Alphabet(list(reversed(AB.names)))
    r1, r2 = parse_rule("Y + X -> Y", AB), parse_rule("Y + X -> Y", ab2)
    assert rule_size(r1) == rule_size(r2) == (2, 1)


def test_applicable_basic():
    r = parse_rule("A + B -> .", AB)
    assert applicable(cfg(A=1, B=1), r)
    assert not applicable(cfg(A=1), r)


# The reference helpers take any rule record; rule text holds only the
# two shapes, so the self-pair 2 A -> . is built directly.
SELF_PAIR = Rule(AB, ((0, 2),), ())


def test_parse_rule_refuses_other_shapes():
    # A void rule that does not read two distinct species, one copy each.
    for text in ("A + A -> .", "A -> .", "A + B + C -> .", "A + B + C -> A"):
        with pytest.raises(ValueError, match=r"^rule must read two distinct species, one copy each$"):
            parse_rule(text, AB)
    # Coefficients are no rule text.
    for text in ("2 A -> .", "2 A + B -> .", "A + B -> 1 A"):
        with pytest.raises(ValueError, match=r"^bad rule term '\d A'$"):
            parse_rule(text, AB)


def test_applicable_self_pair():
    r = SELF_PAIR
    assert applicable(cfg(A=2), r)
    assert not applicable(cfg(A=1), r)


def test_apply_pair_to_empty():
    out = apply_rule(cfg(A=1, B=1), parse_rule("A + B -> .", AB))
    assert out.as_dict() == {}


def test_apply_catalyst_preserved():
    out = apply_rule(cfg(Y=1, X=3), parse_rule("Y + X -> Y", AB))
    assert out.as_dict() == {"Y": 1, "X": 2}


def test_apply_self_pair():
    out = apply_rule(cfg(A=2), SELF_PAIR)
    assert out.as_dict() == {}


def test_apply_requires_applicability():
    with pytest.raises(ValueError):
        apply_rule(cfg(A=1), parse_rule("A + B -> .", AB))


def test_is_terminal():
    rules = [parse_rule("A + B -> .", AB)]
    assert is_terminal(cfg(A=1), rules)
    assert not is_terminal(cfg(A=1, B=1), rules)
    assert is_terminal(cfg(), rules)


def test_void_application_shrinks_volume_by_size_difference():
    for r in [parse_rule("A + B -> .", AB), SELF_PAIR, parse_rule("Y + X -> Y", AB)]:
        i, j = rule_size(r)
        before = cfg(A=3, B=3, Y=2, X=2)
        after = apply_rule(before, r)
        assert before.volume - after.volume == i - j


def test_rule_text_round_trip():
    for text in ["A + B -> .", "Y + X -> Y", "Y + X -> X", "H + O -> O"]:
        r = parse_rule(text, AB)
        assert parse_rule(r.text, AB) == r


def test_rule_text_forms():
    assert parse_rule("B + A -> .", AB).text == "A + B -> ."
    assert parse_rule("X + Y -> Y", AB).text == "Y + X -> Y"


def test_configuration_views():
    c = cfg(A=2, X=1)
    assert c.volume == 3
    assert count(c, "A") == 2 and count(c, "B") == 0
    assert c.as_dict() == {"A": 2, "X": 1}
    with pytest.raises(ValueError):
        Configuration(AB, (-1,) * len(AB))
    empty = Configuration(Alphabet([]), ())
    assert empty.volume == 0 and empty.as_dict() == {}


# -- rule construction ----------------------------------------------------------


@pytest.mark.parametrize(
    "ordinal_args, reactants, products",
    [
        (("B", "A"), ("A", "B"), ()),
        (("Y", "X", True), ("Y", "X"), ("Y",)),
        (("X", "Y", True), ("Y", "X"), ("X",)),
    ],
)
def test_ordinal_helper_and_make_build_equal_rules(ordinal_args, reactants, products):
    # The compiler's columns and parse_rule give one table and one rule.
    text = f"{' + '.join(reactants)} -> {' + '.join(products) or '.'}"
    columns = _RuleColumns(AB)
    columns.add(*ordinal_args)
    table, parsed = columns.table(), parse_rule(text, AB)
    assert table == RuleTable.from_rules(AB, [parsed]) and hash(table) == hash(
        RuleTable.from_rules(AB, [parsed])
    )
    assert table[0] == parsed and table[0].delta == parsed.delta
    assert table[0].text == parsed.text


def _by_rule(reactants, products):
    with pytest.raises(ValueError) as refused:
        RuleTable.from_rules(AB, [Rule(AB, reactants, products)])
    return str(refused.value)


def _by_table(reactants, products):
    (a, _), (b, _) = reactants
    with pytest.raises(ValueError) as refused:
        RuleTable(AB, [a], [b], [products[0][0] if products else -1])
    return str(refused.value)


_SHAPE = "rule must read two distinct species, one copy each"
_NOT_VOID = "rule is not void: it must lower some count and raise none"


@pytest.mark.parametrize(
    "reactants, products, message",
    [
        (((0, 1), (8, 1)), (), "reactant ordinal 8 is outside the alphabet"),
        (((-1, 1), (0, 1)), (), "reactant ordinal -1 is outside the alphabet"),
        (((0, 0), (1, 1)), (), _SHAPE),
        (((0, 1),), ((0, 2),), _NOT_VOID),
        (((0, 1), (1, 1)), ((0, 1), (1, 1)), _NOT_VOID),
        (((0, 1),), (), _SHAPE),
        (((0, 2), (1, 1)), ((1, 1),), _SHAPE),
        (((0, 1), (1, 1), (2, 1)), (), _SHAPE),
        (((0, 1), (1, 1)), ((1, 0),), "product counts must be positive"),
        (((0, 1), (1, 1)), ((1, -2),), "product counts must be positive"),
        # A product that is no reactant raises a count, inside the
        # alphabet or outside it.
        (((0, 1), (1, 1)), ((2, 1),), _NOT_VOID),
        (((0, 1), (1, 1)), ((8, 1),), _NOT_VOID),
        (((0, 1), (1, 1)), ((-2, 1),), _NOT_VOID),
    ],
)
def test_table_refuses_what_a_rule_refuses_with_the_same_message(reactants, products, message):
    # The check's two entries, the columns and from_rules, refuse a rule
    # with one message.  The columns hold only two reactants of one copy
    # each and at most one product of one copy: only from_rules sees the
    # rest.
    assert _by_rule(reactants, products) == message
    if [c for _, c in reactants] == [1, 1] and [c for _, c in products] in ([], [1]):
        assert _by_table(reactants, products) == message


@pytest.mark.parametrize(
    "reactants, products, message",
    [
        (((0, 1), (5, 1)), (), "reactant ordinal 5 is outside the alphabet"),
        (((-1, 1), (0, 1)), (), "reactant ordinal -1 is outside the alphabet"),
    ],
)
def test_rule_refuses_ordinals_outside_its_alphabet(reactants, products, message):
    # Such a rule would index past the alphabet, or wrap round to its
    # last species, when a run fires it or the program is printed.
    ab = Alphabet(["A", "B"])
    with pytest.raises(ValueError, match=f"^{message}$"):
        RuleTable.from_rules(ab, [Rule(ab, reactants, products)])


def test_table_refuses_unsorted_or_repeated_reactants():
    for a, b in ((1, 0), (1, 1)):
        with pytest.raises(ValueError, match=r"^reactant ordinals must be sorted and distinct$"):
            RuleTable(AB, [a], [b], [-1])
    # So a compiled rule naming one species twice is refused too.
    columns = _RuleColumns(AB)
    columns.add("X", "X")
    with pytest.raises(ValueError, match="sorted and distinct"):
        columns.table()


def test_table_columns_must_match_and_keep_a_reactant():
    with pytest.raises(ValueError, match=r"^rule table columns do not match$"):
        RuleTable(AB, [0, 1], [2], [-1])
    # kept names a reactant, or is -1 for none.
    for kept in (2, -2):
        with pytest.raises(ValueError, match=r"^rule is not void"):
            RuleTable(AB, [0], [1], [kept])
    assert len(RuleTable(AB, [], [], [])) == 0


def test_table_indexing_builds_rules_and_len_does_not():
    table = RuleTable.from_rules(AB, [parse_rule(t, AB) for t in ("A + B -> .", "Y + X -> Y", "W + X -> X")])
    assert len(table) == 3 and (table.a, table.b, table.kept) == ((0, 3, 4), (1, 4, 7), (-1, 3, 4))
    assert [r.text for r in table] == ["A + B -> .", "Y + X -> Y", "X + W -> X"]
    assert table[-1] == parse_rule("X + W -> X", AB) and table[1:] == (table[1], table[2])
    with pytest.raises(IndexError):
        table[3]
    assert pickle.loads(pickle.dumps(table)) == table


def test_delta_merges_unsorted_or_repeated_reactants():
    assert Rule(AB, ((3, 1), (1, 1)), ()).delta == ((1, -1), (3, -1))
    assert Rule(AB, ((1, 1), (1, 1)), ()).delta == ((1, -2),)
    assert Rule(AB, ((1, 1), (4, 1)), ((1, 1),)).delta == ((4, -1),)


def test_delta_is_not_part_of_equality():
    r = parse_rule("A + B -> .", AB)
    twin = parse_rule("A + B -> .", AB)
    object.__setattr__(twin, "delta", ())
    assert r == twin and hash(r) == hash(twin)


def test_rule_has_no_instance_dict():
    assert not hasattr(parse_rule("A + B -> .", AB), "__dict__")


@pytest.mark.parametrize(
    "rule", [parse_rule("A + B -> .", AB), parse_rule("Y + X -> Y", AB), SELF_PAIR]
)
def test_rule_pickle_round_trip(rule):
    back = pickle.loads(pickle.dumps(rule))
    assert back == rule and back.delta == rule.delta


@pytest.mark.parametrize("name", ["", "x\tT", "a\u00a0b", "y\u2003", " A", "B\n"])
def test_alphabet_rejects_empty_and_whitespace_names(name):
    with pytest.raises(ValueError, match="bad species name"):
        Alphabet(["A", name])


def test_alphabet_accepts_arrow_names():
    ab = Alphabet(["y[3->7]T", "dx"])
    assert ab.ordinal("y[3->7]T") == 0
