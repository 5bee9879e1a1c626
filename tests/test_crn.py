import pickle

import pytest

from stepcrn import Alphabet, Configuration, Rule, RuleTable, parse_rule

from reference import applicable, apply_rule, configuration, count, is_terminal, rule_size

AB = Alphabet(["A", "B", "C", "Y", "X", "H", "O", "W"])


def cfg(**counts):
    return configuration(AB, counts)


@pytest.mark.parametrize(
    "text",
    [
        "A -> A + B", "A + B -> C", "A -> A", "A + B -> A + B", "A + B -> A + A",
        ". -> .", ". -> A + B", "A + A -> A + A",
    ],
)
def test_parse_rule_refuses_a_rule_that_is_not_void(text):
    # It raises a count, makes a species, or changes nothing, whatever
    # shape its left side has.
    with pytest.raises(ValueError, match=r"^rule is not void: it must lower some count and raise none$"):
        parse_rule(text, AB)


def test_empty_reactants_rejected():
    with pytest.raises(ValueError):
        parse_rule(". -> A", AB)


def test_classification_stable_under_alphabet_reordering():
    ab2 = Alphabet(list(reversed(AB.names)))
    r1, r2 = parse_rule("Y + X -> Y", AB), parse_rule("Y + X -> Y", ab2)
    assert rule_size(r1) == rule_size(r2) == (2, 1)


def test_parse_rule_reads_every_term_before_judging_the_rule():
    # A term that names no species is refused before the rule is found
    # not void, or of another shape.
    for text, message in (
        ("A +  -> .", "bad rule term ''"),
        ("A + B -> . + A", "species '.' not in alphabet"),
        ("A + B -> D + A", "species 'D' not in alphabet"),
        ("D -> .", "species 'D' not in alphabet"),
    ):
        with pytest.raises((KeyError, ValueError)) as refused:
            parse_rule(text, AB)
        assert refused.value.args[0] == message


def test_applicable_basic():
    r = parse_rule("A + B -> .", AB)
    assert applicable(cfg(A=1, B=1), r)
    assert not applicable(cfg(A=1), r)


def test_parse_rule_refuses_other_shapes():
    # A void rule that does not read two distinct species, one copy each.
    for text in ("A + A -> .", "A -> .", "A + B + C -> .", "A + B + C -> A", "A + A -> A",
                 "A + B + C -> A + B", "A + A + B -> A + A"):
        with pytest.raises(ValueError, match=r"^rule must read two distinct species, one copy each$"):
            parse_rule(text, AB)
    # Coefficients are no rule text.
    for text in ("2 A -> .", "2 A + B -> .", "A + B -> 1 A"):
        with pytest.raises(ValueError, match=r"^bad rule term '\d A'$"):
            parse_rule(text, AB)


def test_apply_pair_to_empty():
    out = apply_rule(cfg(A=1, B=1), parse_rule("A + B -> .", AB))
    assert out.as_dict() == {}


def test_apply_catalyst_preserved():
    out = apply_rule(cfg(Y=1, X=3), parse_rule("Y + X -> Y", AB))
    assert out.as_dict() == {"Y": 1, "X": 2}


def test_apply_requires_applicability():
    with pytest.raises(ValueError):
        apply_rule(cfg(A=1), parse_rule("A + B -> .", AB))


def test_is_terminal():
    rules = [parse_rule("A + B -> .", AB)]
    assert is_terminal(cfg(A=1), rules)
    assert not is_terminal(cfg(A=1, B=1), rules)
    assert is_terminal(cfg(), rules)


def test_void_application_shrinks_volume_by_size_difference():
    for r in [parse_rule("A + B -> .", AB), parse_rule("Y + X -> Y", AB)]:
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
    # A rule is its table row: Y and X are ordinals 3 and 4.
    assert parse_rule("X + Y -> Y", AB) == Rule(AB, 3, 4, 3)
    assert Rule(AB, 0, 1, -1).text == "A + B -> ."


def test_configuration_views():
    c = cfg(A=2, X=1)
    assert c.volume == 3
    assert count(c, "A") == 2 and count(c, "B") == 0
    assert c.as_dict() == {"A": 2, "X": 1}
    with pytest.raises(ValueError):
        Configuration(AB, (-1,) * len(AB))
    with pytest.raises(ValueError, match="counts length"):
        Configuration(AB, (0,) * (len(AB) + 1))
    empty = Configuration(Alphabet([]), ())
    assert empty.volume == 0 and empty.as_dict() == {}


# -- rule construction ----------------------------------------------------------


_NOT_VOID = "rule is not void: it must lower some count and raise none"
_UNSORTED = "reactant ordinals must be sorted and distinct"
_REFUSED = [
    ((0, 8), (), "reactant ordinal 8 is outside the alphabet"),
    ((-1, 0), (), "reactant ordinal -1 is outside the alphabet"),
    # A product that is no reactant raises a count, inside the
    # alphabet or outside it.
    ((0, 1), (2,), _NOT_VOID),
    ((0, 1), (8,), _NOT_VOID),
    ((0, 1), (-2,), _NOT_VOID),
    # Reactants out of order or repeated, with or without a product.
    ((1, 0), (), _UNSORTED),
    ((1, 1), (), _UNSORTED),
    ((3, 0), (3,), _UNSORTED),
]


# Case ids are fixed numbers, so a row keeps its id when rows before it
# leave the table; numbers 5 to 9 were rule shapes a row cannot express.
@pytest.mark.parametrize(
    "reactants, products, message",
    _REFUSED,
    ids=[f"reactants{n}-products{n}-{case[2]}" for n, case in zip((0, 1, 2, 3, 4, 10, 11, 12), _REFUSED)],
)
def test_table_refuses_what_a_rule_refuses_with_the_same_message(reactants, products, message):
    # The check's two entries, the columns and from_rules, refuse a row
    # with one message.  ``products`` is what the row puts back.
    row = Rule(AB, *reactants, products[0] if products else -1)
    for build in (lambda: RuleTable.from_rules(AB, [row]), lambda: RuleTable(AB, [row.a], [row.b], [row.kept])):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


@pytest.mark.parametrize(
    "reactants, products, message",
    [
        ((0, 5), (), "reactant ordinal 5 is outside the alphabet"),
        ((-1, 0), (), "reactant ordinal -1 is outside the alphabet"),
    ],
)
def test_rule_refuses_ordinals_outside_its_alphabet(reactants, products, message):
    # Such a rule would index past the alphabet, or wrap round to its
    # last species, when a run fires it or the program is printed.
    ab = Alphabet(["A", "B"])
    with pytest.raises(ValueError, match=f"^{message}$"):
        RuleTable.from_rules(ab, [Rule(ab, *reactants, products[0] if products else -1)])


def test_from_rules_refuses_a_row_over_another_alphabet():
    # The refusal names the row's position and reads no species name, so
    # an ordinal outside the row's own alphabet is refused the same way.
    ab, abc = Alphabet(["A", "B"]), Alphabet(["A", "B", "C"])
    for rows in ([Rule(ab, 0, 1, -1)], [Rule(abc, 0, 1, -1), Rule(ab, 0, 5, -1)]):
        with pytest.raises(ValueError, match=f"^rule {len(rows) - 1} is over another alphabet$"):
            RuleTable.from_rules(abc, rows)


def test_table_refuses_unsorted_or_repeated_reactants():
    # The refusal table checks one row; a bad row after good ones is
    # refused too, so a compiled rule naming one species twice is.
    for a, b in (([0, 4], [1, 4]), ([0, 3, 2], [1, 5, 1])):
        with pytest.raises(ValueError, match="^reactant ordinals must be sorted and distinct$"):
            RuleTable(AB, a, b, [-1] * len(a))


def test_table_columns_must_match_and_keep_a_reactant():
    with pytest.raises(ValueError, match=r"^rule table columns do not match$"):
        RuleTable(AB, [0, 1], [2], [-1])
    # kept names a reactant, or is -1 for none.
    for kept in (2, -2):
        with pytest.raises(ValueError, match=r"^rule is not void"):
            RuleTable(AB, [0], [1], [kept])
    # The check counts over whole columns: one bad row among good ones,
    # wherever it sits, is refused.
    a, b, good = [0, 2, 3, 5], [1, 4, 6, 7], [-1, 2, 6, 5]
    for q, other in enumerate((2, 3, 4, 6)):
        for wrong in (-2, 8, other):
            with pytest.raises(ValueError, match=r"^rule is not void"):
                RuleTable(AB, a, b, good[:q] + [wrong] + good[q + 1 :])
    assert RuleTable(AB, a, b, good).kept == tuple(good)
    assert len(RuleTable(AB, [], [], [])) == 0


def test_table_indexing_builds_rules_and_len_does_not():
    table = RuleTable.from_rules(AB, [parse_rule(t, AB) for t in ("A + B -> .", "Y + X -> Y", "W + X -> X")])
    assert len(table) == 3 and (table.a, table.b, table.kept) == ((0, 3, 4), (1, 4, 7), (-1, 3, 4))
    assert [r.text for r in table] == ["A + B -> .", "Y + X -> Y", "X + W -> X"]
    assert table[-1] == parse_rule("X + W -> X", AB) and table[1:] == (table[1], table[2])
    with pytest.raises(IndexError):
        table[3]
    assert pickle.loads(pickle.dumps(table)) == table


def test_rule_has_no_instance_dict():
    assert not hasattr(parse_rule("A + B -> .", AB), "__dict__")


@pytest.mark.parametrize(
    "rule", [parse_rule("A + B -> .", AB), parse_rule("Y + X -> Y", AB), parse_rule("Y + X -> X", AB)]
)
def test_rule_pickle_round_trip(rule):
    back = pickle.loads(pickle.dumps(rule))
    assert back == rule and (back.a, back.b, back.kept) == (rule.a, rule.b, rule.kept)


# A name holding any code point that str.split() splits at.
_SPACED = [f"z{c}z" for c in map(chr, range(0x110000)) if c.isspace()]


@pytest.mark.parametrize("name", ["", "x\tT", "a\u00a0b", "y\u2003", " A", "B\n", *_SPACED])
def test_alphabet_rejects_empty_and_whitespace_names(name):
    with pytest.raises(ValueError, match="bad species name"):
        Alphabet(["A", name])


def test_alphabet_accepts_arrow_names():
    ab = Alphabet(["y[3->7]T", "dx"])
    assert ab.ordinal("y[3->7]T") == 0
