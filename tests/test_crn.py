import pickle

import pytest

from stepcrn import Alphabet, Configuration, Rule, parse_rule
from stepcrn.crn import is_void_family
from stepcrn.lowering import _rule

from reference import applicable, apply_rule, configuration, count, is_terminal, rule_size

AB = Alphabet(["A", "B", "C", "Y", "X", "H", "O", "W"])


def cfg(**counts):
    return configuration(AB, counts)


@pytest.mark.parametrize(
    "text, void",
    [
        ("A + B -> .", True),
        ("Y + X -> Y", True),
        ("2 H + O -> W", False),
        ("A -> A + B", False),
        ("A -> A", False),  # no net change: its delta is empty
    ],
)
def test_is_void_family(text, void):
    assert is_void_family(parse_rule(text, AB)) is void


def test_empty_reactants_rejected():
    with pytest.raises(ValueError):
        parse_rule(". -> A", AB)


def test_classification_stable_under_alphabet_reordering():
    ab2 = Alphabet(list(reversed(AB.names)))
    r1, r2 = parse_rule("Y + X -> Y", AB), parse_rule("Y + X -> Y", ab2)
    assert is_void_family(r1) and is_void_family(r2)
    assert rule_size(r1) == rule_size(r2) == (2, 1)


def test_applicable_basic():
    r = parse_rule("A + B -> .", AB)
    assert applicable(cfg(A=1, B=1), r)
    assert not applicable(cfg(A=1), r)


def test_applicable_self_pair():
    r = parse_rule("2 A -> .", AB)
    assert applicable(cfg(A=2), r)
    assert not applicable(cfg(A=1), r)


def test_apply_pair_to_empty():
    out = apply_rule(cfg(A=1, B=1), parse_rule("A + B -> .", AB))
    assert out.as_dict() == {}


def test_apply_catalyst_preserved():
    out = apply_rule(cfg(Y=1, X=3), parse_rule("Y + X -> Y", AB))
    assert out.as_dict() == {"Y": 1, "X": 2}


def test_apply_self_pair():
    out = apply_rule(cfg(A=2), parse_rule("2 A -> .", AB))
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
    for text in ["A + B -> .", "2 A -> .", "Y + X -> Y"]:
        r = parse_rule(text, AB)
        i, j = rule_size(r)
        before = cfg(A=3, B=3, Y=2, X=2)
        after = apply_rule(before, r)
        assert before.volume - after.volume == i - j


def test_rule_text_round_trip():
    for text in ["A + B -> .", "2 A -> .", "Y + X -> Y", "2 H + O -> W"]:
        r = parse_rule(text, AB)
        assert parse_rule(r.text, AB) == r


def test_rule_text_forms():
    assert parse_rule("B + A -> .", AB).text == "A + B -> ."
    assert parse_rule("X + Y -> Y", AB).text == "Y + X -> Y"
    assert parse_rule("2 A -> .", AB) == parse_rule("A + A -> .", AB)
    assert parse_rule("2 A -> .", AB).text == "A + A -> ."


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
        (("Y", "X", "Y"), ("Y", "X"), ("Y",)),
        (("X", "X"), ("X", "X"), ()),
    ],
)
def test_ordinal_helper_and_make_build_equal_rules(ordinal_args, reactants, products):
    text = f"{' + '.join(reactants)} -> {' + '.join(products) or '.'}"
    fast, parsed = _rule(AB, *ordinal_args), parse_rule(text, AB)
    assert fast == parsed and hash(fast) == hash(parsed)
    assert fast.delta == parsed.delta
    assert fast.text == parsed.text


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
    "rule", [parse_rule("A + B -> .", AB), parse_rule("Y + X -> Y", AB), parse_rule("2 X -> .", AB)]
)
def test_rule_pickle_round_trip(rule):
    back = pickle.loads(pickle.dumps(rule))
    assert back == rule and back.delta == rule.delta


@pytest.mark.parametrize(
    "reactants, products, message",
    [
        ((), (), "rule needs at least one reactant with positive count"),
        (((0, 0),), (), "rule needs at least one reactant with positive count"),
        (((0, 1), (1, -1)), (), "rule needs at least one reactant with positive count"),
        (((0, 1),), ((1, 0),), "product counts must be positive"),
        (((0, 1),), ((1, -2),), "product counts must be positive"),
    ],
)
def test_bad_counts_raise_the_same_messages(reactants, products, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Rule(AB, reactants, products)


@pytest.mark.parametrize(
    "reactants, products, message",
    [
        (((0, 1), (5, 1)), (), "reactant ordinal 5 is outside the alphabet"),
        (((-1, 1), (0, 1)), (), "reactant ordinal -1 is outside the alphabet"),
        (((0, 1), (1, 1)), ((2, 1),), "product ordinal 2 is outside the alphabet"),
        (((0, 1), (1, 1)), ((-2, 1),), "product ordinal -2 is outside the alphabet"),
    ],
)
def test_rule_refuses_ordinals_outside_its_alphabet(reactants, products, message):
    # Such a rule would index past the alphabet, or wrap round to its
    # last species, when a run fires it or the program is printed.
    with pytest.raises(ValueError, match=f"^{message}$"):
        Rule(Alphabet(["A", "B"]), reactants, products)


@pytest.mark.parametrize("name", ["", "x\tT", "a\u00a0b", "y\u2003", " A", "B\n"])
def test_alphabet_rejects_empty_and_whitespace_names(name):
    with pytest.raises(ValueError, match="bad species name"):
        Alphabet(["A", name])


def test_alphabet_accepts_arrow_names():
    ab = Alphabet(["y[3->7]T", "dx"])
    assert ab.ordinal("y[3->7]T") == 0
