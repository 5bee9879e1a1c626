import pickle

import pytest

from stepcrn import (
    Alphabet,
    Configuration,
    Rule,
    RuleFamily,
    classify_rule,
    parse_rule,
)
from stepcrn.lowering import _rule

from reference import applicable, apply_rule, is_terminal

AB = Alphabet(["A", "B", "C", "Y", "X", "H", "O", "W"])


def cfg(**counts):
    return Configuration.from_dict(AB, counts)


def test_classify_pair_annihilation():
    r = Rule.make(AB, ("A", "B"))
    cls = classify_rule(r)
    assert cls.size == (2, 0) and cls.family is RuleFamily.TRUE_VOID


def test_classify_catalytic():
    r = Rule.make(AB, ("Y", "X"), ("Y",))
    cls = classify_rule(r)
    assert cls.size == (2, 1) and cls.family is RuleFamily.CATALYTIC_VOID


def test_classify_other_and_sizes():
    r = Rule.make(AB, {"H": 2, "O": 1}, {"W": 1})
    cls = classify_rule(r)
    assert cls.size == (3, 1) and cls.family is RuleFamily.OTHER


def test_classify_autogenesis():
    r = Rule.make(AB, ("A",), ("A", "B"))
    assert classify_rule(r).family is RuleFamily.AUTOGENESIS


def test_empty_reactants_rejected():
    with pytest.raises(ValueError):
        Rule.make(AB, (), ("A",))


def test_classification_stable_under_alphabet_reordering():
    ab2 = Alphabet(list(reversed(AB.names)))
    r1 = Rule.make(AB, ("Y", "X"), ("Y",))
    r2 = Rule.make(ab2, ("Y", "X"), ("Y",))
    assert classify_rule(r1) == classify_rule(r2)


def test_applicable_basic():
    r = Rule.make(AB, ("A", "B"))
    assert applicable(cfg(A=1, B=1), r)
    assert not applicable(cfg(A=1), r)


def test_applicable_self_pair():
    r = Rule.make(AB, {"A": 2})
    assert applicable(cfg(A=2), r)
    assert not applicable(cfg(A=1), r)


def test_apply_pair_to_empty():
    out = apply_rule(cfg(A=1, B=1), Rule.make(AB, ("A", "B")))
    assert out.as_dict() == {}


def test_apply_catalyst_preserved():
    out = apply_rule(cfg(Y=1, X=3), Rule.make(AB, ("Y", "X"), ("Y",)))
    assert out.as_dict() == {"Y": 1, "X": 2}


def test_apply_self_pair():
    out = apply_rule(cfg(A=2), Rule.make(AB, {"A": 2}))
    assert out.as_dict() == {}


def test_apply_requires_applicability():
    with pytest.raises(ValueError):
        apply_rule(cfg(A=1), Rule.make(AB, ("A", "B")))


def test_is_terminal():
    rules = [Rule.make(AB, ("A", "B"))]
    assert is_terminal(cfg(A=1), rules)
    assert not is_terminal(cfg(A=1, B=1), rules)
    assert is_terminal(cfg(), rules)


def test_void_application_shrinks_volume_by_size_difference():
    for reactants, products in [
        ({"A": 1, "B": 1}, {}),
        ({"A": 2}, {}),
        ({"Y": 1, "X": 1}, {"Y": 1}),
    ]:
        r = Rule.make(AB, reactants, products)
        i, j = classify_rule(r).size
        before = cfg(A=3, B=3, Y=2, X=2)
        after = apply_rule(before, r)
        assert before.volume - after.volume == i - j


def test_rule_text_round_trip():
    for r in [
        Rule.make(AB, ("A", "B")),
        Rule.make(AB, {"A": 2}),
        Rule.make(AB, ("Y", "X"), ("Y",)),
        Rule.make(AB, {"H": 2, "O": 1}, {"W": 1}),
    ]:
        assert parse_rule(r.text, AB) == r


def test_rule_text_forms():
    assert Rule.make(AB, ("A", "B")).text == "A + B -> ."
    assert Rule.make(AB, ("Y", "X"), ("Y",)).text == "Y + X -> Y"
    assert parse_rule("2 A -> .", AB) == Rule.make(AB, {"A": 2})


def test_configuration_views():
    c = cfg(A=2, X=1)
    assert c.volume == 3
    assert c.get("A") == 2 and c.get("B") == 0
    assert c.as_dict() == {"A": 2, "X": 1}
    with pytest.raises(ValueError):
        Configuration(AB, (-1,) * len(AB))


# -- rule construction ----------------------------------------------------------


@pytest.mark.parametrize(
    "ordinal_args, reactants, products",
    [
        (("B", "A"), ("A", "B"), ()),
        (("Y", "X", "Y"), ("Y", "X"), ("Y",)),
        (("X", "X"), {"X": 2}, ()),
    ],
)
def test_ordinal_helper_and_make_build_equal_rules(ordinal_args, reactants, products):
    fast, made = _rule(AB, *ordinal_args), Rule.make(AB, reactants, products)
    assert fast == made and hash(fast) == hash(made)
    assert fast.delta == made.delta
    assert fast.text == made.text


def test_delta_merges_unsorted_or_repeated_reactants():
    assert Rule(AB, ((3, 1), (1, 1)), ()).delta == ((1, -1), (3, -1))
    assert Rule(AB, ((1, 1), (1, 1)), ()).delta == ((1, -2),)
    assert Rule(AB, ((1, 1), (4, 1)), ((1, 1),)).delta == ((4, -1),)


def test_delta_is_not_part_of_equality():
    r = Rule.make(AB, ("A", "B"))
    twin = Rule.make(AB, ("A", "B"))
    object.__setattr__(twin, "delta", ())
    assert r == twin and hash(r) == hash(twin)


def test_rule_has_no_instance_dict():
    assert not hasattr(Rule.make(AB, ("A", "B")), "__dict__")


@pytest.mark.parametrize(
    "rule", [Rule.make(AB, ("A", "B")), Rule.make(AB, ("Y", "X"), ("Y",)), Rule.make(AB, {"X": 2})]
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


@pytest.mark.parametrize("name", ["", "x\tT", "a\u00a0b", "y\u2003", " A", "B\n"])
def test_alphabet_rejects_empty_and_whitespace_names(name):
    with pytest.raises(ValueError, match="bad species name"):
        Alphabet(["A", name])


def test_alphabet_accepts_arrow_names():
    ab = Alphabet(["y[3->7]T", "dx"])
    assert ab.ordinal("y[3->7]T") == 0
