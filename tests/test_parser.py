"""Unit tests for the subscription language parser."""

from __future__ import annotations

import pytest

from repro.events import Event
from repro.predicates import Operator
from repro.subscriptions import (
    And,
    Not,
    Or,
    PredicateLeaf,
    SubscriptionSyntaxError,
    parse,
)


def single_predicate(text):
    node = parse(text)
    assert isinstance(node, PredicateLeaf)
    return node.predicate


class TestPredicateParsing:
    def test_equality(self):
        p = single_predicate("price = 10")
        assert (p.attribute, p.operator, p.value) == ("price", Operator.EQ, 10)

    def test_equality_alias(self):
        assert single_predicate("a == 1").operator is Operator.EQ

    def test_inequality_aliases(self):
        assert single_predicate("a != 1").operator is Operator.NE
        assert single_predicate("a <> 1").operator is Operator.NE

    @pytest.mark.parametrize(
        "symbol, operator",
        [("<", Operator.LT), ("<=", Operator.LE), (">", Operator.GT),
         (">=", Operator.GE)],
    )
    def test_comparisons(self, symbol, operator):
        assert single_predicate(f"a {symbol} 3").operator is operator

    def test_float_value(self):
        assert single_predicate("a = 1.5").value == 1.5

    def test_negative_number(self):
        assert single_predicate("a > -3").value == -3

    def test_single_quoted_string(self):
        assert single_predicate("sym = 'ACME'").value == "ACME"

    def test_double_quoted_string(self):
        assert single_predicate('sym = "ACME"').value == "ACME"

    def test_escaped_quote_in_string(self):
        assert single_predicate(r"s = 'it\'s'").value == "it's"

    def test_boolean_values(self):
        assert single_predicate("x = true").value is True
        assert single_predicate("x = false").value is False

    def test_between(self):
        p = single_predicate("a between [1, 5]")
        assert p.operator is Operator.BETWEEN
        assert p.value == (1, 5)

    def test_in_set(self):
        p = single_predicate("a in {1, 2, 3}")
        assert p.operator is Operator.IN
        assert p.value == frozenset({1, 2, 3})

    def test_string_operators(self):
        assert single_predicate("s prefix 'ab'").operator is Operator.PREFIX
        assert single_predicate("s suffix 'ab'").operator is Operator.SUFFIX
        assert single_predicate("s contains 'ab'").operator is Operator.CONTAINS

    def test_exists(self):
        p = single_predicate("exists(price)")
        assert p.operator is Operator.EXISTS
        assert p.attribute == "price"

    def test_dotted_attribute_names(self):
        assert single_predicate("order.total > 5").attribute == "order.total"


class TestBooleanStructure:
    def test_and_chain_is_nary(self):
        node = parse("a = 1 and b = 2 and c = 3")
        assert isinstance(node, And)
        assert len(node.operands) == 3

    def test_or_chain_is_nary(self):
        node = parse("a = 1 or b = 2 or c = 3")
        assert isinstance(node, Or)
        assert len(node.operands) == 3

    def test_and_binds_tighter_than_or(self):
        node = parse("a = 1 or b = 2 and c = 3")
        assert isinstance(node, Or)
        assert isinstance(node.operands[1], And)

    def test_parentheses_override_precedence(self):
        node = parse("(a = 1 or b = 2) and c = 3")
        assert isinstance(node, And)
        assert isinstance(node.operands[0], Or)

    def test_not_prefix(self):
        node = parse("not a = 1")
        assert isinstance(node, Not)

    def test_not_binds_tightest(self):
        node = parse("not a = 1 and b = 2")
        assert isinstance(node, And)
        assert isinstance(node.operands[0], Not)

    def test_double_not(self):
        node = parse("not not a = 1")
        assert isinstance(node, Not)
        assert isinstance(node.child, Not)

    def test_symbolic_operators(self):
        assert isinstance(parse("a = 1 & b = 2"), And)
        assert isinstance(parse("a = 1 && b = 2"), And)
        assert isinstance(parse("a = 1 | b = 2"), Or)
        assert isinstance(parse("a = 1 || b = 2"), Or)
        assert isinstance(parse("!(a = 1)"), Not)

    def test_keywords_case_insensitive(self):
        assert isinstance(parse("a = 1 AND b = 2"), And)
        assert isinstance(parse("NOT a = 1"), Not)

    def test_paper_example_subscription(self):
        node = parse(
            "(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)"
        )
        assert isinstance(node, And)
        assert all(isinstance(child, Or) for child in node.operands)
        assert len(list(node.predicates())) == 6


class TestParsedSemantics:
    def test_parsed_expression_matches_events(self):
        node = parse("(price > 10 or urgent = true) and sym prefix 'AC'")
        assert node.matches(Event({"price": 12, "sym": "ACME"}))
        assert node.matches(Event({"urgent": True, "sym": "ACE"}))
        assert not node.matches(Event({"price": 12, "sym": "ZME"}))
        assert not node.matches(Event({"price": 5, "sym": "ACME"}))

    def test_roundtrip_through_str(self):
        original = parse("(a > 1 and b <= 2) or not c = 3")
        assert parse(str(original)) == original


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "and",
            "a =",
            "a 10",
            "= 10",
            "(a = 1",
            "a = 1)",
            "a = 1 or",
            "a between [1]",
            "a between [1, 2",
            "a in {}",
            "a in {1, }",
            "a prefix 5",
            "exists price",
            "exists()",
            "a ~ 5",
            "a = 'unterminated",
            "a = 1 b = 2",
        ],
    )
    def test_malformed_input_raises(self, text):
        with pytest.raises(SubscriptionSyntaxError):
            parse(text)

    def test_error_carries_position(self):
        with pytest.raises(SubscriptionSyntaxError) as info:
            parse("a = 1 or or b = 2")
        assert info.value.position > 0

    def test_deep_nesting_is_a_syntax_error(self):
        assert parse("(" * 300 + "a > 1" + ")" * 300) == parse("a > 1")
        with pytest.raises(SubscriptionSyntaxError, match="nested too deeply"):
            parse("(" * 350 + "a > 1" + ")" * 350)

    def test_none_like_input(self):
        with pytest.raises(SubscriptionSyntaxError):
            parse("\n\t ")

    @pytest.mark.parametrize("text", [None, ""])
    def test_none_and_empty_are_syntax_errors(self, text):
        with pytest.raises(SubscriptionSyntaxError, match="empty subscription"):
            parse(text)

    @pytest.mark.parametrize("text", [123, b"a = 1", ["a = 1"]])
    def test_non_string_is_a_type_error_naming_the_type(self, text):
        with pytest.raises(TypeError, match=type(text).__name__):
            parse(text)
