"""Unit tests for predicate operators (repro.predicates.operators)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.predicates import Operator


class TestComparisonSemantics:
    @pytest.mark.parametrize(
        "operator, value, operand, expected",
        [
            (Operator.EQ, 5, 5, True),
            (Operator.EQ, 5, 6, False),
            (Operator.EQ, "a", "a", True),
            (Operator.NE, 5, 6, True),
            (Operator.NE, 5, 5, False),
            (Operator.LT, 4, 5, True),
            (Operator.LT, 5, 5, False),
            (Operator.LE, 5, 5, True),
            (Operator.LE, 6, 5, False),
            (Operator.GT, 6, 5, True),
            (Operator.GT, 5, 5, False),
            (Operator.GE, 5, 5, True),
            (Operator.GE, 4, 5, False),
        ],
    )
    def test_numeric_comparisons(self, operator, value, operand, expected):
        assert operator.evaluate(value, operand) is expected

    def test_int_float_comparisons_mix(self):
        assert Operator.LT.evaluate(1, 1.5)
        assert Operator.GE.evaluate(2.0, 2)

    def test_string_ordering_is_lexicographic(self):
        assert Operator.LT.evaluate("apple", "banana")
        assert not Operator.LT.evaluate("pear", "banana")

    def test_cross_domain_comparison_is_false_not_error(self):
        assert Operator.LT.evaluate("abc", 5) is False
        assert Operator.GE.evaluate(5, "abc") is False

    def test_eq_distinguishes_bool_from_int(self):
        assert Operator.EQ.evaluate(True, True)
        assert not Operator.EQ.evaluate(1, True)
        assert not Operator.EQ.evaluate(True, 1)

    def test_ne_distinguishes_bool_from_int(self):
        # different domains: neither equal nor usefully unequal
        assert not Operator.NE.evaluate(1, True)

    def test_bool_ordered_comparison_rejected(self):
        assert Operator.LT.evaluate(True, 5) is False
        assert Operator.GT.evaluate(5, True) is False


class TestCompoundOperators:
    def test_between_inclusive_bounds(self):
        assert Operator.BETWEEN.evaluate(10, (10, 20))
        assert Operator.BETWEEN.evaluate(20, (10, 20))
        assert Operator.BETWEEN.evaluate(15, (10, 20))
        assert not Operator.BETWEEN.evaluate(9, (10, 20))
        assert not Operator.BETWEEN.evaluate(21, (10, 20))

    def test_between_string_domain(self):
        assert Operator.BETWEEN.evaluate("m", ("a", "z"))
        assert not Operator.BETWEEN.evaluate("m", ("n", "z"))

    def test_between_cross_domain_is_false(self):
        assert Operator.BETWEEN.evaluate("m", (1, 5)) is False

    def test_in_membership(self):
        assert Operator.IN.evaluate(2, frozenset({1, 2, 3}))
        assert not Operator.IN.evaluate(4, frozenset({1, 2, 3}))

    def test_in_with_strings(self):
        assert Operator.IN.evaluate("b", frozenset({"a", "b"}))

    def test_exists_always_true_when_evaluated(self):
        assert Operator.EXISTS.evaluate("anything", None)
        assert Operator.EXISTS.evaluate(0, None)


class TestStringOperators:
    def test_prefix(self):
        assert Operator.PREFIX.evaluate("acme corp", "acme")
        assert not Operator.PREFIX.evaluate("the acme", "acme")

    def test_suffix(self):
        assert Operator.SUFFIX.evaluate("report.pdf", ".pdf")
        assert not Operator.SUFFIX.evaluate("pdf.report", ".pdf")

    def test_contains(self):
        assert Operator.CONTAINS.evaluate("an urgent note", "urgent")
        assert not Operator.CONTAINS.evaluate("a calm note", "urgent")

    def test_empty_operand_matches_everything(self):
        assert Operator.PREFIX.evaluate("x", "")
        assert Operator.SUFFIX.evaluate("x", "")
        assert Operator.CONTAINS.evaluate("x", "")

    def test_string_operators_false_on_non_string_value(self):
        assert Operator.PREFIX.evaluate(5, "a") is False
        assert Operator.SUFFIX.evaluate(5, "a") is False
        assert Operator.CONTAINS.evaluate(5, "a") is False


class TestOperatorMetadata:
    def test_from_symbol_canonical(self):
        assert Operator.from_symbol("=") is Operator.EQ
        assert Operator.from_symbol("<=") is Operator.LE
        assert Operator.from_symbol("between") is Operator.BETWEEN

    def test_from_symbol_aliases(self):
        assert Operator.from_symbol("==") is Operator.EQ
        assert Operator.from_symbol("<>") is Operator.NE

    def test_from_symbol_case_insensitive(self):
        assert Operator.from_symbol("PREFIX") is Operator.PREFIX

    def test_from_symbol_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown operator"):
            Operator.from_symbol("~=")

    def test_numeric_range_classification(self):
        assert Operator.LT.is_numeric_range
        assert Operator.BETWEEN.is_numeric_range
        assert not Operator.EQ.is_numeric_range

    def test_string_only_classification(self):
        assert Operator.PREFIX.is_string_only
        assert not Operator.EQ.is_string_only


class TestOperatorProperties:
    @given(st.integers(), st.integers())
    def test_lt_gt_duality(self, value, operand):
        assert Operator.LT.evaluate(value, operand) == Operator.GT.evaluate(
            operand, value
        )

    @given(st.integers(), st.integers())
    def test_le_is_lt_or_eq(self, value, operand):
        assert Operator.LE.evaluate(value, operand) == (
            Operator.LT.evaluate(value, operand)
            or Operator.EQ.evaluate(value, operand)
        )

    @given(st.integers(), st.integers())
    def test_eq_ne_complement_on_same_domain(self, value, operand):
        assert Operator.EQ.evaluate(value, operand) != Operator.NE.evaluate(
            value, operand
        )

    @given(st.integers(), st.integers(), st.integers())
    def test_between_equals_conjunction_of_bounds(self, value, low, high):
        if low > high:
            low, high = high, low
        assert Operator.BETWEEN.evaluate(value, (low, high)) == (
            Operator.GE.evaluate(value, low)
            and Operator.LE.evaluate(value, high)
        )
