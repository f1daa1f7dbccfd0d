"""Unit and soundness-property tests for subscription covering."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates import Operator, Predicate
from repro.subscriptions import And, CoveringIndex, leaf, parse, summarize
from repro.subscriptions.covering import (
    clause_covers,
    covers,
    predicate_covers,
)
from repro.subscriptions.normal_forms import to_dnf

from helpers import random_events, random_expressions
from helpers import event_strategy, predicate_strategy


def P(attribute, operator, value=None):
    return Predicate(attribute, operator, value)


class TestPredicateCovers:
    @pytest.mark.parametrize(
        "coverer, covered",
        [
            (P("a", Operator.GE, 5), P("a", Operator.GT, 7)),
            (P("a", Operator.GE, 5), P("a", Operator.GE, 5)),
            (P("a", Operator.GT, 5), P("a", Operator.GT, 5)),
            (P("a", Operator.GT, 5), P("a", Operator.GE, 6)),
            (P("a", Operator.LE, 10), P("a", Operator.LT, 10)),
            (P("a", Operator.LT, 10), P("a", Operator.EQ, 3)),
            (P("a", Operator.GE, 0), P("a", Operator.BETWEEN, (1, 5))),
            (P("a", Operator.BETWEEN, (0, 10)), P("a", Operator.BETWEEN, (2, 8))),
            (P("a", Operator.BETWEEN, (0, 10)), P("a", Operator.EQ, 10)),
            (P("a", Operator.IN, [1, 2, 3]), P("a", Operator.EQ, 2)),
            (P("a", Operator.IN, [1, 2, 3]), P("a", Operator.IN, [1, 3])),
            (P("a", Operator.NE, 9), P("a", Operator.LT, 9)),
            (P("a", Operator.NE, 9), P("a", Operator.EQ, 8)),
            (P("a", Operator.NE, 9), P("a", Operator.IN, [1, 2])),
            (P("a", Operator.EXISTS), P("a", Operator.EQ, 1)),
            (P("a", Operator.EXISTS), P("a", Operator.PREFIX, "x")),
            (P("s", Operator.PREFIX, "ab"), P("s", Operator.PREFIX, "abc")),
            (P("s", Operator.PREFIX, "ab"), P("s", Operator.EQ, "abz")),
            (P("s", Operator.SUFFIX, "yz"), P("s", Operator.SUFFIX, "xyz")),
            (P("s", Operator.CONTAINS, "b"), P("s", Operator.CONTAINS, "abc")),
            (P("s", Operator.CONTAINS, "b"), P("s", Operator.PREFIX, "ab")),
            (P("s", Operator.CONTAINS, "b"), P("s", Operator.EQ, "abc")),
        ],
    )
    def test_positive_cases(self, coverer, covered):
        assert predicate_covers(coverer, covered)

    @pytest.mark.parametrize(
        "coverer, covered",
        [
            (P("a", Operator.GT, 7), P("a", Operator.GE, 5)),
            (P("a", Operator.GE, 5), P("a", Operator.LT, 7)),
            (P("b", Operator.GE, 5), P("a", Operator.GE, 7)),
            (P("a", Operator.BETWEEN, (2, 8)), P("a", Operator.BETWEEN, (0, 10))),
            (P("a", Operator.EQ, 2), P("a", Operator.IN, [1, 2])),
            (P("a", Operator.NE, 5), P("a", Operator.LT, 7)),
            (P("a", Operator.NE, 1), P("a", Operator.EQ, True)),
            (P("s", Operator.PREFIX, "abc"), P("s", Operator.PREFIX, "ab")),
            (P("a", Operator.EQ, 1), P("a", Operator.EXISTS)),
        ],
    )
    def test_negative_cases(self, coverer, covered):
        assert not predicate_covers(coverer, covered)

    @given(predicate_strategy(), predicate_strategy(), event_strategy())
    @settings(max_examples=300, deadline=None)
    def test_soundness_against_evaluation(self, coverer, covered, event):
        """If predicate_covers says yes, implication must hold on every
        event — the core property the routing optimization relies on."""
        if predicate_covers(coverer, covered) and covered.matches(event):
            assert coverer.matches(event), (coverer, covered, dict(event))


class TestClauseAndExpressionCovers:
    def test_conjunction_weakening(self):
        wide = parse("a > 0")
        narrow = parse("a > 5 and b = 1")
        assert covers(wide, narrow)
        assert not covers(narrow, wide)

    def test_disjunction_widening(self):
        wide = parse("a = 1 or b = 2 or c = 3")
        narrow = parse("a = 1 or b = 2")
        assert covers(wide, narrow)
        assert not covers(narrow, wide)

    def test_mixed_shape(self):
        wide = parse("(price >= 0 or urgent = true) and volume > 10")
        narrow = parse("price between [5, 10] and volume > 20")
        assert covers(wide, narrow)

    def test_identical_expressions_cover(self):
        expression = parse("(a = 1 or b = 2) and c < 5")
        assert covers(expression, expression)

    def test_clause_covers_uses_predicate_implication(self):
        coverer = to_dnf(parse("a >= 5")).clauses[0]
        covered = to_dnf(parse("a > 6 and b = 1")).clauses[0]
        assert clause_covers(coverer, covered)
        assert not clause_covers(covered, coverer)

    def test_negative_literal_covering(self):
        narrow = parse("not a between [1, 5]")
        wide = parse("not a between [1, 6]")
        assert covers(narrow, narrow)
        # NOT[1,6] implies NOT[1,5] (the negated interval shrinks) ...
        assert covers(narrow, wide)
        # ... but not the other way around (a = 6 separates them)
        assert not covers(wide, narrow)

    def test_explosion_returns_false(self):
        from repro.workloads import PaperSubscriptionGenerator

        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=10, seed=1
        )
        big = generator.subscription().expression
        assert not covers(big, big, max_clauses=4)

    @given(
        random_expressions(max_leaves=4),
        random_expressions(max_leaves=4),
        random_events(),
    )
    @settings(max_examples=150, deadline=None)
    def test_soundness_on_random_expressions(self, coverer, covered, event):
        if covers(coverer, covered) and covered.matches(event):
            assert coverer.matches(event)

    @given(
        random_expressions(max_leaves=4),
        random_expressions(max_leaves=4),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_soundness_on_events_targeting_the_covered_side(
        self, coverer, covered, seed
    ):
        """The routing property, stated positively: when ``covers(a, b)``
        every event *generated to match b* must match ``a``.

        Uniform random events rarely satisfy a conjunction, so the plain
        random-event property exercises the implication's vacuous branch
        most of the time; this variant synthesizes witnesses from the
        covered expression's own DNF clauses.
        """
        if not covers(coverer, covered):
            return
        for clause_index, event in enumerate(
            satisfying_events(covered, seed=seed)
        ):
            if covered.matches(event):
                assert coverer.matches(event), (clause_index, dict(event))


class TestNaNBounds:
    """NaN compares false both ways, so a NaN bound must never count as
    an interval: it would seem to contain every bounded one."""

    @pytest.mark.parametrize(
        "coverer",
        [
            P("x", Operator.EQ, float("nan")),
            P("x", Operator.BETWEEN, (float("nan"), 5)),
        ],
    )
    def test_nan_bound_covers_no_value(self, coverer):
        assert covers(leaf(coverer), parse("x = 3")) is False

    def test_summary_does_not_depend_on_literal_order(self):
        point = parse("x = 3")
        # the DNF compares by identity: compare every other field, which
        # must read as ``x = 3`` alone (a NaN literal bounds nothing)
        expected = replace(summarize(point), dnf=None)
        # NaN objects hash apart, so the clause's literal order (a set's
        # iteration order) varies across them
        for _ in range(8):
            nan = leaf(P("x", Operator.EQ, float("nan")))
            for expression in (And([point, nan]), And([nan, point])):
                assert replace(summarize(expression), dnf=None) == expected


def satisfying_events(expression, *, seed: int, per_clause: int = 3):
    """Candidate witnesses for an expression, one batch per DNF clause.

    Each event assigns every positive literal of one clause a value
    satisfying it (negative literals simply omit extra attributes, which
    satisfies ``NOT p`` under absent-attribute semantics unless the
    positive literals pin the attribute — those events fail the
    ``covered.matches`` guard and are skipped by the caller).
    """
    from repro.events import Event

    rng = random.Random(seed)
    try:
        dnf = to_dnf(expression, max_clauses=64)
    except Exception:
        return
    for clause in dnf:
        for _ in range(per_clause):
            attributes = {}
            feasible = True
            for literal in clause:
                if not literal.positive:
                    continue
                predicate = literal.predicate
                value = _satisfying_value(predicate, rng)
                if value is _INFEASIBLE:
                    feasible = False
                    break
                existing = attributes.get(predicate.attribute, _INFEASIBLE)
                if existing is not _INFEASIBLE and existing != value:
                    # conflicting requirements: try the event anyway with
                    # the first value; the matches() guard filters it
                    continue
                attributes[predicate.attribute] = value
            if feasible and attributes:
                yield Event(attributes)


_INFEASIBLE = object()


def _satisfying_value(predicate, rng):
    operator, value = predicate.operator, predicate.value
    if operator is Operator.EQ:
        return value
    if operator is Operator.NE:
        return (value + 1) if isinstance(value, (int, float)) else f"{value}x"
    if operator is Operator.LT:
        return value - 1 if isinstance(value, (int, float)) else _INFEASIBLE
    if operator is Operator.LE:
        return value
    if operator is Operator.GT:
        return value + 1 if isinstance(value, (int, float)) else _INFEASIBLE
    if operator is Operator.GE:
        return value
    if operator is Operator.BETWEEN:
        low, high = value
        if isinstance(low, (int, float)) and not isinstance(low, bool):
            return low + rng.random() * (high - low) if high > low else low
        return low
    if operator is Operator.IN:
        return rng.choice(sorted(value, key=repr))
    if operator is Operator.PREFIX:
        return value + "tail"
    if operator is Operator.SUFFIX:
        return "head" + value
    if operator is Operator.CONTAINS:
        return f"a{value}b"
    if operator is Operator.EXISTS:
        return 1
    return _INFEASIBLE


def prune_covered(expressions):
    """(maximal ids, covered id -> coverer) of a set, inserted in id order."""
    index = CoveringIndex()
    for identifier in sorted(expressions):
        index.add(identifier, summarize(expressions[identifier]))
    return index.maximal_ids(), index.covered_mapping()


class TestPruneCovered:
    def test_basic_pruning(self):
        expressions = {
            1: parse("a > 0"),
            2: parse("a > 5"),
            3: parse("a > 5 and b = 1"),
            4: parse("c = 9"),
        }
        maximal, covered_by = prune_covered(expressions)
        assert maximal == {1, 4}
        assert covered_by[2] == 1
        assert covered_by[3] == 1  # chains re-rooted to a maximal coverer

    def test_no_covering(self):
        expressions = {1: parse("a = 1"), 2: parse("b = 2")}
        maximal, covered_by = prune_covered(expressions)
        assert maximal == {1, 2}
        assert covered_by == {}

    def test_equivalent_expressions_keep_one(self):
        expressions = {1: parse("a > 5"), 2: parse("a > 5")}
        maximal, covered_by = prune_covered(expressions)
        assert len(maximal) == 1
        assert len(covered_by) == 1

    def test_roots_are_maximal(self):
        expressions = {
            1: parse("a >= 0"),
            2: parse("a >= 1"),
            3: parse("a >= 2"),
        }
        maximal, covered_by = prune_covered(expressions)
        assert all(value in maximal for value in covered_by.values())
