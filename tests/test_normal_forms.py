"""Unit and property tests for canonical transformations
(repro.subscriptions.normal_forms)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.events import Event
from repro.predicates import Operator, Predicate
from repro.subscriptions import (
    And,
    Clause,
    DnfExplosionError,
    Literal,
    Not,
    Or,
    PredicateLeaf,
    dnf_clause_count,
    leaf,
    parse,
    to_dnf,
    to_nnf,
)
from repro.workloads import PaperSubscriptionGenerator

from helpers import random_events, random_expressions

P1 = Predicate("a", Operator.GT, 10)
P2 = Predicate("b", Operator.EQ, 1)
P3 = Predicate("c", Operator.LT, 0)


class TestLiteralAndClause:
    def test_literal_evaluation(self):
        positive = Literal(P1)
        negative = Literal(P1, positive=False)
        assert positive.evaluate(lambda p: True)
        assert not negative.evaluate(lambda p: True)

    def test_complement(self):
        assert Literal(P1).complement() == Literal(P1, positive=False)

    def test_clause_requires_literals(self):
        with pytest.raises(ValueError):
            Clause([])

    def test_contradictory_clause_detection(self):
        clause = Clause([Literal(P1), Literal(P1, positive=False)])
        assert clause.is_contradictory
        assert not Clause([Literal(P1), Literal(P2)]).is_contradictory

    def test_clause_negative_literal_detection(self):
        assert Clause([Literal(P1, positive=False)]).has_negative_literals()
        assert not Clause([Literal(P1)]).has_negative_literals()

    def test_clause_conjunctive_evaluation(self):
        clause = Clause([Literal(P1), Literal(P2)])
        truth = {P1: True, P2: True}
        assert clause.evaluate_conjunctive(truth.__getitem__)
        truth[P2] = False
        assert not clause.evaluate_conjunctive(truth.__getitem__)


class TestNNF:
    def test_not_over_and_becomes_or(self):
        expression = Not(And((leaf(P1), leaf(P2))))
        nnf = to_nnf(expression)
        assert isinstance(nnf, Or)

    def test_not_over_or_becomes_and(self):
        expression = Not(Or((leaf(P1), leaf(P2))))
        nnf = to_nnf(expression)
        assert isinstance(nnf, And)

    def test_default_keeps_negative_literals(self):
        nnf = to_nnf(Not(leaf(P1)))
        assert isinstance(nnf, Not)
        assert isinstance(nnf.child, PredicateLeaf)

    def test_complement_mode_flips_operator(self):
        nnf = to_nnf(Not(leaf(P1)), complement_operators=True)
        assert isinstance(nnf, PredicateLeaf)
        assert nnf.predicate.operator is Operator.LE

    def test_complement_mode_keeps_not_for_between(self):
        p = Predicate("a", Operator.BETWEEN, (1, 2))
        nnf = to_nnf(Not(PredicateLeaf(p)), complement_operators=True)
        assert isinstance(nnf, Not)

    def test_double_negation_eliminated(self):
        assert to_nnf(Not(Not(leaf(P1)))) == leaf(P1)

    @given(random_expressions(), random_events())
    def test_nnf_preserves_semantics(self, expression, event):
        assert expression.matches(event) == to_nnf(expression).matches(event)

    @given(random_expressions())
    def test_nnf_pushes_not_to_leaves(self, expression):
        def check(node):
            if isinstance(node, Not):
                assert isinstance(node.child, PredicateLeaf)
                return
            for child in node.children():
                check(child)

        check(to_nnf(expression))


class TestDNF:
    def test_conjunction_is_single_clause(self):
        dnf = to_dnf(And((leaf(P1), leaf(P2))))
        assert len(dnf) == 1
        assert len(dnf.clauses[0]) == 2

    def test_disjunction_is_clause_per_operand(self):
        dnf = to_dnf(Or((leaf(P1), leaf(P2), leaf(P3))))
        assert len(dnf) == 3

    def test_paper_example_yields_nine_clauses(self):
        # §3.1: "s results in 9 disjunctions"
        expression = parse(
            "(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)"
        )
        assert dnf_clause_count(expression) == 9
        assert len(to_dnf(expression)) == 9

    def test_paper_workload_blowup(self):
        # §4: |p| predicates -> 2**(|p|/2) clauses of |p|/2 predicates
        for p in (6, 8, 10):
            generator = PaperSubscriptionGenerator(
                predicates_per_subscription=p, seed=1
            )
            expression = generator.subscription().expression
            dnf = to_dnf(expression)
            assert len(dnf) == 2 ** (p // 2)
            assert all(len(clause) == p // 2 for clause in dnf)

    def test_clause_count_matches_materialization(self):
        expression = parse("(a = 1 or b = 2) and (c = 3 or d = 4) and e = 5")
        assert dnf_clause_count(expression) == len(to_dnf(expression)) == 4

    def test_explosion_cap_enforced(self):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=10, seed=1
        )
        expression = generator.subscription().expression
        with pytest.raises(DnfExplosionError):
            to_dnf(expression, max_clauses=10)

    def test_contradictions_dropped(self):
        expression = And((leaf(P1), Not(leaf(P1))))
        dnf = to_dnf(expression)
        # the only clause is contradictory; one survives as the False carrier
        assert len(dnf) == 1
        assert not dnf.evaluate(lambda p: True)

    def test_absorption(self):
        expression = Or((leaf(P1), And((leaf(P1), leaf(P2)))))
        dnf = to_dnf(expression).absorbed()
        assert len(dnf) == 1

    def test_blowup_ratio_on_paper_workload(self):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=8, seed=1
        )
        expression = generator.subscription().expression
        # post-DNF literal occurrences per original predicate occurrence:
        # 2**(|p|/2 - 1) = 8 for |p| = 8
        original = sum(1 for _ in expression.predicates())
        assert to_dnf(expression).total_literal_count() / original == 8.0

    @given(random_expressions(max_leaves=5), random_events())
    @settings(max_examples=60)
    def test_dnf_preserves_semantics(self, expression, event):
        dnf = to_dnf(expression)
        truth = {p: p.matches(event) for p in expression.unique_predicates()}
        assert dnf.evaluate(truth.__getitem__) == expression.matches(event)

    @given(random_expressions(max_leaves=5))
    @settings(max_examples=60)
    def test_clause_count_never_below_materialized(self, expression):
        # the closed form over-counts only (dedup/contradiction removal)
        assert dnf_clause_count(expression) >= len(
            to_dnf(expression, drop_contradictions=False)
        )

    def test_predicates_collected_across_clauses(self):
        expression = parse("(a = 1 or b = 2) and c = 3")
        assert len(to_dnf(expression).predicates()) == 3


class TestComplementModeCaveat:
    def test_complement_mode_differs_on_absent_attribute(self):
        """The documented soundness caveat: NOT a>10 vs a<=10 on events
        without ``a``."""
        expression = Not(leaf(P1))
        event = Event({"z": 1})
        sound = to_dnf(expression)
        flipped = to_dnf(expression, complement_operators=True)
        truth = lambda p: p.matches(event)  # noqa: E731
        assert expression.matches(event) is True
        assert sound.evaluate(truth) is True
        assert flipped.evaluate(truth) is False
