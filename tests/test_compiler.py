"""Unit and property tests for the evaluation compiler."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.predicates import PredicateRegistry
from repro.subscriptions import (
    MODE_ANY,
    MODE_CLOSURE,
    MODE_DNF,
    MODE_GROUPS,
    SubscriptionTree,
    compile_tree,
    parse,
)
from repro.workloads import PaperSubscriptionGenerator

from helpers import random_expressions


def evaluate_compiled(compiled, fulfilled_ids):
    """Reference semantics of the four compiled match forms.

    The engine inlines these branches in its matching loop; this states
    them once so the tests can check each form against the tree.
    """
    mode, payload = compiled
    if mode == MODE_ANY:
        return not payload.isdisjoint(fulfilled_ids)
    if mode == MODE_GROUPS:
        return all(not group.isdisjoint(fulfilled_ids) for group in payload)
    if mode == MODE_DNF:
        return any(group <= fulfilled_ids for group in payload)
    return payload(fulfilled_ids)


def compiled_of(text):
    registry = PredicateRegistry()
    tree = SubscriptionTree.from_expression(parse(text), registry.register)
    return compile_tree(tree.root), tree


class TestModeSelection:
    def test_single_leaf_is_any(self):
        compiled, _ = compiled_of("a = 1")
        assert compiled[0] == MODE_ANY

    def test_flat_or_is_any(self):
        compiled, _ = compiled_of("a = 1 or b = 2 or c = 3")
        assert compiled[0] == MODE_ANY
        assert len(compiled[1]) == 3

    def test_flat_and_is_groups_of_singletons(self):
        compiled, _ = compiled_of("a = 1 and b = 2")
        assert compiled[0] == MODE_GROUPS
        assert all(len(group) == 1 for group in compiled[1])

    def test_paper_shape_is_groups(self):
        compiled, _ = compiled_of("(a = 1 or b = 2) and (c = 3 or d = 4)")
        assert compiled[0] == MODE_GROUPS
        assert len(compiled[1]) == 2
        assert all(len(group) == 2 for group in compiled[1])

    def test_mixed_and_children_still_groups(self):
        compiled, _ = compiled_of("e = 5 and (a = 1 or b = 2)")
        assert compiled[0] == MODE_GROUPS

    def test_not_forces_closure(self):
        compiled, _ = compiled_of("not a = 1")
        assert compiled[0] == MODE_CLOSURE

    def test_dnf_shape_gets_dnf_mode(self):
        compiled, _ = compiled_of("(a = 1 and b = 2) or c = 3")
        assert compiled[0] == MODE_DNF
        assert sorted(len(group) for group in compiled[1]) == [1, 2]

    def test_dnf_mode_semantics(self):
        compiled, tree = compiled_of("(a = 1 and b = 2) or c = 3")
        ids = sorted(tree.predicate_ids())
        assert evaluate_compiled(compiled, {ids[0], ids[1]})
        assert evaluate_compiled(compiled, {ids[2]})
        assert not evaluate_compiled(compiled, {ids[0]})

    def test_deep_nesting_forces_closure(self):
        compiled, _ = compiled_of("(a = 1 or (b = 2 and c = 3)) and d = 4")
        assert compiled[0] == MODE_CLOSURE


class TestSemantics:
    def test_groups_semantics(self):
        compiled, tree = compiled_of("(a = 1 or b = 2) and (c = 3 or d = 4)")
        ids = sorted(tree.predicate_ids())
        assert evaluate_compiled(compiled, {ids[0], ids[2]})
        assert not evaluate_compiled(compiled, {ids[0], ids[1]})

    def test_any_semantics(self):
        compiled, tree = compiled_of("a = 1 or b = 2")
        ids = sorted(tree.predicate_ids())
        assert evaluate_compiled(compiled, {ids[1]})
        assert not evaluate_compiled(compiled, {99})

    def test_closure_semantics(self):
        compiled, tree = compiled_of("not (a = 1 or b = 2)")
        ids = sorted(tree.predicate_ids())
        assert evaluate_compiled(compiled, set())
        assert not evaluate_compiled(compiled, {ids[0]})

    @given(random_expressions(), st.sets(st.integers(1, 6)))
    def test_compiled_matches_tree_evaluation(self, expression, fulfilled):
        registry = PredicateRegistry()
        tree = SubscriptionTree.from_expression(expression, registry.register)
        compiled = compile_tree(tree.root)
        assert evaluate_compiled(compiled, fulfilled) == tree.evaluate(fulfilled)

    def test_paper_workload_compiles_to_groups(self):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=10, seed=3
        )
        registry = PredicateRegistry()
        for subscription in generator.subscriptions(20):
            tree = SubscriptionTree.from_expression(
                subscription.expression, registry.register
            )
            mode, payload = compile_tree(tree.root)
            assert mode == MODE_GROUPS
            assert len(payload) == 5
