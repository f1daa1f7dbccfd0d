"""Unit tests for the counting engines (the canonical baselines)."""

from __future__ import annotations

import pytest

from repro import (
    CountingEngine,
    CountingVariantEngine,
    UnknownSubscriptionError,
    UnsupportedSubscriptionError,
)
from repro.events import Event
from repro.subscriptions import Subscription
from repro.workloads import PaperSubscriptionGenerator


def sub(text):
    return Subscription.from_text(text)


ENGINE_CLASSES = [CountingEngine, CountingVariantEngine]


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
class TestSharedBehaviour:
    def test_conjunctive_subscription(self, engine_class):
        engine = engine_class()
        s = sub("a = 1 and b = 2")
        engine.register(s)
        assert engine.match(Event({"a": 1, "b": 2})) == {s.subscription_id}
        assert engine.match(Event({"a": 1})) == set()

    def test_disjunctive_subscription_expands(self, engine_class):
        engine = engine_class()
        s = sub("a = 1 or b = 2")
        engine.register(s)
        assert engine.subscription_count == 1
        assert engine.stored_subscription_count == 2  # two DNF clauses
        assert engine.match(Event({"b": 2})) == {s.subscription_id}

    def test_paper_shape_transformation_count(self, engine_class):
        engine = engine_class()
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=8, seed=5
        )
        for s in generator.subscriptions(3):
            engine.register(s)
        # 2**(8/2) = 16 clauses per original
        assert engine.stored_subscription_count == 48

    def test_not_rejected_without_complement_mode(self, engine_class):
        engine = engine_class()
        with pytest.raises(UnsupportedSubscriptionError):
            engine.register(sub("not a > 5"))

    def test_not_accepted_with_complement_mode(self, engine_class):
        engine = engine_class(complement_operators=True)
        s = sub("not a > 5")
        engine.register(s)
        assert engine.match(Event({"a": 3})) == {s.subscription_id}
        assert engine.match(Event({"a": 7})) == set()

    def test_not_over_between_always_rejected(self, engine_class):
        engine = engine_class(complement_operators=True)
        with pytest.raises(UnsupportedSubscriptionError):
            engine.register(sub("not a between [1, 5]"))

    def test_duplicate_id_rejected(self, engine_class):
        engine = engine_class()
        s = sub("a = 1")
        engine.register(s)
        with pytest.raises(ValueError):
            engine.register(s)

    def test_single_match_despite_multiple_matching_clauses(self, engine_class):
        engine = engine_class()
        s = sub("a = 1 or b = 2")
        engine.register(s)
        # both clauses fulfilled -> still one reported subscription
        assert engine.match(Event({"a": 1, "b": 2})) == {s.subscription_id}

    def test_consecutive_events_do_not_leak_hits(self, engine_class):
        engine = engine_class()
        s = sub("a = 1 and b = 2")
        engine.register(s)
        assert engine.match(Event({"a": 1})) == set()
        assert engine.match(Event({"b": 2})) == set()  # would match if hits leaked
        assert engine.match(Event({"a": 1, "b": 2})) == {s.subscription_id}

    def test_unregister_unknown_raises(self, engine_class):
        with pytest.raises(UnknownSubscriptionError):
            engine_class().unregister(777777)


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
@pytest.mark.parametrize("support_unsubscription", [True, False])
class TestUnsubscription:
    def test_unregister_both_paths(self, engine_class, support_unsubscription):
        engine = engine_class(support_unsubscription=support_unsubscription)
        first = sub("a = 1 or b = 2")
        second = sub("a = 1 and c = 3")
        engine.register(first)
        engine.register(second)
        engine.unregister(first.subscription_id)
        assert engine.subscription_count == 1
        assert engine.stored_subscription_count == 1
        assert engine.match(Event({"b": 2})) == set()
        assert engine.match(Event({"a": 1, "c": 3})) == {second.subscription_id}

    def test_predicates_retired_after_unregister(
        self, engine_class, support_unsubscription
    ):
        engine = engine_class(support_unsubscription=support_unsubscription)
        s = sub("a = 1 or b = 2")
        engine.register(s)
        engine.unregister(s.subscription_id)
        assert len(engine.registry) == 0
        assert len(engine.indexes) == 0

    def test_clause_slots_recycled(self, engine_class, support_unsubscription):
        engine = engine_class(support_unsubscription=support_unsubscription)
        s = sub("a = 1 or b = 2")
        engine.register(s)
        engine.unregister(s.subscription_id)
        replacement = sub("c = 3 or d = 4")
        engine.register(replacement)
        # storage vector lengths must not have grown
        assert len(engine._counts) == 2
        assert engine.match(Event({"d": 4})) == {replacement.subscription_id}


class TestCountingSpecifics:
    def test_memory_breakdown_structures(self):
        engine = CountingEngine()
        engine.register(sub("a = 1 or b = 2"))
        breakdown = engine.memory_breakdown()
        assert set(breakdown) == {
            "predicate_bit_vector",
            "hit_vector",
            "count_vector",
            "clause_subscription_table",
            "association_table",
        }
        assert breakdown["hit_vector"] == 2  # 1 byte per clause
        assert breakdown["count_vector"] == 2

    def test_unsubscription_support_costs_memory(self):
        plain = CountingEngine()
        with_lists = CountingEngine(support_unsubscription=True)
        s = sub("(a = 1 or b = 2) and (c = 3 or d = 4)")
        plain.register(s)
        with_lists.register(
            Subscription(expression=s.expression,
                         subscription_id=s.subscription_id + 10**6)
        )
        assert "subscription_predicate_lists" in with_lists.memory_breakdown()
        assert with_lists.memory_bytes() > plain.memory_bytes()

    def test_supports_unsubscription_flag(self):
        assert CountingEngine(support_unsubscription=True).supports_unsubscription
        assert not CountingEngine().supports_unsubscription

    def test_memory_grows_with_transformation_blowup(self):
        """The paper's core space argument at engine level."""
        narrow = CountingEngine()
        wide = CountingEngine()
        narrow_gen = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=1
        )
        wide_gen = PaperSubscriptionGenerator(
            predicates_per_subscription=10, seed=1
        )
        for s in narrow_gen.subscriptions(10):
            narrow.register(s)
        for s in wide_gen.subscriptions(10):
            wide.register(s)
        # 32 clauses/sub vs 8 clauses/sub
        assert wide.memory_bytes() > 3 * narrow.memory_bytes()

    def test_clause_cap_enforced(self):
        engine = CountingEngine(max_clauses=8)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=10, seed=1
        )
        from repro.subscriptions import DnfExplosionError

        with pytest.raises(DnfExplosionError):
            engine.register(generator.subscription())


class TestVariantSpecifics:
    def test_variant_only_compares_touched_clauses(self):
        """Behavioural check via hit-vector state: untouched entries stay 0
        and the variant resets the touched ones."""
        engine = CountingVariantEngine()
        first = sub("a = 1 and b = 2")
        second = sub("c = 3 and d = 4")
        engine.register(first)
        engine.register(second)
        engine.match(Event({"a": 1}))
        assert all(hit == 0 for hit in engine._hits)

    def test_variant_equals_counting_on_same_workload(self):
        counting = CountingEngine()
        variant = CountingVariantEngine()
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=11
        )
        subscriptions = generator.subscriptions(30)
        for s in subscriptions:
            counting.register(s)
            variant.register(
                Subscription(expression=s.expression,
                             subscription_id=s.subscription_id)
            )
        universe = range(1, len(counting.registry) + 1)
        import random

        rng = random.Random(5)
        for _ in range(40):
            fulfilled = set(rng.sample(list(universe), 25))
            assert counting.match_fulfilled(fulfilled) == (
                variant.match_fulfilled(fulfilled)
            )
