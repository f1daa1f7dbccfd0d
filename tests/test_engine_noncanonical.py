"""Unit tests for the non-canonical engine (the paper's contribution)."""

from __future__ import annotations

import pytest

from repro import NonCanonicalEngine, UnknownSubscriptionError
from repro.events import Event
from repro.subscriptions import Subscription, parse
from repro.workloads import PaperSubscriptionGenerator


def sub(text):
    return Subscription.from_text(text)


class TestRegistration:
    def test_register_and_match(self):
        engine = NonCanonicalEngine()
        s = sub("a > 10 and b = 1")
        engine.register(s)
        assert engine.match(Event({"a": 11, "b": 1})) == {s.subscription_id}
        assert engine.match(Event({"a": 11, "b": 2})) == set()

    def test_subscription_count(self):
        engine = NonCanonicalEngine()
        engine.register(sub("a = 1"))
        engine.register(sub("b = 2"))
        assert engine.subscription_count == 2
        assert engine.stored_subscription_count == 2  # no transformation

    def test_duplicate_id_rejected(self):
        engine = NonCanonicalEngine()
        s = sub("a = 1")
        engine.register(s)
        with pytest.raises(ValueError, match="already registered"):
            engine.register(s)

    def test_arbitrary_boolean_accepted(self):
        engine = NonCanonicalEngine()
        s = sub("not (a = 1 or (b = 2 and not c = 3))")
        engine.register(s)
        assert engine.match(Event({"c": 3})) == {s.subscription_id}
        assert engine.match(Event({"a": 1})) == set()

    def test_shared_predicates_across_subscriptions(self):
        engine = NonCanonicalEngine()
        first = sub("a = 1 and b = 2")
        second = sub("a = 1 or c = 3")
        engine.register(first)
        engine.register(second)
        assert len(engine.registry) == 3  # a=1 deduplicated
        matched = engine.match(Event({"a": 1, "b": 2}))
        assert matched == {first.subscription_id, second.subscription_id}

    def test_invalid_codec_and_evaluation_rejected(self):
        with pytest.raises(ValueError):
            NonCanonicalEngine(codec="gzip")
        with pytest.raises(ValueError):
            NonCanonicalEngine(evaluation="jit")


class TestMatchFulfilled:
    def test_candidates_limited_to_referenced_subscriptions(self):
        engine = NonCanonicalEngine()
        first = sub("a = 1 and b = 2")
        second = sub("c = 3")
        engine.register(first)
        engine.register(second)
        pid_a = engine.registry.identifier(
            next(iter(parse("a = 1").unique_predicates()))
        )
        assert engine.candidates_for({pid_a}) == {first.subscription_id}

    def test_match_fulfilled_empty(self):
        engine = NonCanonicalEngine()
        engine.register(sub("a = 1"))
        assert engine.match_fulfilled(set()) == set()

    def test_unknown_predicate_ids_ignored(self):
        engine = NonCanonicalEngine()
        s = sub("a = 1")
        engine.register(s)
        assert engine.match_fulfilled({9999}) == set()


class TestUnsubscription:
    def test_unregister_removes_matches(self):
        engine = NonCanonicalEngine()
        s = sub("a = 1")
        engine.register(s)
        engine.unregister(s.subscription_id)
        assert engine.subscription_count == 0
        assert engine.match(Event({"a": 1})) == set()

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownSubscriptionError):
            NonCanonicalEngine().unregister(12345)

    def test_unregister_retires_exclusive_predicates(self):
        engine = NonCanonicalEngine()
        s = sub("a = 1 and b = 2")
        engine.register(s)
        engine.unregister(s.subscription_id)
        assert len(engine.registry) == 0
        assert len(engine.indexes) == 0

    def test_unregister_keeps_shared_predicates(self):
        engine = NonCanonicalEngine()
        first = sub("a = 1 and b = 2")
        second = sub("a = 1")
        engine.register(first)
        engine.register(second)
        engine.unregister(first.subscription_id)
        assert len(engine.registry) == 1
        assert engine.match(Event({"a": 1})) == {second.subscription_id}

    def test_repeated_predicate_in_one_subscription(self):
        engine = NonCanonicalEngine()
        s = sub("a = 1 or (a = 1 and b = 2)")
        engine.register(s)
        engine.unregister(s.subscription_id)
        assert len(engine.registry) == 0

    def test_arena_compaction_after_heavy_churn(self):
        engine = NonCanonicalEngine()
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=3
        )
        subscriptions = generator.subscriptions(60)
        for s in subscriptions:
            engine.register(s)
        for s in subscriptions[:50]:
            engine.unregister(s.subscription_id)
        survivor_ids = {s.subscription_id for s in subscriptions[50:]}
        # compaction must have relocated without breaking matching
        for s in subscriptions[50:]:
            fulfilled = {
                engine.registry.identifier(p)
                for p in s.expression.unique_predicates()
            }
            assert s.subscription_id in engine.match_fulfilled(fulfilled)
        assert engine.subscription_count == len(survivor_ids)


class TestVariants:
    @pytest.mark.parametrize("codec", ["basic", "varint"])
    @pytest.mark.parametrize("evaluation", ["compiled", "encoded"])
    def test_all_modes_agree(self, codec, evaluation):
        engine = NonCanonicalEngine(codec=codec, evaluation=evaluation)
        s = sub("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)")
        engine.register(s)
        assert engine.match(Event({"a": 11, "c": 15})) == {s.subscription_id}
        assert engine.match(Event({"a": 7, "c": 15})) == set()

    def test_selectivity_reordering_preserves_matching(self):
        plain = NonCanonicalEngine()
        s = sub("(a = 1 or b = 2) and (c = 3 or d = 4)")
        plain.register(s)
        pids = {
            str(p): plain.registry.identifier(p)
            for p in s.expression.unique_predicates()
        }
        selectivity = {pid: 0.01 * pid for pid in pids.values()}
        reordering = NonCanonicalEngine(selectivity=selectivity)
        reordering.register(
            Subscription(expression=s.expression, subscription_id=s.subscription_id + 10**6)
        )
        for event in (
            Event({"a": 1, "c": 3}),
            Event({"b": 2, "d": 4}),
            Event({"a": 1, "b": 2}),
        ):
            assert (plain.match(event) == {s.subscription_id}) == bool(
                reordering.match(event)
            )


class TestMemoryAccounting:
    def test_breakdown_structure(self):
        engine = NonCanonicalEngine()
        engine.register(sub("a = 1 and b = 2"))
        breakdown = engine.memory_breakdown()
        assert set(breakdown) == {
            "subscription_trees",
            "association_table",
            "location_table",
        }
        assert all(value >= 0 for value in breakdown.values())
        assert engine.memory_bytes() == sum(breakdown.values())

    def test_tree_bytes_match_paper_encoding(self):
        engine = NonCanonicalEngine()
        engine.register(
            sub("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)")
        )
        # root (2 + 2*2) + two ORs (2 + 3*2 each) + 6 leaves * 4
        assert engine.memory_breakdown()["subscription_trees"] == 46

    def test_memory_shrinks_on_unsubscription(self):
        engine = NonCanonicalEngine()
        s1, s2 = sub("a = 1 and b = 2"), sub("c = 3 and d = 4")
        engine.register(s1)
        engine.register(s2)
        before = engine.memory_bytes()
        engine.unregister(s1.subscription_id)
        assert engine.memory_bytes() < before
