"""Tests for subscription persistence (save/restore broker state)."""

from __future__ import annotations

import random

import pytest

from repro.broker import Broker
from repro.broker.persistence import (
    PersistenceError,
    deserialize_subscription,
    dump_subscriptions,
    load_subscriptions,
    restore_broker,
    save_broker,
    serialize_subscription,
)
from repro.subscriptions import EncodingError, Subscription, parse
from repro.workloads import GeneralSubscriptionGenerator, StockScenario


class TestRoundtrip:
    def test_single_subscription(self):
        original = Subscription.from_text(
            "(price > 10 or urgent = true) and sym prefix 'AC'",
            subscriber="alice",
        )
        restored = deserialize_subscription(serialize_subscription(original))
        assert restored.expression == original.expression
        assert restored.subscriber == "alice"
        assert restored.subscription_id == original.subscription_id

    def test_all_operator_shapes_roundtrip(self):
        texts = [
            "a = 1", "a != 1", "a < 1.5", "a <= -2", "a > 3", "a >= 4",
            "a between [1, 5]", "a in {1, 2}", "s prefix 'x'",
            "s suffix 'y'", "s contains 'z'", "exists(a)",
            "b = true and not c = false",
        ]
        for text in texts:
            original = Subscription.from_text(text)
            restored = deserialize_subscription(serialize_subscription(original))
            assert restored.expression == original.expression, text

    def test_file_roundtrip(self, tmp_path):
        generator = GeneralSubscriptionGenerator(seed=6)
        originals = generator.subscriptions(40)
        path = tmp_path / "subs.jsonl"
        assert dump_subscriptions(originals, path) == 40
        restored = load_subscriptions(path)
        assert len(restored) == 40
        for original, loaded in zip(originals, restored):
            assert loaded.expression == original.expression
            assert loaded.subscription_id == original.subscription_id

    def test_none_subscriber_roundtrip(self):
        original = Subscription.from_text("a = 1")
        assert deserialize_subscription(
            serialize_subscription(original)
        ).subscriber is None


class TestBrokerSaveRestore:
    def test_restored_broker_matches_identically(self, tmp_path):
        scenario = StockScenario(seed=8)
        source = Broker("source")
        for index in range(25):
            source.subscribe(scenario.subscription(f"user{index}"))
        path = tmp_path / "state.jsonl"
        assert save_broker(source, path) == 25
        target = Broker("target")
        assert restore_broker(target, path) == 25
        rng = random.Random(1)
        for _ in range(60):
            event = scenario.event()
            source_ids = {n.subscription_id for n in source.publish(event)}
            target_ids = {n.subscription_id for n in target.publish(event)}
            assert source_ids == target_ids

    def test_save_skips_nothing(self, tmp_path):
        broker = Broker("b")
        broker.subscribe("a = 1", subscriber="x")
        sub = broker.subscribe("b = 2", subscriber="y")
        broker.unsubscribe(sub.subscription_id)
        path = tmp_path / "state.jsonl"
        assert save_broker(broker, path) == 1


class TestAllOrNothingRestore:
    def lines(self, *texts, first_id=1):
        return "".join(
            serialize_subscription(
                Subscription(expression=parse(text), subscription_id=first_id + i)
            )
            + "\n"
            for i, text in enumerate(texts)
        )

    def test_duplicate_id_in_file_restores_nothing(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(self.lines("a = 1") + self.lines("b = 2"))
        broker = Broker("b")
        with pytest.raises(PersistenceError, match="line 2: duplicate"):
            restore_broker(broker, path)
        assert broker.subscription_count == 0
        assert len(broker.engine.registry) == 0

    def test_id_live_at_broker_restores_nothing(self, tmp_path):
        path = tmp_path / "clash.jsonl"
        path.write_text(self.lines("a = 1", "b = 2", first_id=900_001))
        broker = Broker("b")
        broker.subscribe(
            Subscription(expression=parse("c = 3"), subscription_id=900_002)
        )
        with pytest.raises(PersistenceError, match="already registered"):
            restore_broker(broker, path)
        assert broker.engine.subscription_ids() == {900_002}

    def test_engine_rejection_unregisters_earlier_records(self, tmp_path):
        wide = " or ".join(f"a > {i}" for i in range(300))  # basic codec: >255
        path = tmp_path / "wide.jsonl"
        path.write_text(self.lines("a = 1", "b = 2", wide))
        broker = Broker("b")
        with pytest.raises(EncodingError):
            restore_broker(broker, path)
        assert broker.subscription_count == 0
        assert len(broker.engine.registry) == 0
        assert broker.publish({"a": 1, "b": 2}) == []


class TestMalformedInput:
    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"v": 99, "id": 1, "expression": "a = 1"}',
            '{"v": 1, "expression": "a = 1"}',
            '{"v": 1, "id": 1}',
            '{"v": 1, "id": 0, "expression": "a = 1"}',
            '{"v": 1, "id": "x", "expression": "a = 1"}',
            '{"v": 1, "id": 1, "expression": "a >"}',
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(PersistenceError):
            deserialize_subscription(line)

    @pytest.mark.parametrize(
        "line",
        [
            '{"v": true, "id": 1, "expression": "a = 1"}',
            '{"v": 1, "id": true, "expression": "a = 1"}',
            '{"v": 1, "id": 1, "subscriber": 7, "expression": "a = 1"}',
            '{"v": 1, "id": 1, "expression": 123}',
            '{"v": 1, "id": 1, "expression": "%sa = 1%s"}'
            % ("(" * 350, ")" * 350),
        ],
        ids=[
            "bool-version", "bool-id", "int-subscriber", "int-expression",
            "deep-nesting",
        ],
    )
    def test_mistyped_fields_rejected(self, line):
        with pytest.raises(PersistenceError):
            deserialize_subscription(line)

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            serialize_subscription(Subscription.from_text("a = 1"))
            + "\nbroken\n"
        )
        with pytest.raises(PersistenceError, match="line 2"):
            load_subscriptions(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            "\n" + serialize_subscription(Subscription.from_text("a = 1")) + "\n\n"
        )
        assert len(load_subscriptions(path)) == 1
