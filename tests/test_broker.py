"""Unit tests for the single broker and its clients."""

from __future__ import annotations

import math

import pytest

from helpers import ALL_ENGINE_NAMES
from repro.broker import Broker, Publisher, Subscriber
from repro import CountingEngine
from repro.events import (
    AttributeSpec,
    AttributeType,
    Event,
    EventSchema,
    SchemaViolationError,
)
from repro.subscriptions import Subscription


@pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
def test_nan_fulfils_no_order_predicate(engine):
    """NaN orders with nothing (``Predicate.matches``): on its own and
    inside a batch, so both phase-1 paths are held to it, and without
    disturbing the other events of the batch."""
    broker = Broker("edge", engine=engine)
    above = broker.subscribe("x > 5").subscription_id
    inside = broker.subscribe("x between [1, 9]").subscription_id
    nan = Event({"x": math.nan})
    assert broker.publish(nan) == []
    batch = broker.publish([Event({"x": 7}), nan, Event({"x": 3})])
    delivered = [{n.subscription_id for n in row} for row in batch]
    assert delivered == [{above, inside}, set(), {inside}]


class TestBrokerBasics:
    def test_subscribe_from_text_and_publish(self):
        broker = Broker("edge")
        s = broker.subscribe("price > 10")
        notifications = broker.publish(Event({"price": 12}))
        assert len(notifications) == 1
        assert notifications[0].subscription_id == s.subscription_id
        assert notifications[0].broker == "edge"

    def test_subscribe_object(self):
        broker = Broker("edge")
        s = Subscription.from_text("a = 1", subscriber="alice")
        broker.subscribe(s)
        notifications = broker.publish(Event({"a": 1}))
        assert notifications[0].subscriber == "alice"

    def test_subscriber_override(self):
        broker = Broker("edge")
        s = Subscription.from_text("a = 1", subscriber="alice")
        broker.subscribe(s, subscriber="bob")
        assert broker.publish(Event({"a": 1}))[0].subscriber == "bob"

    def test_callback_invoked(self):
        broker = Broker("edge")
        received = []
        broker.subscribe("a = 1", sink=received.append)
        broker.publish(Event({"a": 1}))
        broker.publish(Event({"a": 2}))
        assert len(received) == 1

    def test_non_matching_event_no_notifications(self):
        broker = Broker("edge")
        broker.subscribe("a = 1")
        assert broker.publish(Event({"a": 2})) == []

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Broker("")

    def test_unsubscribe(self):
        broker = Broker("edge")
        s = broker.subscribe("a = 1")
        broker.unsubscribe(s.subscription_id)
        assert broker.publish(Event({"a": 1})) == []
        assert broker.subscription_count == 0

    def test_subscription_lookup(self):
        broker = Broker("edge")
        s = broker.subscribe("a = 1")
        assert broker.subscription(s.subscription_id) is s or (
            broker.subscription(s.subscription_id).subscription_id
            == s.subscription_id
        )

    def test_stats_counters(self):
        broker = Broker("edge")
        broker.subscribe("a = 1")
        broker.publish(Event({"a": 1}))
        broker.publish(Event({"a": 2}))
        stats = broker.stats
        assert stats.events_published == 2
        assert stats.events_matched == 1
        assert stats.notifications_delivered == 1
        assert stats.subscriptions_registered == 1

    def test_pluggable_engine(self):
        broker = Broker("edge", engine=CountingEngine())
        s = broker.subscribe("a = 1 or b = 2")
        assert broker.publish(Event({"b": 2}))[0].subscription_id == (
            s.subscription_id
        )

    def test_repr(self):
        assert "edge" in repr(Broker("edge"))


class TestBrokerSchema:
    @pytest.fixture
    def schema(self):
        return EventSchema(
            "m",
            [AttributeSpec("price", AttributeType.FLOAT, required=True)],
        )

    def test_conforming_event_accepted(self, schema):
        broker = Broker("edge", schema=schema)
        broker.subscribe("price > 1")
        assert len(broker.publish(Event({"price": 2.0}))) == 1

    def test_violating_event_rejected(self, schema):
        broker = Broker("edge", schema=schema)
        with pytest.raises(SchemaViolationError):
            broker.publish(Event({"volume": 5}))


class TestClients:
    def test_subscriber_accumulates_notifications(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        alice.subscribe("b = 2")
        broker.publish(Event({"a": 1, "b": 2}))
        assert len(alice.notifications) == 2
        assert {n.subscriber for n in alice.notifications} == {"alice"}

    def test_subscriber_unsubscribe_ownership(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        bob = Subscriber("bob", broker)
        s = alice.subscribe("a = 1")
        with pytest.raises(KeyError):
            bob.unsubscribe(s.subscription_id)
        alice.unsubscribe(s.subscription_id)
        assert alice.subscription_ids == frozenset()

    def test_unsubscribe_all(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        alice.subscribe("b = 2")
        alice.unsubscribe_all()
        assert broker.subscription_count == 0

    def test_subscriber_clear(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        broker.publish(Event({"a": 1}))
        alice.clear()
        assert alice.notifications == []

    def test_publisher_accepts_plain_dict(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        publisher = Publisher("feed", broker)
        publisher.publish({"a": 1})
        assert publisher.published_count == 1
        assert len(alice.notifications) == 1

    def test_client_name_validation(self):
        broker = Broker("edge")
        with pytest.raises(ValueError):
            Subscriber("", broker)
        with pytest.raises(ValueError):
            Publisher("", broker)
