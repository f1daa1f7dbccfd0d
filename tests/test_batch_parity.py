"""Batch-vs-sequential parity: the batch pipeline may only be faster.

For every engine, ``match_batch(events)`` must equal
``[match(e) for e in events]`` — over randomized workloads, including
NOT-rooted subscriptions (empty-assignment matchers, which candidate
selection alone would miss), unregister-then-match interleavings, and
the broker / overlay-network publishing paths.
"""

from __future__ import annotations

import random

import pytest

from repro import EngineSpec, UnsupportedSubscriptionError
from repro.broker import Broker, BrokerNetwork
from repro.events import Event
from repro.subscriptions import Subscription
from repro.workloads import GeneralSubscriptionGenerator

from helpers import SELECTED_ENGINE

#: (id, spec, allow_not) — engines are constructed from registry specs.
#: NOT-capable engines get NOT-bearing workloads (exercising
#: empty-assignment matchers); the conjunctive pipeline engines get
#: positive-literal workloads they can register.
ENGINE_CASES = [
    ("noncanonical", EngineSpec("noncanonical"), True),
    (
        "noncanonical-varint",
        EngineSpec("noncanonical", {"codec": "varint"}),
        True,
    ),
    (
        "noncanonical-encoded",
        EngineSpec("noncanonical", {"evaluation": "encoded"}),
        True,
    ),
    ("paged", EngineSpec("paged"), True),
    ("bruteforce", EngineSpec("bruteforce"), True),
    (
        "counting",
        EngineSpec("counting", {"support_unsubscription": True}),
        False,
    ),
    ("counting-variant", EngineSpec("counting-variant"), False),
    ("matching-tree", EngineSpec("matching-tree"), False),
]

if SELECTED_ENGINE is not None:
    # the CI engine matrix (REPRO_ENGINE=<name>) runs one engine's cases
    ENGINE_CASES = [
        case for case in ENGINE_CASES if case[1].name == SELECTED_ENGINE
    ]

_NUMERIC = ("price", "volume", "qty", "score")
_STRING = ("symbol", "category")


def _random_events(rng: random.Random, count: int) -> list[Event]:
    """Events over the general generator's attribute pools, with repeats
    (small domains) so the batch memoization paths actually trigger."""
    events = []
    for _ in range(count):
        attributes = {}
        for name in _NUMERIC:
            if rng.random() < 0.7:
                attributes[name] = rng.randint(0, 30)
        for name in _STRING:
            if rng.random() < 0.5:
                attributes[name] = "".join(
                    rng.choice("abcde") for _ in range(rng.randint(1, 3))
                )
        events.append(Event(attributes))
    return events


def _register_population(engine, *, allow_not: bool, count: int) -> list[int]:
    generator = GeneralSubscriptionGenerator(
        seed=11, allow_not=allow_not, value_range=30
    )
    registered = []
    for subscription in generator.subscriptions(count):
        try:
            engine.register(subscription)
        except UnsupportedSubscriptionError:
            continue
        registered.append(subscription.subscription_id)
    if allow_not:
        # NOT-rooted subscriptions match under the empty assignment: they
        # must surface in batch results even for events fulfilling none
        # of their predicates.
        for text in ("not price > 10", "not (qty = 3 and volume > 5)"):
            subscription = Subscription.from_text(text)
            engine.register(subscription)
            registered.append(subscription.subscription_id)
    return registered


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_match_batch_equals_sequential_match(spec, allow_not):
    rng = random.Random(20050610)
    engine = spec.build()
    registered = _register_population(engine, allow_not=allow_not, count=40)
    assert registered, "workload registered nothing"
    events = _random_events(rng, 64)
    assert engine.match_batch(events) == [engine.match(e) for e in events]


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_match_batch_parity_across_unregister_interleavings(spec, allow_not):
    """Register → batch → unregister a third → batch → register more →
    batch; parity must hold at every step."""
    rng = random.Random(4711)
    engine = spec.build()
    registered = _register_population(engine, allow_not=allow_not, count=30)
    events = _random_events(rng, 32)
    assert engine.match_batch(events) == [engine.match(e) for e in events]

    doomed = rng.sample(registered, k=len(registered) // 3)
    for subscription_id in doomed:
        engine.unregister(subscription_id)
    assert engine.match_batch(events) == [engine.match(e) for e in events]

    extra = GeneralSubscriptionGenerator(
        seed=99, allow_not=allow_not, value_range=30
    )
    for subscription in extra.subscriptions(10):
        try:
            engine.register(subscription)
        except UnsupportedSubscriptionError:
            continue
    assert engine.match_batch(events) == [engine.match(e) for e in events]


def test_match_fulfilled_batch_default_fallback():
    """The base-class default (memoized on identical assignments) must
    be batch-correct for any engine that doesn't override it."""
    engine = EngineSpec("noncanonical").build()
    _register_population(engine, allow_not=True, count=20)
    events = _random_events(random.Random(3), 16)
    fulfilled_sets = engine.indexes.match_batch(events + events[:4])
    from repro import FilterEngine

    fallback = FilterEngine.match_fulfilled_batch(engine, fulfilled_sets)
    assert fallback == [engine.match_fulfilled(ids) for ids in fulfilled_sets]


def test_broker_publish_batch_parity():
    """publish(list) must deliver exactly what per-event publish does,
    with identical stats movement."""
    broker = Broker("edge")
    received = []
    broker.subscribe(
        "price > 10 and symbol prefix 'a'",
        subscriber="s1",
        sink=received.append,
    )
    broker.subscribe("not price > 10", subscriber="s2")
    broker.subscribe("volume >= 5 or qty = 3", subscriber="s3")
    events = _random_events(random.Random(8), 40)

    sequential = [broker.publish(event) for event in events]
    stats_after_sequential = (
        broker.stats.events_matched,
        broker.stats.notifications_delivered,
    )
    batched = broker.publish(events)

    assert batched == sequential
    assert broker.stats.events_published == 2 * len(events)
    assert broker.stats.batches_published == 1
    assert broker.stats.events_matched == 2 * stats_after_sequential[0]
    assert broker.stats.notifications_delivered == 2 * stats_after_sequential[1]
    # callbacks fired on both paths
    s1_notifications = sum(
        1
        for notifications in sequential
        for notification in notifications
        if notification.subscriber == "s1"
    )
    assert len(received) == 2 * s1_notifications


def test_network_publish_batch_parity():
    """Batched overlay routing delivers the same notifications as
    per-event routing, with one matching invocation per broker."""
    network = BrokerNetwork()
    for name in ("a", "b", "c", "d"):
        network.add_broker(Broker(name))
    network.connect("a", "b")
    network.connect("b", "c")
    network.connect("b", "d")
    network.subscribe("a", "price > 10", subscriber="alice")
    network.subscribe("c", "not price > 10", subscriber="carol")
    network.subscribe("d", "volume >= 5 and symbol prefix 'a'", subscriber="dan")
    events = _random_events(random.Random(21), 24)

    sequential = [network.publish("b", event) for event in events]
    matches_before = network.stats.matches_computed
    batched = network.publish("b", events)

    # per-event delivery order follows that event's own traversal; the
    # batched traversal may differ, so compare as sets per event.
    assert [set(d) for d in batched] == [set(d) for d in sequential]
    # one match_batch invocation per broker reached by the batch
    assert network.stats.matches_computed - matches_before <= len(network)
    assert network.stats.batches_published == 1


def test_network_publish_batch_empty():
    network = BrokerNetwork()
    network.add_broker(Broker("solo"))
    assert network.publish("solo", []) == []
