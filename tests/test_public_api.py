"""The unified public API: engine specs, handles, sinks, one publish surface.

Covers the four pillars end to end:

* engine registry round-trips (every name → engine → spec → same name)
  and spec-driven construction on shared phase-1 state;
* ``SubscriptionHandle`` lifecycle — double-unsubscribe, pause/resume,
  survival across a broker stats reset, network-wide withdrawal;
* delivery sinks, including ``QueueSink`` bounded-drop accounting;
* ``publish()`` accepting events, mappings, and iterables (materialized
  exactly once), plus the ``stream()`` generator;
* every package's ``__all__``: each entry resolves, and none repeats.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import (
    Broker,
    BrokerNetwork,
    CallbackSink,
    CollectingSink,
    EngineSpec,
    Event,
    FilterEngine,
    QueueSink,
    Subscriber,
    Publisher,
    SubscriptionHandle,
    UnknownEngineError,
    as_sink,
    build_engine,
    canonical_engine_name,
    engine_names,
    resolve_engine,
    spec_of,
)
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry

ALL_ENGINE_NAMES = (
    "noncanonical",
    "counting",
    "counting-variant",
    "matching-tree",
    "bruteforce",
    "paged",
)


def _close(engine) -> None:
    if hasattr(engine, "close"):
        engine.close()


class TestEngineRegistry:
    def test_all_six_names_registered(self):
        assert set(engine_names()) == set(ALL_ENGINE_NAMES)

    @pytest.mark.parametrize("name", ALL_ENGINE_NAMES)
    def test_round_trip_name_to_engine_to_spec(self, name):
        """Every name → engine → spec → the same canonical name."""
        engine = build_engine(name)
        try:
            assert isinstance(engine, FilterEngine)
            spec = spec_of(engine)
            assert spec.name == name
            assert spec == EngineSpec(name)
        finally:
            _close(engine)

    @pytest.mark.parametrize("name", ALL_ENGINE_NAMES)
    def test_spec_driven_construction_on_shared_state(self, name):
        """Specs build onto a sweep's shared registry/index manager."""
        registry = PredicateRegistry()
        indexes = IndexManager()
        engine = EngineSpec(name).build(registry=registry, indexes=indexes)
        try:
            assert engine.registry is registry
            assert engine.indexes is indexes
        finally:
            _close(engine)

    def test_engine_display_names_accepted_as_aliases(self):
        for alias, canonical in (
            ("non-canonical", "noncanonical"),
            ("brute-force", "bruteforce"),
            ("non-canonical-paged", "paged"),
        ):
            assert canonical_engine_name(alias) == canonical
            assert EngineSpec(alias) == EngineSpec(canonical)

    def test_unknown_name_lists_known_engines(self):
        with pytest.raises(UnknownEngineError, match="noncanonical"):
            build_engine("sieve-of-alexandria")

    def test_spec_options_forwarded(self):
        varint = EngineSpec("noncanonical", {"codec": "varint"}).build()
        assert varint.name == "non-canonical"
        with pytest.raises(ValueError):
            build_engine("noncanonical", codec="morse")

    def test_paged_spec_spells_out_store_options(self):
        engine = build_engine("paged", page_size=512, cache_pages=4)
        try:
            assert engine.store.page_size == 512
            assert engine.store.cache_pages == 4
        finally:
            _close(engine)

    def test_with_options_and_equality(self):
        base = EngineSpec("counting")
        tuned = base.with_options(support_unsubscription=True)
        assert tuned != base
        assert tuned.options["support_unsubscription"] is True
        assert base.options == {}

    def test_resolve_engine_passthrough_and_default(self):
        engine = build_engine("counting")
        assert resolve_engine(engine) is engine
        assert resolve_engine(None).name == "non-canonical"
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_broker_accepts_name_spec_and_instance(self):
        by_name = Broker("a", engine="counting")
        by_spec = Broker(
            "b", engine=EngineSpec("counting", {"support_unsubscription": True})
        )
        by_instance = Broker("c", engine=build_engine("counting"))
        for broker in (by_name, by_spec, by_instance):
            assert broker.engine.name == "counting"

    def test_network_add_broker_by_name_with_spec(self):
        network = BrokerNetwork()
        added = network.add_broker("edge", engine="matching-tree")
        assert network.broker("edge") is added
        assert added.engine.name == "matching-tree"
        with pytest.raises(TypeError):
            network.add_broker(Broker("other"), engine="counting")


class TestSubscriptionHandle:
    def test_subscribe_returns_live_handle(self):
        broker = Broker("edge")
        handle = broker.subscribe("price > 10", subscriber="alice")
        assert isinstance(handle, SubscriptionHandle)
        assert handle.active and not handle.paused
        assert handle.id == handle.subscription.subscription_id
        assert handle.subscriber == "alice"
        assert broker.handle(handle.id) is handle

    def test_unsubscribe_is_idempotent(self):
        broker = Broker("edge")
        handle = broker.subscribe("a = 1")
        assert handle.unsubscribe() is True
        assert handle.unsubscribe() is False
        assert not handle.active
        assert broker.subscription_count == 0
        assert broker.stats.subscriptions_removed == 1

    def test_handle_invalidated_by_raw_id_unsubscribe(self):
        broker = Broker("edge")
        handle = broker.subscribe("a = 1")
        broker.unsubscribe(handle.id)
        assert not handle.active
        assert handle.unsubscribe() is False

    def test_pause_resume_delivery(self):
        broker = Broker("edge")
        sink = CollectingSink()
        handle = broker.subscribe("a = 1", sink=sink)
        assert len(broker.publish(Event({"a": 1}))) == 1
        handle.pause()
        assert handle.paused
        assert broker.publish(Event({"a": 1})) == []
        assert broker.publish([{"a": 1}]) == [[]]
        handle.resume()
        assert len(broker.publish(Event({"a": 1}))) == 1
        # the two paused publishes (per-event and batch) delivered nothing
        assert sink.delivered == 2
        assert broker.stats.notifications_delivered == 2

    def test_handle_survives_broker_stats_reset(self):
        broker = Broker("edge")
        sink = CollectingSink()
        handle = broker.subscribe("a = 1", sink=sink)
        broker.publish(Event({"a": 1}))
        broker.reset_stats()
        assert broker.stats.events_published == 0
        assert handle.active
        assert broker.handle(handle.id) is handle
        broker.publish(Event({"a": 1}))
        assert sink.delivered == 2
        assert broker.stats.notifications_delivered == 1

    def test_network_handle_withdraws_everywhere(self):
        network = BrokerNetwork()
        for name in ("a", "b", "c"):
            network.add_broker(name)
        network.connect("a", "b")
        network.connect("b", "c")
        handle = network.subscribe("a", "x = 1", subscriber="alice")
        assert all(
            broker.subscription_count == 1 for broker in network.brokers()
        )
        assert handle.unsubscribe() is True
        assert all(
            broker.subscription_count == 0 for broker in network.brokers()
        )
        assert handle.unsubscribe() is False

    def test_network_covering_is_fixed_at_construction(self):
        network = BrokerNetwork(covering_enabled=False)
        with pytest.raises(AttributeError):
            network.covering_enabled = True
        assert network.covering_enabled is False

    def test_network_handle_pause_suppresses_delivery(self):
        network = BrokerNetwork()
        for name in ("a", "b"):
            network.add_broker(name)
        network.connect("a", "b")
        sink = CollectingSink()
        handle = network.subscribe("b", "x = 1", sink=sink)
        assert len(network.publish("a", Event({"x": 1}))) == 1
        handle.pause()
        assert network.publish("a", Event({"x": 1})) == []
        assert network.publish("a", [{"x": 1}]) == [[]]
        handle.resume()
        assert len(network.publish("a", Event({"x": 1}))) == 1
        assert sink.delivered == 2


class TestSinks:
    def test_as_sink_normalization(self):
        received = []
        sink = as_sink(received.append)
        assert isinstance(sink, CallbackSink)
        assert as_sink(sink) is sink
        assert as_sink(None) is None
        with pytest.raises(TypeError):
            as_sink("not a sink")

    def test_stream_rejects_single_event_eagerly(self):
        broker = Broker("edge")
        with pytest.raises(TypeError, match="iterable of events"):
            broker.stream(Event({"a": 1}))
        with pytest.raises(TypeError, match="iterable of events"):
            broker.stream({"a": 1})

    def test_collecting_sink_shared_across_subscriptions(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        alice.subscribe("a = 1")
        alice.subscribe("b = 2")
        broker.publish(Event({"a": 1, "b": 2}))
        assert len(alice.notifications) == 2
        assert alice.sink.delivered == 2
        assert len(alice.handles) == 2

    def test_queue_sink_drop_newest(self):
        broker = Broker("edge")
        sink = QueueSink(maxsize=2)
        broker.subscribe("a > 0", sink=sink)
        broker.publish([{"a": 1}, {"a": 2}, {"a": 3}])
        assert sink.depth == 2
        assert sink.dropped == 1
        assert sink.delivered == 2  # the drop was not a delivery
        assert [n.event["a"] for n in sink.drain()] == [1, 2]
        assert sink.depth == 0

    def test_queue_sink_drop_oldest(self):
        broker = Broker("edge")
        sink = QueueSink(maxsize=2, policy="drop-oldest")
        broker.subscribe("a > 0", sink=sink)
        broker.publish([{"a": 1}, {"a": 2}, {"a": 3}])
        assert sink.dropped == 1
        assert sink.delivered == 3  # arrivals accepted, head evicted
        assert [n.event["a"] for n in sink.drain()] == [2, 3]

    def test_queue_sink_pop_and_validation(self):
        sink = QueueSink()
        assert sink.pop() is None
        with pytest.raises(ValueError):
            QueueSink(maxsize=0)
        with pytest.raises(ValueError):
            QueueSink(policy="drop-table")


class TestUnifiedPublish:
    def test_publish_accepts_event_mapping_iterable(self):
        broker = Broker("edge")
        broker.subscribe("a = 1")
        assert len(broker.publish(Event({"a": 1}))) == 1
        assert len(broker.publish({"a": 1})) == 1
        batched = broker.publish([{"a": 1}, Event({"a": 2}), {"a": 1}])
        assert [len(notifications) for notifications in batched] == [1, 0, 1]
        assert broker.stats.batches_published == 1

    def test_publish_rejects_strings_and_scalars(self):
        broker = Broker("edge")
        with pytest.raises(TypeError):
            broker.publish("a = 1")
        with pytest.raises(TypeError):
            broker.publish(7)

    def test_publish_materializes_generators_once(self):
        broker = Broker("edge")
        broker.subscribe("a > 0")
        pulls = []

        def feed():
            for value in (1, 2, 3):
                pulls.append(value)
                yield {"a": value}

        results = broker.publish(feed())
        assert pulls == [1, 2, 3]
        assert len(results) == 3
        assert broker.stats.events_published == 3

    def test_publisher_counts_match_batch_for_generators(self):
        broker = Broker("edge")
        publisher = Publisher("feed", broker)
        results = publisher.publish(
            {"a": value} for value in range(5)
        )
        assert publisher.published_count == 5
        assert len(results) == 5
        results = publisher.publish(({"a": value} for value in range(3)))
        assert publisher.published_count == 8
        assert len(results) == 3

    def test_stream_batches_and_preserves_order(self):
        broker = Broker("edge")
        broker.subscribe("a >= 2")
        deliveries = list(
            broker.stream(({"a": value} for value in range(5)), batch_size=2)
        )
        assert [len(d) for d in deliveries] == [0, 0, 1, 1, 1]
        # 5 events at batch_size=2 -> batches of 2, 2, 1
        assert broker.stats.batches_published == 3
        assert broker.stats.events_published == 5
        with pytest.raises(ValueError):
            next(broker.stream([], batch_size=0))

    def test_network_publish_unified_and_stream(self):
        network = BrokerNetwork()
        for name in ("a", "b"):
            network.add_broker(name)
        network.connect("a", "b")
        network.subscribe("b", "x > 0", subscriber="bob")
        assert len(network.publish("a", {"x": 1})) == 1
        batched = network.publish("a", [{"x": 1}, {"x": 0}])
        assert [len(d) for d in batched] == [1, 0]
        streamed = list(
            network.stream(
                "a", ({"x": value} for value in (1, 0, 2)), batch_size=2
            )
        )
        assert [len(d) for d in streamed] == [1, 0, 1]
        assert network.stats.batches_published == 3

    def test_publish_batch_matches_per_event_results(self):
        broker = Broker("edge")
        broker.subscribe("a = 1 or b = 2")
        events = [Event({"a": 1}), Event({"b": 3}), Event({"b": 2})]
        sequential = [broker.publish(event) for event in events]
        assert broker.publish(events) == sequential

    def test_stream_validates_batch_size_eagerly(self):
        broker = Broker("edge")
        with pytest.raises(ValueError):
            broker.stream([], batch_size=0)  # before any iteration
        network = BrokerNetwork()
        network.add_broker("solo")
        with pytest.raises(ValueError):
            network.stream("solo", [], batch_size=0)
        with pytest.raises(ValueError):
            Publisher("feed", broker).stream([], batch_size=0)

    def test_publisher_stream_counts_published_batches(self):
        """Counts move when a batch is published, so an early-stopping
        consumer still sees the broker's counters matched."""
        broker = Broker("edge")
        publisher = Publisher("feed", broker)
        feed = publisher.stream(
            ({"a": value} for value in range(5)), batch_size=2
        )
        next(feed)  # consume one event: the first 2-event batch published
        assert publisher.published_count == 2
        assert broker.stats.events_published == 2
        feed.close()
        assert publisher.published_count == broker.stats.events_published


class TestDeprecatedShims:
    def test_unsubscribe_accepts_subscription_objects_everywhere(self):
        broker = Broker("edge")
        handle = broker.subscribe("a = 1")
        broker.unsubscribe(handle.subscription)
        assert broker.subscription_count == 0

        network = BrokerNetwork()
        network.add_broker("solo")
        net_handle = network.subscribe("solo", "a = 1")
        network.unsubscribe(net_handle.subscription)
        assert network.broker("solo").subscription_count == 0

        alice = Subscriber("alice", Broker("b2"))
        sub_handle = alice.subscribe("a = 1")
        alice.unsubscribe(sub_handle.subscription)
        assert alice.subscription_ids == frozenset()

    def test_subscriber_forgets_handle_withdrawn_directly(self):
        broker = Broker("edge")
        alice = Subscriber("alice", broker)
        handle = alice.subscribe("a = 1")
        handle.unsubscribe()  # bypasses Subscriber.unsubscribe
        assert alice.subscription_ids == frozenset()
        assert alice.handles == []

    def test_sweep_rejects_engine_instances(self):
        from repro.experiments import run_throughput_sweep

        with pytest.raises(TypeError, match="shared registry"):
            run_throughput_sweep(
                subscription_count=10,
                event_count=8,
                engines=(build_engine("counting"),),
            )


def _packages():
    return ["repro"] + sorted(
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    )


class TestExportLists:
    @pytest.mark.parametrize("package", _packages())
    def test_all_entries_resolve_once(self, package):
        module = importlib.import_module(package)
        exported = module.__all__
        assert len(exported) == len(set(exported)), sorted(
            name for name in set(exported) if exported.count(name) > 1
        )
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == []
