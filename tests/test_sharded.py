"""Sharded runtime: parity with unsharded engines for every engine.

The contract under test: a :class:`~repro.core.sharded.ShardedEngine`
over any inner engine spec returns **exactly** the match sets of the
unsharded engine — on the agreement corpus, per event and per batch,
and under interleaved subscribe/unsubscribe churn.  Plus the
partitioner, spec round-trips, the introspection surface, and the
broker/network reporting built on it.
"""

from __future__ import annotations

import pytest

from repro import (
    Broker,
    BrokerNetwork,
    EngineSpec,
    ShardedEngine,
    UnsupportedSubscriptionError,
    build_engine,
    shard_index,
    spec_of,
)
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry
from repro.workloads import ChurnScenario, SkewedHotKeyScenario

#: Canonical engine name -> inner-spec options making it churn-capable.
ENGINE_OPTIONS = {
    "noncanonical": {},
    "counting": {"support_unsubscription": True},
    "counting-variant": {},
    "matching-tree": {},
    "bruteforce": {},
    "paged": {},
}

ALL_ENGINES = tuple(ENGINE_OPTIONS)


def inner_spec(engine_name: str) -> EngineSpec:
    return EngineSpec(engine_name, ENGINE_OPTIONS[engine_name])


def sharded(engine_name: str) -> ShardedEngine:
    return ShardedEngine(inner_spec(engine_name), shards=4)


@pytest.fixture(scope="module")
def corpus():
    """The agreement corpus: skewed hot-key subscriptions and events."""
    scenario = SkewedHotKeyScenario(seed=11)
    return scenario.subscriptions(48), scenario.events(96)


# ----------------------------------------------------------------------
# the partitioner
# ----------------------------------------------------------------------
def test_partitioner_is_stable_and_in_range():
    for sid in (1, 2, 17, 1_000_003):
        assert shard_index(sid, 4) == shard_index(sid, 4)
        assert 0 <= shard_index(sid, 4) < 4
        assert shard_index(sid, 1) == 0


def test_partitioner_spreads_consecutive_ids():
    counts = [0, 0, 0, 0]
    for sid in range(1, 1001):
        counts[shard_index(sid, 4)] += 1
    # multiplicative hashing: no shard may starve or hog on dense ids
    assert min(counts) > 150
    assert max(counts) < 350


def test_partitioner_rejects_nonpositive_shard_count():
    with pytest.raises(ValueError):
        shard_index(1, 0)


# ----------------------------------------------------------------------
# parity on the agreement corpus — all engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_sharded_parity_on_corpus(engine_name, corpus):
    subscriptions, events = corpus
    plain = inner_spec(engine_name).build()
    for subscription in subscriptions:
        plain.register(subscription)
    expected_batch = plain.match_batch(events)
    with sharded(engine_name) as engine:
        for subscription in subscriptions:
            engine.register(subscription)
        assert engine.subscription_ids() == plain.subscription_ids()
        assert engine.subscription_count == plain.subscription_count
        assert sum(s.subscription_count for s in engine.shards) == len(
            subscriptions
        )
        # byte-identical match sets, batch and per event
        assert engine.match_batch(events) == expected_batch
        for event in events[:16]:
            assert engine.match(event) == plain.match(event)


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_sharded_parity_under_churn(engine_name, corpus):
    """Interleaved subscribe/unsubscribe/publish, matched in batches.

    Publishes are flushed through ``match_batch`` every few operations,
    so every batch sees shards that the churn before it has changed.
    """
    ops = list(ChurnScenario(seed=29, warmup_subscriptions=12).ops(90))
    plain = inner_spec(engine_name).build()
    with sharded(engine_name) as engine:

        def drive(target) -> list[list[set[int]]]:
            trace, pending = [], []
            for kind, payload in ops:
                if kind == "subscribe":
                    target.register(payload)
                elif kind == "unsubscribe":
                    target.unregister(payload)
                else:
                    pending.append(payload)
                    if len(pending) == 8:
                        trace.append(target.match_batch(pending))
                        pending = []
            if pending:
                trace.append(target.match_batch(pending))
            return trace

        assert drive(engine) == drive(plain)
        assert engine.subscription_ids() == plain.subscription_ids()


def test_sharded_match_fulfilled_parity(corpus):
    """Phase-2-only parity: shards share the parent's phase-1 state, so
    fulfilled-id sets mean the same thing sharded or not."""
    subscriptions, events = corpus
    registry = PredicateRegistry()
    indexes = IndexManager()
    plain = build_engine("noncanonical", registry=registry, indexes=indexes)
    engine = ShardedEngine(
        "noncanonical", shards=4, registry=registry, indexes=indexes
    )
    for subscription in subscriptions:
        plain.register(subscription)
        engine.register(subscription)
    fulfilled_sets = [indexes.match(event) for event in events[:24]]
    for fulfilled in fulfilled_sets:
        assert engine.match_fulfilled(fulfilled) == plain.match_fulfilled(
            fulfilled
        )
    assert engine.match_fulfilled_batch(
        fulfilled_sets
    ) == plain.match_fulfilled_batch(fulfilled_sets)


def test_shards_one_equals_unsharded(corpus):
    subscriptions, events = corpus
    plain = build_engine("noncanonical")
    engine = ShardedEngine("noncanonical", shards=1)
    for subscription in subscriptions:
        plain.register(subscription)
        engine.register(subscription)
    assert engine.match_batch(events) == plain.match_batch(events)
    assert engine.memory_bytes() == plain.memory_bytes()


# ----------------------------------------------------------------------
# registration semantics
# ----------------------------------------------------------------------
def test_duplicate_and_unknown_ids_raise(corpus):
    subscriptions, _ = corpus
    engine = ShardedEngine("noncanonical", shards=4)
    engine.register(subscriptions[0])
    with pytest.raises(ValueError):
        engine.register(subscriptions[0])
    from repro import UnknownSubscriptionError

    with pytest.raises(UnknownSubscriptionError):
        engine.unregister(10_000_000)


def test_unsupported_subscription_leaves_no_trace():
    """A shard rejecting a subscription must not corrupt the runtime."""
    from repro import Subscription

    engine = ShardedEngine(EngineSpec("counting"), shards=4)
    bad = Subscription.from_text("not a > 1")  # negative literal
    with pytest.raises(UnsupportedSubscriptionError):
        engine.register(bad)
    assert engine.subscription_count == 0
    assert engine.subscription_ids() == frozenset()


def test_shard_slices_partition_the_population(corpus):
    subscriptions, _ = corpus
    engine = ShardedEngine("noncanonical", shards=4)
    for subscription in subscriptions:
        engine.register(subscription)
    slices = [shard.subscription_ids() for shard in engine.shards]
    assert len(slices) == 4
    ids = [sid for shard_slice in slices for sid in shard_slice]
    assert len(ids) == len(set(ids)) == len(subscriptions)
    assert set(ids) == engine.subscription_ids()
    for index, shard_slice in enumerate(slices):
        for sid in shard_slice:
            assert engine.shard_of(sid) == index


# ----------------------------------------------------------------------
# specs and registry round-trips
# ----------------------------------------------------------------------
def test_spec_shorthand_and_roundtrip():
    assert EngineSpec("noncanonical×4") == EngineSpec(
        "noncanonical", {"shards": 4}
    )
    assert EngineSpec("non-canonical x 2").options["shards"] == 2
    engine = build_engine("counting-variant×3", partitioner="routed")
    assert isinstance(engine, ShardedEngine)
    assert engine.shard_count == 3
    assert engine.partitioner.name == "routed"
    spec = spec_of(engine)
    assert spec == EngineSpec(
        "counting-variant", {"shards": 3, "partitioner": "routed"}
    )
    rebuilt = spec.build()
    assert isinstance(rebuilt, ShardedEngine)
    assert rebuilt.shard_count == 3
    assert rebuilt.partitioner.name == "routed"
    assert spec_of(rebuilt) == spec


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        EngineSpec("noncanonical×4", {"shards": 2})  # contradictory
    with pytest.raises(ValueError):
        build_engine("noncanonical", executor="serial")  # executor w/o shards
    with pytest.raises(ValueError):
        ShardedEngine(EngineSpec("noncanonical", {"shards": 2}), shards=2)
    with pytest.raises(ValueError):
        ShardedEngine("noncanonical", shards=0)
    with pytest.raises(ValueError):
        ShardedEngine("noncanonical", shards=2, partitioner="warp-drive")
    with pytest.raises(TypeError):
        ShardedEngine("noncanonical", shards=2, executor="serial")


def test_serial_executor_spec_builds_and_process_is_rejected():
    """``executor`` survives in specs only as the in-process ``"serial"``."""
    spec = EngineSpec(
        "noncanonical", {"shards": 8, "partitioner": "routed", "executor": "serial"}
    )
    engine = spec.build()
    assert isinstance(engine, ShardedEngine)
    assert engine.shard_count == 8
    assert engine.partitioner.name == "routed"
    assert "executor" not in spec_of(engine).options
    with pytest.raises(ValueError, match="in-process"):
        build_engine("noncanonical", shards=4, executor="process")


def test_inner_options_flow_to_shards():
    engine = build_engine("noncanonical", shards=2, codec="varint")
    assert spec_of(engine.shards[0]).name == "noncanonical"
    assert engine.spec.options == {"codec": "varint"}


# ----------------------------------------------------------------------
# stats and broker/network integration
# ----------------------------------------------------------------------
def test_stats_surface(corpus):
    subscriptions, _ = corpus
    engine = sharded("noncanonical")
    for subscription in subscriptions:
        engine.register(subscription)
    stats = engine.stats()
    assert stats["shards"] == 4
    assert stats["partitioner"] == "hash"
    assert "executor" not in stats
    assert stats["subscriptions"] == len(subscriptions)
    per_shard = [shard.stats() for shard in engine.shards]
    assert len(per_shard) == 4
    assert sum(entry["subscriptions"] for entry in per_shard) == len(
        subscriptions
    )
    assert sum(entry["memory_bytes"] for entry in per_shard) == stats[
        "memory_bytes"
    ]


def test_broker_with_sharded_spec_and_aggregated_pressure():
    broker = Broker("hub", engine="noncanonical×4")
    scenario = SkewedHotKeyScenario(seed=3)
    handles = [broker.subscribe(s) for s in scenario.subscriptions(24)]
    assert broker.subscription_count == 24
    shards = broker.engine.shards
    assert len(shards) == 4
    # the engine's memory accounting (what a machine's pressure divides)
    # is the sum of its shards
    aggregated = sum(shard.memory_bytes() for shard in shards)
    assert broker.engine.memory_bytes() == aggregated
    assert broker.engine.stats()["shards"] == 4
    # matching + handle lifecycle work through the sharded engine
    notifications = broker.publish(scenario.events(16))
    assert len(notifications) == 16
    handles[0].unsubscribe()
    assert broker.subscription_count == 23


def test_network_with_sharded_brokers():
    network = BrokerNetwork()
    network.add_broker("edge", engine="noncanonical×2")
    network.add_broker("hub", engine="counting×2")
    network.connect("edge", "hub")
    scenario = SkewedHotKeyScenario(seed=7)
    handles = [
        network.subscribe("hub", subscription)
        for subscription in scenario.subscriptions(12)
    ]
    events = scenario.events(32)
    batched = network.publish("edge", events)
    for name in ("edge", "hub"):
        assert len(network.broker(name).engine.shards) == 2
    # deliveries equal a single sharded broker's answers
    solo = Broker("oracle", engine="noncanonical×2")
    sinks = {}
    from repro import Subscription

    for handle in handles:
        solo.subscribe(
            Subscription(
                expression=handle.subscription.expression,
                subscriber=handle.subscriber,
                subscription_id=handle.id,
            )
        )
    for event, deliveries in zip(events, batched):
        assert {n.subscription_id for n in deliveries} == solo.engine.match(
            event
        )
