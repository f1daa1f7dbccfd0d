"""Routed shard partitioner: region digest, pruning soundness, parity.

The contract under test, layer by layer:

* the :class:`~repro.core.sharded.RoutedPartitioner` region digest is
  maintained incrementally — add, remove, and migrate keep the point
  index, scan groups, and loads consistent;
* routing is **sound**: for every event, the shard of every matching
  subscription is in ``candidate_shards(event)`` (pruning may only skip
  shards that cannot contain a match);
* the routed configuration returns exactly the unsharded match sets —
  for all six registry engines, per event and per batch, under
  batch-flushed churn that forces a rebalance round;
* bookkeeping: pruning counters, spec round-trips, and the routing
  digest's memory charge, which churn must release in full.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EngineSpec,
    RoutedPartitioner,
    ShardedEngine,
    Subscription,
    build_engine,
    make_partitioner,
    partitioner_names,
    spec_of,
)
from repro.core.sharded import HashPartitioner
from repro.events import Event
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
PARTITIONERS = ("hash", "routed")


def inner_spec(engine_name: str) -> EngineSpec:
    return EngineSpec(engine_name, ENGINE_OPTIONS[engine_name])


def subscription(sid: int, text: str) -> Subscription:
    from repro.subscriptions.parser import parse

    return Subscription(expression=parse(text), subscription_id=sid)


def bound_partitioner(shards: int = 4, **options) -> RoutedPartitioner:
    partitioner = RoutedPartitioner(**options)
    partitioner.bind(shards)
    return partitioner


# ----------------------------------------------------------------------
# region digest: incremental add / remove / migrate
# ----------------------------------------------------------------------
def test_same_key_subscriptions_share_a_home_shard():
    partitioner = bound_partitioner()
    shards = {
        partitioner.assign(subscription(sid, f"key = 'hot' and value > {sid}"))
        for sid in range(1, 9)
    }
    assert len(shards) == 1
    home = shards.pop()
    assert partitioner.candidate_shards(Event({"key": "hot", "value": 5})) == {
        home
    }
    # an event for a key nobody anchors on is fully pruned
    assert partitioner.candidate_shards(Event({"key": "cold"})) == set()


def test_value_home_is_sticky_under_load_shift():
    """New groups touching an existing key follow it, not the load."""
    partitioner = bound_partitioner(2)
    first = partitioner.assign(subscription(1, "key = 'a' and value > 1"))
    # pile enough other regions onto both shards to move the load
    # minimum around, then anchor on 'a' again
    for sid in range(2, 12):
        partitioner.assign(subscription(sid, f"key = 'k{sid}'"))
    assert partitioner.assign(subscription(99, "key = 'a' and value < 0")) == first


def test_forget_unwinds_the_digest():
    partitioner = bound_partitioner()
    for sid in range(1, 5):
        partitioner.assign(subscription(sid, f"key = 'k{sid}'"))
    partitioner.assign(subscription(10, "value > 3 and value < 9"))
    for sid in (1, 2, 3, 4, 10):
        partitioner.forget(sid)
    assert partitioner._assignments == {}
    assert partitioner._groups == {}
    assert partitioner._point_index == {}
    assert partitioner._scan_groups == set()
    assert partitioner._loads == [0, 0, 0, 0]
    for event in (Event({"key": "k1"}), Event({"value": 5})):
        assert partitioner.candidate_shards(event) == set()


def test_hull_groups_route_by_merged_interval():
    partitioner = bound_partitioner()
    a = partitioner.assign(subscription(1, "value > 10 and value < 20"))
    assert partitioner.assign(subscription(2, "value > 12 and value < 30")) == a
    # inside the merged hull (10, 30) -> probed; outside -> pruned;
    # missing the hull attribute entirely -> pruned
    assert partitioner.candidate_shards(Event({"value": 15})) == {a}
    assert partitioner.candidate_shards(Event({"value": 40})) == set()
    assert partitioner.candidate_shards(Event({"other": 1})) == set()


def test_universal_subscriptions_are_never_pruned():
    partitioner = bound_partitioner()
    shard = partitioner.assign(subscription(1, "a > 1 or b < 2"))  # no anchors,
    # and the OR of two single-attribute clauses has no common tight hull
    assert shard in partitioner.candidate_shards(Event({"unrelated": 0}))


def test_plan_rebalance_migrates_whole_groups():
    partitioner = bound_partitioner(2, imbalance_factor=1.0)
    # both regions share the value home of their smallest anchor ('a'),
    # so placement stacks all 8 members on one shard: an 8-vs-0 split
    # made of two movable 4-member groups
    for sid in range(1, 5):
        partitioner.assign(subscription(sid, "key = 'a'"))
    for sid in range(20, 24):
        partitioner.assign(subscription(sid, "key = 'a' or key = 'b'"))
    source = partitioner.shard_of(1)
    assert partitioner.shard_of(20) == source
    moves = partitioner.plan_rebalance()
    assert moves, "8-vs-0 split above factor 1.0 must trigger a move"
    assert partitioner.migrations == 1
    moved_sids = {sid for sid, _, _ in moves}
    # whole-group migration: exactly one of the two regions moved
    assert moved_sids in ({1, 2, 3, 4}, {20, 21, 22, 23})
    (destination,) = {dst for _, _, dst in moves}
    assert destination != source
    for sid in moved_sids:
        assert partitioner.shard_of(sid) == destination
    assert sorted(partitioner._loads) == [4, 4]
    # the digest routes to both groups' shards immediately: an event for
    # the shared key now needs both, the 'b'-only key exactly one
    assert partitioner.candidate_shards(Event({"key": "a"})) == {
        source,
        destination,
    }
    assert partitioner.candidate_shards(Event({"key": "b"})) == {
        partitioner.shard_of(20)
    }


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_candidate_shards_is_sound(seed):
    """Every matching subscription's shard survives the pruning."""
    scenario = SkewedHotKeyScenario(seed=seed)
    subscriptions = scenario.subscriptions(32)
    events = scenario.events(32)
    oracle = build_engine("bruteforce")
    partitioner = bound_partitioner()
    for entry in subscriptions:
        oracle.register(entry)
        partitioner.assign(entry)
    for event in events:
        candidates = partitioner.candidate_shards(event)
        for sid in oracle.match(event):
            assert partitioner.shard_of(sid) in candidates


# ----------------------------------------------------------------------
# parity: routed vs hash vs unsharded, all engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=5, deadline=None)
def test_routed_parity_on_random_corpora(engine_name, seed):
    scenario = SkewedHotKeyScenario(seed=seed)
    subscriptions = scenario.subscriptions(24)
    events = scenario.events(48)
    plain = inner_spec(engine_name).build()
    try:
        for entry in subscriptions:
            plain.register(entry)
        expected_batch = plain.match_batch(events)
        expected_events = [plain.match(event) for event in events[:8]]
        for partitioner in PARTITIONERS:
            with ShardedEngine(
                inner_spec(engine_name), shards=3, partitioner=partitioner
            ) as engine:
                for entry in subscriptions:
                    engine.register(entry)
                assert engine.match_batch(events) == expected_batch
                for event, expected in zip(events, expected_events):
                    assert engine.match(event) == expected
    finally:
        plain.close()


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_unsatisfiable_anchor_registers_matches_nothing_and_unregisters(
    engine_name,
):
    """``x = 1 and x = 2`` summarises to the empty anchor set: it has no
    value home, registers, matches nothing (as on the oracle) and leaves
    no routing state behind."""
    texts = ("x = 1 and x = 2", "x = 1", "x = 2 and y > 0")
    events = [Event({"x": 1}), Event({"x": 2, "y": 1}), Event({"x": 3})]
    oracle = build_engine("bruteforce")
    with ShardedEngine(
        inner_spec(engine_name), shards=4, partitioner="routed"
    ) as engine:
        for sid, text in enumerate(texts, start=1):
            oracle.register(subscription(sid, text))
            engine.register(subscription(sid, text))
        assert engine.match_batch(events) == oracle.match_batch(events)
        assert [engine.match(event) for event in events] == [
            oracle.match(event) for event in events
        ]
        for sid in range(1, len(texts) + 1):
            engine.unregister(sid)
        assert engine.subscription_count == 0
        assert engine.partitioner._point_index == {}
        assert engine.memory_breakdown()["shard_router"] == 0


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_routed_parity_under_churn_with_rebalance(engine_name):
    """Batch-flushed churn through a rebalance-happy routed engine.

    ``imbalance_factor=1.0`` makes every post-churn imbalance actionable,
    so the run includes real migrations — whose register/unregister pairs
    must move subscriptions between shards without perturbing a single
    match set.
    """
    ops = list(ChurnScenario(seed=13, warmup_subscriptions=12).ops(90))
    plain = inner_spec(engine_name).build()
    with ShardedEngine(
        inner_spec(engine_name),
        shards=3,
        partitioner=RoutedPartitioner(imbalance_factor=1.0),
    ) as engine:

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

        try:
            assert drive(engine) == drive(plain)
            assert engine.subscription_ids() == plain.subscription_ids()
            assert engine.partitioner.migrations > 0
        finally:
            plain.close()


# ----------------------------------------------------------------------
# counters, specs, registry, memory
# ----------------------------------------------------------------------
def test_pruning_counters_and_stats():
    scenario = SkewedHotKeyScenario(seed=11)
    subscriptions = scenario.subscriptions(48)
    events = scenario.events(64)
    with ShardedEngine("noncanonical", shards=4, partitioner="routed") as engine:
        for entry in subscriptions:
            engine.register(entry)
        engine.reset_counters()
        for event in events[:16]:
            engine.match(event)
        engine.match_batch(events[16:])
        counters = engine.counters
        assert counters.shards_probed + counters.shards_pruned == 4 * len(events)
        assert counters.shards_pruned > 0
        stats = engine.stats()
        assert stats["partitioner"] == "routed"
        assert stats["shards_probed"] == counters.shards_probed
        assert stats["shards_pruned"] == counters.shards_pruned


def test_hash_partitioner_probes_every_shard():
    scenario = SkewedHotKeyScenario(seed=11)
    with ShardedEngine("noncanonical", shards=4) as engine:
        for entry in scenario.subscriptions(16):
            engine.register(entry)
        engine.reset_counters()
        engine.match_batch(scenario.events(8))
        assert engine.counters.shards_probed == 32
        assert engine.counters.shards_pruned == 0


def test_broker_surfaces_pruning_counters():
    from repro import Broker

    broker = Broker(
        "hub",
        engine=EngineSpec(
            "noncanonical", {"shards": 4, "partitioner": "routed"}
        ),
    )
    scenario = SkewedHotKeyScenario(seed=5)
    for entry in scenario.subscriptions(24):
        broker.subscribe(entry)
    broker.publish(scenario.events(16))
    stats = broker.engine.stats()
    assert stats["shards_probed"] + stats["shards_pruned"] == 4 * 16
    assert stats["shards_pruned"] > 0


def test_partitioner_registry_and_spec_roundtrip():
    assert set(partitioner_names()) >= {"hash", "routed"}
    assert isinstance(make_partitioner("hash"), HashPartitioner)
    instance = RoutedPartitioner()
    assert make_partitioner(instance) is instance
    with pytest.raises(ValueError):
        make_partitioner("warp-drive")
    engine = build_engine("noncanonical", shards=4, partitioner="routed")
    spec = spec_of(engine)
    assert spec.options["partitioner"] == "routed"
    rebuilt = spec.build()
    assert isinstance(rebuilt.partitioner, RoutedPartitioner)
    # the hash default stays implicit, keeping pre-routing specs stable
    assert "partitioner" not in spec_of(build_engine("noncanonical", shards=4)).options
    with pytest.raises(ValueError):
        build_engine("noncanonical", partitioner="routed")  # needs shards=


def test_routing_digest_is_charged_to_memory():
    scenario = SkewedHotKeyScenario(seed=3)
    subscriptions = scenario.subscriptions(32)
    routed = ShardedEngine("noncanonical", shards=4, partitioner="routed")
    hashed = ShardedEngine("noncanonical", shards=4)
    for entry in subscriptions:
        routed.register(entry)
        hashed.register(entry)
    assert routed.memory_breakdown()["shard_router"] > 0
    assert "shard_router" not in hashed.memory_breakdown()
    assert routed.memory_bytes() > hashed.memory_bytes()
    assert (
        routed.stats()["memory_bytes"]
        == sum(routed.memory_breakdown().values())
    )


def test_routing_digest_is_released_under_churn():
    """Value homes are held only while a live group anchors at the value:
    full subscribe/unsubscribe churn leaves no routing state behind."""
    with ShardedEngine("noncanonical", shards=4, partitioner="routed") as engine:
        for sid in range(1, 1001):
            engine.register(subscription(sid, f"k = {sid} and v > 3"))
        assert engine.memory_breakdown()["shard_router"] > 0
        for sid in range(1, 1001):
            engine.unregister(sid)
        assert engine.subscription_count == 0
        assert engine.memory_breakdown()["shard_router"] == 0
        assert engine.partitioner._value_homes == {}


def test_rebalance_validation():
    with pytest.raises(ValueError):
        RoutedPartitioner(imbalance_factor=0.5)
