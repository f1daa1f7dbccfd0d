"""The matching-path contract: one per-event method plus one batch kernel.

Every engine implements per-event phase 2 (``match_fulfilled``) and at
most one batch method; :class:`~repro.core.base.FilterEngine` derives
``match``, ``match_batch``, the memoized ``match_fulfilled_batch`` and
the matrix fallback.  Two documented exceptions are named below.  The
sharded runtime keeps one batch loop (``match_batch``) and treats a
single event as a batch of one.

A batch of one must stay on the per-event path: phase 1 through
``IndexManager.match``, phase 2 on sets — so single-event publishing
cannot move onto the batch sweep or the matrix path unnoticed.

The match/probe counters every engine keeps are exposed through
``FilterEngine.stats()`` and ``broker.engine.stats()``, and aggregate
across shards.
"""

from __future__ import annotations

import pytest

from repro import (
    Broker,
    Event,
    FilterEngine,
    ShardedEngine,
    Subscription,
    build_engine,
)
from repro.core import engine_catalog
from repro.workloads import PaperSubscriptionGenerator
from helpers import ALL_ENGINE_NAMES

MATCHING_METHODS = (
    "match",
    "match_batch",
    "match_fulfilled",
    "match_fulfilled_batch",
    "match_fulfilled_matrix",
)

#: engine display name -> the matching methods its class overrides
EXPECTED_OVERRIDES = {
    "non-canonical": {"match_fulfilled", "match_fulfilled_matrix"},
    "counting": {"match_fulfilled", "match_fulfilled_matrix"},
    "counting-variant": {"match_fulfilled", "match_fulfilled_matrix"},
    "matching-tree": {"match_fulfilled"},
    # exception: the oracle evaluates expressions on events, bypassing
    # the shared indexes on the full matching path
    "brute-force": {"match", "match_batch", "match_fulfilled"},
    # the non-canonical engine over a disk store: it inherits
    # match_fulfilled and the matrix hook, which on its encoded
    # evaluation is no kernel (has_matrix_kernel is false); exception:
    # its one batch kernel is set-based, reading candidate trees in
    # store-offset order
    "non-canonical-paged": {
        "match_fulfilled",
        "match_fulfilled_matrix",
        "match_fulfilled_batch",
    },
}

SUBSCRIPTIONS = (
    "price > 10 and symbol = 'a'",
    "volume >= 5 or qty = 3",
    "price <= 10",
)
EVENTS = (
    Event({"price": 12, "symbol": "a", "volume": 6}),
    Event({"price": 4, "qty": 3}),
    Event({"price": 11, "symbol": "b"}),
)


def overridden(cls: type) -> set[str]:
    return {
        method
        for method in MATCHING_METHODS
        if getattr(cls, method) is not getattr(FilterEngine, method)
    }


def test_catalog_matches_the_contract_table():
    assert set(engine_catalog()) == set(EXPECTED_OVERRIDES)


@pytest.mark.parametrize("name", sorted(EXPECTED_OVERRIDES))
def test_engine_overrides_one_phase2_method_and_one_batch_kernel(name):
    methods = overridden(engine_catalog()[name])
    assert methods == EXPECTED_OVERRIDES[name]
    if name != "brute-force":
        batch = methods - {"match_fulfilled"}
        engine = build_engine(name)
        if not engine.has_matrix_kernel:
            batch.discard("match_fulfilled_matrix")
        engine.close()
        assert "match_fulfilled" in methods and len(batch) <= 1


def test_sharded_engine_keeps_one_batch_loop():
    assert overridden(ShardedEngine) == {"match", "match_batch", "match_fulfilled"}


def _loaded(spec: str, **options) -> FilterEngine:
    engine = build_engine(spec, **options)
    for text in SUBSCRIPTIONS:
        engine.register(Subscription.from_text(text))
    return engine


ENGINE_CONFIGS = [
    pytest.param(name, {}, id=name) for name in sorted(EXPECTED_OVERRIDES)
]
ENGINE_CONFIGS += [
    pytest.param("noncanonical", {"shards": 2}, id="noncanonical-hash"),
    pytest.param(
        "counting", {"shards": 2, "partitioner": "routed"}, id="counting-routed"
    ),
    pytest.param("matching-tree", {"shards": 2}, id="matching-tree-hash"),
]


@pytest.mark.parametrize("spec, options", ENGINE_CONFIGS)
def test_batch_of_one_is_the_per_event_path(spec, options, monkeypatch):
    engine = _loaded(spec, **options)
    try:
        indexes = engine.indexes
        calls = []
        for method in ("match_batch", "match_batch_bits"):

            def spy(events, _method=method, _original=getattr(indexes, method)):
                calls.append(_method)
                return _original(events)

            monkeypatch.setattr(indexes, method, spy)
        # the spies see a wider batch, except on the oracle, which
        # bypasses the shared indexes
        engine.match_batch(list(EVENTS[1:]))
        assert bool(calls) == (spec != "brute-force")
        calls.clear()
        for event in EVENTS:
            assert engine.match_batch([event]) == [engine.match(event)]
        assert calls == []
    finally:
        engine.close()


class TestCounterSurface:
    def _load(self, engine):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=4, seed=7
        )
        for subscription in generator.subscriptions(30):
            engine.register(subscription)
        return engine

    @pytest.mark.parametrize("name", ALL_ENGINE_NAMES)
    def test_stats_expose_match_counters(self, name):
        engine = self._load(build_engine(name))
        try:
            stats = engine.stats()
            assert stats["phase2_calls"] == 0
            engine.match_fulfilled({1, 2, 3})
            stats = engine.stats()
            assert stats["phase2_calls"] == 1
            assert stats["candidates_probed"] >= 0
            engine.reset_counters()
            assert engine.stats()["phase2_calls"] == 0
        finally:
            engine.close()

    def test_sharded_engine_aggregates_shard_counters(self):
        engine = self._load(build_engine("noncanonical", shards=4))
        try:
            engine.match_fulfilled({1, 2, 3})
            # every shard answered once; the aggregate says so
            assert engine.counters.phase2_calls == 4
            assert engine.stats()["phase2_calls"] == 4
            per_shard = [
                shard.counters.phase2_calls for shard in engine.shards
            ]
            assert per_shard == [1, 1, 1, 1]
            engine.reset_counters()
            assert engine.counters.phase2_calls == 0
        finally:
            engine.close()

    def test_broker_engine_stats_carry_counters(self):
        broker = Broker("hub", engine="noncanonical")
        broker.subscribe("price > 10")
        broker.publish({"price": 20})
        stats = broker.engine.stats()
        assert stats["phase2_calls"] == 1
        assert stats["matches_found"] == 1
