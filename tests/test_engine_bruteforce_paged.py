"""Unit tests for the brute-force oracle and the disk-backed engine."""

from __future__ import annotations

import gc
import os
import random

import pytest

from repro import (
    BruteForceEngine,
    DiskTreeStore,
    PagedNonCanonicalEngine,
    UnknownSubscriptionError,
    build_engine,
)
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry
from repro.subscriptions import Subscription
from repro.workloads import PaperSubscriptionGenerator


def sub(text):
    return Subscription.from_text(text)


class TestBruteForce:
    def test_direct_evaluation(self):
        engine = BruteForceEngine()
        s = sub("a = 1 or not b = 2")
        engine.register(s)
        assert engine.match(Event({"a": 1})) == {s.subscription_id}
        assert engine.match(Event({"b": 2})) == set()
        assert engine.match(Event({})) == {s.subscription_id}

    def test_match_fulfilled_evaluates_every_tree(self):
        engine = BruteForceEngine()
        first = sub("a = 1")
        second = sub("b = 2")
        engine.register(first)
        engine.register(second)
        pid_b = engine.registry.identifier(
            next(iter(second.expression.unique_predicates()))
        )
        assert engine.match_fulfilled({pid_b}) == {second.subscription_id}

    def test_unregister(self):
        engine = BruteForceEngine()
        s = sub("a = 1")
        engine.register(s)
        engine.unregister(s.subscription_id)
        assert engine.subscription_count == 0
        assert len(engine.registry) == 0
        with pytest.raises(UnknownSubscriptionError):
            engine.unregister(s.subscription_id)

    def test_duplicate_registration_rejected(self):
        engine = BruteForceEngine()
        s = sub("a = 1")
        engine.register(s)
        with pytest.raises(ValueError):
            engine.register(s)

    def test_memory_breakdown_trees_only(self):
        engine = BruteForceEngine()
        engine.register(sub("a = 1 and b = 2"))
        assert set(engine.memory_breakdown()) == {"subscription_trees"}


class TestDiskTreeStore:
    def test_add_read_roundtrip(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"), page_size=64, cache_pages=2)
        location = store.add(b"hello-tree")
        assert store.read(*location) == b"hello-tree"
        store.close()

    def test_read_spanning_pages(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"), page_size=64, cache_pages=4)
        store.add(b"x" * 60)
        location = store.add(b"y" * 40)  # crosses the 64-byte page boundary
        assert store.read(*location) == b"y" * 40
        store.close()

    def test_cache_hit_accounting(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"), page_size=64, cache_pages=2)
        location = store.add(b"abcd")
        store.read(*location)
        misses_after_first = store.cache_misses
        store.read(*location)
        assert store.cache_misses == misses_after_first
        assert store.cache_hits >= 1
        assert 0.0 < store.hit_rate() <= 1.0

    def test_lru_eviction(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"), page_size=64, cache_pages=1)
        first = store.add(b"a" * 64)
        second = store.add(b"b" * 64)
        store.read(*first)
        store.read(*second)  # evicts page 0
        misses = store.cache_misses
        store.read(*first)   # miss again
        assert store.cache_misses == misses + 1
        store.close()

    def test_read_past_end_rejected(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"))
        store.add(b"abcd")
        with pytest.raises(ValueError):
            store.read(0, 10)
        store.close()

    def test_owned_tempfile_removed_on_close(self):
        store = DiskTreeStore()
        path = store.path
        store.add(b"abcd")
        store.close()
        assert not os.path.exists(path)

    def test_live_byte_accounting(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"))
        location = store.add(b"abcd")
        store.add(b"efgh")
        store.free(*location)
        assert store.size == 8
        assert store.live_bytes == 4
        store.close()

    def test_dropped_store_removes_its_file(self):
        store = DiskTreeStore()
        path = store.path
        store.add(b"abcd")
        del store
        gc.collect()
        assert not os.path.exists(path)

    def test_dropped_engine_removes_its_file(self):
        engine = build_engine("paged")
        path = engine.store.path
        engine.register(sub("a = 1"))
        del engine
        gc.collect()
        assert not os.path.exists(path)

    def test_compact_moves_live_trees_to_the_front(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"), page_size=64, cache_pages=2)
        first = store.add(b"a" * 40)
        second = store.add(b"b" * 40)
        third = store.add(b"c" * 40)
        store.read(*third)  # cache the page compaction rewrites
        store.free(*first)
        store.free(*second)
        assert store.needs_compaction()
        relocations = store.compact()
        assert relocations == {third[0]: 0}
        assert store.size == 40
        assert os.path.getsize(store.path) == 40
        assert store.read(0, 40) == b"c" * 40
        store.close()

    def test_context_manager(self):
        with DiskTreeStore() as store:
            path = store.path
            store.add(b"abcd")
        assert not os.path.exists(path)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiskTreeStore(page_size=8)
        with pytest.raises(ValueError):
            DiskTreeStore(cache_pages=0)


class TestPagedEngine:
    def test_matching_through_cache(self, tmp_path):
        store = DiskTreeStore(
            str(tmp_path / "arena"), page_size=128, cache_pages=2
        )
        engine = PagedNonCanonicalEngine(store=store)
        s = sub("a = 1 and (b = 2 or c = 3)")
        engine.register(s)
        assert engine.match(Event({"a": 1, "c": 3})) == {s.subscription_id}
        assert engine.match(Event({"a": 1})) == set()
        engine.close()

    def test_ram_footprint_excludes_trees(self, tmp_path):
        store = DiskTreeStore(
            str(tmp_path / "arena"), page_size=128, cache_pages=2
        )
        engine = PagedNonCanonicalEngine(store=store)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=1
        )
        for s in generator.subscriptions(100):
            engine.register(s)
        breakdown = engine.memory_breakdown()
        assert "subscription_trees" not in breakdown
        assert breakdown["page_cache"] == 256
        assert engine.store.live_bytes > 0
        engine.close()

    def test_unregister_on_disk(self, tmp_path):
        store = DiskTreeStore(str(tmp_path / "arena"))
        engine = PagedNonCanonicalEngine(store=store)
        s = sub("a = 1 and b = 2")
        engine.register(s)
        engine.unregister(s.subscription_id)
        assert engine.subscription_count == 0
        assert engine.match(Event({"a": 1, "b": 2})) == set()
        assert len(engine.registry) == 0
        with pytest.raises(UnknownSubscriptionError):
            engine.unregister(s.subscription_id)
        engine.close()

    def test_high_hit_rate_on_skewed_candidates(self, tmp_path):
        """Candidate-driven access keeps the cache effective — the §5
        rationale for why paging suits the non-canonical engine."""
        store = DiskTreeStore(
            str(tmp_path / "arena"), page_size=4096, cache_pages=8
        )
        engine = PagedNonCanonicalEngine(store=store)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=2
        )
        subscriptions = generator.subscriptions(300)
        for s in subscriptions:
            engine.register(s)
        # repeatedly fulfil the same small predicate population
        hot = subscriptions[0]
        fulfilled = {
            engine.registry.identifier(p)
            for p in hot.expression.unique_predicates()
        }
        for _ in range(50):
            assert hot.subscription_id in engine.match_fulfilled(fulfilled)
        assert engine.store.hit_rate() > 0.9
        engine.close()

    def test_churn_reclaims_the_file_and_keeps_matches(self, tmp_path):
        """Freed trees leave the file under the arena's dead-byte rule,
        and the relocations keep every answer equal to the oracle's."""
        registry = PredicateRegistry()
        indexes = IndexManager()
        store = DiskTreeStore(
            str(tmp_path / "arena"), page_size=256, cache_pages=4
        )
        engine = PagedNonCanonicalEngine(
            store=store, registry=registry, indexes=indexes
        )
        oracle = BruteForceEngine(registry=registry, indexes=indexes)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=5
        )
        rng = random.Random(5)
        live = []
        for _ in range(10):
            for s in generator.subscriptions(100):
                engine.register(s)
                oracle.register(s)
                live.append(s)
            rng.shuffle(live)
            for s in live[:90]:
                engine.unregister(s.subscription_id)
                oracle.unregister(s.subscription_id)
            del live[:90]
            assert store.size <= 2 * store.live_bytes
            fulfilled_sets = [
                {
                    registry.identifier(p)
                    for s in rng.sample(live, 3)
                    for p in s.expression.unique_predicates()
                }
                | set(rng.sample(range(1, 2 * len(registry)), 20))
                for _ in range(8)
            ]
            expected = [oracle.match_fulfilled(f) for f in fulfilled_sets]
            assert all(expected)
            assert [engine.match_fulfilled(f) for f in fulfilled_sets] == expected
            assert engine.match_fulfilled_batch(fulfilled_sets) == expected
        engine.close()
