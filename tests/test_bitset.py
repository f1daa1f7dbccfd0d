"""Bit-packed phase-2 kernel (PR 8): primitives, churn, engine parity.

Three layers of proof, bottom-up:

* the int bit primitives (`popcount`, `iter_bits`) are exact across
  word boundaries;
* `BitLayout` recycles released bit positions without ever handing a
  live bit two meanings, and `IndexManager.match_batch_bits` stays in
  lockstep with the set-based `match_batch` through add/remove churn;
* every registry engine's `match_fulfilled_matrix` equals its set-based
  `match_fulfilled_batch` (and `match_batch` equals per-event `match`)
  over randomized corpora, including batch-flushed subscribe/unsubscribe
  rounds — the no-stale-bit-resurrection property, observed end to end.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SELECTED_ENGINE, event_strategy, predicate_strategy
from repro import EngineSpec, UnsupportedSubscriptionError
from repro.core.bitset import BitLayout, FulfilledMatrix, iter_bits, popcount
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import Operator, Predicate, PredicateRegistry
from repro.workloads import GeneralSubscriptionGenerator

# -- word boundaries the primitives must survive -----------------------
BOUNDARY_VALUES = [
    0,
    1,
    (1 << 63) - 1,
    1 << 63,
    (1 << 64) - 1,
    1 << 64,
    (1 << 64) + 1,
    (1 << 128) - 1,
    1 << 128,
    (1 << 130) - 1,
    0xDEADBEEFCAFEBABE_0123456789ABCDEF,
]


class TestPrimitives:
    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_popcount_matches_bit_count(self, value):
        assert popcount(value) == value.bit_count()

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_iter_bits_ascending_and_complete(self, value):
        positions = list(iter_bits(value))
        assert positions == sorted(positions)
        assert sum(1 << position for position in positions) == value


class TestBitLayout:
    def test_assign_is_dense_and_idempotent(self):
        layout = BitLayout()
        assert layout.assign(101) == 0
        assert layout.assign(202) == 1
        assert layout.assign(101) == 0
        assert layout.capacity == 2
        assert len(layout) == 2
        assert 101 in layout and 303 not in layout
        assert layout.bit_of(202) == 1
        assert layout.pid_at(0) == 101
        assert layout.bits_of([202, 101]) == (1, 0)

    def test_release_recycles_and_bumps_epoch(self):
        layout = BitLayout()
        for pid in (1, 2, 3):
            layout.assign(pid)
        epoch = layout.epoch
        assert layout.release(2)
        assert layout.epoch == epoch + 1
        assert layout.pid_at(1) is None
        assert 2 not in layout
        # the freed position is recycled, capacity does not grow
        assert layout.assign(9) == 1
        assert layout.capacity == 3
        # releasing an unknown id is a no-op and does not bump the epoch
        epoch = layout.epoch
        assert not layout.release(777)
        assert layout.epoch == epoch

    def test_capacity_bounded_by_live_high_water_mark(self):
        layout = BitLayout()
        rng = random.Random(7)
        live: set[int] = set()
        high_water = 0
        for pid in range(1, 400):
            layout.assign(pid)
            live.add(pid)
            high_water = max(high_water, len(live))
            if len(live) > 20 and rng.random() < 0.6:
                victim = rng.choice(sorted(live))
                layout.release(victim)
                live.remove(victim)
        assert layout.capacity <= high_water
        assert len(layout) == len(live)

    def test_compact_renumbers_densely(self):
        layout = BitLayout()
        for pid in range(10):
            layout.assign(pid)
        for pid in (1, 4, 7, 9):
            layout.release(pid)
        epoch = layout.epoch
        remap = layout.compact()
        assert layout.epoch == epoch + 1
        assert layout.capacity == len(layout) == 6
        assert not layout.free
        # the remap covers exactly the surviving bits, onto a dense range
        assert sorted(remap.values()) == list(range(6))
        for old_bit, new_bit in remap.items():
            assert layout.pid_at(new_bit) is not None
        for pid in (0, 2, 3, 5, 6, 8):
            assert layout.bit_of(pid) < 6


class TestFulfilledMatrix:
    def _layout(self, pids):
        layout = BitLayout()
        for pid in pids:
            layout.assign(pid)
        return layout

    def test_from_id_sets_to_id_sets_roundtrip(self):
        layout = self._layout([10, 20, 30, 40])
        sets = [{10, 30}, set(), {20}, {10, 20, 40}]
        matrix = FulfilledMatrix.from_id_sets(layout, sets)
        assert matrix.event_count == 4
        assert matrix.to_id_sets() == sets
        assert matrix.to_id_sets() is matrix.to_id_sets()  # cached

    def test_columns_and_rows_are_transposes(self):
        layout = self._layout([10, 20, 30])
        sets = [{10}, {10, 20}, {30}]
        matrix = FulfilledMatrix.from_id_sets(layout, sets)
        bit_10 = layout.bit_of(10)
        assert matrix.column(bit_10) == 0b011  # events 0 and 1
        assert matrix.row(0) == 1 << bit_10
        assert matrix.row(1) == (1 << bit_10) | (1 << layout.bit_of(20))
        assert matrix.row(2) == 1 << layout.bit_of(30)
        with pytest.raises(IndexError):
            matrix.row(3)

    def test_active_bits_are_exactly_nonzero_columns(self):
        layout = self._layout([1, 2, 3, 4])
        matrix = FulfilledMatrix.from_id_sets(layout, [{2}, {2, 4}])
        assert sorted(matrix.active_bits) == sorted(
            bit for bit, column in enumerate(matrix.columns) if column
        )
        assert sorted(matrix.active_pids()) == [2, 4]
        assert matrix.all_events_mask == 0b11

    @given(
        st.lists(
            st.sets(st.sampled_from([11, 22, 33, 44, 55]), max_size=5),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, sets):
        layout = self._layout([11, 22, 33, 44, 55])
        matrix = FulfilledMatrix.from_id_sets(layout, sets)
        assert matrix.to_id_sets() == sets
        for index in range(len(sets)):
            assert {
                layout.pid_at(bit) for bit in iter_bits(matrix.row(index))
            } == sets[index]


class TestIndexManagerBits:
    @given(
        st.lists(predicate_strategy(), min_size=1, max_size=12),
        st.lists(event_strategy(), min_size=1, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_match_batch_bits_equals_match_batch(self, predicates, events):
        manager = IndexManager()
        for predicate_id, predicate in enumerate(predicates, start=1):
            manager.add(predicate, predicate_id)
        matrix = manager.match_batch_bits(events)
        assert matrix.to_id_sets() == manager.match_batch(events)

    def test_layout_tracks_add_and_remove(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.GT, 1), 1)
        manager.add(Predicate("x", Operator.LT, 9), 2)
        layout = manager.bit_layout
        assert 1 in layout and 2 in layout
        epoch = layout.epoch
        assert manager.remove(1)
        assert 1 not in layout
        assert layout.epoch == epoch + 1
        # the freed bit is recycled by the next add; no stale resurrection
        manager.add(Predicate("y", Operator.EQ, 3), 3)
        assert layout.capacity == 2
        matrix = manager.match_batch_bits([Event({"x": 5}), Event({"y": 3})])
        assert matrix.to_id_sets() == [{2}, {3}]

    def test_probe_cache_invalidated_by_version_bump(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.GT, 1), 1)
        events = [Event({"x": 5}), Event({"x": 5})]
        assert manager.match_batch_bits(events).to_id_sets() == [{1}, {1}]
        # a structural change shows in the very next batch
        manager.add(Predicate("x", Operator.GT, 4), 2)
        assert manager.match_batch_bits(events).to_id_sets() == [{1, 2}] * 2
        manager.remove(1)
        assert manager.match_batch_bits(events).to_id_sets() == [{2}, {2}]

    def test_duplicate_events_share_probe_work(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.EQ, 7), 1)
        events = [Event({"x": 7})] * 5 + [Event({"x": 8})]
        matrix = manager.match_batch_bits(events)
        assert matrix.to_id_sets() == [{1}] * 5 + [set()]
        assert matrix.column(manager.bit_layout.bit_of(1)) == 0b011111


# -- engine parity: matrix phase 2 vs set-based phase 2 ----------------

#: (id, spec, allow_not) — all six registry engines, plus the
#: non-canonical codec/evaluation variants (same cases as
#: tests/test_batch_parity.py, so the CI engine matrix slices both
#: suites identically).
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
    ENGINE_CASES = [
        case for case in ENGINE_CASES if case[1].name == SELECTED_ENGINE
    ]

_NUMERIC = ("price", "volume", "qty", "score")
_STRING = ("symbol", "category")


def _random_events(rng: random.Random, count: int) -> list[Event]:
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


def _register(engine, generator, count: int) -> list[int]:
    registered = []
    for subscription in generator.subscriptions(count):
        try:
            engine.register(subscription)
        except UnsupportedSubscriptionError:
            continue
        registered.append(subscription.subscription_id)
    return registered


def _assert_matrix_parity(engine, events) -> None:
    """Matrix phase 2 must equal set phase 2 on the same phase-1 output,
    and the full batch path must equal per-event matching."""
    fulfilled_sets = engine.indexes.match_batch(events)
    matrix = FulfilledMatrix.from_id_sets(
        engine.indexes.bit_layout, fulfilled_sets
    )
    assert engine.match_fulfilled_matrix(matrix) == engine.match_fulfilled_batch(
        fulfilled_sets
    )
    assert engine.match_batch(events) == [engine.match(e) for e in events]


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_matrix_phase2_equals_set_phase2(spec, allow_not):
    rng = random.Random(20050610)
    engine = spec.build()
    generator = GeneralSubscriptionGenerator(
        seed=13, allow_not=allow_not, value_range=30
    )
    registered = _register(engine, generator, 50)
    assert registered, "workload registered nothing"
    _assert_matrix_parity(engine, _random_events(rng, 64))
    if hasattr(engine, "close"):  # the paged engine holds an arena file
        engine.close()


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_matrix_parity_survives_batch_flushed_churn(spec, allow_not):
    """Rounds of batch-flushed subscribe/unsubscribe: every round
    registers a fresh block, unregisters a random half of the live
    population, and re-checks matrix-vs-set parity — recycled bit
    positions must never resurrect an unregistered subscription."""
    rng = random.Random(8181)
    engine = spec.build()
    generator = GeneralSubscriptionGenerator(
        seed=29, allow_not=allow_not, value_range=30
    )
    events = _random_events(rng, 48)
    live: list[int] = []
    for _ in range(4):
        live.extend(_register(engine, generator, 15))
        _assert_matrix_parity(engine, events)
        rng.shuffle(live)
        doomed, live = live[: len(live) // 2], live[len(live) // 2 :]
        for subscription_id in doomed:
            engine.unregister(subscription_id)
        _assert_matrix_parity(engine, events)
        for subscription_id in doomed:
            assert all(
                subscription_id not in matched
                for matched in engine.match_batch(events)
            )
    # recycling bounds the bit space at the live high-water mark, not
    # total registration traffic (60 registrations flowed through)
    layout = engine.indexes.bit_layout
    assert layout.capacity <= 60 * 4
    if hasattr(engine, "close"):  # the paged engine holds an arena file
        engine.close()


def test_shared_layout_across_engines():
    """Engines sharing one IndexManager agree on bit positions: a matrix
    built once serves matrix-capable engines of different kinds."""
    registry = PredicateRegistry()
    indexes = IndexManager()
    specs = [
        EngineSpec("noncanonical"),
        EngineSpec("counting", {"support_unsubscription": True}),
        EngineSpec("counting-variant"),
    ]
    engines = [spec.build(registry=registry, indexes=indexes) for spec in specs]
    generator = GeneralSubscriptionGenerator(
        seed=5, allow_not=False, value_range=30
    )
    for subscription in generator.subscriptions(30):
        for engine in engines:
            try:
                engine.register(subscription)
            except UnsupportedSubscriptionError:
                break
    events = _random_events(random.Random(6), 32)
    fulfilled_sets = indexes.match_batch(events)
    matrix = FulfilledMatrix.from_id_sets(indexes.bit_layout, fulfilled_sets)
    for engine in engines:
        assert engine.match_fulfilled_matrix(matrix) == engine.match_fulfilled_batch(
            fulfilled_sets
        )
