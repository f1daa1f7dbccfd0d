"""Bit-packed phase-2 kernel (PR 8): primitives, churn, engine parity.

Three layers of proof, bottom-up:

* the kernel's event-bit walk and match count are exact across word
  boundaries;
* `FulfilledMatrix` columns are indexed by predicate id, and
  `IndexManager.match_batch_bits` stays in lockstep with the per-event
  set-based `match` through add/remove churn, with registry recycling
  keeping the width at the peak live predicate count;
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
from repro import (
    EngineSpec,
    NonCanonicalEngine,
    Subscription,
    UnsupportedSubscriptionError,
    build_engine,
)
from repro.core.bitset import FulfilledMatrix
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import Operator, Predicate, PredicateRegistry
from repro.workloads import GeneralSubscriptionGenerator

#: The catalog engines that register negated predicates (the counting
#: family and the matching tree reject them as unsupported).
NEGATION_ENGINES = ("noncanonical", "paged", "bruteforce")

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


def _kernel_on_column(value: int):
    """The non-canonical kernel on one subscription whose one predicate
    column is ``value``: event ``i`` fulfils it iff bit ``i`` is set."""
    engine = NonCanonicalEngine()
    subscription = Subscription.from_text("x = 1")
    engine.register(subscription)
    [pid] = engine.indexes.match(Event({"x": 1}))
    sets = [
        {pid} if value >> index & 1 else set() for index in range(value.bit_length())
    ]
    matrix = FulfilledMatrix.from_id_sets(sets)
    return engine, subscription.subscription_id, engine.match_fulfilled_matrix(matrix)


class TestPrimitives:
    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_popcount_matches_bit_count(self, value):
        engine, _, _ = _kernel_on_column(value)
        assert engine.counters.matches_found == value.bit_count()

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_iter_bits_ascending_and_complete(self, value):
        _, sid, results = _kernel_on_column(value)
        positions = [index for index, matched in enumerate(results) if matched]
        assert all(matched == {sid} for matched in results if matched)
        assert sum(1 << position for position in positions) == value


class TestFulfilledMatrix:
    def test_from_id_sets_to_id_sets_roundtrip(self):
        sets = [{10, 30}, set(), {20}, {10, 20, 40}]
        matrix = FulfilledMatrix.from_id_sets(sets)
        assert matrix.event_count == 4
        assert len(matrix.columns) == 41
        assert matrix.to_id_sets() == sets
        assert matrix.to_id_sets() is matrix.to_id_sets()  # cached

    def test_columns_and_rows_are_transposes(self):
        sets = [{10}, {10, 20}, {30}]
        matrix = FulfilledMatrix.from_id_sets(sets)
        assert matrix.columns[10] == 0b011  # events 0 and 1
        assert matrix.columns[20] == 0b010
        assert matrix.columns[30] == 0b100
        for index, fulfilled in enumerate(matrix.to_id_sets()):
            assert fulfilled == {
                pid for pid, column in enumerate(matrix.columns) if column >> index & 1
            }

    def test_active_bits_are_exactly_nonzero_columns(self):
        matrix = FulfilledMatrix.from_id_sets([{2}, {2, 4}])
        assert sorted(matrix.active_bits) == [2, 4]
        assert sorted(matrix.active_bits) == sorted(
            pid for pid, column in enumerate(matrix.columns) if column
        )
        assert matrix.all_events_mask == 0b11

    @pytest.mark.parametrize("event_count", [5, 64, 65, 150])
    def test_select_keeps_numbering_and_zeroes_unselected_rows(self, event_count):
        rng = random.Random(event_count)
        sets = [set(rng.sample(range(1, 12), 3)) for _ in range(event_count)]
        sets[0] = {99}  # a column only row 0 sets
        matrix = FulfilledMatrix.from_id_sets(sets)
        indices = sorted(rng.sample(range(1, event_count), event_count // 3))
        sub = matrix.select(indices)
        assert sub.event_count == event_count
        assert sub.all_events_mask == sum(1 << index for index in indices)
        rows = sub.to_id_sets()
        for index in range(event_count):
            assert rows[index] == (sets[index] if index in indices else set())
        assert 99 not in sub.active_bits
        assert sorted(sub.active_bits) == sorted(
            pid for pid, column in enumerate(sub.columns) if column
        )

    def test_select_every_row_returns_self(self):
        matrix = FulfilledMatrix.from_id_sets([{1}, {2}, {1, 3}])
        assert matrix.select([0, 1, 2]) is matrix
        assert matrix.select(range(3)) is matrix

    @pytest.mark.parametrize("name", NEGATION_ENGINES)
    def test_empty_assignment_matcher_skips_unselected_rows(self, name):
        """``not x = 1`` matches an event fulfilling nothing — but not a
        row its shard was pruned from, and only selected rows count as
        phase-2 calls."""
        engine = build_engine(name)
        subscription = Subscription.from_text("not x = 1")
        engine.register(subscription)
        [pid] = engine.indexes.match(Event({"x": 1}))
        matrix = FulfilledMatrix.from_id_sets([set(), {pid}, set(), set()])
        results = engine.match_fulfilled_matrix(matrix.select([1, 2]))
        assert results == [set(), set(), {subscription.subscription_id}, set()]
        assert engine.counters.phase2_calls == 2
        assert engine.counters.matches_found == 1
        engine.close()

    @given(
        st.lists(
            st.sets(st.sampled_from([11, 22, 33, 44, 55]), max_size=5),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, sets):
        matrix = FulfilledMatrix.from_id_sets(sets)
        assert matrix.to_id_sets() == sets
        for pid in (11, 22, 33, 44, 55):
            column = matrix.columns[pid] if pid < len(matrix.columns) else 0
            assert column == sum(
                1 << index for index, fulfilled in enumerate(sets) if pid in fulfilled
            )


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
        assert manager.width == 3  # slot 0 unused
        assert manager.remove(1)
        # a recycled id takes over its column; no stale resurrection
        manager.add(Predicate("y", Operator.EQ, 3), 1)
        assert manager.width == 3
        matrix = manager.match_batch_bits([Event({"x": 5}), Event({"y": 3})])
        assert len(matrix.columns) == 3
        assert matrix.columns[1] == 0b10 and matrix.columns[2] == 0b01
        assert matrix.to_id_sets() == [{2}, {1}]

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
        assert matrix.columns[1] == 0b011111


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
    matrix = FulfilledMatrix.from_id_sets(fulfilled_sets)
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
    # recycling bounds the width at the live high-water mark, not
    # total registration traffic (60 registrations flowed through)
    assert engine.indexes.width <= 60 * 4 + 1
    if hasattr(engine, "close"):  # the paged engine holds an arena file
        engine.close()


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_columns_are_predicate_ids_under_churn(spec, allow_not):
    """Under subscribe/unsubscribe churn with registry id recycling, the
    batch matrix's column ``pid`` is predicate ``pid`` and the width
    stays at the peak live predicate count + 1 (slot 0 is unused)."""
    rng = random.Random(2112)
    engine = spec.build()
    registry, indexes = engine.registry, engine.indexes
    generator = GeneralSubscriptionGenerator(
        seed=31, allow_not=allow_not, value_range=30
    )
    events = _random_events(rng, 40)
    live: list[int] = []
    peak = 0
    for _ in range(5):
        live.extend(_register(engine, generator, 12))
        peak = max(peak, len(registry))
        rng.shuffle(live)
        doomed, live = live[: len(live) // 2], live[len(live) // 2 :]
        for subscription_id in doomed:
            engine.unregister(subscription_id)
        matrix = indexes.match_batch_bits(events)
        assert matrix.to_id_sets() == indexes.match_batch(events)
        assert matrix.to_id_sets() == [indexes.match(event) for event in events]
        for pid in matrix.active_bits:
            predicate = registry.predicate(pid)
            assert matrix.columns[pid] == sum(
                1 << index
                for index, event in enumerate(events)
                if predicate.matches(event)
            )
        assert all(pid < len(matrix.columns) for pid, _ in registry)
        assert len(matrix.columns) <= peak + 1
    if hasattr(engine, "close"):  # the paged engine holds an arena file
        engine.close()


def test_shared_layout_across_engines():
    """Engines sharing one registry agree on columns, since a column is
    the predicate id: a matrix built once serves matrix-capable engines
    of different kinds."""
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
    matrix = FulfilledMatrix.from_id_sets(fulfilled_sets)
    for engine in engines:
        assert engine.match_fulfilled_matrix(matrix) == engine.match_fulfilled_batch(
            fulfilled_sets
        )
