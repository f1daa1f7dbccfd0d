"""Batched matching throughput — the perf trajectory for future PRs.

The batch pipeline exists to amortize per-event dispatch overhead:
phase 1 memoizes repeated attribute values across a batch
(``IndexManager.match_batch``) and phase 2 reuses candidate buffers
(``match_fulfilled_batch``).  These benchmarks consume the
:mod:`repro.bench` runner — the same measurement that produces the
committed ``BENCH_<n>.json`` trajectory — so numbers asserted here and
numbers gated in CI come from one code path, and every threshold lives
in :mod:`repro.bench.thresholds`.

The headline assertion: batch=256 must beat per-event publishing by
:data:`~repro.bench.thresholds.BATCH256_MIN_SPEEDUP` on the
non-canonical engine, over a Zipf-skewed event stream with a small
value domain — the repeat-heavy regime batching targets.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import QUICK, throughput_records
from repro.bench.thresholds import BATCH256_MIN_SPEEDUP
from repro.broker import Broker
from repro import NonCanonicalEngine
from repro.experiments.harness import run_throughput_sweep
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry
from repro.workloads import EventGenerator, PaperSubscriptionGenerator


def _loaded_engine() -> NonCanonicalEngine:
    registry = PredicateRegistry()
    indexes = IndexManager()
    engine = NonCanonicalEngine(registry=registry, indexes=indexes)
    generator = PaperSubscriptionGenerator(
        predicates_per_subscription=6, seed=20050610
    )
    for subscription in generator.subscriptions(QUICK.subscriptions):
        engine.register(subscription)
    return engine


def _event_stream():
    return EventGenerator(
        attributes_per_event=16,
        value_range=QUICK.value_range,
        skew=1.1,
        seed=42,
    ).events(QUICK.events)


def test_batch256_beats_per_event(benchmark):
    """The acceptance check: batched matching out-throughputs per-event.

    Measured through the bench runner's throughput phase (quick scale,
    narrowed to the two batch sizes the assertion uses — no point paying
    for the batch=32 leg here; the bench job measures the full matrix).
    """
    records = throughput_records(
        replace(QUICK, batch_sizes=(1, 256)), engines=("noncanonical",)
    )
    by_batch = {record.batch_size: record for record in records}
    per_event = by_batch[1]
    batched = by_batch[256]
    speedup = batched.events_per_second / per_event.events_per_second

    engine = _loaded_engine()
    events = _event_stream()[:256]

    def run_batched():
        engine.match_batch(events)

    benchmark(run_batched)
    benchmark.extra_info.update(
        events_per_second_batch1=round(per_event.events_per_second),
        events_per_second_batch256=round(batched.events_per_second),
        candidates_per_event=round(
            batched.metrics.get("candidates_probed_per_event", 0.0), 2
        ),
        speedup=round(speedup, 3),
    )
    assert speedup > BATCH256_MIN_SPEEDUP, (
        f"batch=256 ({batched.events_per_second:.0f} ev/s) should beat "
        f"batch=1 ({per_event.events_per_second:.0f} ev/s) by "
        f">{BATCH256_MIN_SPEEDUP}x"
    )


def test_runner_covers_every_engine_and_batch_size():
    """The runner's throughput phase covers all six registry engines at
    1/32/256 (parity is verified inside the harness before timing)."""
    records = throughput_records(QUICK)
    engines = {record.engine for record in records}
    assert engines == {
        "noncanonical",
        "counting",
        "counting-variant",
        "matching-tree",
        "bruteforce",
        "paged",
    }
    for engine in engines:
        batch_sizes = [r.batch_size for r in records if r.engine == engine]
        assert batch_sizes == list(QUICK.batch_sizes)
    assert all(r.events_per_second > 0 for r in records)
    # the counters the trajectory uses to explain movements are present
    assert all("candidates_probed_per_event" in r.metrics for r in records)


def test_throughput_sweep_reports_all_batch_sizes():
    """The harness sweep covers 1/32/256 for every default engine and
    verifies batch-vs-sequential parity before timing anything."""
    results = run_throughput_sweep(
        subscription_count=100,
        event_count=128,
        value_range=QUICK.value_range,
        repeats=1,
    )
    assert set(results) == {"non-canonical", "counting-variant", "counting"}
    for points in results.values():
        assert [p.batch_size for p in points] == [1, 32, 256]
        assert all(p.events_per_second > 0 for p in points)
        assert all(p.memory_bytes > 0 for p in points)


def test_broker_publish_batch_throughput(benchmark):
    """End-to-end broker path: one publish(list) call for a 256-event
    frame, with delivery bookkeeping included."""
    broker = Broker("bench", engine=_loaded_engine())
    events = _event_stream()[:256]

    def run():
        broker.publish(events)

    benchmark(run)
    benchmark.extra_info.update(batch_size=len(events))
