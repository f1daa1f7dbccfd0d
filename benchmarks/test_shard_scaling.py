"""Shard-scaling curves: throughput versus shard count per engine.

The curves come from the harness's shard sweep
(:func:`~repro.experiments.harness.run_shard_sweep`); the three ratio
checks time engines here directly; every pass/fail number is a
constant in this module.  Shards
run in-process, one after another, so sharding buys speed only by
pruning shards.  Four properties are asserted:

* the sweep produces well-formed curves (parity is verified inside the
  harness before anything is timed);
* the coordination overhead of hash sharding is bounded — sharding
  without pruning must not collapse throughput
  (:data:`SERIAL_4SHARD_MIN_RATIO`);
* the **routed** partitioner makes sharding pay on the skewed hot-key
  corpus: it must beat the hash partitioner at the same shard count by
  :data:`ROUTED_OVER_HASH_MIN_RATIO` and the unsharded engine outright
  (:data:`ROUTED_SERIAL_MIN_SPEEDUP`), with ``shards_pruned`` counters
  confirming the speedup came from pruning, not noise;
* on 32-event batches, where each candidate shard gets a slice of the
  batch's fulfilled matrix, routed×8 stays within
  :data:`ROUTED_B32_MAX_TIME_OVER_HASH` of hash×8's time.

The overhead, routed speedup and batch slicing checks assert from
interleaved repeated samples (:func:`interleaved_seconds`): every round
times each configuration once, back to back, in an order that rotates
between rounds, and the assertion reads the median of the per-round
ratios.  A measure-baseline-first protocol systematically flatters the
baseline on CI runners whose clock boost decays over the run, and a
single sample per configuration lets one slow moment decide the outcome.

Numbers land in ``benchmark.extra_info`` so future PRs have a scaling
trajectory to compare against.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.core.base import FilterEngine
from repro.core.registry import build_engine
from repro.experiments.harness import run_shard_sweep
from repro.indexes.manager import IndexManager
from repro.predicates.registry import PredicateRegistry
from repro.workloads.generator import EventGenerator, PaperSubscriptionGenerator
from repro.workloads.scenarios import SkewedHotKeyScenario

#: Sharding without pruning pays union/dispatch overhead only: the
#: 4-shard hash configuration must keep at least this fraction of the
#: unsharded throughput.
SERIAL_4SHARD_MIN_RATIO = 0.5

#: The routed partitioner must beat the hash partitioner by this factor
#: at the same shard count on the skewed hot-key corpus (per-event
#: path).  Both configurations are measured in the same process a few
#: seconds apart, so the ratio is robust to the baseline-first
#: CPU-frequency bias that makes absolute ``speedup`` values noisy;
#: observed values sit at 1.3–1.5×.
ROUTED_OVER_HASH_MIN_RATIO = 1.15

#: Shard pruning must make sharding a win, not just less of a loss:
#: routed sharding must beat the unsharded engine on the skewed
#: corpus.  ``run_shard_sweep`` measures the baseline first and the
#: sharded points later, which systematically flatters the baseline
#: (CPU boost decays over the run) — so the benchmark asserting this
#: floor interleaves its own baseline/routed measurements instead of
#: trusting the sweep's ``speedup`` field.
ROUTED_SERIAL_MIN_SPEEDUP = 1.0

#: On the batch path (32-event batches, skewed hot-key corpus) routed×8
#: may take at most this multiple of hash×8's time: slicing the batch
#: matrix per candidate shard must not cost more than pruning saves.
#: Observed ~1.3× with row-mask slicing; per-bit re-packing read ~7×.
ROUTED_B32_MAX_TIME_OVER_HASH = 2.0

#: Engines the scaling benchmarks sweep: the paper's contribution and
#: the heaviest per-event baseline (brute force scales best, since its
#: phase-2 cost is linear in the shard's subscription count).
ENGINES = ("noncanonical", "bruteforce")

#: Rounds of the interleaved speedup check.
TIMING_ROUNDS = 11


def interleaved_seconds(
    runs: dict[str, Callable[[], object]], rounds: int = TIMING_ROUNDS
) -> dict[str, list[float]]:
    """Per-round wall times of each configuration, measured interleaved.

    Every round times each configuration once, back to back; the order
    rotates between rounds, so a host that changes speed mid-test slows
    every configuration of a round alike and none always runs first.
    """
    names = list(runs)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for round_index in range(rounds):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            runs[name]()
            samples[name].append(time.perf_counter() - start)
    return samples


def median_ratio(slower: list[float], faster: list[float]) -> float:
    """The median over rounds of ``slower[i] / faster[i]``."""
    return statistics.median(a / b for a, b in zip(slower, faster))


def noncanonical_on_shared_state(
    subscriptions, **configs: dict
) -> dict[str, FilterEngine]:
    """One noncanonical engine per named option set, all sharing one
    phase-1 state and each holding every subscription."""
    registry = PredicateRegistry()
    indexes = IndexManager()
    engines = {
        name: build_engine(
            "noncanonical", registry=registry, indexes=indexes, **options
        )
        for name, options in configs.items()
    }
    for engine in engines.values():
        for subscription in subscriptions:
            engine.register(subscription)
    return engines


def test_runner_shard_phase_produces_curves():
    """Every engine gets a 1/2/4-shard curve with a speedup relative to
    its own unsharded baseline."""
    shard_counts = (1, 2, 4)
    results = run_shard_sweep(
        subscription_count=150,
        shard_counts=shard_counts,
        engines=ENGINES,
        event_count=128,
        repeats=1,
    )
    assert set(results) == set(ENGINES)
    for engine, curve in results.items():
        assert [point.shards for point in curve] == list(shard_counts)
        assert curve[0].speedup == 1.0
        assert all(point.events_per_second > 0 for point in curve)
        assert all(point.engine == engine for point in curve)
        assert all(point.speedup > 0 for point in curve)


def test_serial_sharding_overhead_is_bounded(benchmark):
    """Partitioning without pruning costs union/dispatch overhead
    only — the 4-shard hash configuration must keep at least
    ``SERIAL_4SHARD_MIN_RATIO`` of the unsharded throughput.

    The unsharded engine and hash×4 share one phase-1 state and match
    the same 300-subscription paper corpus as one 256-event batch,
    timed in :func:`interleaved_seconds` rounds; the ratio is the
    median of the per-round ratios.
    """
    subscriptions = PaperSubscriptionGenerator(
        predicates_per_subscription=6, attribute_pool=64, seed=0
    ).subscriptions(300)
    events = EventGenerator(
        attribute_pool=64,
        attributes_per_event=16,
        value_range=64,
        skew=1.1,
        seed=1,
    ).events(256)
    engines = noncanonical_on_shared_state(
        subscriptions, unsharded={}, hash={"shards": 4}
    )
    assert engines["hash"].match_batch(events) == engines[
        "unsharded"
    ].match_batch(events)

    seconds = interleaved_seconds(
        {
            name: lambda engine=engine: engine.match_batch(events)
            for name, engine in engines.items()
        }
    )
    ratio = median_ratio(seconds["unsharded"], seconds["hash"])
    benchmark.extra_info.update(
        serial_speedup_4_shards=round(ratio, 3),
        baseline_events_per_second=round(
            len(events) / statistics.median(seconds["unsharded"])
        ),
    )

    benchmark(engines["hash"].match_batch, events[:64])
    assert ratio > SERIAL_4SHARD_MIN_RATIO, (
        f"hash 4-shard throughput collapsed to {ratio:.2f}x of "
        "the unsharded baseline"
    )


def test_runner_routing_phase_produces_curves():
    """Hash and routed curves on the skew corpus (per-event path); the
    routed point explains itself with pruning counters."""
    curves = {
        partitioner: run_shard_sweep(
            subscription_count=300,
            shard_counts=(1, 8),
            engines=("noncanonical",),
            partitioner=partitioner,
            corpus="skew",
            batch_size=1,
            event_count=80,
            repeats=1,
        )["noncanonical"]
        for partitioner in ("hash", "routed")
    }
    # each curve is the unsharded baseline (pinned to the "hash"
    # default) plus one point per routing shard count
    for partitioner, curve in curves.items():
        assert [p.shards for p in curve] == [1, 8]
        assert [p.partitioner for p in curve] == ["hash", partitioner]
    routed = curves["routed"][-1].counters
    assert routed["shards_pruned"] > 0
    assert routed["shards_probed"] + routed["shards_pruned"] == 8.0


def test_routed_partitioner_beats_hash_and_unsharded(benchmark):
    """Routed×8 beats hash×8 and the unsharded engine, interleaved.

    Three engines over one shared phase-1 state — unsharded, hash×8,
    routed×8 — match the same skewed event stream on the per-event path,
    timed in :func:`interleaved_seconds` rounds; the ratios are medians
    of the per-round ratios.
    """
    scenario = SkewedHotKeyScenario(seed=7)
    subscriptions = scenario.subscriptions(1200)
    events = scenario.events(200)
    engines = noncanonical_on_shared_state(
        subscriptions,
        unsharded={},
        hash={"shards": 8},
        routed={"shards": 8, "partitioner": "routed"},
    )
    assert engines["routed"].match_batch(events[:32]) == engines[
        "unsharded"
    ].match_batch(events[:32])

    seconds = interleaved_seconds(
        {
            name: lambda engine=engine: [engine.match(event) for event in events]
            for name, engine in engines.items()
        }
    )
    routed_vs_hash = median_ratio(seconds["hash"], seconds["routed"])
    routed_vs_unsharded = median_ratio(seconds["unsharded"], seconds["routed"])
    counters = engines["routed"].counters
    decisions = max(counters.shards_probed + counters.shards_pruned, 1)
    pruned_per_event = counters.shards_pruned / decisions * 8
    benchmark.extra_info.update(
        routed_vs_hash=round(routed_vs_hash, 3),
        routed_vs_unsharded=round(routed_vs_unsharded, 3),
        shards_pruned_per_event=round(pruned_per_event, 2),
        unsharded_events_per_second=round(
            len(events) / statistics.median(seconds["unsharded"])
        ),
    )

    def run():
        for event in events[:32]:
            engines["routed"].match(event)

    benchmark(run)
    assert counters.shards_pruned > 0, "routing never pruned a shard"
    assert routed_vs_hash > ROUTED_OVER_HASH_MIN_RATIO, (
        f"routed×8 only reached {routed_vs_hash:.2f}x of hash×8 on the "
        "skew corpus"
    )
    assert routed_vs_unsharded > ROUTED_SERIAL_MIN_SPEEDUP, (
        f"routed×8 fell below the unsharded baseline "
        f"({routed_vs_unsharded:.2f}x)"
    )


def test_routed_batch_slicing_stays_near_hash(benchmark):
    """Routed×8 vs hash×8 (and unsharded) on 32-event batches.

    The ``hotkey-b32`` population — 1,000 ``SkewedHotKeyScenario(seed=7)``
    subscriptions — on one shared phase-1 state; each round runs every
    batch through each engine's ``match_batch``, timed in
    :func:`interleaved_seconds` rounds.  Hash gives every shard the
    whole matrix; routed slices it per candidate shard
    (:meth:`FulfilledMatrix.select`), which is what this leg times.
    """
    scenario = SkewedHotKeyScenario(seed=7)
    subscriptions = scenario.subscriptions(1000)
    events = scenario.events(640)
    batches = [events[start : start + 32] for start in range(0, len(events), 32)]
    engines = noncanonical_on_shared_state(
        subscriptions,
        unsharded={},
        hash={"shards": 8},
        routed={"shards": 8, "partitioner": "routed"},
    )
    expected = [engines["unsharded"].match_batch(batch) for batch in batches]
    for name in ("hash", "routed"):
        assert [engines[name].match_batch(batch) for batch in batches] == expected

    seconds = interleaved_seconds(
        {
            name: lambda engine=engine: [
                engine.match_batch(batch) for batch in batches
            ]
            for name, engine in engines.items()
        }
    )
    time_over_hash = median_ratio(seconds["routed"], seconds["hash"])
    routed_vs_unsharded = median_ratio(seconds["unsharded"], seconds["routed"])
    benchmark.extra_info.update(
        routed_b32_time_over_hash=round(time_over_hash, 3),
        routed_vs_unsharded_b32=round(routed_vs_unsharded, 3),
        routed_b32_events_per_second=round(
            len(events) / statistics.median(seconds["routed"])
        ),
    )

    benchmark(engines["routed"].match_batch, batches[0])
    assert engines["routed"].counters.shards_pruned > 0
    assert time_over_hash <= ROUTED_B32_MAX_TIME_OVER_HASH, (
        f"routed×8 took {time_over_hash:.2f}x hash×8's time on 32-event "
        "batches"
    )
