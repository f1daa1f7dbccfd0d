"""Bit-packed phase-2 kernel (PR 8): microbenchmarks and perf gates.

Three claims, checked at three levels:

* **primitive throughput** — the kernel's word-wise AND and popcount
  over event-space integers move orders of magnitude faster than
  per-event set algebra on the same fulfillment data (the reason the
  counting-style engines rewrote onto them);
* **operation bound** — the rewritten phase 2 does *batch*-proportional
  Python-level work, not event-proportional: the engines' own
  ``candidates_probed`` counters prove one probe per candidate per
  batch, where the set-based path paid one per candidate per event;
* **trajectory floor** — the committed ``BENCH_8.json`` point must hold
  :data:`BITSET_BATCH256_MIN_SPEEDUP` over the pre-kernel
  ``BENCH_5.json`` records for the rewritten engines.  Both reports come
  from the same container class, so the ratio is free of machine drift;
  day-to-day CI noise is the same-machine A/B gate's job
  (``tools/perf_ab.py``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.bitset import FulfilledMatrix

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: The bit-packed phase-2 kernel (PR 8) must keep the rewritten engines
#: (non-canonical, counting, counting-variant) at least this many times
#: faster at batch=256 than their pre-kernel BENCH_5 records —
#: benchmarks/test_bitset_kernel.py asserts it on the *committed*
#: trajectory points, so the floor is machine-drift-free: both numbers
#: come from the same container class, and day-to-day CI variance is
#: handled separately by the same-machine A/B gate.
BITSET_BATCH256_MIN_SPEEDUP = 5.0

#: Engines rewritten onto the kernel, with their committed batch=256
#: records: BENCH_5 (pre-kernel) -> BENCH_8 (kernel) must be >= the
#: kernel floor.  Keys are registry names (the bench reports' form);
#: values are the display names the conftest workload indexes by.
KERNEL_ENGINES = {
    "noncanonical": "non-canonical",
    "counting": "counting",
    "counting-variant": "counting-variant",
}


# -- primitive throughput ----------------------------------------------


def _fulfillment_columns(bits: int, events: int, seed: int) -> list[int]:
    """Random event-space columns, ~25% dense (paper-shaped phase 1)."""
    rng = random.Random(seed)
    mask = (1 << events) - 1
    return [
        rng.getrandbits(events) & rng.getrandbits(events) & mask
        for _ in range(bits)
    ]


def test_columnwise_and_throughput(benchmark):
    """One clause AND over a 256-event batch is a handful of int ops;
    the benchmark records how many clause evaluations/second that buys."""
    columns = _fulfillment_columns(bits=512, events=256, seed=1)
    clauses = [
        tuple(random.Random(i).sample(range(512), 6)) for i in range(1000)
    ]
    all_events = (1 << 256) - 1

    def evaluate_all():
        matched = 0
        for clause in clauses:
            hits = all_events
            for bit in clause:
                hits &= columns[bit]
                if not hits:
                    break
            matched += hits.bit_count()
        return matched

    result = benchmark(evaluate_all)
    benchmark.extra_info.update(
        clauses=len(clauses), events=256, matched=result
    )


def test_popcount_throughput(benchmark):
    """Distributing batch hits costs one popcount + one bit walk per
    candidate; popcount over event-space ints must be effectively free."""
    columns = _fulfillment_columns(bits=2048, events=256, seed=2)

    def count_all():
        return sum(column.bit_count() for column in columns)

    result = benchmark(count_all)
    benchmark.extra_info.update(columns=len(columns), total_bits=result)


def test_kernel_and_beats_set_intersection():
    """The structural claim behind the rewrite, measured directly: AND
    over event-space integers versus per-event set intersection on the
    same fulfillment data.  The kernel must win by a wide margin even
    at this micro scale (it wins by ~100x at engine scale)."""
    import time

    events = 256
    columns = _fulfillment_columns(bits=64, events=events, seed=3)
    clause = tuple(range(0, 12, 2))
    # the same data as per-event fulfilled-bit sets
    per_event_sets = [
        {bit for bit in range(64) if columns[bit] & (1 << index)}
        for index in range(events)
    ]
    clause_set = set(clause)
    rounds = 200

    started = time.perf_counter()
    for _ in range(rounds):
        hits = (1 << events) - 1
        for bit in clause:
            hits &= columns[bit]
        hits.bit_count()
    kernel_time = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        matched = 0
        for fulfilled in per_event_sets:
            if clause_set <= fulfilled:
                matched += 1
    set_time = time.perf_counter() - started

    assert kernel_time < set_time, (
        f"column AND ({kernel_time:.4f}s) should beat per-event set "
        f"subset tests ({set_time:.4f}s) over {rounds} rounds"
    )


# -- counter-asserted operation bound ----------------------------------


def test_phase2_probes_are_batch_proportional(workload_factory):
    """The kernel's phase 2 examines each candidate once per *batch*.

    ``candidates_probed`` is the engines' own count of Python-level
    subscription units examined; per-event phase 2 pays it once per
    event.  Over a 256-event batch the rewritten engines must therefore
    probe at most their candidate population — at least two orders of
    magnitude below the per-event bill for the same events.
    """
    workload = build_matrix_workload(workload_factory)
    events = workload.events
    for name, display_name in KERNEL_ENGINES.items():
        engine = workload.engines[display_name]
        engine.reset_counters()
        engine.match_batch(events)
        batched = engine.counters.snapshot()
        assert batched["phase2_calls"] == len(events)

        engine.reset_counters()
        for event in events:
            engine.match(event)
        sequential = engine.counters.snapshot()

        # one probe per candidate per batch, not per event: the 256-event
        # batch must cut Python-level probes by >=50x against the
        # per-event bill for the same events (the margin leaves room for
        # batch-candidate unions being wider than any one event's set)
        assert (
            batched["candidates_probed"] * 50
            <= sequential["candidates_probed"]
        ), (
            f"{name}: batch probes ({batched['candidates_probed']}) not "
            "meaningfully below per-event probes "
            f"({sequential['candidates_probed']})"
        )
        assert batched["matches_found"] == sequential["matches_found"]

    # the counting engine's bound is exact: one probe per live clause
    # slot per batch, independent of the batch size
    counting = workload.engines[KERNEL_ENGINES["counting"]]
    counting.reset_counters()
    counting.match_batch(events[:64])
    probes_64 = counting.counters.snapshot()["candidates_probed"]
    counting.reset_counters()
    counting.match_batch(events)
    probes_256 = counting.counters.snapshot()["candidates_probed"]
    assert probes_64 == probes_256, (
        f"counting probes should be batch-size-independent: "
        f"{probes_64} @64 vs {probes_256} @256"
    )


class MatrixWorkload:
    def __init__(self, engines, events, subscription_count):
        self.engines = engines
        self.events = events
        self.subscription_count = subscription_count


def build_matrix_workload(workload_factory) -> MatrixWorkload:
    """The conftest workload plus a paper-shaped 256-event batch."""
    from repro.workloads import EventGenerator

    workload = workload_factory(6, 400)
    events = EventGenerator(
        attributes_per_event=16, value_range=60, skew=1.1, seed=77
    ).events(256)
    return MatrixWorkload(
        workload.engines, events, len(workload.subscription_ids)
    )


def test_matrix_path_engages_on_batches(workload_factory):
    """Guard against silent fallback: the batch path must produce its
    answers through ``match_fulfilled_matrix`` (phase2_calls moves by
    the batch size in one call), matching the per-event answers."""
    workload = build_matrix_workload(workload_factory)
    events = workload.events[:64]
    for display_name in KERNEL_ENGINES.values():
        engine = workload.engines[display_name]
        fulfilled_sets = engine.indexes.match_batch(events)
        matrix = FulfilledMatrix.from_id_sets(fulfilled_sets)
        assert engine.match_fulfilled_matrix(matrix) == [
            engine.match(event) for event in events
        ]


# -- committed-trajectory floor ----------------------------------------


def _batch256_throughput(report: dict, engine: str) -> float:
    for record in report["records"]:
        if (
            record["scenario"] == "throughput"
            and record["engine"] == engine
            and record["batch_size"] == 256
        ):
            return record["events_per_second"]
    raise AssertionError(
        f"no throughput/{engine}@b256 record in the committed report"
    )


@pytest.mark.parametrize("engine", KERNEL_ENGINES)
def test_committed_trajectory_holds_kernel_speedup(engine):
    """BENCH_8 (kernel) vs BENCH_5 (pre-kernel), both committed from the
    same container class: the rewritten engines' batch=256 throughput
    must hold the kernel floor.  This pins the *trajectory*, so a
    future PR cannot silently re-land a slow phase 2 and regenerate the
    baseline around it."""
    before = json.loads((_REPO_ROOT / "BENCH_5.json").read_text())
    after = json.loads((_REPO_ROOT / "BENCH_8.json").read_text())
    old = _batch256_throughput(before, engine)
    new = _batch256_throughput(after, engine)
    speedup = new / old
    assert speedup >= BITSET_BATCH256_MIN_SPEEDUP, (
        f"{engine}: committed batch=256 speedup {speedup:.2f}x "
        f"({old:.0f} -> {new:.0f} ev/s) below the "
        f"{BITSET_BATCH256_MIN_SPEEDUP}x kernel floor"
    )
