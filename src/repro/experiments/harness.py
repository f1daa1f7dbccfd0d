"""Experiment harness: sweeps, timing, and shape analysis.

Reproduces the paper's measurement protocol (§4):

* engines share one predicate registry and one phase-1 index manager, so
  fulfilled-predicate-id sets mean the same thing to every engine ("the
  first phases use the same indexes in the same way");
* only **phase 2** (subscription matching) is timed;
* the number of fulfilled predicates per event is controlled directly;
* the registered subscription count is swept upward, engines keep their
  state between checkpoints (registration cost is paid once per
  subscription, as in a live system);
* measured times are passed through the
  :class:`~repro.memory.model.SimulatedMachine` swap model using each
  engine's *measured* memory footprint, which reproduces the paper's
  sharp memory-exhaustion bends.

Shape-analysis helpers (least-squares slope, growth ratio, normalized
slope) back the claims benchmarks C2-C4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.base import FilterEngine
from ..core.registry import EngineSpec, build_engine
from ..events.event import Event
from ..indexes.manager import IndexManager
from ..memory.model import SimulatedMachine
from ..predicates.registry import PredicateRegistry
from ..workloads.generator import (
    EventGenerator,
    FulfilledPredicateSampler,
    PaperSubscriptionGenerator,
)

#: The engines the paper's Figure 3 compares, as registry specs —
#: engine sweeps are data, not imports.
DEFAULT_ENGINES: tuple[str, ...] = (
    "noncanonical",
    "counting-variant",
    "counting",
)


def _materialize_engines(
    entries: Sequence,
    *,
    registry: PredicateRegistry,
    indexes: IndexManager,
) -> list[FilterEngine]:
    """Build one engine per entry on shared phase-1 state.

    Entries may be registry names, :class:`EngineSpec` instances, or
    factory callables; instances are rejected because a sweep *must*
    share the registry/index manager across its engines.
    """
    engines: list[FilterEngine] = []
    for entry in entries:
        if isinstance(entry, FilterEngine):
            raise TypeError(
                f"pass an engine name, spec, or factory, not the instance "
                f"{entry!r}: sweep engines must be constructed on the "
                "sweep's shared registry and index manager"
            )
        if isinstance(entry, (str, EngineSpec)):
            engines.append(
                build_engine(entry, registry=registry, indexes=indexes)
            )
        elif callable(entry):
            engines.append(entry(registry=registry, indexes=indexes))
        else:
            raise TypeError(
                f"expected an engine name, EngineSpec, or factory; "
                f"got {entry!r}"
            )
    return engines


@dataclass(frozen=True)
class SweepPoint:
    """One measurement: an engine at one registered-subscription count."""

    subscriptions: int            # original subscriptions registered
    stored_subscriptions: int     # post-transformation units
    raw_seconds: float            # measured phase-2 time per event
    memory_bytes: int             # engine working set (paper cost model)
    slowdown: float               # simulated-machine multiplier
    seconds: float                # raw_seconds * slowdown (Fig. 3 y value)


@dataclass
class EngineSweep:
    """All sweep points of one engine."""

    engine: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, *, adjusted: bool = True) -> list[tuple[float, float]]:
        """(subscriptions, seconds) pairs for plotting/analysis."""
        if adjusted:
            return [(p.subscriptions, p.seconds) for p in self.points]
        return [(p.subscriptions, p.raw_seconds) for p in self.points]

    def first_thrashing_point(self) -> SweepPoint | None:
        """The first point where the machine model reports swapping."""
        for point in self.points:
            if point.slowdown > 1.0:
                return point
        return None


@dataclass
class SweepResult:
    """Outcome of one sweep (one figure panel)."""

    predicates_per_subscription: int
    fulfilled_per_event: int
    machine: SimulatedMachine
    sweeps: dict[str, EngineSweep] = field(default_factory=dict)

    def series_by_engine(self, *, adjusted: bool = True) -> dict[str, list]:
        """Engine name -> (x, y) series, ready for the ASCII plot."""
        return {
            name: sweep.series(adjusted=adjusted)
            for name, sweep in self.sweeps.items()
        }


def time_subscription_matching(
    engine: FilterEngine,
    fulfilled_sets: Sequence[set[int]],
    *,
    repeats: int = 3,
) -> float:
    """Seconds per event for phase 2, best of ``repeats`` batch runs.

    The paper reports per-event subscription-matching time with variance
    under 1%; best-of-batches over identical inputs is the standard way
    to get a stable point estimate from a timer.
    """
    if not fulfilled_sets:
        raise ValueError("need at least one fulfilled-id set")
    match = engine.match_fulfilled
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        for fulfilled in fulfilled_sets:
            match(fulfilled)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best / len(fulfilled_sets)


def run_sweep(
    *,
    predicates_per_subscription: int,
    subscription_counts: Sequence[int],
    fulfilled_per_event: int,
    machine: SimulatedMachine,
    events_per_point: int = 5,
    engines: Sequence | None = None,
    seed: int = 0,
    repeats: int = 3,
    verify_agreement: bool = True,
) -> SweepResult:
    """Run one panel's sweep across all engines.

    ``engines`` entries are registry names, engine specs, or factory
    callables.
    ``subscription_counts`` must be ascending; registration is
    incremental so the total registration work equals one run at the
    largest count.
    """
    counts = list(subscription_counts)
    if counts != sorted(counts) or len(set(counts)) != len(counts):
        raise ValueError("subscription_counts must be strictly ascending")
    registry = PredicateRegistry()
    indexes = IndexManager()
    engines = _materialize_engines(
        engines if engines is not None else DEFAULT_ENGINES,
        registry=registry,
        indexes=indexes,
    )
    generator = PaperSubscriptionGenerator(
        predicates_per_subscription=predicates_per_subscription, seed=seed
    )
    result = SweepResult(
        predicates_per_subscription=predicates_per_subscription,
        fulfilled_per_event=fulfilled_per_event,
        machine=machine,
        sweeps={engine.name: EngineSweep(engine.name) for engine in engines},
    )
    registered = 0
    for checkpoint_index, target in enumerate(counts):
        for subscription in generator.subscriptions(target - registered):
            for engine in engines:
                engine.register(subscription)
        registered = target
        universe = range(1, len(registry) + 1)  # ids are dense, no churn
        sampler = FulfilledPredicateSampler(
            predicate_ids=universe,
            fulfilled_per_event=fulfilled_per_event,
            seed=seed + 7919 * (checkpoint_index + 1),
        )
        fulfilled_sets = sampler.samples(events_per_point)
        if verify_agreement and checkpoint_index == 0:
            _assert_engines_agree(engines, fulfilled_sets[0])
        for engine in engines:
            raw = time_subscription_matching(
                engine, fulfilled_sets, repeats=repeats
            )
            memory = engine.memory_bytes()
            slowdown = machine.slowdown_factor(memory)
            result.sweeps[engine.name].points.append(
                SweepPoint(
                    subscriptions=target,
                    stored_subscriptions=engine.stored_subscription_count,
                    raw_seconds=raw,
                    memory_bytes=memory,
                    slowdown=slowdown,
                    seconds=raw * slowdown,
                )
            )
    return result


def _assert_engines_agree(
    engines: Sequence[FilterEngine], fulfilled: set[int]
) -> None:
    reference: set[int] | None = None
    reference_name = ""
    for engine in engines:
        answer = engine.match_fulfilled(fulfilled)
        if reference is None:
            reference, reference_name = answer, engine.name
        elif answer != reference:
            raise AssertionError(
                f"engine disagreement: {engine.name} != {reference_name} "
                f"({len(answer)} vs {len(reference)} matches)"
            )


# ----------------------------------------------------------------------
# batched throughput (events/sec at a given batch size)
# ----------------------------------------------------------------------
#: Batch sizes the batched sweep reports by default.
DEFAULT_BATCH_SIZES: tuple[int, ...] = (1, 32, 256)


@dataclass(frozen=True)
class ThroughputPoint:
    """Events/sec of one engine's full pipeline at one batch size.

    ``counters`` holds the engine's per-event phase-2 work averages over
    the measurement (``candidates_probed``, ``matches_found``; see
    :class:`~repro.core.base.MatchCounters`) — the quantities that
    explain *why* the wall-clock number is what it is.  ``None`` when
    the engine exposes no counters.
    """

    engine: str
    batch_size: int
    events: int                   # events matched per repeat
    seconds: float                # best-of-repeats wall time for them
    events_per_second: float
    counters: Mapping[str, float] | None = None
    memory_bytes: int = 0         # working set under the paper cost model


def measure_throughput(
    engine: FilterEngine,
    events: Sequence[Event],
    *,
    batch_size: int,
    repeats: int = 3,
) -> ThroughputPoint:
    """Full-pipeline (phase 1 + phase 2) events/sec at one batch size.

    ``batch_size == 1`` deliberately takes the historical one-event-at-a-
    time path (``engine.match`` per event) so it measures exactly the
    per-event dispatch overhead that batching amortizes; larger sizes
    chunk the stream through :meth:`FilterEngine.match_batch`.

    The engine's :class:`~repro.core.base.MatchCounters` are reset
    before and read after the timed repeats; the point reports them as
    per-event averages across all repeats.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    events = list(events)
    if not events:
        raise ValueError("need at least one event")
    chunks = [
        events[start:start + batch_size]
        for start in range(0, len(events), batch_size)
    ]
    repeats = max(repeats, 1)
    instrumented = hasattr(engine, "reset_counters")
    if instrumented:
        engine.reset_counters()
    best = float("inf")
    for _ in range(repeats):
        if batch_size == 1:
            match = engine.match
            start = time.perf_counter()
            for event in events:
                match(event)
            elapsed = time.perf_counter() - start
        else:
            match_batch = engine.match_batch
            start = time.perf_counter()
            for chunk in chunks:
                match_batch(chunk)
            elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    counters: dict[str, float] | None = None
    if instrumented:
        answered = max(len(events) * repeats, 1)
        counters = {
            key: value / answered
            for key, value in engine.counters.snapshot().items()
        }
    return ThroughputPoint(
        engine=engine.name,
        batch_size=batch_size,
        events=len(events),
        seconds=best,
        events_per_second=len(events) / best if best > 0 else float("inf"),
        counters=counters,
        memory_bytes=engine.memory_bytes(),
    )


def run_throughput_sweep(
    *,
    subscription_count: int,
    predicates_per_subscription: int = 6,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    event_count: int = 512,
    attribute_pool: int = 64,
    attributes_per_event: int = 16,
    value_range: int = 64,
    skew: float = 1.1,
    engines: Sequence | None = None,
    seed: int = 0,
    repeats: int = 3,
    verify_agreement: bool = True,
) -> dict[str, list[ThroughputPoint]]:
    """The batched sweep: events/sec per engine per batch size.

    ``engines`` entries are registry names, engine specs, or factory
    callables.  All
    engines share one registry and index manager (identical phase 1,
    as everywhere in the reproduction) and are loaded with the same
    paper-shaped subscription population.  The event stream is
    Zipf-skewed over a small value domain so attribute values repeat
    across a batch — the regime the phase-1 batch memoization targets.

    With ``verify_agreement`` every engine's ``match_batch`` output for
    the first batch is checked against its own per-event ``match``
    (batch-vs-sequential parity) and against the other engines
    (engine agreement) before anything is timed.
    """
    registry = PredicateRegistry()
    indexes = IndexManager()
    engines = _materialize_engines(
        engines if engines is not None else DEFAULT_ENGINES,
        registry=registry,
        indexes=indexes,
    )
    try:
        names = [engine.name for engine in engines]
        if len(set(names)) != len(names):
            raise ValueError(
                f"engine factories must yield distinct engine names, got "
                f"{names}; results are keyed by name"
            )
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=predicates_per_subscription,
            attribute_pool=attribute_pool,
            seed=seed,
        )
        for subscription in generator.subscriptions(subscription_count):
            for engine in engines:
                engine.register(subscription)
        events = EventGenerator(
            attribute_pool=attribute_pool,
            attributes_per_event=attributes_per_event,
            value_range=value_range,
            skew=skew,
            seed=seed + 1,
        ).events(event_count)
        if verify_agreement:
            probe = events[:min(32, len(events))]
            reference: list[set[int]] | None = None
            reference_name = ""
            for engine in engines:
                batched = engine.match_batch(probe)
                sequential = [engine.match(event) for event in probe]
                if batched != sequential:
                    raise AssertionError(
                        f"{engine.name}: match_batch disagrees with "
                        "per-event match"
                    )
                if reference is None:
                    reference, reference_name = batched, engine.name
                elif batched != reference:
                    raise AssertionError(
                        f"engine disagreement: {engine.name} != "
                        f"{reference_name}"
                    )
        results: dict[str, list[ThroughputPoint]] = {
            engine.name: [] for engine in engines
        }
        for engine in engines:
            for batch_size in batch_sizes:
                results[engine.name].append(
                    measure_throughput(
                        engine, events, batch_size=batch_size, repeats=repeats
                    )
                )
        return results
    finally:
        # the sweep built these engines itself (instances are rejected),
        # so it owns their lifecycle — the paged engine holds a temp file
        for engine in engines:
            engine.close()


# ----------------------------------------------------------------------
# shard scaling (speedup versus shard count)
# ----------------------------------------------------------------------
#: Shard counts the scaling sweep reports by default.
DEFAULT_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4)


@dataclass(frozen=True)
class ShardScalingPoint:
    """Events/sec of one engine partitioned across ``shards`` shards."""

    engine: str                   # inner-engine canonical spec name
    shards: int
    batch_size: int
    events: int                   # events matched per repeat
    seconds: float                # best-of-repeats wall time for them
    events_per_second: float
    speedup: float                # vs the unsharded baseline
    partitioner: str = "hash"     # placement strategy ("hash" at shards=1)
    counters: Mapping[str, float] | None = None  # per-event work averages
    memory_bytes: int = 0         # (aggregated) paper-cost-model bytes


def run_shard_sweep(
    *,
    subscription_count: int,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    partitioner: str = "hash",
    corpus: str = "paper",
    engines: Sequence | None = None,
    batch_size: int = 256,
    predicates_per_subscription: int = 6,
    event_count: int = 512,
    attribute_pool: int = 64,
    attributes_per_event: int = 16,
    value_range: int = 64,
    skew: float = 1.1,
    seed: int = 0,
    repeats: int = 3,
    verify_parity: bool = True,
) -> dict[str, list[ShardScalingPoint]]:
    """Speedup-versus-shard-count curves, one per engine.

    For each engine (registry names or specs; factories and instances
    are rejected because the sweep derives sharded variants from the
    spec), the same subscription population and event stream are matched
    by the **unsharded** engine — the baseline, reported as the
    ``shards=1`` point with ``speedup=1.0`` — and by a
    :class:`~repro.core.sharded.ShardedEngine` at every other shard
    count with the requested ``partitioner``.  Speedups are relative to
    that baseline, so a curve above 1.0 means partitioning pays for its
    coordination.

    With the ``hash`` partitioner the curve isolates pure partitioning
    overhead (expect ≈1.0 or slightly below); the ``routed`` partitioner
    is where speedups appear, since pruned shards are never probed.

    ``corpus`` selects the workload: ``"paper"`` is the
    :class:`PaperSubscriptionGenerator`/:class:`EventGenerator` pair (as
    in every other sweep); ``"skew"`` is the hot-key scenario
    (:class:`~repro.workloads.scenarios.SkewedHotKeyScenario`) whose
    key-anchored subscriptions are the routed partitioner's target —
    ``subscription_count``/``event_count``/``seed`` apply, the
    paper-corpus shape knobs do not.

    With ``verify_parity``, each sharded configuration's ``match_batch``
    over the first events is checked against the unsharded engine before
    anything is timed.
    """
    counts = list(shard_counts)
    if counts != sorted(counts) or len(set(counts)) != len(counts):
        raise ValueError("shard_counts must be strictly ascending")
    if counts and counts[0] < 1:
        raise ValueError("shard counts must be at least 1")
    entries = engines if engines is not None else DEFAULT_ENGINES
    specs: list[EngineSpec] = []
    for entry in entries:
        if not isinstance(entry, (str, EngineSpec)):
            raise TypeError(
                f"expected an engine name or EngineSpec, got {entry!r}: "
                "the shard sweep derives sharded variants from the spec"
            )
        spec = EngineSpec(entry) if isinstance(entry, str) else entry
        if "shards" in spec.options:
            raise ValueError(
                f"pass the unsharded spec, not {spec!r}; shard counts "
                "come from shard_counts="
            )
        specs.append(spec)
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"engines must be distinct, got {names}")

    registry = PredicateRegistry()
    indexes = IndexManager()
    if corpus == "paper":
        subscriptions = PaperSubscriptionGenerator(
            predicates_per_subscription=predicates_per_subscription,
            attribute_pool=attribute_pool,
            seed=seed,
        ).subscriptions(subscription_count)
        events = EventGenerator(
            attribute_pool=attribute_pool,
            attributes_per_event=attributes_per_event,
            value_range=value_range,
            skew=skew,
            seed=seed + 1,
        ).events(event_count)
    elif corpus == "skew":
        from ..workloads.scenarios import SkewedHotKeyScenario

        scenario = SkewedHotKeyScenario(seed=seed)
        subscriptions = scenario.subscriptions(subscription_count)
        events = scenario.events(event_count)
    else:
        raise ValueError(f"unknown corpus {corpus!r}; use 'paper' or 'skew'")
    probe = events[:min(32, len(events))]

    def measure(
        name,
        engine,
        shards: int,
        placement: str,
        speedup_base=None,
    ):
        point = measure_throughput(
            engine, events, batch_size=batch_size, repeats=repeats
        )
        return ShardScalingPoint(
            engine=name,
            shards=shards,
            batch_size=batch_size,
            events=point.events,
            seconds=point.seconds,
            events_per_second=point.events_per_second,
            speedup=(
                1.0
                if speedup_base is None
                else point.events_per_second / speedup_base
            ),
            partitioner=placement,
            counters=point.counters,
            memory_bytes=point.memory_bytes,
        )

    results: dict[str, list[ShardScalingPoint]] = {}
    for spec in specs:
        baseline_engine = spec.build(registry=registry, indexes=indexes)
        try:
            for subscription in subscriptions:
                baseline_engine.register(subscription)
            # the unsharded baseline has no placement; it is pinned to
            # the default for record stability
            baseline = measure(spec.name, baseline_engine, 1, "hash")
            curve = [baseline]
            expected = (
                baseline_engine.match_batch(probe) if verify_parity else None
            )
            for shard_count in counts:
                if shard_count == 1:
                    continue  # the unsharded baseline is the shards=1 point
                sharded = spec.with_options(
                    shards=shard_count, partitioner=partitioner
                ).build(registry=registry, indexes=indexes)
                try:
                    for subscription in subscriptions:
                        sharded.register(subscription)
                    if (
                        expected is not None
                        and sharded.match_batch(probe) != expected
                    ):
                        raise AssertionError(
                            f"{sharded.name} ({partitioner}) disagrees with the "
                            f"unsharded {spec.name} engine"
                        )
                    curve.append(
                        measure(
                            spec.name,
                            sharded,
                            shard_count,
                            partitioner,
                            speedup_base=baseline.events_per_second,
                        )
                    )
                finally:
                    sharded.close()
        finally:
            baseline_engine.close()
        results[spec.name] = curve
    return results


# ----------------------------------------------------------------------
# shape analysis (claims C2-C4)
# ----------------------------------------------------------------------
def least_squares_slope(series: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(slope, r_squared) of a y-on-x least-squares fit."""
    n = len(series)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(x for x, _ in series) / n
    mean_y = sum(y for _, y in series) / n
    ss_xx = sum((x - mean_x) ** 2 for x, _ in series)
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in series)
    ss_yy = sum((y - mean_y) ** 2 for _, y in series)
    if ss_xx == 0:
        raise ValueError("degenerate x values")
    slope = ss_xy / ss_xx
    r_squared = 0.0 if ss_yy == 0 else (ss_xy * ss_xy) / (ss_xx * ss_yy)
    return slope, r_squared


def growth_ratio(series: Sequence[tuple[float, float]]) -> float:
    """y(last) / y(first) — how much the curve rises across the sweep."""
    if len(series) < 2:
        raise ValueError("need at least two points")
    ordered = sorted(series)
    first, last = ordered[0][1], ordered[-1][1]
    if first <= 0:
        raise ValueError("non-positive starting value")
    return last / first


def normalized_slope(series: Sequence[tuple[float, float]]) -> float:
    """Slope after normalizing x and y to their final values.

    A curve linear in x has normalized slope ~1; a flat curve ~0.  Used
    to classify counting (≈1) versus the variant and the non-canonical
    engine (≈0) independent of scale.
    """
    ordered = sorted(series)
    x_max = ordered[-1][0] or 1.0
    y_max = max(y for _, y in ordered) or 1.0
    scaled = [(x / x_max, y / y_max) for x, y in ordered]
    slope, _ = least_squares_slope(scaled)
    return slope
