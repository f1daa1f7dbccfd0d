"""The three passes of a benchmark run; each runs in its own process.

* :func:`end_to_end` — tracing and tracemalloc off; yields the
  end-to-end metrics;
* :func:`traced` — the public methods of each layer's objects wrapped
  by :mod:`perfbench.tracer`; yields per-layer self times and counts;
* :func:`memory` — tracemalloc on; yields the bytes each ``repro/<module>``
  directory still holds once the traffic has run.

Each pass returns a plain dict that :mod:`perfbench.run` prints as JSON.
"""

from __future__ import annotations

import copy
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import repro
from repro import BrokerNetwork
from repro.subscriptions import clear_dnf_cache

from . import tracer
from .workloads import WORKLOADS

#: Nominal seconds one traffic call takes: about the middle of what a
#: call took on a shared 2-vCPU x86-64 VM under Python 3.11, whose speed
#: drifted by up to 2x.  A run issues ``seconds / CALL_SECONDS`` calls,
#: so its size is an operation count fixed by ``--seconds``, never by
#: how fast the calls happen to run.
CALL_SECONDS = {
    "paper-b256": 0.045,
    "hotkey-b32": 0.024,
    "overlay-churn": 0.0005,
}


#: Share of an end-to-end run's traffic calls that warm up the caches
#: (the probe cache, the DNF memo) and are checked but not timed.
WARMUP_SHARE = 0.1

#: The traced and the tracemalloc pass run the first calls of the same
#: traffic, as many as these nominal seconds hold (tracing costs up to
#: 1.6x, tracemalloc up to 12x, and the traced pass keeps every span).
TRACED_SECONDS = 6
MEMORY_SECONDS = 2


def call_count(name: str, seconds: float, scale: float = 1.0) -> int:
    """Traffic calls of a run of ``seconds`` nominal seconds."""
    return max(int(seconds * scale / CALL_SECONDS[name]), 1)


def make_workload(name: str, seed: int, calls: int, scale: float = 1.0):
    workload = WORKLOADS[name](seed=seed, calls=calls, scale=scale)
    workload.generate()
    return workload


def _percentile(values: list[int], share: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in microseconds."""
    ordered = sorted(values)
    rank = max(int(round(share * len(ordered) + 0.5)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)] / 1e3


class _Latencies:
    """Per-kind call latencies (ns); also the ``timer`` workloads call."""

    def __init__(self) -> None:
        self.samples: dict[str, list[int]] = {
            "publish": [],
            "subscribe": [],
            "unsubscribe": [],
        }

    def __call__(self, kind: str, function, *args):
        start = time.perf_counter_ns()
        result = function(*args)
        self.samples[kind].append(time.perf_counter_ns() - start)
        return result


def _run_traffic(workload, on_call, observe=None, before=None) -> tuple[int, int, list]:
    """Drive the timed traffic; returns (attempted, failed, per-call rows).

    ``on_call(kind, payload)`` performs one call and returns its result.
    Each payload is generated before its call's timing starts, and
    ``before(index)`` runs then too; the oracle check and
    ``observe(kind, payload, result)`` run after it ends.  A call that
    raises, or whose sampled result disagrees with the oracle, counts
    as failed.  A row is ``(kind, ns, items)``.
    """
    attempted = failed = 0
    rows = []
    for index, (kind, payload) in enumerate(workload.traffic()):
        if before is not None:
            before(index)
        attempted += 1
        start = time.perf_counter_ns()
        try:
            result = on_call(kind, payload)
        except Exception as error:  # a failed op is data, not a crash
            print(f"{kind} call {index} raised {error!r}", file=sys.stderr)
            failed += 1
            continue
        elapsed = time.perf_counter_ns() - start
        rows.append((kind, elapsed, len(payload) if workload.batch > 1 else 1))
        if not workload.check(index, kind, payload, result):
            print(f"{kind} call {index} disagrees with the oracle", file=sys.stderr)
            failed += 1
        if observe is not None:
            observe(kind, payload, result)
    return attempted, failed, rows


def _throughput(rows: list) -> float:
    """Items per second of timed calls over ``rows`` (0 if none)."""
    elapsed = sum(r[1] for r in rows)
    return sum(r[2] for r in rows) / (elapsed / 1e9) if elapsed else 0.0


def host_check_ms() -> float:
    """Time of a fixed pure-Python loop that never touches ``repro``.

    Printed beside the samples, not a metric: when a run's figures move
    but this one moved as much, the host, not the program, changed
    speed (on a shared 2-vCPU VM it swung by 2x within minutes).
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for number in range(1_000_000):
        table[number & 1023] = number
    return (time.perf_counter() - start) * 1e3


def _timed_setup(workload, latencies: _Latencies) -> float:
    """One set-up from a cold DNF memo; returns its seconds."""
    clear_dnf_cache()
    gc.collect()
    start = time.perf_counter()
    workload.setup(latencies)
    return time.perf_counter() - start


def end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Set up, warm up, then time the traffic; no tracing, no tracemalloc.

    The first set-up builds the broker(s) that take the traffic.  The
    other ``setup_repeats - 1`` set-ups build spare copies of the
    workload: at evenly spaced points of the traffic, so set-up is timed
    at several moments of the run, not all at its start; or, on a
    workload whose traffic writes, before the traffic.  The first
    ``WARMUP_SHARE`` of the traffic calls run and are checked but not
    timed.  On a workload whose traffic makes no writes, the set-up
    subscribes and the spares' teardown unsubscribes give the write
    latencies; otherwise traffic calls give them and a spare is closed
    without withdrawing.
    """
    host_before = host_check_ms()
    calls = call_count(name, seconds, scale)
    workload = make_workload(name, seed, calls, scale)
    setup_latencies = _Latencies()
    setup_times = [_timed_setup(workload, setup_latencies)]
    repeats = workload.setup_repeats
    # a spare's cold DNF memo would disturb traffic that subscribes
    spare_before = [0 if workload.writes else i * calls // repeats for i in range(1, repeats)]

    def before(index: int) -> None:
        while spare_before and spare_before[0] == index:
            spare_before.pop(0)
            spare = copy.copy(workload)
            setup_times.append(_timed_setup(spare, setup_latencies))
            if workload.writes:
                spare.close()
            else:
                spare.teardown(setup_latencies)
            gc.collect()

    gc.collect()
    attempted, failed, rows = _run_traffic(workload, workload.call, before=before)
    timed = rows[int(len(rows) * WARMUP_SHARE) :]
    samples = {
        kind: [ns for row_kind, ns, _ in timed if row_kind == kind]
        for kind in ("publish", "subscribe", "unsubscribe")
    }
    if not workload.writes:
        for kind in ("subscribe", "unsubscribe"):
            samples[kind] = setup_latencies.samples[kind]
    metrics = {
        "throughput_ops_s": (_throughput(timed), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for kind, values in samples.items():
        if len(values) >= 100:
            metrics[f"{kind}_p90_us"] = (_percentile(values, 0.9), "us")
    traced_calls = min(calls, call_count(name, TRACED_SECONDS, scale))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {kind: len(values) for kind, values in samples.items()},
        # printed for reference, not a metric (see WORKLOADS.md, Steadiness)
        "p50_us": {kind: _percentile(values, 0.5) for kind, values in samples.items() if values},
        "host_check_ms": [host_before, host_check_ms()],
        # untraced throughput over the calls the traced pass replays
        "prefix_throughput": _throughput(rows[:traced_calls]),
    }


def _network(workload):
    """The workload's overlay, or ``None`` for a single broker."""
    state = workload.state[0]
    return state if isinstance(state, BrokerNetwork) else None


class _TrafficStats:
    """Traffic properties observed call by call in the traced pass."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.events = 0
        self.notifications = 0
        self.pairs = 0
        self.repeated_pairs = 0
        self._seen_pairs: set = set()

    def __call__(self, kind: str, payload, result) -> None:
        events = self.workload.events_of(kind, payload)
        if not events:
            return
        self.events += len(events)
        self.notifications += (
            sum(len(n) for n in result) if self.workload.batch > 1 else len(result)
        )
        seen = self._seen_pairs
        for event in events:
            for name, value in event.items():
                key = (name, type(value), value)
                self.pairs += 1
                if key in seen:
                    self.repeated_pairs += 1
                else:
                    seen.add(key)


def traced(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """One set-up + teardown and one set-up + traffic, every layer traced.

    Returns the recorder's aggregates and the counts read from the
    program's own counters (``MatchCounters``, ``NetworkStats``) plus
    the spans file written under ``.perfbench/``.
    """
    calls = min(call_count(name, seconds, scale), call_count(name, TRACED_SECONDS, scale))
    workload = make_workload(name, seed, calls, scale)
    recorder = tracer.Recorder()
    patches = tracer.ClassPatches(recorder)
    try:
        for repeat in range(2):
            clear_dnf_cache()
            gc.collect()
            recorder.phase = "setup"
            workload.setup(recorder.root, lambda target: tracer.instrument(recorder, target))
            if repeat == 0:
                recorder.phase = "teardown"
                workload.teardown(recorder.root)
        recorder.phase = "traffic"
        for engine in workload.engines():
            engine.reset_counters()
        network = _network(workload)
        before = vars(network.stats).copy() if network is not None else {}
        gc.collect()
        stats = _TrafficStats(workload)
        attempted, failed, rows = _run_traffic(
            workload,
            lambda kind, payload: recorder.root(kind, workload.call, kind, payload),
            stats,
        )
    finally:
        patches.restore()
    counters = {}
    for engine in workload.engines():
        for key, value in engine.counters.snapshot().items():
            counters[key] = counters.get(key, 0) + value
    network_stats = {}
    if network is not None:
        network_stats = {
            key: value - before[key] for key, value in vars(network.stats).items()
        }
        network_stats["suppression_ratio"] = network.suppression_ratio()
    ops = {kind: sum(1 for row in rows if row[0] == kind) for kind in ("publish", "subscribe", "unsubscribe")}
    spans_path = Path(".perfbench") / f"spans-{name}-seed{seed}.tsv.gz"
    recorder.write(spans_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "throughput": _throughput(rows),
        "events": stats.events,
        "ops": ops,
        "notifications": stats.notifications,
        "repeat_pair_share": _ratio(stats.repeated_pairs, stats.pairs),
        "counters": counters,
        "network": network_stats,
        "model_bytes": sum(engine.memory_bytes() for engine in workload.engines()),
        "self_ns": [[*key, value] for key, value in recorder.self_ns.items()],
        "calls": [[*key, value] for key, value in recorder.calls.items()],
        "counts": [[*key, value] for key, value in recorder.counts.items()],
        "spans": len(recorder),
        "spans_file": str(spans_path),
    }


def _probe_caches(workload) -> list[dict]:
    """The phase-1 probe caches of the workload's index managers.

    ``IndexManager`` has no public accessor for its probe cache, so this
    reads the private ``_probe_cache`` dict, without changing it.
    """
    managers = {id(engine.indexes): engine.indexes for engine in workload.engines()}
    return [getattr(manager, "_probe_cache", {}) for manager in managers.values()]


def _probe_cache_bytes(caches: list[dict]) -> int:
    """Sizes of the cache dicts, their key tuples and their id sets."""
    total = 0
    for cache in caches:
        total += sys.getsizeof(cache)
        for key, ids in cache.items():
            total += sys.getsizeof(key) + (sys.getsizeof(ids) if ids is not None else 0)
    return total


class _ProbeCachePeak:
    """The probe caches' size when they held the most entries.

    The cache empties itself once it passes its entry cap, so its size at
    the end of a run depends on where the run stopped in that cycle; the
    peak does not.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.entries = -1
        self.bytes = 0

    def __call__(self, kind: str, payload, result) -> None:
        caches = _probe_caches(self.workload)
        entries = sum(map(len, caches))
        if entries > self.entries:
            self.entries = entries
            self.bytes = _probe_cache_bytes(caches)


def memory(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """One set-up + traffic under tracemalloc; bytes retained per module.

    Allocations are grouped by the ``repro/<module>`` directory of the
    line that made them and read once the traffic has run, with the
    broker(s) still alive.  The probe caches are sized at their peak.
    """
    package = Path(repro.__file__).resolve().parent
    calls = min(call_count(name, seconds, scale), call_count(name, MEMORY_SECONDS, scale))
    workload = make_workload(name, seed, calls, scale)
    clear_dnf_cache()
    gc.collect()
    tracemalloc.start()
    workload.setup(_Latencies())
    probe_cache = _ProbeCachePeak(workload)
    attempted, failed, _ = _run_traffic(workload, workload.call, probe_cache)
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    retained: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        path = Path(stat.traceback[0].filename)
        try:
            parts = path.resolve().relative_to(package).parts
        except ValueError:
            continue
        module = parts[0] if len(parts) > 1 else "package"
        retained[module] = retained.get(module, 0) + stat.size
    return {
        "attempted": attempted,
        "failed": failed,
        "retained_bytes": retained,
        "probe_cache_bytes": probe_cache.bytes,
    }


def run_pass(pass_name: str, name: str, seed: int, seconds: float, scale: float) -> dict:
    function = {"end-to-end": end_to_end, "traced": traced, "memory": memory}[pass_name]
    return function(name, seed, seconds, scale)


class _Aggregates:
    """Queries over the traced pass's ``(phase, kind, name) -> value`` rows."""

    def __init__(self, rows: list) -> None:
        self.rows = rows

    def sum(self, name=None, *, phase=None, kind=None, layer=None) -> int:
        return sum(
            value
            for p, k, n, value in self.rows
            if (phase is None or p == phase)
            and (kind is None or k == kind)
            and (name is None or n == name)
            and (layer is None or tracer.layer_of(n) == layer)
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: every layer that owns spans, in report order
LAYERS = ("indexes", "core", "subscriptions", "broker", "events", "trace", tracer.ROOT_LAYER)


def combine(name: str, seed: int, results: dict, out_dir: Path) -> dict:
    """Per-layer metrics from the three passes of one ``--trace 1`` run.

    Every ``*_us`` figure is self time from the traced pass; "per event"
    divides by events published into the system, "per publish" /
    "per subscribe" / "per unsubscribe" by benchmark calls of that kind
    (set-up and teardown calls included for register/unregister, parse
    and covering).  Writes the full breakdown to ``out_dir``.
    """
    e2e, trace, mem = results["end-to-end"], results["traced"], results["memory"]
    self_ns = _Aggregates(trace["self_ns"])
    calls = _Aggregates(trace["calls"])
    counts = _Aggregates(trace["counts"])
    events = trace["events"]
    ops = trace["ops"]
    publishes = ops["publish"]
    subscribes = calls.sum("op.subscribe")
    unsubscribes = calls.sum("op.unsubscribe")
    counters = trace["counters"]
    network = trace["network"]
    traffic = "traffic"

    def us(span, denominator, **where) -> float:
        return _ratio(self_ns.sum(span, **where) / 1e3, denominator)

    def mb(module: str) -> float:
        return mem["retained_bytes"].get(module, 0) / 2**20

    op_total = self_ns.sum(phase=traffic)
    split = {layer: _ratio(self_ns.sum(phase=traffic, layer=layer), op_total) for layer in LAYERS}
    probed = counters.get("shards_probed", 0)
    pruned = counters.get("shards_pruned", 0)
    metrics = {
        "indexes.phase1_us_per_event": (us("indexes.phase1", events, phase=traffic), "us"),
        "indexes.fulfilled_per_event": (
            _ratio(counts.sum("fulfilled", phase=traffic), counts.sum("events", phase=traffic)),
            "count",
        ),
        "indexes.repeat_pair_share": (trace["repeat_pair_share"], "ratio"),
        "indexes.retained_mb": (mb("indexes"), "MB"),
        "indexes.probe_cache_mb": (mem["probe_cache_bytes"] / 2**20, "MB"),
        "indexes.probe_cache_rss_share": (
            _ratio(mem["probe_cache_bytes"] / 2**20, e2e["metrics"]["rss_peak_mb"][0]),
            "ratio",
        ),
        "core.phase2_us_per_event": (us("core.phase2", events, phase=traffic), "us"),
        "core.matrix_select_us_per_event": (us("core.matrix_select", events, phase=traffic), "us"),
        "core.dispatch_us_per_event": (us("core.dispatch", events, phase=traffic), "us"),
        "core.shard_route_us_per_event": (us("core.shard_route", events, phase=traffic), "us"),
        "core.shards_pruned_ratio": (_ratio(pruned, probed + pruned), "ratio"),
        "core.candidates_probed_per_op": (
            _ratio(counters.get("candidates_probed", 0), publishes),
            "count",
        ),
        "core.match_ratio": (
            _ratio(counters.get("matches_found", 0), counters.get("candidates_probed", 0)),
            "ratio",
        ),
        "core.register_us": (us("core.register", calls.sum("core.register")), "us"),
        "core.unregister_us": (us("core.unregister", calls.sum("core.unregister")), "us"),
        "core.model_bytes": (trace["model_bytes"], "B"),
        "core.retained_mb": (mb("core"), "MB"),
        "subscriptions.parse_us_per_subscribe": (us("subscriptions.parse", subscribes), "us"),
        "subscriptions.covering_us_per_subscribe": (
            us("subscriptions.covering", subscribes, kind="subscribe"),
            "us",
        ),
        "subscriptions.covering_us_per_unsubscribe": (
            us("subscriptions.covering", unsubscribes, kind="unsubscribe"),
            "us",
        ),
        "subscriptions.covers_calls_per_subscribe": (
            _ratio(counts.sum("covers_calls", kind="subscribe"), subscribes),
            "count",
        ),
        "subscriptions.retained_mb": (mb("subscriptions"), "MB"),
        "broker.deliver_us_per_event": (
            _ratio(
                (self_ns.sum("broker.publish", phase=traffic) + self_ns.sum("broker.deliver", phase=traffic)) / 1e3,
                events,
            ),
            "us",
        ),
        "broker.notifications_per_event": (_ratio(trace["notifications"], events), "count"),
        "broker.route_us_per_subscribe": (us("broker.route", subscribes, kind="subscribe"), "us"),
        "broker.route_us_per_unsubscribe": (us("broker.route", unsubscribes, kind="unsubscribe"), "us"),
        "broker.forward_us_per_publish": (us("broker.forward", publishes, phase=traffic), "us"),
        "broker.hops_per_publish": (_ratio(network.get("broker_hops", 0), publishes), "count"),
        "broker.matches_computed_per_publish": (
            _ratio(
                calls.sum("core.match", phase=traffic, kind="publish")
                + calls.sum("core.dispatch", phase=traffic, kind="publish"),
                publishes,
            ),
            "count",
        ),
        "broker.suppression_ratio": (network.get("suppression_ratio", 0.0), "ratio"),
        "broker.reinstated_per_unsubscribe": (
            _ratio(network.get("reinstated_registrations", 0), ops["unsubscribe"]),
            "count",
        ),
        "broker.retained_mb": (mb("broker"), "MB"),
        "events.validate_us_per_event": (us("events.validate", events, phase=traffic), "us"),
        "trace.overhead_ratio": (_ratio(e2e["prefix_throughput"], trace["throughput"]), "ratio"),
        "trace.unattributed_share": (split[tracer.ROOT_LAYER], "ratio"),
        "workload.write_share": (
            _ratio(ops["subscribe"] + ops["unsubscribe"], sum(ops.values())),
            "ratio",
        ),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": name,
        "seed": seed,
        "metrics": {key: value for key, (value, _) in metrics.items()},
        "layer_split": split,
        "self_ns_by_span": {
            span: self_ns.sum(span, phase=traffic)
            for span in sorted({row[2] for row in trace["self_ns"]})
        },
        "traced_op_ns": op_total,
        "spans": trace["spans"],
        "spans_file": trace["spans_file"],
        "retained_bytes": mem["retained_bytes"],
        "counters": counters,
        "network": network,
    }
    (out_dir / f"layers-{name}-seed{seed}.json").write_text(json.dumps(report, indent=1))
    failed = e2e["failed"] + trace["failed"] + mem["failed"]
    return {
        "attempted": e2e["attempted"] + trace["attempted"] + mem["attempted"],
        "failed": failed,
        "metrics": metrics,
        "samples": {"traced_ops": sum(ops.values()), "spans": trace["spans"]},
    }
