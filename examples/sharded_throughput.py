"""Sharded broker under a skewed hot-key workload.

A single broker's subscription population is partitioned across four
engine shards (``engine="noncanonical×4"`` — sharded configs are
ordinary engine specs).  The workload is adversarial for a partitioner:
a handful of hot keys receive most of the event traffic *and* most of
the subscription interest, yet the stable hash partitioner still
spreads the subscriptions evenly, which the per-shard stats show.

The second half runs a miniature shard-scaling sweep
(``run_shard_sweep``) printing throughput and speedup per shard count.
Shards run in-process, one after another, so hash sharding costs a
little coordination and never buys speed.

Run:  python examples/sharded_throughput.py
"""

from __future__ import annotations

from repro import Broker
from repro.experiments import run_shard_sweep
from repro.workloads import SkewedHotKeyScenario

SUBSCRIBERS = 600
EVENTS = 2_000
SHARDS = 4


def main() -> None:
    scenario = SkewedHotKeyScenario(seed=7, keys=64, skew=1.2)
    broker = Broker("hub", engine=f"noncanonical×{SHARDS}")

    for subscription in scenario.subscriptions(SUBSCRIBERS):
        broker.subscribe(subscription)
    print(
        f"{SUBSCRIBERS} subscribers registered on {broker.name!r} "
        f"({broker.engine.name}, partitioner={broker.engine.partitioner.name})"
    )

    print("per-shard stats (hot keys, yet an even partition):")
    for index, shard in enumerate(broker.engine.shards):
        print(
            f"  shard {index}: {shard.subscription_count:4d} "
            f"subscriptions, {shard.memory_bytes():,} B"
        )

    events = scenario.events(EVENTS)
    hot = sum(1 for event in events if event["key"] in ("k000", "k001", "k002"))
    notifications = broker.publish(events)
    delivered = sum(len(batch) for batch in notifications)
    print(
        f"{EVENTS:,} events published ({hot / EVENTS:.0%} on the 3 hottest "
        f"keys); {delivered:,} notifications delivered"
    )

    # -- shard-scaling sweep ------------------------------------------
    print("\nshard-scaling sweep:")
    results = run_shard_sweep(
        subscription_count=300,
        event_count=256,
        shard_counts=(1, 2, 4),
        engines=("noncanonical",),
        repeats=2,
    )
    print(f"  {'shards':>6}  {'events/sec':>12}  {'speedup':>7}")
    for point in results["noncanonical"]:
        print(
            f"  {point.shards:>6}  {point.events_per_second:>12,.0f}  "
            f"{point.speedup:>6.2f}x"
        )
    print(
        "\nspeedup is relative to the unsharded single-shard baseline; "
        "expect ~1x or a little\nbelow (hash partitioning overhead only)."
    )


if __name__ == "__main__":
    main()
