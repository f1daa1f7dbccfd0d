"""Broker overlay: content-based routing across less-equipped peers.

The paper motivates filtering on "peer-to-peer networks of less equipped
machines, such as laptops and mobile devices" (§1).  This example builds
a five-broker tree declaratively — brokers are added by name with an
engine spec, subscribers hang collecting sinks off their handles — and
streams an auction feed in at one leaf through the batched overlay
pipeline.  Events travel only along branches with matching downstream
subscriptions; every broker filters with its own non-canonical engine,
and each runs on a small simulated machine: its memory pressure is the
engine's working set plus its routing table over the machine's budget.

Covering-based routing-table compaction is on by default: a broker
skips registering a subscription when a same-direction one already
covers it (the covered alerts ride the coverer's forwarding), so the
suppression ratio and per-broker routing-table sizes printed at the end
show how much engine state the overlay saved.  A broker's
``matched_events`` counts only events that matched a subscription homed
there, so the hub and ``lima``, which host no bidder and only forward,
report none.

Topology:

            geneva (hub)
           /      |      \\
       tokyo   nairobi   lima
                            \\
                           cusco

Run:  python examples/broker_network.py
"""

from repro import BrokerNetwork, CollectingSink, SimulatedMachine
from repro.workloads import AuctionScenario

LAPTOP = SimulatedMachine(
    total_memory_bytes=8 * 1024 * 1024, os_reserved_bytes=1024 * 1024
)


def main() -> None:
    scenario = AuctionScenario(seed=7)
    network = BrokerNetwork()
    for name in ("geneva", "tokyo", "nairobi", "lima", "cusco"):
        network.add_broker(name, engine="noncanonical")
    for edge in (("geneva", "tokyo"), ("geneva", "nairobi"),
                 ("geneva", "lima"), ("lima", "cusco")):
        network.connect(*edge)

    # subscribers at the edges, one collecting sink each
    inboxes: dict[str, CollectingSink] = {}
    for site, count in (("tokyo", 6), ("nairobi", 4), ("cusco", 8)):
        for index in range(count):
            name = f"{site}-bidder{index}"
            inboxes[name] = CollectingSink()
            network.subscribe(
                site,
                scenario.subscription(name),
                subscriber=name,
                sink=inboxes[name],
            )
    print(f"{len(inboxes)} subscriptions registered across the overlay")

    # stream the auction feed in at one leaf (batched overlay routing)
    feed = (scenario.event() for _ in range(1_500))
    deliveries = sum(
        len(notified) for notified in network.stream("tokyo", feed, batch_size=64)
    )

    print(f"1,500 bids published at tokyo -> {deliveries} notifications\n")
    print(f"network stats: {network.stats}")
    flooded = network.stats.broker_hops
    print(
        f"  pruned routing: {flooded} grouped broker hops instead of "
        f"{1_500 * 4} single-event hops for naive flooding"
    )
    print(
        f"  covering: {network.stats.suppressed_registrations} of "
        f"{network.stats.hops_visited} remote registrations suppressed "
        f"(suppression ratio {network.suppression_ratio():.1%})"
    )

    print("\nper-broker state:")
    for broker in network.brokers():
        routing = network.routing_table(broker.name)
        table = routing.stats()
        pressure = (
            broker.engine.memory_bytes() + routing.memory_bytes()
        ) / LAPTOP.available_bytes
        print(
            f"  {broker.name:<8} subscriptions={broker.subscription_count:<3} "
            f"routing_table={table.entries:>2} entries "
            f"({table.suppressed} suppressed) "
            f"matched_events={broker.stats.events_matched:<5} "
            f"memory_pressure={pressure:6.2%}"
        )

    busiest = max(inboxes.items(), key=lambda item: item[1].delivered)
    print(f"\nbusiest subscriber: {busiest[0]} with {busiest[1].delivered} alerts")
    sample = busiest[1].notifications[0]
    print(f"  first alert: {dict(sample.event.items())} (home broker {sample.broker})")


if __name__ == "__main__":
    main()
