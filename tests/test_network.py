"""Unit tests for the broker overlay network and its routing."""

from __future__ import annotations

import pytest

from repro.broker import Broker, BrokerNetwork, TopologyError
from repro import CountingEngine, NonCanonicalEngine
from repro.events import Event


def linear_network(*names):
    """brokers connected in a chain: names[0] - names[1] - ..."""
    network = BrokerNetwork()
    for name in names:
        network.add_broker(Broker(name))
    for left, right in zip(names, names[1:]):
        network.connect(left, right)
    return network


class TestTopology:
    def test_add_and_lookup(self):
        network = BrokerNetwork()
        broker = network.add_broker(Broker("a"))
        assert network.broker("a") is broker
        assert len(network) == 1

    def test_duplicate_broker_rejected(self):
        network = BrokerNetwork()
        network.add_broker(Broker("a"))
        with pytest.raises(TopologyError):
            network.add_broker(Broker("a"))

    def test_unknown_broker_rejected(self):
        network = BrokerNetwork()
        network.add_broker(Broker("a"))
        with pytest.raises(TopologyError):
            network.connect("a", "ghost")
        with pytest.raises(TopologyError):
            network.broker("ghost")

    def test_self_link_rejected(self):
        network = BrokerNetwork()
        network.add_broker(Broker("a"))
        with pytest.raises(TopologyError):
            network.connect("a", "a")

    def test_cycle_rejected(self):
        network = linear_network("a", "b", "c")
        with pytest.raises(TopologyError, match="cycle"):
            network.connect("a", "c")

    def test_neighbors(self):
        network = linear_network("a", "b", "c")
        assert network.neighbors("b") == {"a", "c"}
        assert network.neighbors("a") == {"b"}

    def test_brokers_listing(self):
        network = linear_network("a", "b")
        assert {b.name for b in network.brokers()} == {"a", "b"}


class TestSubscriptionFlooding:
    def test_subscription_reaches_every_broker(self):
        network = linear_network("a", "b", "c", "d")
        network.subscribe("a", "x = 1", subscriber="alice")
        for name in "abcd":
            assert network.broker(name).subscription_count == 1
        assert network.stats.hops_visited == 3
        assert network.stats.registrations_forwarded == 3

    def test_unsubscribe_cleans_everywhere(self):
        network = linear_network("a", "b", "c")
        s = network.subscribe("a", "x = 1")
        network.unsubscribe(s.subscription_id)
        for name in "abc":
            assert network.broker(name).subscription_count == 0
        with pytest.raises(TopologyError):
            network.unsubscribe(s.subscription_id)


class TestEventRouting:
    def test_delivery_at_remote_home_broker(self):
        network = linear_network("a", "b", "c")
        received = []
        network.subscribe("c", "x = 1", subscriber="carol",
                          sink=received.append)
        deliveries = network.publish("a", Event({"x": 1}))
        assert len(deliveries) == 1
        assert deliveries[0].broker == "c"
        assert deliveries[0].subscriber == "carol"
        assert received[0].subscription_id == deliveries[0].subscription_id

    def test_local_delivery_without_forwarding(self):
        network = linear_network("a", "b")
        network.subscribe("a", "x = 1")
        hops_before = network.stats.broker_hops
        deliveries = network.publish("a", Event({"x": 1}))
        assert len(deliveries) == 1
        assert network.stats.broker_hops == hops_before

    def test_no_match_no_hops(self):
        network = linear_network("a", "b", "c")
        network.subscribe("c", "x = 1")
        hops_before = network.stats.broker_hops
        assert network.publish("a", Event({"x": 2})) == []
        assert network.stats.broker_hops == hops_before

    def test_forwarding_pruned_to_matching_branch(self):
        # star: hub with three leaves; event should travel only toward
        # the leaf whose subscription matches
        network = BrokerNetwork()
        for name in ("hub", "l1", "l2", "l3"):
            network.add_broker(Broker(name))
        for leaf in ("l1", "l2", "l3"):
            network.connect("hub", leaf)
        network.subscribe("l1", "x = 1")
        network.subscribe("l2", "x = 2")
        network.subscribe("l3", "x = 3")
        hops_before = network.stats.broker_hops
        deliveries = network.publish("hub", Event({"x": 2}))
        assert [d.broker for d in deliveries] == ["l2"]
        assert network.stats.broker_hops == hops_before + 1

    def test_multiple_matches_across_branches(self):
        network = BrokerNetwork()
        for name in ("hub", "l1", "l2"):
            network.add_broker(Broker(name))
        network.connect("hub", "l1")
        network.connect("hub", "l2")
        network.subscribe("l1", "x >= 1", subscriber="one")
        network.subscribe("l2", "x >= 2", subscriber="two")
        deliveries = network.publish("hub", Event({"x": 5}))
        assert {d.subscriber for d in deliveries} == {"one", "two"}

    def test_publish_at_leaf_travels_upward(self):
        network = linear_network("a", "b", "c")
        network.subscribe("a", "x = 1", subscriber="alice")
        deliveries = network.publish("c", Event({"x": 1}))
        assert [d.subscriber for d in deliveries] == ["alice"]
        assert network.stats.broker_hops >= 2

    def test_mixed_engines_across_brokers(self):
        network = BrokerNetwork()
        network.add_broker(Broker("nc", engine=NonCanonicalEngine()))
        network.add_broker(Broker("cnt", engine=CountingEngine()))
        network.connect("nc", "cnt")
        network.subscribe("cnt", "x = 1 or y = 2", subscriber="c-client")
        deliveries = network.publish("nc", Event({"y": 2}))
        assert [d.subscriber for d in deliveries] == ["c-client"]

    def test_arbitrary_boolean_subscription_over_network(self):
        network = linear_network("a", "b", "c")
        network.subscribe(
            "c",
            "(price > 10 or urgent = true) and not halted = true",
            subscriber="carol",
        )
        assert network.publish("a", Event({"price": 12}))
        assert not network.publish("a", Event({"price": 12, "halted": True}))
        assert network.publish("b", Event({"urgent": True}))


class TestNetworkAccounting:
    def test_memory_report_covers_all_brokers(self):
        network = linear_network("a", "b")
        network.subscribe("a", "x = 1")
        # flooding registers everywhere: both brokers hold the tree
        for name in "ab":
            breakdown = network.broker(name).engine.memory_breakdown()
            assert breakdown["subscription_trees"] > 0

    def test_stats_aggregation(self):
        network = linear_network("a", "b")
        network.subscribe("b", "x = 1")
        network.publish("a", Event({"x": 1}))
        stats = network.stats
        assert stats.events_published == 1
        assert stats.matches_computed == 2
        assert stats.notifications_delivered == 1
        assert stats.hops_visited == 1
        assert stats.registrations_forwarded == 1

    def test_forwarding_broker_counts_no_matched_event(self):
        """``events_matched`` counts events with a *local* match: ``a``
        only forwards toward ``b``'s subscriber, so it matched none."""
        network = linear_network("a", "b")
        network.subscribe("b", "x = 1")
        network.publish("a", Event({"x": 1}))
        origin, home = network.broker("a").stats, network.broker("b").stats
        assert (origin.events_published, origin.events_matched) == (1, 0)
        assert origin.notifications_delivered == 0
        assert (home.events_published, home.events_matched) == (1, 1)
        assert home.notifications_delivered == 1
