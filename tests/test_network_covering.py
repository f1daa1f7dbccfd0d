"""Tests for covering-based routing-table compaction in the overlay."""

from __future__ import annotations

import random

import pytest

from repro.broker import Broker, BrokerNetwork
from repro.core.registry import engine_names
from repro.events import Event
from repro.predicates import Operator, Predicate
from repro.subscriptions import Subscription, leaf
from repro.workloads import (
    NetworkChurnScenario,
    StockScenario,
    make_topology,
)

TOPOLOGY_NAMES = ("line", "star", "tree", "random")


def chain(covering=True, names=("a", "b", "c", "d")):
    network = BrokerNetwork(covering_enabled=covering)
    for name in names:
        network.add_broker(Broker(name))
    for left, right in zip(names, names[1:]):
        network.connect(left, right)
    return network


class TestSuppression:
    def test_covered_subscription_not_registered_remotely(self):
        network = chain()
        network.subscribe("a", "x > 0", subscriber="wide")
        network.subscribe("a", "x > 5", subscriber="narrow")
        # home broker 'a' registers both; remote brokers only the coverer
        assert network.broker("a").subscription_count == 2
        for name in "bcd":
            assert network.broker(name).subscription_count == 1
        assert network.stats.suppressed_registrations == 3

    def test_nan_equality_suppresses_no_real_value(self):
        network = chain(names=("a", "b"))
        nan = Subscription(leaf(Predicate("x", Operator.EQ, float("nan"))))
        network.subscribe("a", nan, subscriber="nan")
        network.subscribe("a", "x = 3", subscriber="three")
        deliveries = network.publish("b", {"x": 3})
        assert [n.subscriber for n in deliveries] == ["three"]

    def test_direction_mismatch_prevents_suppression(self):
        network = chain()
        # same expressions but homes at opposite ends: at every broker
        # their next hops differ, so nothing may be suppressed
        network.subscribe("a", "x > 0", subscriber="left")
        network.subscribe("d", "x > 5", subscriber="right")
        assert network.stats.suppressed_registrations == 0

    def test_deliveries_unaffected_by_suppression(self):
        with_covering = chain(covering=True)
        without = chain(covering=False)
        for network in (with_covering, without):
            network.subscribe("a", "x > 0", subscriber="wide")
            network.subscribe("a", "x > 5", subscriber="narrow")
            network.subscribe("c", "x > 5 and y = 1", subscriber="remote")
        for value in (-1, 3, 7):
            for y in (0, 1):
                event = Event({"x": value, "y": y})
                got = {
                    (n.subscriber, n.broker)
                    for n in with_covering.publish("d", event)
                }
                expected = {
                    (n.subscriber, n.broker)
                    for n in without.publish("d", event)
                }
                assert got == expected, (value, y)

    def test_memory_savings_visible(self):
        saving = chain(covering=True)
        plain = chain(covering=False)
        for network in (saving, plain):
            network.subscribe("a", "price >= 0", subscriber="firehose")
            for index in range(10):
                low = index * 5
                network.subscribe(
                    "a", f"price between [{low}, {low + 4}]",
                    subscriber=f"band{index}",
                )
        saved = sum(
            broker.engine.memory_bytes() for broker in saving.brokers()
        )
        unsaved = sum(
            broker.engine.memory_bytes() for broker in plain.brokers()
        )
        assert saved < unsaved


class TestReinstatement:
    def test_coverer_withdrawal_reinstates_covered(self):
        network = chain()
        wide = network.subscribe("a", "x > 0", subscriber="wide")
        network.subscribe("a", "x > 5", subscriber="narrow")
        assert network.broker("d").subscription_count == 1
        network.unsubscribe(wide.subscription_id)
        # the narrow subscription must now be registered everywhere
        for name in "abcd":
            assert network.broker(name).subscription_count == 1
        deliveries = network.publish("d", Event({"x": 9}))
        assert [n.subscriber for n in deliveries] == ["narrow"]
        assert network.publish("d", Event({"x": 3})) == []

    def test_withdrawing_covered_subscription(self):
        network = chain()
        network.subscribe("a", "x > 0", subscriber="wide")
        narrow = network.subscribe("a", "x > 5", subscriber="narrow")
        network.unsubscribe(narrow.subscription_id)
        deliveries = network.publish("d", Event({"x": 9}))
        assert [n.subscriber for n in deliveries] == ["wide"]
        # no dangling state
        for name in "abcd":
            table = network.routing_table(name)
            assert narrow.subscription_id not in table
            assert narrow.subscription_id not in table.suppressed()


class TestAbsorption:
    def test_late_wide_subscription_absorbs_registered_narrow(self):
        network = chain()
        narrow = network.subscribe("a", "x > 5", subscriber="narrow")
        assert network.broker("d").subscription_count == 1
        wide = network.subscribe("a", "x > 0", subscriber="wide")
        # the wide arrival absorbed the narrow one at every remote hop
        for name in "bcd":
            assert network.broker(name).subscription_count == 1
            table = network.routing_table(name)
            assert table.is_suppressed(narrow.subscription_id)
            assert not table.is_suppressed(wide.subscription_id)
            assert table.suppressed() == {
                narrow.subscription_id: wide.subscription_id
            }
        # both still live at home, deliveries unaffected
        assert network.broker("a").subscription_count == 2
        deliveries = network.publish("d", Event({"x": 9}))
        assert {n.subscriber for n in deliveries} == {"narrow", "wide"}

    def test_suppression_ratio_stays_bounded_under_absorb_cycles(self):
        """Regression: the ratio reflects live table state, so repeated
        absorb/reinstate cycles (which re-count suppressions in the
        cumulative counters) cannot push it past 1.0."""
        network = chain(names=("a", "b"))
        for low in (0, 10, 20):
            network.subscribe(
                "a", f"x between [{low}, {low + 5}]", subscriber=f"band{low}"
            )
        for _ in range(5):
            wide = network.subscribe("a", "x >= 0", subscriber="wide")
            assert 0.0 <= network.suppression_ratio() <= 1.0
            network.unsubscribe(wide)
            assert network.suppression_ratio() == 0.0
        assert network.stats.reinstated_registrations == 15

    def test_reabsorption_under_surviving_coverer(self):
        network = chain()
        wide_a = network.subscribe("a", "x >= 0", subscriber="wide-a")
        network.subscribe("a", "x > 0", subscriber="wide-b")
        network.subscribe("a", "x > 5", subscriber="narrow")
        # withdraw the top coverer: the narrow subscription must ride
        # the surviving wide-b instead of flooding back out
        network.unsubscribe(wide_a)
        for name in "bcd":
            assert network.broker(name).subscription_count == 1
            assert len(network.routing_table(name).suppressed()) == 1
        deliveries = network.publish("d", Event({"x": 9}))
        assert {n.subscriber for n in deliveries} == {"wide-b", "narrow"}


def _assert_routing_invariants(network):
    """Suppressed ⇒ a live, engine-registered, same-direction coverer."""
    for broker in network.brokers():
        table = network.routing_table(broker.name)
        registered = {
            handle.subscription_id for handle in broker.handles()
        }
        for covered, coverer in table.suppressed().items():
            assert covered in table and coverer in table
            assert table.next_hop(covered) == table.next_hop(coverer)
            assert table.next_hop(covered) is not None
            assert not table.is_suppressed(coverer)
            assert coverer in registered
            assert covered not in registered
        # every unsuppressed routed subscription is engine-registered
        for sid in table.hops:
            if not table.is_suppressed(sid):
                assert sid in registered


class TestTopologies:
    @pytest.mark.parametrize("topology_name", TOPOLOGY_NAMES)
    def test_churn_parity_and_invariants(self, topology_name):
        """Delivery parity vs flooding plus table invariants, under
        subscribe/unsubscribe churn, on every topology."""
        topology = make_topology(topology_name, 6, seed=1)
        networks = {
            mode: topology.build(BrokerNetwork(covering_enabled=mode))
            for mode in (True, False)
        }
        scenario = NetworkChurnScenario(seed=2)
        ops = list(scenario.ops(60, topology.brokers))
        traces = {}
        for mode, network in networks.items():
            traces[mode] = NetworkChurnScenario.apply(network, ops)
            if mode:
                _assert_routing_invariants(network)
        assert traces[True] == traces[False]
        covering = networks[True]
        assert covering.stats.suppressed_registrations > 0
        assert 0.0 < covering.suppression_ratio() <= 1.0
        # compaction is real: fewer engine registrations than flooding
        assert sum(
            b.subscription_count for b in covering.brokers()
        ) < sum(b.subscription_count for b in networks[False].brokers())

    @pytest.mark.parametrize("engine", engine_names())
    def test_delivery_parity_per_engine(self, engine):
        """Covering on/off deliver identically for every engine, on
        every topology."""
        scenario = NetworkChurnScenario(seed=4)
        subscriptions = scenario.subscriptions(18)
        events = [scenario.event() for _ in range(40)]
        for topology_name in TOPOLOGY_NAMES:
            topology = make_topology(topology_name, 5, seed=3)
            placement = random.Random(11)
            homes = [
                placement.choice(topology.brokers) for _ in subscriptions
            ]
            networks = {}
            for mode in (True, False):
                network = topology.build(
                    BrokerNetwork(covering_enabled=mode), engine=engine
                )
                for home, subscription in zip(homes, subscriptions):
                    network.subscribe(home, subscription)
                networks[mode] = network
            for index, event in enumerate(events):
                origin = topology.brokers[index % len(topology.brokers)]
                got = {
                    (n.subscriber, n.subscription_id, n.broker)
                    for n in networks[True].publish(origin, event)
                }
                expected = {
                    (n.subscriber, n.subscription_id, n.broker)
                    for n in networks[False].publish(origin, event)
                }
                assert got == expected, (topology_name, engine, index)
            for network in networks.values():
                for broker in network.brokers():
                    broker.engine.close()


class TestRoutingReports:
    def test_memory_report_includes_routing_tables(self):
        network = chain()
        network.subscribe("a", "x > 0")
        for name in "abcd":
            assert network.routing_table(name).memory_bytes() > 0

    def test_routing_report_shapes(self):
        network = chain()
        network.subscribe("a", "x > 0", subscriber="wide")
        network.subscribe("a", "x > 5", subscriber="narrow")
        home = network.routing_table("a").stats()
        assert home.local == 2 and home.suppressed == 0
        for name in "bcd":
            shape = network.routing_table(name).stats()
            assert shape.entries == 2
            assert shape.registered == 1
            assert shape.suppressed == 1


class TestEquivalenceUnderChurn:
    def test_covering_network_equals_plain_network(self):
        rng = random.Random(5)
        scenario = StockScenario(seed=3)
        networks = {
            "covering": chain(covering=True),
            "plain": chain(covering=False),
        }
        live: list[int] = []
        homes = "abcd"
        for step in range(25):
            if live and rng.random() < 0.35:
                sid = live.pop(rng.randrange(len(live)))
                for network in networks.values():
                    network.unsubscribe(sid)
            else:
                home = rng.choice(homes)
                subscription = scenario.subscription(f"user{step}")
                for network in networks.values():
                    network.subscribe(home, subscription)
                live.append(subscription.subscription_id)
            event = scenario.event()
            publish_at = rng.choice(homes)
            got = {
                (n.subscriber, n.subscription_id, n.broker)
                for n in networks["covering"].publish(publish_at, event)
            }
            expected = {
                (n.subscriber, n.subscription_id, n.broker)
                for n in networks["plain"].publish(publish_at, event)
            }
            assert got == expected, step
