"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import random

import pytest

from repro.broker import Broker, BrokerNetwork, Publisher, Subscriber
from repro import (
    BruteForceEngine,
    CountingEngine,
    NonCanonicalEngine,
)
from repro.memory import PaperWorkloadShape, noncanonical_bytes
from repro.subscriptions import Subscription
from repro.workloads import (
    AuctionScenario,
    PaperSubscriptionGenerator,
    StockScenario,
)


class TestScenarioPipelines:
    """Each example scenario runs end to end through a broker, and the
    non-canonical engine agrees with the brute-force oracle throughout."""

    @pytest.mark.parametrize(
        "scenario_class",
        [StockScenario, AuctionScenario],
    )
    def test_scenario_through_broker_with_oracle(self, scenario_class):
        scenario = scenario_class(seed=42)
        broker = Broker("main", engine=NonCanonicalEngine())
        oracle = BruteForceEngine()
        subscribers = [Subscriber(f"user{i}", broker) for i in range(8)]
        subscriptions = []
        for subscriber in subscribers:
            subscription = scenario.subscription(subscriber.name)
            subscriber.subscribe(subscription)
            oracle.register(subscription)
            subscriptions.append(subscription)
        publisher = Publisher("feed", broker)
        total = 0
        for _ in range(150):
            event = scenario.event()
            notifications = publisher.publish(event)
            expected = oracle.match(event)
            assert {n.subscription_id for n in notifications} == expected
            total += len(notifications)
        assert total > 0
        assert sum(len(s.notifications) for s in subscribers) == total

    def test_scenario_over_network(self):
        scenario = StockScenario(seed=7)
        network = BrokerNetwork()
        for name in ("nyc", "lon", "hkg"):
            network.add_broker(Broker(name))
        network.connect("nyc", "lon")
        network.connect("lon", "hkg")
        received: dict[str, list] = {"nyc": [], "hkg": []}
        for site in received:
            for index in range(4):
                network.subscribe(
                    site,
                    scenario.subscription(f"{site}-trader{index}"),
                    sink=received[site].append,
                )
        deliveries = 0
        for _ in range(100):
            deliveries += len(network.publish("lon", scenario.event()))
        assert deliveries == sum(len(v) for v in received.values())
        assert deliveries > 0


class TestChurnLifecycle:
    def test_subscribe_publish_unsubscribe_cycles(self):
        rng = random.Random(3)
        broker = Broker("edge")
        oracle = BruteForceEngine()
        scenario = AuctionScenario(seed=9)
        live: dict[int, Subscription] = {}
        for cycle in range(30):
            if live and rng.random() < 0.4:
                doomed = rng.choice(list(live))
                broker.unsubscribe(doomed)
                oracle.unregister(doomed)
                del live[doomed]
            else:
                subscription = scenario.subscription(f"u{cycle}")
                broker.subscribe(subscription)
                oracle.register(subscription)
                live[subscription.subscription_id] = subscription
            event = scenario.event()
            got = {n.subscription_id for n in broker.publish(event)}
            assert got == oracle.match(event)
        assert broker.subscription_count == len(live)


class TestPaperStoryEndToEnd:
    """The paper's argument, reproduced in one test: same workload, the
    canonical engine stores a multiple of the subscriptions and burns a
    multiple of the memory, while matching answers stay identical."""

    def test_blowup_and_agreement(self):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=10, seed=1
        )
        subscriptions = generator.subscriptions(25)
        from repro.indexes import IndexManager
        from repro.predicates import PredicateRegistry

        registry = PredicateRegistry()
        indexes = IndexManager()
        non_canonical = NonCanonicalEngine(registry=registry, indexes=indexes)
        counting = CountingEngine(registry=registry, indexes=indexes)
        for subscription in subscriptions:
            non_canonical.register(subscription)
            counting.register(
                Subscription(
                    expression=subscription.expression,
                    subscription_id=subscription.subscription_id,
                )
            )
        # storage blow-up: 32 clauses per original
        assert counting.stored_subscription_count == 25 * 32
        assert non_canonical.stored_subscription_count == 25
        # memory blow-up exceeds 4x (the paper's scalability claim)
        assert counting.memory_bytes() > 4 * non_canonical.memory_bytes()
        # matching answers identical
        rng = random.Random(11)
        universe = list(range(1, len(non_canonical.registry) + 1))
        for _ in range(40):
            fulfilled = set(rng.sample(universe, 40))
            assert non_canonical.match_fulfilled(fulfilled) == (
                counting.match_fulfilled(fulfilled)
            )

    def test_measured_memory_matches_closed_form_at_scale(self):
        engine = NonCanonicalEngine()
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=8, seed=2
        )
        for subscription in generator.subscriptions(200):
            engine.register(subscription)
        assert engine.memory_bytes() == noncanonical_bytes(
            200, PaperWorkloadShape(8)
        )
