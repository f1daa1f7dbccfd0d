"""Unit tests for workload generation (repro.workloads)."""

from __future__ import annotations

import pytest

from repro.events import Event
from repro.subscriptions import And, dnf_clause_count
from repro.workloads import (
    AUCTION_SCHEMA,
    STOCK_SCHEMA,
    AuctionScenario,
    EventGenerator,
    FulfilledPredicateSampler,
    GeneralSubscriptionGenerator,
    PaperSubscriptionGenerator,
    StockScenario,
    make_rng,
    zipf_weights,
)


class TestDistributions:
    def test_zipf_weights_normalized(self):
        weights = zipf_weights(10, 1.0)
        assert len(weights) == 10
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_zipf_zero_skew_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1)

    def test_seeded_rng_reproducible(self):
        assert make_rng(7).random() == make_rng(7).random()


class TestPaperGenerator:
    @pytest.mark.parametrize("predicates", [2, 6, 8, 10])
    def test_shape_matches_paper(self, predicates):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=predicates, seed=1
        )
        subscription = generator.subscription()
        assert subscription.predicate_count() == predicates
        assert dnf_clause_count(subscription.expression) == 2 ** (predicates // 2)
        if predicates >= 4:
            # originals are non-DNF (a lone OR group at |p|=2 is trivially
            # DNF): an AND is DNF-shaped only as a one-clause conjunction,
            # and this one has 2**(|p|/2) > 1 clauses
            assert isinstance(subscription.expression, And)

    def test_odd_predicate_count_rejected(self):
        with pytest.raises(ValueError):
            PaperSubscriptionGenerator(predicates_per_subscription=7)

    def test_unique_predicates_by_default(self):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=1
        )
        subscriptions = generator.subscriptions(50)
        all_predicates = [
            p for s in subscriptions for p in s.expression.unique_predicates()
        ]
        assert len(all_predicates) == len(set(all_predicates)) == 300

    def test_shared_predicates_fraction(self):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6,
            shared_predicate_fraction=0.5,
            seed=1,
        )
        subscriptions = generator.subscriptions(50)
        all_predicates = [
            p for s in subscriptions for p in s.expression.predicates()
        ]
        assert len(set(all_predicates)) < len(all_predicates)

    def test_invalid_share_fraction(self):
        with pytest.raises(ValueError):
            PaperSubscriptionGenerator(shared_predicate_fraction=1.0)

    def test_reproducible_with_seed(self):
        a = PaperSubscriptionGenerator(seed=3).subscription()
        b = PaperSubscriptionGenerator(seed=3).subscription()
        assert a.expression == b.expression

    def test_subscriber_forwarded(self):
        generator = PaperSubscriptionGenerator(seed=1)
        assert generator.subscription(subscriber="x").subscriber == "x"


class TestGeneralGenerator:
    def test_expressions_vary_and_evaluate(self):
        generator = GeneralSubscriptionGenerator(seed=5)
        subscriptions = generator.subscriptions(30)
        assert len({str(s.expression) for s in subscriptions}) > 20
        event = Event({"price": 10, "symbol": "abc"})
        for s in subscriptions:
            s.matches(event)  # must not raise

    def test_not_suppressed_when_disabled(self):
        generator = GeneralSubscriptionGenerator(seed=5, allow_not=False)
        for s in generator.subscriptions(50):
            assert "not" not in str(s.expression)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneralSubscriptionGenerator(max_depth=0)
        with pytest.raises(ValueError):
            GeneralSubscriptionGenerator(max_fanout=1)


class TestEventGenerator:
    def test_event_shape(self):
        generator = EventGenerator(
            attribute_pool=10, attributes_per_event=4, seed=1
        )
        event = generator.event()
        assert len(event) == 4
        assert all(name.startswith("attr") for name in event)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventGenerator(attribute_pool=4, attributes_per_event=5)

    def test_skewed_attribute_popularity(self):
        generator = EventGenerator(
            attribute_pool=20, attributes_per_event=3, skew=1.5, seed=2
        )
        counts: dict[str, int] = {}
        for event in generator.events(200):
            for name in event:
                counts[name] = counts.get(name, 0) + 1
        assert counts.get("attr000", 0) > counts.get("attr019", 0)

    def test_batch(self):
        assert len(EventGenerator(seed=1).events(7)) == 7


class TestFulfilledSampler:
    def test_sample_size(self):
        sampler = FulfilledPredicateSampler(range(1, 101), 10, seed=1)
        sample = sampler.sample()
        assert len(sample) == 10
        assert all(1 <= pid <= 100 for pid in sample)

    def test_caps_at_universe(self):
        sampler = FulfilledPredicateSampler(range(1, 6), 10, seed=1)
        assert sampler.sample() == {1, 2, 3, 4, 5}

    def test_validation(self):
        with pytest.raises(ValueError):
            FulfilledPredicateSampler(range(10), 0)

    def test_reproducibility(self):
        a = FulfilledPredicateSampler(range(100), 10, seed=4).samples(3)
        b = FulfilledPredicateSampler(range(100), 10, seed=4).samples(3)
        assert a == b


class TestScenarios:
    @pytest.mark.parametrize(
        "scenario_class, schema",
        [
            (StockScenario, STOCK_SCHEMA),
            (AuctionScenario, AUCTION_SCHEMA),
        ],
    )
    def test_events_conform_to_schema(self, scenario_class, schema):
        scenario = scenario_class(seed=1)
        for _ in range(20):
            assert schema.conforms(scenario.event())

    @pytest.mark.parametrize(
        "scenario_class", [StockScenario, AuctionScenario]
    )
    def test_subscriptions_parse_and_eventually_match(self, scenario_class):
        scenario = scenario_class(seed=2)
        subscriptions = [scenario.subscription(f"user{i}") for i in range(10)]
        matches = 0
        for _ in range(400):
            event = scenario.event()
            matches += sum(s.matches(event) for s in subscriptions)
        assert matches > 0  # workload is non-degenerate

    def test_stock_subscriptions_are_non_conjunctive(self):
        # a conjunction is exactly one DNF clause
        scenario = StockScenario(seed=3)
        assert dnf_clause_count(scenario.subscription("u").expression) > 1
