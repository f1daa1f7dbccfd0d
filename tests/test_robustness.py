"""Robustness: NOT-heavy workloads, adversarial inputs, rendering edges."""

from __future__ import annotations

import random

import pytest

from repro import Broker, BruteForceEngine, NonCanonicalEngine, build_engine
from repro.events import Event, InvalidEventError
from repro.experiments.figure3 import PANELS, render_panel, run_panel
from repro.experiments.parameters import ScaleConfig
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry
from repro.subscriptions import (
    EncodingError,
    Subscription,
    SubscriptionSyntaxError,
    parse,
)
from repro.workloads import GeneralSubscriptionGenerator


class TestNotHeavyAgreement:
    """The expressiveness the paper's engine adds: NOT-bearing
    subscriptions, which the conjunctive baselines reject, must still be
    matched correctly by every non-canonical variant."""

    @pytest.mark.parametrize("codec", ["basic", "varint"])
    @pytest.mark.parametrize("evaluation", ["compiled", "encoded"])
    def test_not_workload_agreement(self, codec, evaluation):
        registry = PredicateRegistry()
        indexes = IndexManager()
        engine = NonCanonicalEngine(
            codec=codec, evaluation=evaluation,
            registry=registry, indexes=indexes,
        )
        oracle = BruteForceEngine(registry=registry, indexes=indexes)
        generator = GeneralSubscriptionGenerator(seed=23, allow_not=True)
        for subscription in generator.subscriptions(40):
            engine.register(subscription)
            oracle.register(
                Subscription(
                    expression=subscription.expression,
                    subscription_id=subscription.subscription_id,
                )
            )
        rng = random.Random(11)
        for _ in range(60):
            payload = {}
            for name in ("price", "volume", "qty", "score"):
                if rng.random() < 0.7:
                    payload[name] = rng.randint(0, 100)
            for name in ("symbol", "category"):
                if rng.random() < 0.7:
                    payload[name] = "".join(
                        rng.choice("abcde") for _ in range(rng.randint(1, 4))
                    )
            event = Event(payload)
            assert engine.match(event) == oracle.match(event)

    def test_pure_negation_subscription(self):
        engine = NonCanonicalEngine()
        s = Subscription.from_text("not exists(banned)")
        engine.register(s)
        assert engine.match(Event({"x": 1})) == {s.subscription_id}
        assert engine.match(Event({"banned": True})) == set()

    def test_tautology_like_subscription(self):
        engine = NonCanonicalEngine()
        s = Subscription.from_text("a = 1 or not a = 1")
        engine.register(s)
        # true for every event under predicate-truth semantics
        assert engine.match(Event({"a": 1})) == {s.subscription_id}
        assert engine.match(Event({"a": 2})) == {s.subscription_id}
        assert engine.match(Event({})) == {s.subscription_id}


class TestAdversarialInputs:
    def test_deeply_nested_expression_parses_and_matches(self):
        depth = 200
        text = "(" * depth + "a = 1" + ")" * depth
        expression = parse(text)
        engine = NonCanonicalEngine()
        s = Subscription(expression=expression)
        engine.register(s)
        assert engine.match(Event({"a": 1})) == {s.subscription_id}

    def test_long_not_chain(self):
        text = "not " * 99 + "a = 1"
        s = Subscription(expression=parse(text))
        engine = NonCanonicalEngine()
        engine.register(s)
        # odd number of NOTs: matches when a = 1 is NOT fulfilled
        assert engine.match(Event({"a": 2})) == {s.subscription_id}
        assert engine.match(Event({"a": 1})) == set()

    def test_wide_disjunction(self):
        text = " or ".join(f"a = {i}" for i in range(200))
        s = Subscription(expression=parse(text))
        engine = NonCanonicalEngine(codec="varint")  # >255 children: basic
        engine.register(s)                           # codec would reject
        assert engine.match(Event({"a": 150})) == {s.subscription_id}

    def test_basic_codec_rejects_oversized_fanout_cleanly(self):
        text = " or ".join(f"a = {i}" for i in range(300))
        engine = NonCanonicalEngine(codec="basic")
        with pytest.raises(EncodingError):
            engine.register(Subscription(expression=parse(text)))

    @pytest.mark.parametrize("engine_name", ["noncanonical", "paged"])
    def test_rejected_subscribe_leaves_broker_consistent(self, engine_name):
        # the basic codec rejects the 300-child OR only after its
        # predicates are registered; the failed subscribe must leave no
        # registry, association or location entry behind
        broker = Broker("b", engine=build_engine(engine_name))
        oracle = BruteForceEngine()
        with pytest.raises(EncodingError):
            broker.subscribe(" or ".join(f"a > {i}" for i in range(300)))
        assert len(broker.engine.registry) == 0
        assert broker.engine.subscription_count == 0
        kept = broker.subscribe("a > 500 or b = 1").subscription
        oracle.register(kept)
        for payload in ({"a": 1000}, {"a": 3}, {"b": 1}):
            delivered = {n.subscription_id for n in broker.publish(payload)}
            assert delivered == oracle.match(Event(payload))

    def test_unicode_strings_throughout(self):
        engine = NonCanonicalEngine()
        s = Subscription.from_text("sym prefix 'ACmé—' and note contains '警告'")
        engine.register(s)
        assert engine.match(
            Event({"sym": "ACmé—X", "note": "これは警告です"})
        ) == {s.subscription_id}

    def test_huge_attribute_values(self):
        engine = NonCanonicalEngine()
        s = Subscription.from_text(f"a > {10**15}")
        engine.register(s)
        assert engine.match(Event({"a": 10**16})) == {s.subscription_id}

    def test_event_rejects_nested_payloads(self):
        with pytest.raises(InvalidEventError):
            Event({"nested": {"x": 1}})

    @pytest.mark.parametrize("text", ["a = 1 ; drop", "a = 1 -- x", "a = \x00"])
    def test_garbage_suffixes_rejected(self, text):
        with pytest.raises(SubscriptionSyntaxError):
            parse(text)


class TestRendering:
    def test_render_panel_contains_everything(self):
        tiny = ScaleConfig(
            name="tiny",
            subscription_divisor=25_000,
            fulfilled_divisor=500,
            events_per_point=1,
            points_per_curve=2,
        )
        panel = PANELS["a"]
        result = run_panel(panel, tiny, repeats=1)
        text = render_panel(panel, tiny, result)
        assert "Fig. 3(a)" in text
        assert "non-canonical" in text
        assert "counting-variant" in text
        assert "memory budget" in text
        assert "seconds per event" in text  # the plot axis label

    def test_render_panel_without_plot(self):
        tiny = ScaleConfig(
            name="tiny",
            subscription_divisor=25_000,
            fulfilled_divisor=500,
            events_per_point=1,
            points_per_curve=2,
        )
        panel = PANELS["a"]
        result = run_panel(panel, tiny, repeats=1)
        text = render_panel(panel, tiny, result, plot=False)
        assert "swap x" in text
        assert "[registered subscriptions]" not in text
