"""Unit tests for the multi-dimensional matching-tree engine."""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro import (
    BruteForceEngine,
    CountingEngine,
    UnknownSubscriptionError,
    UnsupportedSubscriptionError,
)
from repro import MatchingTreeEngine
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry
from repro.subscriptions import Subscription
from repro.workloads import PaperSubscriptionGenerator


def sub(text):
    return Subscription.from_text(text)


class TestBasics:
    def test_conjunctive_matching(self):
        engine = MatchingTreeEngine()
        s = sub("a = 1 and b = 2")
        engine.register(s)
        assert engine.match(Event({"a": 1, "b": 2})) == {s.subscription_id}
        assert engine.match(Event({"a": 1})) == set()

    def test_dont_care_attributes(self):
        engine = MatchingTreeEngine()
        first = sub("a = 1")
        second = sub("b = 2")
        engine.register(first)
        engine.register(second)
        assert engine.match(Event({"a": 1, "b": 2})) == {
            first.subscription_id, second.subscription_id,
        }
        assert engine.match(Event({"b": 2})) == {second.subscription_id}

    def test_disjunction_expands_to_clauses(self):
        engine = MatchingTreeEngine()
        s = sub("a = 1 or b = 2")
        engine.register(s)
        assert engine.subscription_count == 1
        assert engine.stored_subscription_count == 2
        assert engine.match(Event({"b": 2})) == {s.subscription_id}

    def test_multiple_predicates_per_attribute(self):
        engine = MatchingTreeEngine()
        s = sub("a > 1 and a < 5")
        engine.register(s)
        assert engine.match(Event({"a": 3})) == {s.subscription_id}
        assert engine.match(Event({"a": 7})) == set()

    def test_not_rejected(self):
        engine = MatchingTreeEngine()
        with pytest.raises(UnsupportedSubscriptionError):
            engine.register(sub("not a between [1, 2]"))

    def test_complement_mode(self):
        engine = MatchingTreeEngine(complement_operators=True)
        s = sub("not a > 5")
        engine.register(s)
        assert engine.match(Event({"a": 3})) == {s.subscription_id}

    def test_duplicate_registration_rejected(self):
        engine = MatchingTreeEngine()
        s = sub("a = 1")
        engine.register(s)
        with pytest.raises(ValueError):
            engine.register(s)


class TestUnsubscription:
    def test_unregister_removes_and_prunes(self):
        engine = MatchingTreeEngine()
        first = sub("a = 1 and b = 2")
        second = sub("a = 1 or c = 3")
        engine.register(first)
        engine.register(second)
        engine.unregister(first.subscription_id)
        assert engine.subscription_count == 1
        assert engine.match(Event({"a": 1, "b": 2})) == {second.subscription_id}
        engine.unregister(second.subscription_id)
        assert engine.match(Event({"a": 1, "b": 2, "c": 3})) == set()
        assert len(engine.registry) == 0
        # tree fully pruned back to an empty root
        assert engine.memory_breakdown()["tree_edges"] == 0

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownSubscriptionError):
            MatchingTreeEngine().unregister(31337)


class TestAgreement:
    def test_agrees_with_oracle_on_paper_workload(self):
        registry = PredicateRegistry()
        indexes = IndexManager()
        tree = MatchingTreeEngine(registry=registry, indexes=indexes)
        counting = CountingEngine(registry=registry, indexes=indexes)
        oracle = BruteForceEngine(registry=registry, indexes=indexes)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=17
        )
        for s in generator.subscriptions(40):
            tree.register(s)
            counting.register(s)
            oracle.register(s)
        rng = random.Random(2)
        universe = list(range(1, len(registry) + 1))
        for _ in range(30):
            fulfilled = set(rng.sample(universe, 30))
            expected = oracle.match_fulfilled(fulfilled)
            assert tree.match_fulfilled(fulfilled) == expected
            assert counting.match_fulfilled(fulfilled) == expected


class TestSpaceTimeTradeoff:
    """Paper §2.1: multi-dimensional trees are faster per match step but
    'might index predicates several times', costing memory."""

    def test_predicates_indexed_multiple_times(self):
        engine = MatchingTreeEngine()
        # pin attribute 'a' to level 0 so the b-predicate cannot become a
        # shared prefix
        anchor = sub("a = 0")
        engine.register(anchor)
        engine.register(sub("a = 1 and b = 7"))
        engine.register(sub("a = 2 and b = 7"))
        # b = 7 appears on two distinct paths: one edge per a-prefix,
        # even though the registry holds the predicate once
        edges = engine.memory_breakdown()["tree_edges"]
        # 5 edges (a=0, a=1, a=2, and b=7 twice), 1 pid each
        assert edges == 5 * (4 + 4)
        assert len(engine.registry) == 4

    def test_memory_exceeds_counting_on_paper_workload(self):
        registry = PredicateRegistry()
        indexes = IndexManager()
        tree = MatchingTreeEngine(registry=registry, indexes=indexes)
        counting = CountingEngine(registry=registry, indexes=indexes)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=8, seed=3
        )
        for s in generator.subscriptions(40):
            tree.register(s)
            counting.register(s)
        assert tree.memory_bytes() > counting.memory_bytes()


_LAYOUT_SCRIPT = """
import json
from repro import MatchingTreeEngine
from repro.workloads import PaperSubscriptionGenerator
engine = MatchingTreeEngine()
generator = PaperSubscriptionGenerator(predicates_per_subscription=6, seed=1)
for subscription in generator.subscriptions(300):
    engine.register(subscription)
print(json.dumps([engine.memory_bytes(), engine._levels]))
"""


def test_tree_layout_does_not_depend_on_the_hash_seed():
    """Levels follow a fixed predicate order, not frozenset order, so the
    same population builds the same tree under any PYTHONHASHSEED."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    layouts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), env.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [sys.executable, "-c", _LAYOUT_SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            check=True,
        )
        layouts.append(json.loads(result.stdout))
    assert layouts[0] == layouts[1]
