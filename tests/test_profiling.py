"""Tests for matching profiling."""

from __future__ import annotations

import pytest

from repro import CountingEngine, NonCanonicalEngine
from repro.experiments.profiling import (
    engine_comparison_summary,
    profile_matching,
)
from repro.workloads import FulfilledPredicateSampler, PaperSubscriptionGenerator


class TestProfiling:
    @pytest.fixture
    def loaded(self):
        engine = NonCanonicalEngine()
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=6, seed=9
        )
        for subscription in generator.subscriptions(100):
            engine.register(subscription)
        sampler = FulfilledPredicateSampler(
            predicate_ids=range(1, len(engine.registry) + 1),
            fulfilled_per_event=30,
            seed=10,
        )
        return engine, sampler.samples(20)

    def test_profile_shape(self, loaded):
        engine, sets = loaded
        profile = profile_matching(engine, sets)
        assert profile.events == 20
        assert profile.mean_fulfilled == pytest.approx(30.0)
        # unique predicates: at most one candidate per fulfilled predicate
        assert profile.mean_candidates <= profile.mean_fulfilled
        assert 0.0 < profile.candidate_fraction < 1.0
        assert 0.0 <= profile.selectivity <= 1.0
        assert "candidates" in str(profile)

    def test_candidates_bound_phase2_work(self, loaded):
        """The paper's §4.1 mechanism: phase-2 work tracks candidates,
        not the registered population."""
        engine, sets = loaded
        profile = profile_matching(engine, sets)
        assert profile.mean_candidates < engine.subscription_count / 2

    def test_empty_sets_rejected(self, loaded):
        engine, _ = loaded
        with pytest.raises(ValueError):
            profile_matching(engine, [])

    def test_engine_comparison_summary(self):
        from repro.indexes import IndexManager
        from repro.predicates import PredicateRegistry

        registry, indexes = PredicateRegistry(), IndexManager()
        nc = NonCanonicalEngine(registry=registry, indexes=indexes)
        counting = CountingEngine(registry=registry, indexes=indexes)
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=8, seed=4
        )
        for subscription in generator.subscriptions(10):
            nc.register(subscription)
            counting.register(subscription)
        summary = dict(
            (name, (originals, stored, memory))
            for name, originals, stored, memory in (
                engine_comparison_summary([nc, counting])
            )
        )
        assert summary["non-canonical"][0] == summary["counting"][0] == 10
        assert summary["counting"][1] == 160  # 16 clauses each
        assert summary["counting"][2] > summary["non-canonical"][2]
