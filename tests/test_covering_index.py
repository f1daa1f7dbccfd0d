"""Tests for the incremental covering poset and the lifetime of the
summaries (and DNFs) it keeps."""

from __future__ import annotations

import gc
import os
import random
import sys
import tracemalloc

import pytest

from repro import BrokerNetwork, EngineSpec, build_engine
from repro.subscriptions import (
    CoveringIndex,
    Subscription,
    covers,
    parse,
)
from repro.subscriptions import summary as summary_module
from repro.workloads import NetworkChurnScenario, StockScenario, make_topology

#: Source files whose allocations are derived forms: summaries and
#: DNFs, and the ASTs a memo keyed on expressions would keep alive.
DERIVING_MODULES = tuple(
    os.path.join("subscriptions", name)
    for name in ("summary.py", "normal_forms.py", "parser.py")
)


class TestAddOutcomes:
    def test_first_member_is_maximal(self):
        index = CoveringIndex()
        outcome = index.add(1, parse("a > 0"))
        assert outcome.covered_by is None
        assert outcome.newly_covered == ()
        assert index.maximal_ids() == {1}

    def test_narrow_after_wide_arrives_covered(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0"))
        outcome = index.add(2, parse("a > 5"))
        assert outcome.covered_by == 1
        assert index.is_covered(2)
        assert index.coverer_of(2) == 1
        assert index.maximal_ids() == {1}

    def test_wide_after_narrow_absorbs(self):
        index = CoveringIndex()
        index.add(1, parse("a > 5 and b = 1"))
        index.add(2, parse("a > 5 and c = 2"))   # sibling maximal of 1
        outcome = index.add(3, parse("a > 0"))
        assert outcome.covered_by is None
        assert set(outcome.newly_covered) == {1, 2}
        assert index.maximal_ids() == {3}
        assert index.covered_mapping() == {1: 3, 2: 3}

    def test_absorption_reroots_subtrees(self):
        index = CoveringIndex()
        index.add(1, parse("a > 5"))
        index.add(2, parse("a > 7"))       # covered by 1
        outcome = index.add(3, parse("a > 0"))
        # 1 is absorbed directly; its child 2 re-roots to 3 as well
        assert outcome.newly_covered == (1,)
        assert index.covered_mapping() == {1: 3, 2: 3}

    def test_covered_member_does_not_absorb(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0"))
        index.add(2, parse("b = 1"))
        # arrives covered by 1; must not steal 2 even if it covered it
        outcome = index.add(3, parse("a > 5"))
        assert outcome.covered_by == 1
        assert outcome.newly_covered == ()
        assert index.maximal_ids() == {1, 2}

    def test_duplicate_id_rejected(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0"))
        with pytest.raises(ValueError, match="already present"):
            index.add(1, parse("a > 1"))


class TestRemoveOutcomes:
    def test_removing_covered_member_exposes_nothing(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0"))
        index.add(2, parse("a > 5"))
        outcome = index.remove(2)
        assert outcome.was_covered and outcome.coverer == 1
        assert outcome.newly_exposed == ()
        assert index.maximal_ids() == {1}

    def test_removing_coverer_exposes_orphans(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0"))
        index.add(2, parse("a > 5"))
        index.add(3, parse("a > 5 and b = 1"))
        outcome = index.remove(1)
        assert not outcome.was_covered
        # 2 has no surviving coverer; 3 re-absorbs under the freshly
        # promoted 2 (a > 5 covers a > 5 and b = 1)
        assert outcome.newly_exposed == (2,)
        assert outcome.reabsorbed == {3: 2}
        assert index.maximal_ids() == {2}
        assert index.covered_mapping() == {3: 2}

    def test_orphan_reabsorbed_under_freshly_exposed_sibling(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0"))      # absorbed by 2 on its arrival
        index.add(2, parse("a >= 0"))
        index.add(3, parse("a > 5"))      # covered by 2
        assert index.covered_mapping() == {1: 2, 3: 2}
        outcome = index.remove(2)
        # orphan 1 promotes to maximal, orphan 3 re-absorbs under it —
        # the coverer's withdrawal does not flood 3 back out
        assert outcome.newly_exposed == (1,)
        assert outcome.reabsorbed == {3: 1}
        assert index.maximal_ids() == {1}
        assert index.covered_mapping() == {3: 1}

    def test_promoted_orphan_absorbs_promoted_sibling(self):
        """Regression: orphan promotion runs the same absorb step as
        add(), so a wide orphan re-covers a narrow sibling promoted
        earlier in the same removal instead of both going maximal."""
        index = CoveringIndex()
        index.add(1, parse("x >= 0"))
        index.add(2, parse("x > 5"))      # covered by 1
        index.add(3, parse("x > 0"))      # covered by 1, covers 2
        outcome = index.remove(1)
        assert outcome.newly_exposed == (3,)
        assert outcome.reabsorbed == {2: 3}
        assert outcome.absorbed == ()
        assert index.maximal_ids() == {3}
        assert index.covered_mapping() == {2: 3}

    def test_later_orphan_reabsorbs_under_earlier_promoted_one(self):
        index = CoveringIndex()
        index.add(1, parse("x >= 0"))
        index.add(2, parse("x > 0"))              # covered by 1
        index.add(4, parse("x > 4 and y = 1"))    # covered by 1
        outcome = index.remove(1)
        # 2 promotes first (smaller id); 4 then finds it as a coverer
        assert outcome.newly_exposed == (2,)
        assert outcome.reabsorbed == {4: 2}
        assert index.maximal_ids() == {2}

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            CoveringIndex().remove(42)


class TestExplodingExpressions:
    def test_exploding_expression_is_isolated_maximal(self):
        # an AND of 13 two-way ORs: 8,192 clauses, past the 4,096 cap
        big = parse(
            " and ".join(f"(a{i} = 1 or b{i} = 2)" for i in range(13))
        )
        index = CoveringIndex()
        index.add(1, big)
        index.add(2, big)
        # neither can cover the other (conservative False on explosion)
        assert index.maximal_ids() == {1, 2}
        assert index.covers_calls == 0


class TestPosetInvariantsUnderChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_and_mapping_stay_consistent(self, seed):
        rng = random.Random(seed)
        scenario = (
            StockScenario(seed=seed)
            if seed % 2
            else NetworkChurnScenario(seed=seed)
        )
        index = CoveringIndex()
        expressions: dict[int, object] = {}
        live: list[int] = []
        for step in range(90):
            if live and rng.random() < 0.35:
                victim = live.pop(rng.randrange(len(live)))
                index.remove(victim)
                del expressions[victim]
            else:
                subscription = scenario.subscription(f"user{step}")
                sid = subscription.subscription_id
                expressions[sid] = subscription.expression
                index.add(sid, subscription.expression)
                live.append(sid)
            maximal = index.maximal_ids()
            covered = index.covered_mapping()
            # maximal/covered partition the live set
            assert maximal | set(covered) == set(expressions)
            assert not (maximal & set(covered))
            # every coverer is itself maximal
            assert all(coverer in maximal for coverer in covered.values())
            if step % 15 == 14:
                # absorption completeness survives removals too: no
                # maximal member covers another (exact-oracle check,
                # sparse because it is quadratic)
                for first in maximal:
                    for second in maximal:
                        assert first == second or not covers(
                            expressions[first], expressions[second]
                        ), (step, first, second)

    def test_no_maximal_pair_covers_each_other(self):
        # absorption completeness: after arbitrary arrival order, no
        # maximal member covers another (checked with the exact oracle)
        scenario = NetworkChurnScenario(seed=5)
        index = CoveringIndex()
        expressions = {}
        for subscription in scenario.subscriptions(60):
            expressions[subscription.subscription_id] = subscription.expression
            index.add(subscription.subscription_id, subscription.expression)
        maximal = sorted(index.maximal_ids())
        for first in maximal:
            for second in maximal:
                if first != second:
                    assert not covers(
                        expressions[first], expressions[second]
                    ), (first, second)

    def test_recorded_coverers_actually_cover(self):
        scenario = NetworkChurnScenario(seed=9)
        index = CoveringIndex()
        expressions = {}
        for subscription in scenario.subscriptions(60):
            expressions[subscription.subscription_id] = subscription.expression
            index.add(subscription.subscription_id, subscription.expression)
        for covered, coverer in index.covered_mapping().items():
            # re-rooted chains rest on semantic transitivity; verify on
            # sampled events rather than the (incomplete) layered test
            for _ in range(150):
                event = scenario.event()
                if expressions[covered].matches(event):
                    assert expressions[coverer].matches(event)


class TestPrefilters:
    def test_prefilters_prune_band_corpus(self):
        index = CoveringIndex()
        for i in range(40):
            index.add(i, parse(f"price between [{i * 10}, {i * 10 + 4}]"))
        # disjoint bands: the interval prefilter resolves every pair
        assert index.covers_calls == 0
        assert index.interval_pruned > 0

    def test_signature_prefilter_prunes_disjoint_attributes(self):
        index = CoveringIndex()
        index.add(1, parse("a > 0 and b > 0"))
        index.add(2, parse("c > 0"))
        assert index.maximal_ids() == {1, 2}
        assert index.covers_calls == 0
        assert index.signature_pruned > 0

    def test_prefiltered_poset_matches_pairwise_oracle(self):
        # the prefilters are necessary conditions: the maximal set must
        # equal the one a full pairwise scan would produce
        scenario = NetworkChurnScenario(seed=3)
        expressions = {
            s.subscription_id: s.expression
            for s in scenario.subscriptions(50)
        }
        index = CoveringIndex()
        for identifier in sorted(expressions):
            index.add(identifier, expressions[identifier])
        maximal = index.maximal_ids()
        covered_by = index.covered_mapping()
        # oracle: a member is coverable iff some *other* member covers it
        for identifier, expression in expressions.items():
            coverable = any(
                covers(expressions[other], expression)
                for other in expressions
                if other != identifier
                and not covers(expression, expressions[other])
            )
            if identifier in maximal:
                # maximal members may only be covered by equivalents
                # (mutual covering keeps exactly one representative)
                equivalents = any(
                    covers(expressions[other], expression)
                    and covers(expression, expressions[other])
                    for other in expressions
                    if other != identifier
                )
                assert not coverable or equivalents, identifier
            else:
                assert identifier in covered_by


def _summarize_counter(monkeypatch) -> list:
    """Count :func:`summarize` calls, wherever a module imported it."""
    calls: list = []
    original = summary_module.summarize

    def counted(expression):
        calls.append(expression)
        return original(expression)

    for module in list(sys.modules.values()):
        if getattr(module, "summarize", None) is original:
            monkeypatch.setattr(module, "summarize", counted)
    return calls


class TestOneDerivationPerSubscribe:
    """The network and the routed partitioner derive a subscription's
    summary once and hand it to each consumer that keeps it."""

    @pytest.mark.parametrize("covering", [True, False])
    def test_tree_propagation_derives_once(self, monkeypatch, covering):
        network = BrokerNetwork(covering_enabled=covering)
        topology = make_topology("tree", 8)
        topology.build(network, engine="noncanonical")
        calls = _summarize_counter(monkeypatch)
        network.subscribe(
            topology.brokers[0], "key = 'k001' and value between [1, 9]"
        )
        # seven remote routing tables share one derivation
        assert network.stats.hops_visited == 7
        assert len(calls) == (1 if covering else 0)

    def test_table_toggled_alone_derives_its_own(self, monkeypatch):
        network = BrokerNetwork(covering_enabled=False)
        for name in ("a", "b"):
            network.add_broker(name, engine="noncanonical")
        network.connect("a", "b")
        network.routing_table("b").covering_enabled = True
        calls = _summarize_counter(monkeypatch)
        network.subscribe("a", "x > 0")
        narrow = network.subscribe("a", "x > 5")
        assert len(calls) == 2
        assert network.routing_table("b").is_suppressed(narrow.id)

    def test_routed_sharded_register_derives_once(self, monkeypatch):
        engine = build_engine(
            EngineSpec("noncanonical", {"shards": 4, "partitioner": "routed"})
        )
        subscription = Subscription.from_text("value > 10 and value < 20")
        # hull-keyed: placement and the group's hull merge both read it
        summary = summary_module.summarize(subscription.expression)
        assert summary.hulls and not summary.anchors
        calls = _summarize_counter(monkeypatch)
        engine.register(subscription)
        assert len(calls) == 1
        engine.close()


def test_derived_forms_do_not_outlive_their_subscriptions():
    """Subscribing, then unsubscribing, a churn population on the tree
    leaves (about) no bytes in the modules that derive and parse forms."""
    network = BrokerNetwork(covering_enabled=True)
    topology = make_topology("tree", 8)
    topology.build(network, engine="noncanonical")
    scenario = NetworkChurnScenario(seed=0)
    texts = [
        str(scenario.subscription("peer").expression) for _ in range(500)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        handles = [
            network.subscribe(topology.brokers[serial % 8], text)
            for serial, text in enumerate(texts)
        ]
        for handle in handles:
            network.unsubscribe(handle)
        del handles
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.endswith(DERIVING_MODULES)
    )
    # the process-global memos kept about 1.06 MB here
    assert retained < 16_384, retained
