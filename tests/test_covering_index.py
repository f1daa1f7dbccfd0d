"""Tests for the incremental covering poset and the lifetime of the
summaries (and DNFs) it keeps."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import sys
import tracemalloc

import pytest

from repro import BrokerNetwork, EngineSpec, Operator, Predicate, build_engine
from repro.subscriptions import (
    CoveringIndex,
    Subscription,
    conjunction,
    covers,
    leaf,
    parse,
    summarize,
)
from repro.subscriptions import summary as summary_module
from repro.subscriptions.covering_index import _hull_fits
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
        outcome = index.add(1, summarize(parse("a > 0")))
        assert outcome.covered_by is None
        assert outcome.newly_covered == ()
        assert index.maximal_ids() == {1}

    def test_narrow_after_wide_arrives_covered(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 0")))
        outcome = index.add(2, summarize(parse("a > 5")))
        assert outcome.covered_by == 1
        assert index.is_covered(2)
        assert index.coverer_of(2) == 1
        assert index.maximal_ids() == {1}

    def test_wide_after_narrow_absorbs(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 5 and b = 1")))
        index.add(2, summarize(parse("a > 5 and c = 2")))   # sibling maximal of 1
        outcome = index.add(3, summarize(parse("a > 0")))
        assert outcome.covered_by is None
        assert set(outcome.newly_covered) == {1, 2}
        assert index.maximal_ids() == {3}
        assert index.covered_mapping() == {1: 3, 2: 3}

    def test_absorption_reroots_subtrees(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 5")))
        index.add(2, summarize(parse("a > 7")))       # covered by 1
        outcome = index.add(3, summarize(parse("a > 0")))
        # 1 is absorbed directly; its child 2 re-roots to 3 as well
        assert outcome.newly_covered == (1,)
        assert index.covered_mapping() == {1: 3, 2: 3}

    def test_covered_member_does_not_absorb(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 0")))
        index.add(2, summarize(parse("b = 1")))
        # arrives covered by 1; must not steal 2 even if it covered it
        outcome = index.add(3, summarize(parse("a > 5")))
        assert outcome.covered_by == 1
        assert outcome.newly_covered == ()
        assert index.maximal_ids() == {1, 2}

    def test_duplicate_id_rejected(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 0")))
        with pytest.raises(ValueError, match="already present"):
            index.add(1, summarize(parse("a > 1")))


class TestRemoveOutcomes:
    def test_removing_covered_member_exposes_nothing(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 0")))
        index.add(2, summarize(parse("a > 5")))
        outcome = index.remove(2)
        assert outcome.was_covered and outcome.coverer == 1
        assert outcome.newly_exposed == ()
        assert index.maximal_ids() == {1}

    def test_removing_coverer_exposes_orphans(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 0")))
        index.add(2, summarize(parse("a > 5")))
        index.add(3, summarize(parse("a > 5 and b = 1")))
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
        index.add(1, summarize(parse("a > 0")))      # absorbed by 2 on its arrival
        index.add(2, summarize(parse("a >= 0")))
        index.add(3, summarize(parse("a > 5")))      # covered by 2
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
        index.add(1, summarize(parse("x >= 0")))
        index.add(2, summarize(parse("x > 5")))      # covered by 1
        index.add(3, summarize(parse("x > 0")))      # covered by 1, covers 2
        outcome = index.remove(1)
        assert outcome.newly_exposed == (3,)
        assert outcome.reabsorbed == {2: 3}
        assert outcome.absorbed == ()
        assert index.maximal_ids() == {3}
        assert index.covered_mapping() == {2: 3}

    def test_later_orphan_reabsorbs_under_earlier_promoted_one(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("x >= 0")))
        index.add(2, summarize(parse("x > 0")))              # covered by 1
        index.add(4, summarize(parse("x > 4 and y = 1")))    # covered by 1
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
        index.add(1, summarize(big))
        index.add(2, summarize(big))
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
                index.add(sid, summarize(subscription.expression))
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
            index.add(
                subscription.subscription_id,
                summarize(subscription.expression),
            )
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
            index.add(
                subscription.subscription_id,
                summarize(subscription.expression),
            )
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
            index.add(i, summarize(parse(f"price between [{i * 10}, {i * 10 + 4}]")))
        # disjoint bands: the interval prefilter resolves every pair
        assert index.covers_calls == 0
        assert index.interval_pruned > 0

    def test_signature_prefilter_prunes_disjoint_attributes(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("a > 0 and b > 0")))
        index.add(2, summarize(parse("c > 0")))
        assert index.maximal_ids() == {1, 2}
        assert index.covers_calls == 0
        assert index.signature_pruned > 0

    def test_keyed_lookup_tests_only_same_key_members(self):
        index = CoveringIndex()
        for i in range(10):
            index.add(i, summarize(parse(f"key = 'k{i}' and v > {i}")))
        hull_tests, pruned = index.hull_tests, index.interval_pruned
        outcome = index.add(10, summarize(parse("key = 'k3' and v > 5")))
        assert outcome.covered_by == 3
        # one hull test; the nine other keys are skipped unseen
        assert index.hull_tests - hull_tests == 1
        assert index.interval_pruned - pruned == 9

    def test_keyed_lookup_still_tests_wider_members(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("(x = 3 and y = 2) or (x = 4 and y = 1)")))
        index.add(2, summarize(parse("x = 3 and y = 5")))     # keyed under x = 3
        # a point on the key is tested against wider members as well
        assert index.add(3, summarize(parse("x = 3 and y = 2"))).covered_by == 1

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_keyed_lookup_keeps_ascending_id_order(self, wide_first):
        wide = parse("(x = 3 and y = 2) or (x = 4 and y = 1)")
        keyed = parse("(x = 3 and y = 2) or (x = 3 and y = 7)")
        index = CoveringIndex()
        index.add(1, summarize(wide if wide_first else keyed))
        index.add(2, summarize(keyed if wide_first else wide))
        # both maximal members cover it: the smaller id wins, whichever
        # of them sits in ``rest`` and whichever under x = 3
        assert index.add(3, summarize(parse("x = 3 and y = 2"))).covered_by == 1

    def test_point_coverer_hull_with_empty_clause_hull_is_not_keyed(self):
        index = CoveringIndex()
        index.add(1, summarize(parse("x = 3 and x in {5}")))  # coverer hull [3, 3]
        # unsatisfiable, so its clause hull is "empty": x = 5 must still
        # test it (and the exact test accepts through x in {5})
        assert index.add(2, summarize(parse("x = 5"))).newly_covered == (1,)

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
            index.add(identifier, summarize(expressions[identifier]))
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


def _edge_corpus() -> list:
    """Expressions on the corners of the keyed bucket lookup: points of
    different value domains, bool against int equality, one-value
    ``IN``, ORs of points, unsatisfiable clauses, NaN, set-valued points
    (ordered by inclusion, so the hull test passes ``{1}`` against
    ``{2}``) and an exploding DNF, mixed into three required-attribute
    signatures."""
    texts = [
        "x = 'a'",
        "x = 3",
        "x = 3.0",
        "x = true",
        "x = 1",
        "x in {3}",
        "x in {1, 2}",
        "x = 1 or x = 2",
        "x = 2",
        "x = 'a' or x = 3",
        "x = 1 and x = 2",          # unsatisfiable: an "empty" hull
        "x = 3 and x in {5}",       # point coverer hull, "empty" clause hull
        "x = 5",
        "x > 5 and x < 3",
        "x between [1, 3]",
        "x >= 1",
        "x > 'a'",
        "x != 3",
        "x = 3 and y = 1",
        "x = 'a' and y > 0",
        "x = 1 and y > 0",
        "(x = 1 and y = 1) or (x = 1 and y = 2)",
        "(x = 3 and y = 2) or (x = 4 and y = 1)",
        "x = 3 and y = 2",
        "x = 3 and y = 5",
        "y = 1",
    ]
    corpus = [parse(text) for text in texts]
    nan = leaf(Predicate("x", Operator.EQ, float("nan")))
    corpus.append(nan)
    corpus.append(conjunction([nan, parse("y = 1")]))
    for value in ({1}, {2}):
        corpus.append(leaf(Predicate("x", Operator.EQ, frozenset(value))))
    corpus.append(
        parse(
            "x = 3 and "
            + " and ".join(f"(a{i} = 1 or b{i} = 2)" for i in range(13))
        )
    )
    return corpus


class _FlatScan(CoveringIndex):
    """The search without keyed lookups: every maximal id of every
    admitted signature bucket gets a hull test, in ascending id order."""

    def _admitted(self, admits):
        for signature, bucket in self._buckets.items():
            if admits(signature):
                points = [i for ids in bucket.points.values() for i in ids]
                for candidate in sorted(bucket.rest + points):
                    self.hull_tests += 1
                    yield candidate

    def _find_coverer(self, covered):
        if covered.dnf is None:
            return None
        for candidate in self._admitted(lambda s: s <= covered.required):
            summary = self._summaries[candidate]
            if _hull_fits(summary, covered) and self._covers(summary, covered):
                return candidate
        return None

    def _find_covered(self, coverer):
        if coverer.dnf is None:
            return []
        return [
            candidate
            for candidate in self._admitted(lambda s: coverer.required <= s)
            if _hull_fits(coverer, self._summaries[candidate])
            and self._covers(coverer, self._summaries[candidate])
        ]


def _assert_pairwise_invariants(index, members, outcome, covers_matrix):
    """What pairwise ``covers()`` calls pin down about a poset kept by
    searching maximal members only; ``members`` maps live ids to corpus
    positions."""
    maximal = index.maximal_ids()
    covered_by = index.covered_mapping()
    assert maximal | set(covered_by) == set(members)
    assert not (maximal & set(covered_by))
    assert all(coverer in maximal for coverer in covered_by.values())
    # absorption completeness: no maximal member covers another
    for first in maximal:
        for second in maximal:
            assert first == second or not covers_matrix[members[first]][
                members[second]
            ], (first, second)
    # every relation the outcome reports rests on an exact test
    if hasattr(outcome, "newly_covered"):
        pairs = [(victim, outcome.identifier) for victim in outcome.newly_covered]
        if outcome.covered_by is not None:
            pairs.append((outcome.identifier, outcome.covered_by))
    else:
        pairs = list(outcome.reabsorbed.items())
    for covered, coverer in pairs:
        assert covers_matrix[members[coverer]][members[covered]], (
            covered,
            coverer,
        )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_edge_corpus_keyed_lookup_matches_flat_scan_under_churn(seed):
    """Keyed lookups skip only pairs the prefilters or the exact test
    reject: under add and remove churn of a mixed-domain corpus (with
    repeats, so equivalents meet), every outcome and the whole poset
    equal those of a flat scan, and the pairwise ``covers()``
    invariants hold after every mutation."""
    corpus = _edge_corpus()
    covers_matrix = [
        [covers(coverer, covered) for covered in corpus] for coverer in corpus
    ]
    rng = random.Random(seed)
    keyed, flat = CoveringIndex(), _FlatScan()
    members: dict[int, int] = {}
    for identifier in range(160):
        if members and rng.random() < 0.4:
            victim = rng.choice(sorted(members))
            outcome = keyed.remove(victim)
            assert flat.remove(victim) == outcome
            del members[victim]
            _assert_pairwise_invariants(keyed, members, outcome, covers_matrix)
        else:
            position = rng.randrange(len(corpus))
            members[identifier] = position
            summary = summarize(corpus[position])
            outcome = keyed.add(identifier, summary)
            assert flat.add(identifier, summary) == outcome
            _assert_pairwise_invariants(keyed, members, outcome, covers_matrix)
        assert keyed.maximal_ids() == flat.maximal_ids()
        assert keyed.covered_mapping() == flat.covered_mapping()
    # the lookup only ever drops hull and exact tests; the saving
    # itself is asserted on same-key corpora, where it applies
    assert keyed.hull_tests <= flat.hull_tests
    assert keyed.covers_calls <= flat.covers_calls


#: sha256 of every routing table's covering poset, after every write of
#: the churn below, with ids numbered in subscribe order.  Computed at
#: the commit before the keyed bucket lookup: the lookup must find the
#: same coverer that the flat bucket scan found.
GOLDEN_CHURN_POSET = (
    "2a98be7eaaaef8d80536098b702ba8457a99d82540a50d6c01367cbfdaa6ba32"
)


def test_poset_under_tree_churn_matches_golden_digest():
    network = BrokerNetwork(covering_enabled=True)
    topology = make_topology("tree", 8)
    topology.build(network, engine="noncanonical")
    scenario = NetworkChurnScenario(seed=4)
    ordinal: dict[int, int] = {}
    handles: dict[int, object] = {}
    digest = hashlib.sha256()
    writes = 0
    for op in scenario.ops(1450, topology.brokers):
        if op[0] == "publish":
            continue
        if op[0] == "subscribe":
            _, broker, subscription = op
            handle = network.subscribe(broker, subscription)
            ordinal[handle.id] = len(ordinal)
            handles[subscription.subscription_id] = handle
        else:
            network.unsubscribe(handles.pop(op[1]))
        writes += 1
        for broker in topology.brokers:
            for direction, index in sorted(
                network.routing_table(broker)._indexes.items()
            ):
                maximal = sorted(ordinal[i] for i in index.maximal_ids())
                mapping = sorted(
                    (ordinal[covered], ordinal[coverer])
                    for covered, coverer in index.covered_mapping().items()
                )
                digest.update(repr((broker, direction, maximal, mapping)).encode())
    assert writes == 592
    assert digest.hexdigest() == GOLDEN_CHURN_POSET


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
