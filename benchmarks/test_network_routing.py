"""Covering-index scaling and network-routing benchmark gates.

Two structural claims, counter-asserted rather than timed:

* **covering scales** — registering N subscriptions into the
  :class:`~repro.subscriptions.covering_index.CoveringIndex` performs
  o(N²) *exact* ``covers()`` tests on corpora where the prefilters
  apply (band-structured subscriptions): the index counts its exact
  tests and the bound is linear with a small constant, versus ~N²/2 for
  an all-pairs scan, and the keyed bucket lookup keeps interval
  (hull) tests to a few per add and per remove under churn;
* **the overlay routes** — 8-broker covering overlays loaded with the
  churn scenario's subscriptions carry a nonzero suppression ratio on
  every topology, at least :data:`NETWORK_TREE_MIN_SUPPRESSION` on the
  tree, and register strictly less than flooding overlays.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.broker import BrokerNetwork
from repro.subscriptions import CoveringIndex, parse, summarize
from repro.workloads import NetworkChurnScenario, make_topology

#: The quick-scale network workload is covering-rich by construction;
#: the tree-topology run must suppress at least this fraction of remote
#: registrations or the covering path has silently stopped engaging.
NETWORK_TREE_MIN_SUPPRESSION = 0.10

#: Registering N covering-friendly subscriptions into the CoveringIndex
#: must stay o(N²) in *exact* covers() calls: the benchmark asserts at
#: most this many exact tests per subscription on the band corpus (an
#: all-pairs scan would need ~N/2 per subscription, ~100× this at the
#: benchmark's N=512).
COVERING_MAX_EXACT_CALLS_PER_SUB = 6.0

#: On the churn corpus, interval-prefilter (hull) tests per add and per
#: remove: a signature bucket's keyed lookup must keep the searches to
#: the members that share the candidate's key value.
COVERING_MAX_HULL_TESTS_PER_ADD = 4.0
COVERING_MAX_HULL_TESTS_PER_REMOVE = 8.0


def test_covering_index_exact_tests_stay_subquadratic():
    """o(N²) exact covers() calls on a prefilter-friendly corpus."""
    population = 512
    keys = 32
    index = CoveringIndex()
    # band corpus: per key, one wide watch plus nested and shifted
    # bands — covering structure is dense, yet the signature and
    # interval prefilters resolve almost every candidate pair
    identifier = 0
    for key in range(keys):
        for band in range(population // keys):
            low = band * 17 % 500
            high = low + 40 + band
            index.add(
                identifier,
                summarize(
                    parse(
                        f"key = 'k{key:03d}' and "
                        f"value between [{low}, {high}]"
                    )
                ),
            )
            identifier += 1
    assert len(index) == population
    all_pairs = population * (population - 1) / 2
    budget = COVERING_MAX_EXACT_CALLS_PER_SUB * population
    assert index.covers_calls <= budget, (
        f"{index.covers_calls} exact covers() calls for {population} "
        f"adds — over the o(N²) budget of {budget:.0f} "
        f"(all-pairs would need ~{all_pairs:.0f})"
    )
    # the prefilters, not luck, did the pruning
    pruned = index.signature_pruned + index.interval_pruned
    assert pruned > all_pairs / 4


def test_covering_index_beats_all_pairs_even_with_churn():
    scenario = NetworkChurnScenario(seed=0)
    index = CoveringIndex()
    live = []
    total_adds = total_removes = 0
    add_hull_tests = remove_hull_tests = 0
    for step, subscription in enumerate(scenario.subscriptions(300)):
        before = index.hull_tests
        index.add(
            subscription.subscription_id, summarize(subscription.expression)
        )
        add_hull_tests += index.hull_tests - before
        live.append(subscription.subscription_id)
        total_adds += 1
        if step % 3 == 2:
            before = index.hull_tests
            index.remove(live.pop(0))
            remove_hull_tests += index.hull_tests - before
            total_removes += 1
    assert index.covers_calls <= 40 * total_adds  # ≪ N²/2 = 45_000
    # the keyed bucket lookup hull-tests only same-key members (about
    # 1.4 per add and 3.2 per remove here; a flat bucket scan tests
    # every maximal member of a bucket, 24.2 and 65.2)
    assert add_hull_tests <= COVERING_MAX_HULL_TESTS_PER_ADD * total_adds
    assert remove_hull_tests <= (
        COVERING_MAX_HULL_TESTS_PER_REMOVE * total_removes
    )


class OverlayShape(NamedTuple):
    """Table state of one loaded overlay."""

    suppression_ratio: float
    registrations_per_broker: float


def _load_overlay(topology, covering: bool) -> OverlayShape:
    """An 8-broker overlay loaded with the churn scenario's subscriptions."""
    network = topology.build(
        BrokerNetwork(covering_enabled=covering), engine="noncanonical"
    )
    subscriptions = NetworkChurnScenario(seed=0).subscriptions(32)
    placement = random.Random(97)
    homes = [placement.choice(topology.brokers) for _ in subscriptions]
    for home, subscription in zip(homes, subscriptions):
        network.subscribe(home, subscription, subscriber=subscription.subscriber)
    brokers = network.brokers()
    registrations = sum(broker.subscription_count for broker in brokers)
    for broker in brokers:
        broker.engine.close()
    return OverlayShape(
        network.suppression_ratio(), registrations / len(brokers)
    )


def test_quick_network_records_report_suppression():
    """Nonzero suppression on every topology, enough on the tree, and
    covering registers less than flooding."""
    covering, flooding = {}, {}
    for name in ("line", "star", "tree", "random"):
        topology = make_topology(name, 8, seed=0)
        covering[name] = _load_overlay(topology, covering=True)
        flooding[name] = _load_overlay(topology, covering=False)
    assert covering["tree"].suppression_ratio >= NETWORK_TREE_MIN_SUPPRESSION
    for topology, point in covering.items():
        assert point.suppression_ratio > 0.0
        # compaction: covering registers strictly less than flooding
        assert (
            point.registrations_per_broker
            < flooding[topology].registrations_per_broker
        )
