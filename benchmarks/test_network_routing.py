"""Covering-index scaling and network-routing benchmark gates.

Two structural claims, counter-asserted rather than timed:

* **covering scales** — registering N subscriptions into the
  :class:`~repro.subscriptions.covering_index.CoveringIndex` performs
  o(N²) *exact* ``covers()`` tests on corpora where the prefilters
  apply (band-structured subscriptions): the index counts its exact
  tests and the bound is linear with a small constant, versus ~N²/2 for
  an all-pairs scan;
* **the network sweep routes** — the covering overlays of
  :func:`~repro.experiments.harness.run_network_sweep` carry a nonzero
  suppression ratio on every topology, at least
  :data:`NETWORK_TREE_MIN_SUPPRESSION` on the tree, and register
  strictly less than flooding.
"""

from __future__ import annotations

from repro.experiments.harness import run_network_sweep
from repro.subscriptions import CoveringIndex, parse
from repro.workloads import NetworkChurnScenario

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
                parse(
                    f"key = 'k{key:03d}' and "
                    f"value between [{low}, {high}]"
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
    total_adds = 0
    for step, subscription in enumerate(scenario.subscriptions(300)):
        index.add(subscription.subscription_id, subscription.expression)
        live.append(subscription.subscription_id)
        total_adds += 1
        if step % 3 == 2:
            index.remove(live.pop(0))
    assert index.covers_calls <= 40 * total_adds  # ≪ N²/2 = 45_000


def test_quick_network_records_report_suppression():
    """The network sweep: nonzero suppression on every topology, enough
    on the tree, and covering registers less than flooding."""
    points = run_network_sweep(
        topologies=("line", "star", "tree", "random"),
        broker_count=8,
        subscription_count=32,
        event_count=128,
        batch_size=64,
        engine="noncanonical",
        covering=(True, False),
        repeats=1,
    )
    covering = {p.topology: p for p in points if p.covering}
    flooding = {p.topology: p for p in points if not p.covering}
    assert covering["tree"].suppression_ratio >= NETWORK_TREE_MIN_SUPPRESSION
    for topology, point in covering.items():
        assert point.suppression_ratio > 0.0
        # compaction: covering registers strictly less than flooding
        assert (
            point.registrations_per_broker
            < flooding[topology].registrations_per_broker
        )
