"""Brute-force (non-indexing) engine — correctness oracle and foil.

Paper §2.1's first category: approaches applying **no index structures**
(Elvin [16], BDD-based filtering [4]).  Every subscription's expression
is evaluated against every event, predicates are re-evaluated per
subscription ("without indexes several evaluations per attribute are
performed"), so matching time grows linearly with the number of
subscriptions with a steep gradient — which is why the paper rules these
out for large subscription counts despite their expressiveness.

In this repository the engine doubles as the *oracle*: its answers are
definitionally correct (direct evaluation of the user's expression), and
every other engine is property-tested against it.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping, Sequence

from ..events.event import Event
from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.registry import PredicateRegistry
from ..subscriptions.subscription import Subscription
from ..subscriptions.tree import SubscriptionTree
from .base import FilterEngine, UnknownSubscriptionError


class BruteForceEngine(FilterEngine):
    """Evaluate every registered subscription directly."""

    name = "brute-force"

    def __init__(
        self,
        *,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        super().__init__(registry=registry, indexes=indexes)
        self._cost_model = cost_model
        self._subscriptions: dict[int, Subscription] = {}
        #: compiled trees so match_fulfilled() can run phase-2-only
        #: comparisons in the benchmarks (ids resolved via the registry)
        self._trees: dict[int, SubscriptionTree] = {}

    def register(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        if sid in self._subscriptions:
            raise ValueError(f"subscription id {sid} already registered")
        tree = SubscriptionTree.from_expression(
            subscription.expression, self._register_predicate
        )
        self._subscriptions[sid] = subscription
        self._trees[sid] = tree

    def unregister(self, subscription_id: int) -> None:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            raise UnknownSubscriptionError(subscription_id)
        tree = self._trees.pop(subscription_id)
        for pid in tree.root.predicate_ids():
            self._release_predicate(pid)

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def subscription_ids(self) -> frozenset[int]:
        return frozenset(self._subscriptions)

    def match(self, event: Event) -> set[int]:
        """True non-index matching: evaluate each expression on the event.

        Predicates are re-evaluated once per occurrence per subscription,
        deliberately — that is what "no index structures" costs.
        """
        matched = {
            sid
            for sid, subscription in self._subscriptions.items()
            if subscription.matches(event)
        }
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += len(self._subscriptions)
        counters.matches_found += len(matched)
        return matched

    def match_batch(self, events: Sequence[Event]) -> list[set[int]]:
        """Per-event direct evaluation — this engine's ``match`` bypasses
        the shared indexes, so its batch path must too.

        One of the two documented exceptions to the one-per-event-method
        contract (see :mod:`repro.core.base`): as the oracle, this
        engine never consumes phase 1 on the full matching path.
        """
        return [self.match(event) for event in events]

    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Phase-2-only mode: evaluate every tree, no candidate selection."""
        matched = {
            sid
            for sid, tree in self._trees.items()
            if tree.evaluate(fulfilled_ids)
        }
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += len(self._trees)
        counters.matches_found += len(matched)
        return matched

    def memory_breakdown(self) -> Mapping[str, int]:
        """Tree bytes under the basic encoding cost model (no tables).

        Non-index approaches "show the best space efficiency" (§2.1):
        subscriptions only, no association or location tables.
        """
        from ..subscriptions.encoding import BasicTreeCodec

        codec = BasicTreeCodec()
        return {
            "subscription_trees": sum(
                codec.encoded_size(tree) for tree in self._trees.values()
            ),
        }
