"""Matching-tree engine: the multi-dimensional baseline (paper §2.1).

Paper §2.1's third algorithm category applies **multi-dimensional
indexes** — "popular multi-dimensional algorithms are tree-based, such as
the approaches from Gough [9] and Aguilera [1].  There traversing a
matching tree results in obtaining all matching subscriptions, since
only conjunctive subscriptions can be used."

This engine implements that design: conjunctive subscriptions (arbitrary
Boolean ones are DNF-transformed first, like the counting baselines) are
arranged in a decision tree with one level per attribute.  Each inner
node holds the predicate-labelled edges of subscriptions constraining
that attribute plus a *don't-care* edge; matching walks the tree once,
following every satisfied edge — "matching using multi-dimensional
indexes allows for the evaluation of required predicates only, i.e.,
evaluated predicates depend on already fulfilled ones."

The paper's space argument is visible in the implementation:
"multi-dimensional ones might index predicates several times depending
on other predicates of their subscriptions" — a predicate appears once
per distinct tree path that reaches it, and the don't-care chains add
per-node overhead, which is why :meth:`memory_breakdown` typically
exceeds the one-dimensional engines' (claim §2.1, bench C5).
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.registry import PredicateRegistry
from ..subscriptions.normal_forms import to_dnf
from ..subscriptions.subscription import Subscription
from .base import (
    FilterEngine,
    UnknownSubscriptionError,
    UnsupportedSubscriptionError,
)


class _TreeNode:
    """One level of the matching tree (one attribute).

    ``edges`` maps a frozenset of predicate ids (the clause's constraints
    on this attribute — usually a single predicate) to the child node;
    ``star`` is the don't-care child; ``results`` holds the subscription
    ids of clauses whose constraints are exhausted at this depth.
    """

    __slots__ = ("edges", "star", "results")

    def __init__(self) -> None:
        self.edges: dict[frozenset[int], "_TreeNode"] = {}
        self.star: "_TreeNode | None" = None
        self.results: set[int] = set()


class MatchingTreeEngine(FilterEngine):
    """Conjunctive matching via a per-attribute decision tree.

    Parameters
    ----------
    complement_operators / max_clauses:
        As for :class:`~repro.core.counting.CountingEngine` — the
        canonical DNF pipeline feeds this engine too.
    """

    name = "matching-tree"

    def __init__(
        self,
        *,
        complement_operators: bool = False,
        max_clauses: int = 4_000_000,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        super().__init__(registry=registry, indexes=indexes)
        self._complement_operators = complement_operators
        self._max_clauses = max_clauses
        self._cost_model = cost_model
        #: attribute name -> tree level (insertion order = level order)
        self._levels: list[str] = []
        self._level_of: dict[str, int] = {}
        self._root = _TreeNode()
        #: id(s) -> [per-clause (level constraints, pids)] for unsubscription
        self._clauses: dict[int, list[dict[int, frozenset[int]]]] = {}
        self._clause_count = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        if sid in self._clauses:
            raise ValueError(f"subscription id {sid} already registered")
        dnf = to_dnf(
            subscription.expression,
            max_clauses=self._max_clauses,
            complement_operators=self._complement_operators,
        )
        prepared: list[dict[int, frozenset[int]]] = []
        for clause in dnf:
            if clause.has_negative_literals():
                raise UnsupportedSubscriptionError(
                    "matching trees host conjunctions of positive predicates "
                    f"only; cannot register {clause!r}"
                )
            by_level: dict[int, set[int]] = {}
            # a fixed visiting order: tree levels and predicate ids must
            # not follow the clause's hash-seeded set order
            for predicate in sorted(clause.positive_predicates(), key=str):
                pid = self._register_predicate(predicate)
                level = self._level_for(predicate.attribute)
                by_level.setdefault(level, set()).add(pid)
            prepared.append(
                {level: frozenset(pids) for level, pids in by_level.items()}
            )
        for constraints in prepared:
            self._insert_clause(constraints, sid)
            self._clause_count += 1
        self._clauses[sid] = prepared

    def _level_for(self, attribute: str) -> int:
        level = self._level_of.get(attribute)
        if level is None:
            level = len(self._levels)
            self._level_of[attribute] = level
            self._levels.append(attribute)
        return level

    def _insert_clause(
        self, constraints: Mapping[int, frozenset[int]], sid: int
    ) -> None:
        node = self._root
        deepest = max(constraints) if constraints else -1
        for level in range(deepest + 1):
            key = constraints.get(level)
            if key is None:
                if node.star is None:
                    node.star = _TreeNode()
                node = node.star
            else:
                child = node.edges.get(key)
                if child is None:
                    child = _TreeNode()
                    node.edges[key] = child
                node = child
        node.results.add(sid)

    # ------------------------------------------------------------------
    # unsubscription
    # ------------------------------------------------------------------
    def unregister(self, subscription_id: int) -> None:
        prepared = self._clauses.pop(subscription_id, None)
        if prepared is None:
            raise UnknownSubscriptionError(subscription_id)
        for constraints in prepared:
            self._remove_clause(self._root, 0, constraints, subscription_id)
            self._clause_count -= 1
            for pids in constraints.values():
                for pid in pids:
                    self._release_predicate(pid)

    def _remove_clause(
        self,
        node: _TreeNode,
        level: int,
        constraints: Mapping[int, frozenset[int]],
        sid: int,
    ) -> bool:
        """Remove one clause; returns True when ``node`` became empty."""
        deepest = max(constraints) if constraints else -1
        if level > deepest:
            node.results.discard(sid)
        else:
            key = constraints.get(level)
            if key is None:
                child = node.star
                if child is not None and self._remove_clause(
                    child, level + 1, constraints, sid
                ):
                    node.star = None
            else:
                child = node.edges.get(key)
                if child is not None and self._remove_clause(
                    child, level + 1, constraints, sid
                ):
                    del node.edges[key]
        return not node.results and not node.edges and node.star is None

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------
    @property
    def subscription_count(self) -> int:
        return len(self._clauses)

    @property
    def stored_subscription_count(self) -> int:
        return self._clause_count

    def subscription_ids(self) -> frozenset[int]:
        return frozenset(self._clauses)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Walk the tree following the don't-care edge plus every edge
        whose predicates are all fulfilled."""
        matched: set[int] = set()
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.results:
                matched.update(node.results)
            if node.star is not None:
                stack.append(node.star)
            for key, child in node.edges.items():
                if key <= fulfilled_ids:
                    stack.append(child)
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += visited  # tree nodes walked
        counters.matches_found += len(matched)
        return matched

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> Mapping[str, int]:
        """Tree bytes: per node a star pointer, per edge its predicate
        ids plus a child pointer, per result a subscription id."""
        model = self._cost_model
        nodes = 0
        edge_predicate_refs = 0
        edge_count = 0
        result_refs = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            result_refs += len(node.results)
            if node.star is not None:
                stack.append(node.star)
            for key, child in node.edges.items():
                edge_count += 1
                edge_predicate_refs += len(key)
                stack.append(child)
        return {
            "tree_nodes": nodes * model.pointer_bytes,
            "tree_edges": (
                edge_count * model.pointer_bytes
                + edge_predicate_refs * model.predicate_id_bytes
            ),
            "result_sets": result_refs * model.subscription_id_bytes,
        }
