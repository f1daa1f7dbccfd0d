"""Incremental covering poset over a subscription population.

:class:`CoveringIndex` maintains, under ``add``/``remove`` churn, the
partition of a subscription set into **maximal** members (covered by no
other live member) and **covered** members (each mapped to one maximal
coverer).  Broker routing tables keep only the maximal set registered;
the mapping supports re-absorbing covered members when their coverer is
withdrawn (Mühl & Fiege routing-table compaction, which the paper cites
as [14]).

What makes it cheap:

* **one DNF per member** — each member's DNF is derived once, inside
  its :func:`~repro.subscriptions.summary.summarize` summary, and kept
  in the per-id summary until the member is removed, so no exact test
  ever re-derives a normal form.  ``add`` accepts that summary from a
  caller that already derived it: a broker network summarizes a
  subscribe once and hands the summary to every routing table;
* **attribute-signature prefilter** — maximal ids are bucketed by their
  *required attribute set* (attributes appearing in every DNF clause).
  A coverer's required set is necessarily a subset of the covered
  expression's required set, so whole buckets are skipped with one
  frozenset comparison;
* **operator-interval prefilter** — per attribute, each expression
  carries an interval *hull* (coverer role) and per-clause intersection
  hulls (covered role); containment between them is a necessary
  condition of the layered covering test whenever the coverer
  constrains the attribute in every clause, so band-structured corpora
  (price bands, value ranges) resolve almost every candidate pair
  without an exact clause-level test;
* **keyed bucket lookup** — each signature bucket keys its ids on one
  attribute of its signature (the smallest name, fixed for the bucket's
  lifetime).  Ids whose coverer hull and covered hull there are both the
  closed point ``[v, v]`` of a number or string sit in ``points[v]``;
  every other id sits in one ``rest`` list.  A search whose partner
  hull on the key is the point ``v`` reads only ``points[v]`` and
  ``rest``; any other search reads every id.  The lookup pays off only
  when that smallest attribute is pinned to an equality point (as
  ``key`` is in every covering workload).  The skipped ids are
  exactly ones the interval prefilter rejects (or, across value
  domains, ones the exact test rejects: an equality literal is implied
  only by a literal of its own domain), so the scan finds the same
  first coverer in the same ascending-id order, with a hull test per
  *plausible* member instead of per member.

All three prefilters are *necessary conditions* of the layered test in
:mod:`repro.subscriptions.covering` — they never prune a pair the exact
test would accept — so the index computes exactly the poset that
pairwise ``covers()`` calls would, in ``o(N²)`` exact tests on corpora
where the prefilters apply (the :attr:`CoveringIndex.covers_calls`
counter is asserted against in ``benchmarks/test_network_routing.py``).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .ast import BooleanExpression
from .covering import _interval_contains, dnf_covers
from .summary import ExpressionSummary as _Summary, Interval, summarize

__all__ = [
    "AddOutcome",
    "CoveringIndex",
    "Interval",
    "RemoveOutcome",
    "summarize",
]


def _hull_fits(coverer: _Summary, covered: _Summary) -> bool:
    """Operator-interval prefilter: necessary containment per attribute."""
    for attribute, outer in coverer.hulls.items():
        inner = covered.clause_hulls.get(attribute)
        if inner is None:
            continue          # unusable summary on that attribute: pass
        if inner == "empty":
            continue          # vacuously contained
        try:
            if not _interval_contains(outer, inner):
                return False
        except TypeError:
            continue
    return True


#: Value types whose points are keyed: totally ordered within a domain
#: (numbers, strings), and a ``TypeError`` across domains.  A point of
#: any other type (a frozenset, say) is treated as no point at all.
_KEYED_TYPES = frozenset((int, float, str, bool))


def _point(hull):
    """``v`` when ``hull`` is the closed one-point interval ``[v, v]``
    of a keyed type, else ``None`` (also for NaN, which equals
    nothing)."""
    if (
        isinstance(hull, tuple)
        and type(hull[0]) in _KEYED_TYPES
        and hull[0] == hull[1]
        and hull[2]
        and hull[3]
    ):
        return hull[0]
    return None


class _Bucket:
    """The maximal ids of one required-attribute signature, keyed on
    the signature's smallest attribute name.

    ``points[v]`` holds the ids whose coverer hull *and* covered hull on
    the key are both the closed point ``[v, v]``; ``rest`` holds every
    other id (wider or missing hulls, ``"empty"`` clause hulls, NaN, an
    empty signature).  Every list stays sorted, so merged scans visit
    candidates in ascending id order.
    """

    __slots__ = ("key", "points", "rest", "size")

    def __init__(self, signature: frozenset) -> None:
        self.key = min(signature, default=None)
        self.points: dict[object, list[int]] = {}
        self.rest: list[int] = []
        self.size = 0

    def _point_of(self, summary: _Summary):
        """The member's key point, or ``None`` when it belongs in
        ``rest``: both its hulls on the key must be the same point."""
        hull = summary.hulls.get(self.key)
        point = _point(hull)
        if point is not None and hull == summary.clause_hulls.get(self.key):
            return point
        return None

    def insert(self, identifier: int, summary: _Summary) -> None:
        point = self._point_of(summary)
        slot = self.rest if point is None else self.points.setdefault(point, [])
        bisect.insort(slot, identifier)
        self.size += 1

    def discard(self, identifier: int, summary: _Summary) -> None:
        point = self._point_of(summary)
        if point is None:
            self.rest.remove(identifier)
        else:
            slot = self.points[point]
            slot.remove(identifier)
            if not slot:
                del self.points[point]
        self.size -= 1

    def _at(self, point) -> tuple[Iterable[int], int]:
        same = self.points.get(point)
        if not same:
            return self.rest, len(self.rest)
        if not self.rest:
            return same, len(same)
        return heapq.merge(same, self.rest), len(same) + len(self.rest)

    def _every(self) -> tuple[Iterable[int], int]:
        if not self.points:
            return self.rest, self.size
        return heapq.merge(self.rest, *self.points.values()), self.size

    def coverer_candidates(
        self, covered: _Summary
    ) -> tuple[Iterable[int], int]:
        """Ids that may cover ``covered`` (ascending), and their count."""
        point = _point(covered.clause_hulls.get(self.key))
        if point is not None:
            return self._at(point)
        return self._every()

    def covered_candidates(
        self, coverer: _Summary
    ) -> tuple[Iterable[int], int]:
        """Ids ``coverer`` may cover (ascending), and their count."""
        point = _point(coverer.hulls.get(self.key))
        if point is not None:
            return self._at(point)
        return self._every()


@dataclass(frozen=True)
class AddOutcome:
    """What :meth:`CoveringIndex.add` changed.

    ``covered_by`` is set when the new id arrived already covered by a
    live maximal member.  ``newly_covered`` lists previously-maximal ids
    the new member absorbed (their covered subtrees re-root to the new
    id as well) — a routing table unregisters exactly these.
    """

    identifier: int
    covered_by: int | None = None
    newly_covered: tuple[int, ...] = ()


@dataclass(frozen=True)
class RemoveOutcome:
    """What :meth:`CoveringIndex.remove` changed.

    ``reabsorbed`` maps orphans that found another live coverer to that
    coverer (they stay suppressed); ``newly_exposed`` lists orphans
    promoted to maximal — a routing table reinstates exactly these.
    ``absorbed`` lists *pre-existing* maximal members a promoted orphan
    turned out to cover (the layered test can miss transitive relations
    at add time and see them on re-check) — a routing table unregisters
    exactly these.
    """

    identifier: int
    was_covered: bool
    coverer: int | None = None
    reabsorbed: Mapping[int, int] = field(default_factory=dict)
    newly_exposed: tuple[int, ...] = ()
    absorbed: tuple[int, ...] = ()


class CoveringIndex:
    """The covering partial order, maintained incrementally.

    Members whose DNF exceeds the summary clause cap
    (:data:`~repro.subscriptions.summary.MAX_CLAUSES`) never cover and
    are never covered — the conservative-false semantics of
    :func:`~repro.subscriptions.covering.covers`.
    """

    def __init__(self) -> None:
        self._summaries: dict[int, _Summary] = {}
        self._covered_by: dict[int, int] = {}
        self._children: dict[int, set[int]] = {}
        self._maximal: set[int] = set()
        #: maximal ids with a usable DNF, bucketed by required-attribute
        #: signature — the unit the signature prefilter skips — and
        #: keyed inside each bucket (see :class:`_Bucket`)
        self._buckets: dict[frozenset, _Bucket] = {}
        #: exact clause-level covering tests performed (the o(N²) claim)
        self.covers_calls = 0
        #: candidate ids discarded by the signature prefilter
        self.signature_pruned = 0
        #: candidate ids discarded by the interval prefilter, whether a
        #: hull test rejected them or the keyed lookup skipped them
        self.interval_pruned = 0
        #: interval-prefilter (hull containment) tests evaluated
        self.hull_tests = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._summaries)

    def __contains__(self, identifier: int) -> bool:
        return identifier in self._summaries

    def maximal_ids(self) -> frozenset:
        """Ids covered by no other live member."""
        return frozenset(self._maximal)

    def covered_mapping(self) -> dict[int, int]:
        """Covered id -> its (maximal) coverer."""
        return dict(self._covered_by)

    def covered_count(self) -> int:
        """Number of covered ids (no mapping materialization)."""
        return len(self._covered_by)

    def coverer_of(self, identifier: int) -> int | None:
        """The id suppressing ``identifier``, or ``None`` if maximal."""
        return self._covered_by.get(identifier)

    def is_covered(self, identifier: int) -> bool:
        """Whether ``identifier`` is currently covered."""
        return identifier in self._covered_by

    def ids(self) -> Iterator[int]:
        """Every live id."""
        return iter(self._summaries)

    # ------------------------------------------------------------------
    # the exact test (counted)
    # ------------------------------------------------------------------
    def _covers(self, coverer: _Summary, covered: _Summary) -> bool:
        if coverer.dnf is None or covered.dnf is None:
            return False
        self.covers_calls += 1
        return dnf_covers(coverer.dnf, covered.dnf)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(
        self, identifier: int, expression: BooleanExpression | _Summary
    ) -> AddOutcome:
        """Insert one member and restitch the poset around it.

        ``expression`` is the member's expression, or its summary when
        the caller already derived one.  Never rescans the full set:
        candidate coverers come from the signature buckets, and only
        *maximal* ids are tested in either direction (covered ids
        already ride their coverer).
        """
        if identifier in self._summaries:
            raise ValueError(f"id {identifier} already present")
        summary = (
            expression
            if isinstance(expression, _Summary)
            else summarize(expression)
        )
        self._summaries[identifier] = summary
        coverer = self._find_coverer(summary)
        if coverer is not None:
            self._covered_by[identifier] = coverer
            self._children.setdefault(coverer, set()).add(identifier)
            return AddOutcome(identifier, covered_by=coverer)
        # the new member is maximal: see whether it absorbs any current
        # maximal members (later-arriving wide subscriptions compact the
        # table retroactively)
        absorbed = tuple(sorted(self._find_covered(summary)))
        self._set_maximal(identifier, summary)
        for victim in absorbed:
            self._absorb(victim, into=identifier)
        return AddOutcome(identifier, newly_covered=absorbed)

    def _absorb(self, victim: int, *, into: int) -> None:
        """Demote a maximal ``victim`` under coverer ``into``, re-rooting
        its covered subtree (sound by transitivity of semantic covering:
        ``into`` ⊇ ``victim`` ⊇ each child)."""
        self._unset_maximal(victim, self._summaries[victim])
        self._covered_by[victim] = into
        children = self._children.pop(victim, set())
        subtree = self._children.setdefault(into, set())
        subtree.add(victim)
        for child in children:
            self._covered_by[child] = into
            subtree.add(child)

    def remove(self, identifier: int) -> RemoveOutcome:
        """Withdraw one member, re-absorbing its orphans where possible.

        Orphans of a removed maximal member first look for another live
        coverer (they stay covered, under new ownership); only those
        with none are promoted to maximal — and a promoted orphan can
        itself re-absorb later orphans of the same removal.
        """
        summary = self._summaries.pop(identifier, None)
        if summary is None:
            raise KeyError(f"id {identifier} not present")
        coverer = self._covered_by.pop(identifier, None)
        if coverer is not None:
            self._children[coverer].discard(identifier)
            return RemoveOutcome(identifier, was_covered=True, coverer=coverer)
        self._unset_maximal(identifier, summary)
        orphans = sorted(self._children.pop(identifier, ()))
        reabsorbed: dict[int, int] = {}
        #: promoted orphans in promotion order (a dict: O(1) demotion
        #: when a later orphan absorbs one)
        newly_exposed: dict[int, None] = {}
        absorbed: list[int] = []
        for orphan in orphans:
            del self._covered_by[orphan]
            orphan_summary = self._summaries[orphan]
            new_coverer = self._find_coverer(orphan_summary)
            if new_coverer is not None:
                self._covered_by[orphan] = new_coverer
                self._children.setdefault(new_coverer, set()).add(orphan)
                reabsorbed[orphan] = new_coverer
                continue
            # promote — with the same absorb step add() performs, so a
            # wide orphan re-covers its earlier-promoted siblings (and
            # any maximal the layered test only now relates to it)
            victims = self._find_covered(orphan_summary)
            self._set_maximal(orphan, orphan_summary)
            for victim in victims:
                self._absorb(victim, into=orphan)
                if victim in newly_exposed:
                    del newly_exposed[victim]
                    reabsorbed[victim] = orphan
                else:
                    absorbed.append(victim)
            newly_exposed[orphan] = None
        return RemoveOutcome(
            identifier,
            was_covered=False,
            reabsorbed=reabsorbed,
            newly_exposed=tuple(newly_exposed),
            absorbed=tuple(absorbed),
        )

    # ------------------------------------------------------------------
    # poset bookkeeping
    # ------------------------------------------------------------------
    def _set_maximal(self, identifier: int, summary: _Summary) -> None:
        self._maximal.add(identifier)
        if summary.dnf is not None:
            bucket = self._buckets.get(summary.required)
            if bucket is None:
                bucket = self._buckets[summary.required] = _Bucket(
                    summary.required
                )
            bucket.insert(identifier, summary)

    def _unset_maximal(self, identifier: int, summary: _Summary) -> None:
        self._maximal.discard(identifier)
        if summary.dnf is not None:
            bucket = self._buckets.get(summary.required)
            if bucket is not None:
                bucket.discard(identifier, summary)
                if not bucket.size:
                    del self._buckets[summary.required]

    # ------------------------------------------------------------------
    # candidate search
    # ------------------------------------------------------------------
    def _find_coverer(self, covered: _Summary) -> int | None:
        """A live maximal id whose expression covers ``covered``."""
        if covered.dnf is None:
            return None
        for signature, bucket in self._buckets.items():
            # a coverer's required attributes are a subset of the
            # covered expression's (necessary for the layered test)
            if not signature <= covered.required:
                self.signature_pruned += bucket.size
                continue
            candidates, count = bucket.coverer_candidates(covered)
            self.interval_pruned += bucket.size - count
            for candidate in candidates:
                summary = self._summaries[candidate]
                self.hull_tests += 1
                if not _hull_fits(summary, covered):
                    self.interval_pruned += 1
                    continue
                if self._covers(summary, covered):
                    return candidate
        return None

    def _find_covered(self, coverer: _Summary) -> list[int]:
        """Live maximal ids that ``coverer`` covers."""
        if coverer.dnf is None:
            return []
        found: list[int] = []
        for signature, bucket in self._buckets.items():
            if not coverer.required <= signature:
                self.signature_pruned += bucket.size
                continue
            candidates, count = bucket.covered_candidates(coverer)
            self.interval_pruned += bucket.size - count
            for candidate in candidates:
                summary = self._summaries[candidate]
                self.hull_tests += 1
                if not _hull_fits(coverer, summary):
                    self.interval_pruned += 1
                    continue
                if self._covers(coverer, summary):
                    found.append(candidate)
        return found
