"""The counting algorithm and its candidate-driven variant (baselines).

The counting algorithm [15, 17] is the classical conjunctive matcher:
for each (transformed) subscription it stores only *how many* predicates
the subscription has; phase 2 increments a per-subscription hit counter
for every fulfilled predicate and declares a match when the counter
reaches the stored count.

Arbitrary Boolean subscriptions must first be rewritten into DNF and
every clause registered as a separate conjunctive subscription — "these
algorithms treat disjunctions as several subscriptions" (paper §2).
:class:`CountingEngine` implements exactly that pipeline, with the
memory-friendly array layout of paper §3.3 (1-byte hit and count vector
entries, at most 255 predicates per clause, following [2]).

:class:`CountingVariantEngine` is the paper's §3.3 improvement: instead
of comparing the whole hit vector against the whole count vector, it
records the clauses touched by fulfilled predicates and compares only
those — making phase 2 depend on the number of matching predicates
rather than the total number of subscriptions.

Unsubscription (paper §2.1/§3.3): the memory-friendly layout does *not*
keep per-subscription predicate lists, so removing a subscription
requires scanning the entire association table.  Constructing the engine
with ``support_unsubscription=True`` adds the per-subscription lists
(costing memory) and makes removal direct; ablation A5 measures the
difference.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.predicate import Predicate
from ..predicates.registry import PredicateRegistry
from ..subscriptions.normal_forms import to_dnf
from ..subscriptions.subscription import Subscription
from .base import (
    FilterEngine,
    UnknownSubscriptionError,
    UnsupportedSubscriptionError,
)
from .bitset import FulfilledMatrix

MAX_CLAUSE_PREDICATES = 255


class CountingEngine(FilterEngine):
    """DNF transformation + classical counting (full-vector comparison).

    Parameters
    ----------
    support_unsubscription:
        Keep per-subscription predicate lists so :meth:`unregister` is
        direct.  Off by default — the paper's memory-friendly baseline
        omits them; unsubscription then falls back to a full association
        table scan.
    max_clauses:
        Safety cap forwarded to the DNF transformation.
    complement_operators:
        Negate comparisons by operator flipping during the DNF rewrite
        (``NOT a > 5`` → ``a <= 5``).  Lets the conjunctive pipeline
        accept NOT over comparisons, but is only sound when subscribed
        attributes are guaranteed present on events (see
        :func:`repro.subscriptions.normal_forms.to_nnf`).  Off by
        default; NOT-bearing subscriptions are then rejected with
        :class:`UnsupportedSubscriptionError`.
    """

    name = "counting"

    def __init__(
        self,
        *,
        support_unsubscription: bool = False,
        max_clauses: int = 4_000_000,
        complement_operators: bool = False,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        super().__init__(registry=registry, indexes=indexes)
        self._support_unsubscription = support_unsubscription
        self._max_clauses = max_clauses
        self._complement_operators = complement_operators
        self._cost_model = cost_model
        #: subscription-predicate count vector (1 byte per clause; 0 = free slot)
        self._counts = bytearray()
        #: hit vector (1 byte per clause, zeroed between events)
        self._hits = bytearray()
        #: clause index -> original subscription id (0 = free slot)
        self._clause_subscription: list[int] = []
        #: clause index -> required predicate ids, the batch kernel's
        #: requirement mask (() = free slot)
        self._clause_pids: list[tuple[int, ...]] = []
        self._free_clause_slots: list[int] = []
        #: association table: id(p) -> [clause indexes]
        self._association: dict[int, list[int]] = {}
        #: original id(s) -> clause bookkeeping (only with unsubscription support)
        self._subscription_clauses: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self._original_ids: set[int] = set()
        self._live_clause_count = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, subscription: Subscription) -> None:
        """Transform to DNF and register every clause separately."""
        sid = subscription.subscription_id
        if sid in self._original_ids:
            raise ValueError(f"subscription id {sid} already registered")
        dnf = to_dnf(
            subscription.expression,
            max_clauses=self._max_clauses,
            complement_operators=self._complement_operators,
        )
        clause_records: list[tuple[int, tuple[int, ...]]] = []
        prepared: list[tuple[frozenset[Predicate], int]] = []
        for clause in dnf:
            if clause.has_negative_literals():
                raise UnsupportedSubscriptionError(
                    "DNF clause contains a negative literal over an operator "
                    "without a complement; the conjunctive counting pipeline "
                    f"cannot register it: {clause!r}"
                )
            predicates = frozenset(clause.positive_predicates())
            if len(predicates) > MAX_CLAUSE_PREDICATES:
                raise UnsupportedSubscriptionError(
                    f"clause has {len(predicates)} predicates; the 1-byte "
                    f"counter layout caps at {MAX_CLAUSE_PREDICATES} (§3.3)"
                )
            prepared.append((predicates, len(predicates)))
        for predicates, count in prepared:
            clause_index = self._allocate_clause(count, sid)
            pids = []
            for predicate in predicates:
                pid = self._register_predicate(predicate)
                self._association.setdefault(pid, []).append(clause_index)
                pids.append(pid)
            pids = tuple(pids)
            self._clause_pids[clause_index] = pids
            clause_records.append((clause_index, pids))
        self._original_ids.add(sid)
        if self._support_unsubscription:
            self._subscription_clauses[sid] = clause_records

    def _allocate_clause(self, count: int, sid: int) -> int:
        if self._free_clause_slots:
            index = self._free_clause_slots.pop()
            self._counts[index] = count
            self._clause_subscription[index] = sid
        else:
            index = len(self._counts)
            self._counts.append(count)
            self._hits.append(0)
            self._clause_subscription.append(sid)
            self._clause_pids.append(())
        self._live_clause_count += 1
        return index

    # ------------------------------------------------------------------
    # unsubscription
    # ------------------------------------------------------------------
    def unregister(self, subscription_id: int) -> None:
        """Remove a subscription (all its clauses).

        With ``support_unsubscription`` the per-subscription lists drive
        the cleanup; without them this degrades to the full association
        table scan the paper's §3.2 footnote describes.
        """
        if subscription_id not in self._original_ids:
            raise UnknownSubscriptionError(subscription_id)
        if self._support_unsubscription:
            records = self._subscription_clauses.pop(subscription_id)
            for clause_index, pids in records:
                for pid in pids:
                    clauses = self._association.get(pid)
                    if clauses is not None:
                        clauses.remove(clause_index)
                        if not clauses:
                            del self._association[pid]
                    self._release_predicate(pid)
                self._free_clause(clause_index)
        else:
            self._unregister_by_scan(subscription_id)
        self._original_ids.discard(subscription_id)

    def _unregister_by_scan(self, subscription_id: int) -> None:
        """The expensive path: walk the whole association table."""
        doomed = {
            index
            for index, sid in enumerate(self._clause_subscription)
            if sid == subscription_id and self._counts[index] != 0
        }
        released: list[int] = []
        for pid in list(self._association):
            clauses = self._association[pid]
            kept = [c for c in clauses if c not in doomed]
            removed = len(clauses) - len(kept)
            if removed:
                released.extend([pid] * removed)
                if kept:
                    self._association[pid] = kept
                else:
                    del self._association[pid]
        for pid in released:
            self._release_predicate(pid)
        for clause_index in doomed:
            self._free_clause(clause_index)

    def _free_clause(self, clause_index: int) -> None:
        self._counts[clause_index] = 0
        self._hits[clause_index] = 0
        self._clause_subscription[clause_index] = 0
        self._clause_pids[clause_index] = ()
        self._free_clause_slots.append(clause_index)
        self._live_clause_count -= 1

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------
    @property
    def subscription_count(self) -> int:
        return len(self._original_ids)

    def subscription_ids(self) -> frozenset[int]:
        return frozenset(self._original_ids)

    @property
    def stored_subscription_count(self) -> int:
        """Live post-transformation clause count."""
        return self._live_clause_count

    @property
    def supports_unsubscription(self) -> bool:
        """Whether per-subscription predicate lists are kept."""
        return self._support_unsubscription

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Classical counting: increment hits, compare *every* clause.

        The comparison loop runs over the full clause range regardless of
        how many predicates matched — this is the linear-in-N behaviour
        Fig. 3 shows.
        """
        hits = self._hits
        association = self._association
        for pid in fulfilled_ids:
            clauses = association.get(pid)
            if clauses is not None:
                for clause_index in clauses:
                    hits[clause_index] += 1
        matched: set[int] = set()
        clause_subscription = self._clause_subscription
        for clause_index, required in enumerate(self._counts):
            if required and hits[clause_index] == required:
                matched.add(clause_subscription[clause_index])
        hits[:] = bytes(len(hits))  # zero for the next event
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += len(self._counts)  # full-vector scan
        counters.matches_found += len(matched)
        return matched

    def match_fulfilled_matrix(self, matrix: FulfilledMatrix) -> list[set[int]]:
        """Counting over the batch: requirement-mask AND per clause.

        A clause matches event ``i`` iff every required predicate's
        column has bit ``i`` set — so AND-ing the clause's columns tests
        "hit count equals required count" for *all* events in a couple
        of int operations, replacing the per-event hit-vector increment
        and full-vector comparison.  The scan still visits every live
        clause (the linear-in-N behaviour this engine exists to
        exhibit); ``candidates_probed`` therefore ticks once per live
        clause *per batch* — the amortization the kernel buys — where
        the per-event paths tick per event.
        """
        event_count = matrix.event_count
        if event_count == 0:
            return []
        all_events = matrix.all_events_mask
        columns = matrix.columns_to(self.indexes.width)
        clause_pids = self._clause_pids
        clause_subscription = self._clause_subscription
        results: list[set[int]] = [set() for _ in range(event_count)]
        probed = 0
        for clause_index, required in enumerate(self._counts):
            if not required:  # count 0 is the free-slot sentinel
                continue
            probed += 1
            hits = all_events
            for pid in clause_pids[clause_index]:
                hits &= columns[pid]
                if not hits:
                    break
            if hits:
                sid = clause_subscription[clause_index]
                while hits:
                    low = hits & -hits
                    results[low.bit_length() - 1].add(sid)
                    hits ^= low
        counters = self._counters
        counters.phase2_calls += all_events.bit_count()
        counters.candidates_probed += probed
        counters.matches_found += sum(len(matched) for matched in results)
        return results

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> Mapping[str, int]:
        """Paper §3.3 structures: bit vector, hit/count vectors, tables."""
        model = self._cost_model
        allocated_clauses = len(self._counts)
        reference_count = sum(len(c) for c in self._association.values())
        breakdown = {
            "predicate_bit_vector": model.bit_vector_bytes(len(self.registry)),
            "hit_vector": model.vector_bytes(allocated_clauses),
            "count_vector": model.vector_bytes(allocated_clauses),
            "clause_subscription_table": allocated_clauses
            * model.subscription_id_bytes,
            "association_table": model.association_table_bytes(
                len(self._association), reference_count
            ),
        }
        if self._support_unsubscription:
            list_bytes = 0
            for records in self._subscription_clauses.values():
                for _, pids in records:
                    list_bytes += (
                        model.subscription_id_bytes
                        + len(pids) * model.predicate_id_bytes
                    )
            breakdown["subscription_predicate_lists"] = list_bytes
        return breakdown


class CountingVariantEngine(CountingEngine):
    """Candidate-driven counting (paper §3.3 variant).

    Identical storage; phase 2 records the clauses touched by fulfilled
    predicates and compares only those, so cost follows the number of
    matching predicates, not the registered subscription count.  The
    scalability ceiling is unchanged — the DNF blow-up is still paid in
    memory.
    """

    name = "counting-variant"

    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        hits = self._hits
        association = self._association
        touched: list[int] = []
        extend = touched.extend
        for pid in fulfilled_ids:
            clauses = association.get(pid)
            if clauses is not None:
                extend(clauses)
                for clause_index in clauses:
                    hits[clause_index] += 1
        matched: set[int] = set()
        counts = self._counts
        clause_subscription = self._clause_subscription
        for clause_index in touched:
            hit = hits[clause_index]
            if hit:  # first visit of this clause; reset as we go
                if hit == counts[clause_index]:
                    matched.add(clause_subscription[clause_index])
                hits[clause_index] = 0
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += len(touched)  # touched clauses only
        counters.matches_found += len(matched)
        return matched

    def match_fulfilled_matrix(self, matrix: FulfilledMatrix) -> list[set[int]]:
        """Candidate-driven counting over the batch.

        Only clauses referenced by a fulfilled predicate (any event) are
        evaluated, preserving the variant's defining property — work
        follows matching predicates, not registered subscriptions.  Each
        touched clause is tested once per *batch* with the same
        requirement-mask AND as the parent engine;
        ``candidates_probed`` counts clauses actually evaluated (the
        per-event paths count per-event touch occurrences).
        """
        event_count = matrix.event_count
        if event_count == 0:
            return []
        association = self._association
        seen = bytearray(len(self._counts))
        touched: list[int] = []
        for pid in matrix.active_bits:
            clauses = association.get(pid)
            if clauses:
                for clause_index in clauses:
                    if not seen[clause_index]:
                        seen[clause_index] = 1
                        touched.append(clause_index)
        all_events = matrix.all_events_mask
        columns = matrix.columns_to(self.indexes.width)
        clause_pids = self._clause_pids
        clause_subscription = self._clause_subscription
        results: list[set[int]] = [set() for _ in range(event_count)]
        for clause_index in touched:
            hits = all_events
            for pid in clause_pids[clause_index]:
                hits &= columns[pid]
                if not hits:
                    break
            if hits:
                sid = clause_subscription[clause_index]
                while hits:
                    low = hits & -hits
                    results[low.bit_length() - 1].add(sid)
                    hits ^= low
        counters = self._counters
        counters.phase2_calls += all_events.bit_count()
        counters.candidates_probed += len(touched)
        counters.matches_found += sum(len(matched) for matched in results)
        return results
