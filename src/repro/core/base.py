"""Engine interface shared by all matching algorithms.

Every engine implements the same two-phase contract:

* **phase 1 (predicate matching)** is delegated to a shared
  :class:`~repro.indexes.manager.IndexManager` — identical across
  engines, exactly as in the paper's experiments ("the first phases use
  the same indexes in the same way in both approaches", §4);
* **phase 2 (subscription matching)** is engine-specific:
  :meth:`FilterEngine.match_fulfilled` consumes the set of fulfilled
  predicate identifiers and returns matching subscription identifiers.

``match(event)`` composes the two.  Benchmarks time
:meth:`match_fulfilled` in isolation, which is what the paper's Fig. 3
plots.

An engine implements :meth:`FilterEngine.match_fulfilled` plus at most
one batch kernel (:meth:`~FilterEngine.match_fulfilled_matrix` or
:meth:`~FilterEngine.match_fulfilled_batch`); :class:`FilterEngine`
derives ``match``, ``match_batch``, the memoized
``match_fulfilled_batch`` and the matrix fallback from them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

from ..events.event import Event
from ..indexes.manager import IndexManager
from ..predicates.registry import PredicateRegistry
from ..subscriptions.subscription import Subscription
from .bitset import FulfilledMatrix


class UnsupportedSubscriptionError(ValueError):
    """Raised when an engine cannot register a subscription natively.

    The counting engines raise this for expressions whose DNF contains
    negative literals (predicates without a single-predicate complement
    under NOT) — the classical conjunctive pipeline simply cannot encode
    them (paper §2).
    """


class UnknownSubscriptionError(KeyError):
    """Raised when unregistering a subscription id that is not registered."""


@dataclass
class MatchCounters:
    """Phase-2 work counters — *why* a wall-clock number is what it is.

    The paper's §4.1 analysis explains its curves through candidate
    counts ("the different handling of non-candidate subscriptions"),
    so the benchmark trajectory records these alongside every timing:

    * ``phase2_calls`` — phase-2 evaluations answered (one per event;
      memoized batch paths count cache hits here too, since an answer
      was produced);
    * ``candidates_probed`` — subscription units actually examined:
      candidate trees evaluated (non-canonical/paged), clause slots
      compared (counting engines), tree nodes visited (matching tree),
      expressions evaluated (brute force).  Memo hits probe nothing;
    * ``matches_found`` — matching subscription ids returned;
    * ``shards_probed`` / ``shards_pruned`` — per-event shard fan-out of
      the sharded runtime: how many shards an event was dispatched to
      versus skipped outright by the routed partitioner's region digest.
      Zero on unsharded engines; ``probed + pruned`` per event equals
      the shard count, so the pair explains *why* routed sharding wins.

    Counters accumulate monotonically; :meth:`reset` zeroes them.  The
    sharded runtime runs its shards in the calling process: each shard
    ticks its own counters, the parent ticks the shard fan-out, and the
    sharded engine's ``counters`` sums them.
    """

    phase2_calls: int = 0
    candidates_probed: int = 0
    matches_found: int = 0
    shards_probed: int = 0
    shards_pruned: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.phase2_calls = 0
        self.candidates_probed = 0
        self.matches_found = 0
        self.shards_probed = 0
        self.shards_pruned = 0

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (stable keys, copy-safe)."""
        return {
            "phase2_calls": self.phase2_calls,
            "candidates_probed": self.candidates_probed,
            "matches_found": self.matches_found,
            "shards_probed": self.shards_probed,
            "shards_pruned": self.shards_pruned,
        }

    def __add__(self, other: "MatchCounters") -> "MatchCounters":
        if not isinstance(other, MatchCounters):
            return NotImplemented
        return MatchCounters(
            phase2_calls=self.phase2_calls + other.phase2_calls,
            candidates_probed=self.candidates_probed + other.candidates_probed,
            matches_found=self.matches_found + other.matches_found,
            shards_probed=self.shards_probed + other.shards_probed,
            shards_pruned=self.shards_pruned + other.shards_pruned,
        )


class FilterEngine(abc.ABC):
    """Base class of the matching engines.

    Parameters
    ----------
    registry:
        Shared predicate registry; a private one is created when omitted.
    indexes:
        Shared phase-1 index manager; a private one is created when
        omitted.
    """

    #: Human-readable engine name used by reports and benchmarks.
    name: str = "abstract"

    def __init__(
        self,
        *,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
    ) -> None:
        self.registry = registry if registry is not None else PredicateRegistry()
        self.indexes = indexes if indexes is not None else IndexManager()
        self._counters = MatchCounters()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def register(self, subscription: Subscription) -> None:
        """Register a subscription for matching."""

    @abc.abstractmethod
    def unregister(self, subscription_id: int) -> None:
        """Remove a subscription; raises :class:`UnknownSubscriptionError`."""

    @property
    @abc.abstractmethod
    def subscription_count(self) -> int:
        """Number of registered *original* subscriptions."""

    @property
    def stored_subscription_count(self) -> int:
        """Number of internally stored subscription units.

        Equals :attr:`subscription_count` for non-transforming engines;
        for canonical engines it is the post-DNF clause count — the
        "multiple of the number of original registered subscriptions"
        the paper's §2.2 warns about.
        """
        return self.subscription_count

    @abc.abstractmethod
    def subscription_ids(self) -> frozenset[int]:
        """Ids of the registered *original* subscriptions.

        The introspection surface the sharded runtime partitions over;
        ``len(subscription_ids()) == subscription_count`` always holds.
        """

    @property
    def counters(self) -> MatchCounters:
        """This engine's phase-2 work counters (see :class:`MatchCounters`).

        The sharded engine overrides this with the sum over its shards.
        """
        return self._counters

    def reset_counters(self) -> None:
        """Zero the phase-2 work counters (state is untouched)."""
        self._counters.reset()

    def stats(self) -> dict:
        """One engine's counters as plain data (broker/shard reporting).

        Includes the :class:`MatchCounters` keys (``phase2_calls``,
        ``candidates_probed``, ``matches_found``) so the benchmark
        trajectory can explain *why* a wall-clock number moved.
        """
        return {
            "engine": self.name,
            "subscriptions": self.subscription_count,
            "stored_subscriptions": self.stored_subscription_count,
            "memory_bytes": self.memory_bytes(),
            **self.counters.snapshot(),
        }

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(self, event: Event) -> set[int]:
        """Full two-phase matching: ids of subscriptions ``event`` fulfils."""
        return self.match_fulfilled(self.indexes.match(event))

    @abc.abstractmethod
    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Phase 2 only: match given the fulfilled predicate id set.

        The one matching method every engine implements; every other
        entry point below is derived from it (or from the engine's one
        batch kernel).
        """

    @property
    def has_matrix_kernel(self) -> bool:
        """Whether :meth:`match_fulfilled_matrix` is a native kernel.

        True when the engine's class overrides the matrix hook; an
        engine whose kernel depends on construction options overrides
        this property instead.  ``match_batch`` feeds kernel engines the
        column-major phase 1, and the sharded runtime slices one matrix
        across shards only when its shards say yes.
        """
        return (
            type(self).match_fulfilled_matrix is not FilterEngine.match_fulfilled_matrix
        )

    def match_batch(self, events: Sequence[Event]) -> list[set[int]]:
        """Two-phase matching over a batch of events.

        Result ``i`` equals ``match(events[i])``.  A batch of one takes
        the per-event path: phase 1 through :meth:`IndexManager.match`,
        phase 2 through :meth:`match_fulfilled`.  A width-1 matrix was measured
        1.2-1.5x slower per event than the set path (DESIGN §5), so
        single-event publishing never moves onto it.  Larger batches run
        one phase-1 pass (:meth:`IndexManager.match_batch_bits` for
        engines with a matrix kernel, :meth:`IndexManager.match_batch`
        otherwise) feeding one phase-2 batch call.
        """
        events = list(events)
        if len(events) == 1:
            return [self.match(events[0])]
        if self.has_matrix_kernel:
            return self.match_fulfilled_matrix(self.indexes.match_batch_bits(events))
        return self.match_fulfilled_batch(self.indexes.match_batch(events))

    def match_fulfilled_batch(
        self, fulfilled_sets: Sequence[AbstractSet[int]]
    ) -> list[set[int]]:
        """Phase 2 over a batch of fulfilled predicate id sets.

        Delegates to :meth:`match_fulfilled` once per *distinct*
        assignment: batched workloads with repeated attribute values
        (the Zipf case) produce repeated fulfilled-id sets, and each is
        evaluated once per batch.  A repeat is answered from the memo —
        it counts as a phase-2 call and its matches, with zero probes.
        """
        memo: dict[frozenset[int], set[int]] = {}
        results: list[set[int]] = []
        counters = self._counters
        for fulfilled_ids in fulfilled_sets:
            key = frozenset(fulfilled_ids)
            cached = memo.get(key)
            if cached is None:
                cached = memo[key] = self.match_fulfilled(key)
            else:
                counters.phase2_calls += 1
                counters.matches_found += len(cached)
            results.append(set(cached))
        return results

    def match_fulfilled_matrix(self, matrix: FulfilledMatrix) -> list[set[int]]:
        """Phase 2 over a column-major fulfilled-bit matrix.

        The bit-packed sibling of :meth:`match_fulfilled_batch` (see
        :mod:`repro.core.bitset`).  The default expands the matrix back
        to per-event id sets, so every engine accepts a matrix; the
        kernel engines (counting, counting-variant, non-canonical)
        override it with transposed word-wise evaluation.  Result ``i``
        always equals ``match_fulfilled`` of event ``i``'s fulfilled
        set; kernels change throughput and counter attribution
        (per-batch instead of per-event probe units), never answers.
        Rows outside ``matrix.all_events_mask`` (cut by
        :meth:`~repro.core.bitset.FulfilledMatrix.select`) are neither
        evaluated nor counted and answer the empty set.
        """
        id_sets = matrix.to_id_sets()
        mask = matrix.all_events_mask
        rows = [row for row in range(matrix.event_count) if mask >> row & 1]
        results: list[set[int]] = [set() for _ in id_sets]
        matched = self.match_fulfilled_batch([id_sets[row] for row in rows])
        for row, subscriptions in zip(rows, matched):
            results[row] = subscriptions
        return results

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def memory_breakdown(self) -> Mapping[str, int]:
        """Bytes per engine data structure under the paper's cost model.

        Phase-1 index memory is excluded — it is identical across
        engines by construction and would only blur the comparison the
        paper makes about phase-2 structures.
        """

    def memory_bytes(self) -> int:
        """Total phase-2 memory under the paper's cost model."""
        return sum(self.memory_breakdown().values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release external resources; a no-op for in-memory engines.

        The paged engine closes (and, when owned, deletes) its disk
        store; the sharded engine closes its shards.
        """

    # ------------------------------------------------------------------
    # helpers shared by concrete engines
    # ------------------------------------------------------------------
    def _register_predicate(self, predicate) -> int:
        """Register one predicate in registry + indexes; return its id."""
        pid = self.registry.register(predicate)
        self.indexes.add(predicate, pid)
        return pid

    def _release_predicate(self, predicate_id: int) -> None:
        """Drop one reference; de-index the predicate when retired."""
        if self.registry.release(predicate_id):
            self.indexes.remove(predicate_id)
