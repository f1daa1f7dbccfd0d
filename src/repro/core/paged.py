"""Disk-backed filtering: exploiting resources other than main memory.

Paper §5 closes with: "a further step is the development of filtering
strategies exploiting other resources than main memory."  This module is
that step: the subscription tree arena lives in a **file**, and matching
reads candidate trees through a fixed-budget LRU page cache.  Main
memory then holds only the association and location tables plus the
cache — the engine's RAM footprint stops growing with the arena.

Because the non-canonical engine evaluates only *candidate*
subscriptions (a small, fulfilled-predicate-driven subset), the cache
absorbs most reads; a counting-style engine could not profit the same
way, since its full-vector scan touches every clause every event.  The
ablation benchmark A6 measures the hit rate and the slowdown against the
all-in-RAM engine.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from typing import AbstractSet, Mapping, Sequence

from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.registry import PredicateRegistry
from ..subscriptions.encoding import BasicTreeCodec
from ..subscriptions.subscription import Subscription
from ..subscriptions.tree import SubscriptionTree
from .base import FilterEngine, UnknownSubscriptionError
from .noncanonical import join_candidates


class DiskTreeStore:
    """Append-only file of encoded trees behind an LRU page cache.

    Parameters
    ----------
    path:
        Backing file path; a temporary file is created when omitted.
    page_size:
        Cache granularity in bytes.
    cache_pages:
        Number of pages held in RAM.
    """

    def __init__(
        self,
        path: str | None = None,
        *,
        page_size: int = 4096,
        cache_pages: int = 64,
    ) -> None:
        if page_size < 64:
            raise ValueError("page_size must be at least 64 bytes")
        if cache_pages < 1:
            raise ValueError("cache_pages must be at least 1")
        self.page_size = page_size
        self.cache_pages = cache_pages
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-trees-", suffix=".arena")
            os.close(handle)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self._file = open(path, "w+b")
        self._size = 0
        self._dead_bytes = 0
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def add(self, encoded: bytes) -> tuple[int, int]:
        """Append an encoded tree; returns its (offset, width)."""
        if not encoded:
            raise ValueError("cannot store an empty encoding")
        offset = self._size
        self._file.seek(offset)
        self._file.write(encoded)
        self._size += len(encoded)
        # invalidate any cached page the write touched (append-only, so
        # only the tail page can be stale)
        first_page = offset // self.page_size
        last_page = (self._size - 1) // self.page_size
        for page in range(first_page, last_page + 1):
            self._cache.pop(page, None)
        return offset, len(encoded)

    def free(self, offset: int, width: int) -> None:
        """Mark a region dead (space is reclaimed only on rewrite)."""
        self._dead_bytes += width

    def read(self, offset: int, width: int) -> bytes:
        """Read a tree through the page cache."""
        if offset + width > self._size:
            raise ValueError(f"read past end of store: {offset}+{width}")
        first_page = offset // self.page_size
        last_page = (offset + width - 1) // self.page_size
        chunks = []
        for page in range(first_page, last_page + 1):
            chunks.append(self._page(page))
        blob = b"".join(chunks)
        start = offset - first_page * self.page_size
        return blob[start:start + width]

    def _page(self, page: int) -> bytes:
        cached = self._cache.get(page)
        if cached is not None:
            self._cache.move_to_end(page)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        self._file.seek(page * self.page_size)
        data = self._file.read(self.page_size)
        self._cache[page] = data
        if len(self._cache) > self.cache_pages:
            self._cache.popitem(last=False)
        return data

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total bytes on disk (live + dead)."""
        return self._size

    @property
    def live_bytes(self) -> int:
        """Bytes of live trees on disk."""
        return self._size - self._dead_bytes

    @property
    def cache_budget_bytes(self) -> int:
        """RAM the cache may occupy."""
        return self.page_size * self.cache_pages

    def hit_rate(self) -> float:
        """Cache hit fraction since creation (0.0 when untouched)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def close(self) -> None:
        """Close (and delete, when owned) the backing file."""
        if not self._file.closed:
            self._file.close()
        if self._owns_file and os.path.exists(self.path):
            os.unlink(self.path)

    def __enter__(self) -> "DiskTreeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PagedNonCanonicalEngine(FilterEngine):
    """The non-canonical engine with subscription trees on disk.

    The association and location tables stay in RAM (they are the
    per-event entry points); encoded trees are read through the store's
    LRU cache only when a subscription becomes a candidate.
    """

    name = "non-canonical-paged"

    def __init__(
        self,
        *,
        store: DiskTreeStore | None = None,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        super().__init__(registry=registry, indexes=indexes)
        self._store = store if store is not None else DiskTreeStore()
        self._codec = BasicTreeCodec()
        self._cost_model = cost_model
        self._association: dict[int, set[int]] = {}
        self._locations: dict[int, tuple[int, int]] = {}
        #: subscriptions matching under the empty truth assignment — see
        #: NonCanonicalEngine; they are unconditional candidates.
        self._empty_assignment_matchers: set[int] = set()
        self._subscribers: dict[int, str | None] = {}

    @property
    def store(self) -> DiskTreeStore:
        """The disk store (for cache statistics)."""
        return self._store

    def register(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        if sid in self._locations:
            raise ValueError(f"subscription id {sid} already registered")
        tree = SubscriptionTree.from_expression(
            subscription.expression, self._register_and_index
        )
        for pid in tree.predicate_ids():
            self._association.setdefault(pid, set()).add(sid)
        self._locations[sid] = self._store.add(self._codec.encode(tree))
        if tree.evaluate(frozenset()):
            self._empty_assignment_matchers.add(sid)
        self._subscribers[sid] = subscription.subscriber

    def _register_and_index(self, predicate) -> int:
        pid = self.registry.register(predicate)
        self.indexes.add(predicate, pid)
        return pid

    def unregister(self, subscription_id: int) -> None:
        location = self._locations.pop(subscription_id, None)
        if location is None:
            raise UnknownSubscriptionError(subscription_id)
        offset, width = location
        encoded = self._store.read(offset, width)
        occurrences = list(self._codec.predicate_ids(encoded, 0, width))
        for pid in set(occurrences):
            referencing = self._association.get(pid)
            if referencing is not None:
                referencing.discard(subscription_id)
                if not referencing:
                    del self._association[pid]
        for pid in occurrences:
            self._release_predicate(pid)
        self._store.free(offset, width)
        self._empty_assignment_matchers.discard(subscription_id)
        del self._subscribers[subscription_id]

    @property
    def subscription_count(self) -> int:
        return len(self._locations)

    def subscription_ids(self) -> frozenset[int]:
        return frozenset(self._locations)

    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Candidate selection in RAM, tree evaluation through the cache."""
        candidates = join_candidates(
            self._association, self._empty_assignment_matchers, fulfilled_ids
        )
        matched: set[int] = set()
        read = self._store.read
        evaluate = self._codec.evaluate
        for sid in candidates:
            offset, width = self._locations[sid]
            encoded = read(offset, width)
            if evaluate(encoded, 0, width, fulfilled_ids):
                matched.add(sid)
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += len(candidates)
        counters.matches_found += len(matched)
        return matched

    def match_fulfilled_batch(
        self, fulfilled_sets: Sequence[AbstractSet[int]]
    ) -> list[set[int]]:
        """Batch phase 2 with one offset-ordered pass over the store.

        This engine's one batch kernel, and the one set-based kernel in
        the registry (see :mod:`repro.core.base`): it replaces the
        base class's memoized per-assignment fallback.

        Candidate sets are computed for the whole batch first, then every
        distinct candidate tree is read exactly once, in arena-offset
        order — sequential page access, so a page shared by several
        candidates (or several events) enters the LRU cache once per
        batch instead of once per use.  The decoded bytes are held only
        for the duration of the batch.
        """
        fulfilled_sets = list(fulfilled_sets)
        per_event: list[set[int]] = []
        needed: set[int] = set()
        for fulfilled_ids in fulfilled_sets:
            candidates = join_candidates(
                self._association, self._empty_assignment_matchers, fulfilled_ids
            )
            per_event.append(candidates)
            needed.update(candidates)
        locations = self._locations
        read = self._store.read
        encoded: dict[int, bytes] = {}
        for sid in sorted(needed, key=lambda s: locations[s][0]):
            offset, width = locations[sid]
            encoded[sid] = read(offset, width)
        evaluate = self._codec.evaluate
        results: list[set[int]] = []
        probed_total = 0
        matched_total = 0
        for fulfilled_ids, candidates in zip(fulfilled_sets, per_event):
            matched: set[int] = set()
            for sid in candidates:
                if evaluate(encoded[sid], 0, locations[sid][1], fulfilled_ids):
                    matched.add(sid)
            probed_total += len(candidates)
            matched_total += len(matched)
            results.append(matched)
        counters = self._counters
        counters.phase2_calls += len(results)
        counters.candidates_probed += probed_total
        counters.matches_found += matched_total
        return results

    def memory_breakdown(self) -> Mapping[str, int]:
        """RAM only: tables plus the page-cache budget — no trees.

        The disk bytes are reported separately by
        :attr:`store`.``live_bytes``; they do not count against the
        machine's memory budget, which is the whole point of §5.
        """
        model = self._cost_model
        reference_count = sum(len(s) for s in self._association.values())
        return {
            "page_cache": self._store.cache_budget_bytes,
            "association_table": model.association_table_bytes(
                len(self._association), reference_count
            ),
            "location_table": model.location_table_bytes(len(self._locations)),
        }

    def close(self) -> None:
        """Release the backing file."""
        self._store.close()
