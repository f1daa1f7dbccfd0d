"""Disk-backed filtering: exploiting resources other than main memory.

Paper §5 closes with: "a further step is the development of filtering
strategies exploiting other resources than main memory."  This module is
that step: the subscription tree store lives in a **file**, and matching
reads candidate trees through a fixed-budget LRU page cache.  Main
memory then holds only the association and location tables plus the
cache — the engine's RAM footprint stops growing with the trees.

Only where the trees live changes: :class:`PagedNonCanonicalEngine` is
the non-canonical engine with ``evaluation="encoded"`` over a
:class:`DiskTreeStore` in place of the in-RAM
:class:`~repro.subscriptions.encoding.TreeArena`; both implement the
:class:`~repro.subscriptions.encoding.TreeStore` protocol.

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
import weakref
from collections import OrderedDict
from typing import AbstractSet, BinaryIO, Mapping, Sequence

from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.registry import PredicateRegistry
from ..subscriptions.encoding import TreeStore
from .noncanonical import NonCanonicalEngine


def _release(file: BinaryIO, owned_path: str | None) -> None:
    """Close the backing file and delete it when the store created it."""
    file.close()
    if owned_path is not None and os.path.exists(owned_path):
        os.unlink(owned_path)


class DiskTreeStore(TreeStore):
    """A file of encoded trees behind an LRU page cache.

    Freed trees are reclaimed under the in-RAM arena's dead-byte rule:
    :meth:`compact` moves the live trees to the front of the file,
    truncates it and drops the page cache.

    Parameters
    ----------
    path:
        Backing file path; a temporary file is created when omitted and
        deleted on :meth:`close` or, at the latest, when the store is
        garbage-collected.
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
        super().__init__()
        self.page_size = page_size
        self.cache_pages = cache_pages
        owned_path = None
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-trees-", suffix=".arena")
            os.close(handle)
            owned_path = path
        self.path = path
        self._file = open(path, "w+b")
        self._close = weakref.finalize(self, _release, self._file, owned_path)
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def _append(self, encoded: bytes) -> None:
        offset = self._size
        self._file.seek(offset)
        self._file.write(encoded)
        # invalidate any cached page the write touched (appends only, so
        # only the tail page can be stale)
        first_page = offset // self.page_size
        last_page = (offset + len(encoded) - 1) // self.page_size
        for page in range(first_page, last_page + 1):
            self._cache.pop(page, None)

    def _relocate(self, moves: list[tuple[int, int, int]], size: int) -> None:
        file = self._file
        for old, new, width in moves:
            if old != new:
                file.seek(old)
                region = file.read(width)
                file.seek(new)
                file.write(region)
        file.truncate(size)
        self._cache.clear()

    def view(self, offset: int, width: int) -> tuple[bytes, int]:
        """The tree through the page cache: its cached page itself when
        the tree fits in one, else the joined pages it spans."""
        if offset + width > self._size:
            raise ValueError(f"read past end of store: {offset}+{width}")
        first_page = offset // self.page_size
        last_page = (offset + width - 1) // self.page_size
        start = offset - first_page * self.page_size
        if first_page == last_page:
            return self._page(first_page), start
        pages = range(first_page, last_page + 1)
        return b"".join([self._page(page) for page in pages]), start

    def read(self, offset: int, width: int) -> bytes:
        """Read a tree through the page cache."""
        buffer, start = self.view(offset, width)
        return buffer[start:start + width]

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
    def cache_budget_bytes(self) -> int:
        """RAM the cache may occupy."""
        return self.page_size * self.cache_pages

    def hit_rate(self) -> float:
        """Cache hit fraction since creation (0.0 when untouched)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def close(self) -> None:
        """Close (and delete, when owned) the backing file."""
        self._close()

    def __enter__(self) -> "DiskTreeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PagedNonCanonicalEngine(NonCanonicalEngine):
    """The non-canonical engine with its subscription trees on disk.

    The in-memory engine with ``evaluation="encoded"`` over a
    :class:`DiskTreeStore`: the association and location tables stay in
    RAM (they are the per-event entry points), and a candidate's encoded
    tree is read through the store's LRU cache only when it is
    evaluated.  Beyond the store it differs in its RAM-only
    :meth:`memory_breakdown`, :meth:`close` and its offset-ordered batch
    kernel.
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
        super().__init__(
            evaluation="encoded",
            registry=registry,
            indexes=indexes,
            cost_model=cost_model,
        )
        self._store: DiskTreeStore = store if store is not None else DiskTreeStore()

    def match_fulfilled_batch(
        self, fulfilled_sets: Sequence[AbstractSet[int]]
    ) -> list[set[int]]:
        """Batch phase 2 with one offset-ordered pass over the store.

        This engine's one batch kernel, and the one set-based kernel in
        the registry (see :mod:`repro.core.base`): it replaces the
        base class's memoized per-assignment fallback.

        Candidate sets are computed for the whole batch first, then every
        distinct candidate tree is read exactly once, in store-offset
        order — sequential page access, so a page shared by several
        candidates (or several events) enters the LRU cache once per
        batch instead of once per use.  The decoded bytes are held only
        for the duration of the batch.
        """
        fulfilled_sets = list(fulfilled_sets)
        per_event: list[set[int]] = []
        needed: set[int] = set()
        for fulfilled_ids in fulfilled_sets:
            candidates = self.candidates_for(fulfilled_ids)
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
        breakdown = dict(super().memory_breakdown())
        del breakdown["subscription_trees"]
        return {"page_cache": self._store.cache_budget_bytes, **breakdown}

    def close(self) -> None:
        """Release the backing file."""
        self._store.close()
