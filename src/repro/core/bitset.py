"""Bit-packed phase-2 kernel: the batch form of phase-1 output.

Phase 1 produces *sets* of fulfilled predicate ids; until PR 8, phase 2
consumed them one Python set operation at a time.  This module re-encodes
a batch's fulfillment state as packed bitmaps so the engines' hot paths
become bulk word-wise AND/OR over contiguous memory (the
``BitList``/``CompressedList`` idiom of the C++ exemplar in SNIPPETS.md
Snippet 3).

:class:`FulfilledMatrix` has one *column* per predicate id, each column
an event-space integer whose bit ``i`` says "event ``i`` fulfils this
predicate".  CPython's arbitrary-precision integers are little-endian
arrays of machine words with C-level bitwise operators, so
``column_a & column_b`` is a word-wise AND with no Python-level loop.
Evaluating a subscription clause over the whole batch is then a handful
of int ANDs/ORs instead of per-event set algebra.

A column index *is* the predicate id ``id(p)`` of paper §3.1, so every
engine sharing a registry reads one matrix the same way.  The registry
recycles released ids, which keeps the width at the peak number of
simultaneously live predicates; an id is released only once no live
subscription in any engine references it, so a recycled column can
never resurrect a match.  Slot 0 is unused (ids start at 1).

The module is self-contained (no ``repro`` imports) so the index manager
can import it lazily without touching the ``core`` package cycle.
"""

from __future__ import annotations

from typing import Collection, Sequence


class FulfilledMatrix:
    """Column-major batch form of phase-1 output.

    ``columns[pid]`` is an event-space integer: bit ``i`` set means
    event ``i`` fulfils predicate ``pid``.  ``active_bits`` lists the
    ids of the nonzero columns (typically a small fraction of the
    width), so consumers never scan the full width.  A predicate id at
    or past ``len(columns)`` is fulfilled by no event of the batch.
    """

    __slots__ = ("columns", "active_bits", "event_count", "all_events_mask", "_id_sets")

    def __init__(
        self, columns: list[int], active_bits: list[int], event_count: int
    ) -> None:
        self.columns = columns
        self.active_bits = active_bits
        self.event_count = event_count
        #: event-space mask of the rows in play (fewer after :meth:`select`)
        self.all_events_mask = (1 << event_count) - 1
        self._id_sets: list[set[int]] | None = None

    @classmethod
    def from_id_sets(
        cls, fulfilled_sets: Sequence[Collection[int]]
    ) -> "FulfilledMatrix":
        """Transpose per-event fulfilled-id sets into column form.

        The set-based reference construction — tests pit engine matrix
        paths against set paths through it.  The width stops at the
        highest fulfilled id.
        """
        width = 1 + max((max(ids) for ids in fulfilled_sets if ids), default=0)
        columns = [0] * width
        active_bits: list[int] = []
        event_bit = 1
        for fulfilled in fulfilled_sets:
            for pid in fulfilled:
                if not columns[pid]:
                    active_bits.append(pid)
                columns[pid] |= event_bit
            event_bit <<= 1
        return cls(columns, active_bits, len(fulfilled_sets))

    def columns_to(self, width: int) -> list[int]:
        """``columns``, padded with zero columns to at least ``width``.

        The kernels index columns by every id their match forms name; a
        matrix built from id sets stops at its highest fulfilled id.
        """
        short = width - len(self.columns)
        return self.columns + [0] * short if short > 0 else self.columns

    def select(self, indices: Sequence[int]) -> "FulfilledMatrix":
        """Sub-matrix over the rows at ``indices``, numbered as here.

        The slicing primitive behind routed shard pruning: each candidate
        shard evaluates only the rows of the events it might match.  One
        AND of the row mask per active column; the mask becomes the
        result's ``all_events_mask``, so kernels evaluate and count only
        those rows.  Zero columns leave ``active_bits``, so a shard whose
        events fulfil few predicates scans proportionally less.
        Selecting every row returns ``self`` (no copy).
        """
        mask = 0
        for index in indices:
            mask |= 1 << index
        if mask == self.all_events_mask:
            return self
        columns = [0] * len(self.columns)
        active: list[int] = []
        own_columns = self.columns
        for pid in self.active_bits:
            column = own_columns[pid] & mask
            if column:
                columns[pid] = column
                active.append(pid)
        sliced = FulfilledMatrix(columns, active, self.event_count)
        sliced.all_events_mask = mask
        return sliced

    def to_id_sets(self) -> list[set[int]]:
        """Expand back to per-event fulfilled predicate id sets (cached).

        The bridge to set-based phase 2: engines without a matrix path
        (and closure-mode fallbacks) consume this; building it costs one
        pass over the set bits, paid at most once per matrix.
        """
        if self._id_sets is None:
            sets: list[set[int]] = [set() for _ in range(self.event_count)]
            for pid in self.active_bits:
                column = self.columns[pid]
                while column:
                    low = column & -column
                    sets[low.bit_length() - 1].add(pid)
                    column ^= low
            self._id_sets = sets
        return self._id_sets

    def __repr__(self) -> str:
        return (
            f"FulfilledMatrix(events={self.event_count}, "
            f"active_bits={len(self.active_bits)}, "
            f"width={len(self.columns)})"
        )
