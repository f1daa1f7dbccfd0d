"""Bit-packed phase-2 kernel: predicate-bit layouts and batch bitmaps.

Phase 1 produces *sets* of fulfilled predicate ids; until PR 8, phase 2
consumed them one Python set operation at a time.  This module re-encodes
fulfillment state as packed bitmaps so the engines' hot paths become bulk
word-wise AND/OR over contiguous memory (the ``BitList``/``CompressedList``
idiom of the C++ exemplar in SNIPPETS.md Snippet 3):

* :class:`BitLayout` — a dense ``predicate id -> bit position`` mapping
  with free-list recycling and an epoch counter, owned by the
  :class:`~repro.indexes.manager.IndexManager` so every engine sharing a
  manager agrees on bit positions;
* :class:`FulfilledMatrix` — the batch form: one *column* per predicate
  bit, each column an event-space integer whose bit ``i`` says "event
  ``i`` fulfils this predicate".  CPython's arbitrary-precision integers
  are little-endian arrays of machine words with C-level bitwise
  operators, so ``column_a & column_b`` is a word-wise AND with no
  Python-level loop.  Evaluating a subscription clause over the whole
  batch is then a handful of int ANDs/ORs instead of per-event set
  algebra.

The module is self-contained (no ``repro`` imports) so the index manager
can import it lazily without touching the ``core`` package cycle.

Churn soundness
---------------
A bit position is recycled only through :meth:`BitLayout.release`, which
the index manager calls when a predicate id is dropped from the indexes —
and that happens only once the predicate registry's refcount hits zero,
i.e. once *no* live subscription in *any* engine sharing the manager
references the predicate.  A recycled bit therefore can never appear in
a live requirement mask, so stale bits cannot resurrect matches (the
PR 5 IntervalIndex tombstone lesson, applied by construction).  The
``epoch`` counter still advances on every release/compaction as a guard:
derived state that snapshots bit positions can detect invalidation
instead of trusting the argument above.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def popcount(value: int) -> int:
    """Set-bit count of a non-negative int (C-level ``bit_count``)."""
    return value.bit_count()


def iter_bits(value: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


class BitLayout:
    """Dense ``predicate id -> bit position`` layout with recycling.

    ``bits`` (id -> bit) and ``pids`` (bit -> id, ``None`` for free
    slots) are exposed directly for hot-path indexing — treat them as
    read-only and mutate only through :meth:`assign` / :meth:`release` /
    :meth:`compact`.  Released bit positions go to a free list and are
    recycled by later assignments, so the bit-space capacity is bounded
    by the high-water mark of simultaneously live predicates, not by
    total registration traffic.  ``epoch`` advances whenever any
    existing position's meaning could change (release, compaction).
    """

    __slots__ = ("bits", "pids", "free", "epoch")

    def __init__(self) -> None:
        self.bits: dict[int, int] = {}
        self.pids: list[int | None] = []
        self.free: list[int] = []
        self.epoch = 0

    def assign(self, predicate_id: int) -> int:
        """The bit position for ``predicate_id``, allocating if new.

        Idempotent: re-assigning a live id returns its existing bit.
        """
        bit = self.bits.get(predicate_id)
        if bit is not None:
            return bit
        if self.free:
            bit = self.free.pop()
            self.pids[bit] = predicate_id
        else:
            bit = len(self.pids)
            self.pids.append(predicate_id)
        self.bits[predicate_id] = bit
        return bit

    def release(self, predicate_id: int) -> bool:
        """Free the id's bit for recycling; ``False`` if it was not live."""
        bit = self.bits.pop(predicate_id, None)
        if bit is None:
            return False
        self.pids[bit] = None
        self.free.append(bit)
        self.epoch += 1
        return True

    def compact(self) -> dict[int, int]:
        """Renumber live bits densely; returns the old->new bit remap.

        Shrinks :attr:`capacity` to the live count and empties the free
        list.  Every externally held bit position is invalidated — the
        epoch bump is the signal; callers owning masks must rebuild them
        through the remap.
        """
        remap: dict[int, int] = {}
        pids: list[int | None] = []
        for old_bit, pid in enumerate(self.pids):
            if pid is None:
                continue
            remap[old_bit] = len(pids)
            pids.append(pid)
        self.pids = pids
        self.bits = {pid: bit for bit, pid in enumerate(pids)}
        self.free = []
        self.epoch += 1
        return remap

    # -- queries --------------------------------------------------------
    def bit_of(self, predicate_id: int) -> int:
        """The bit position of a live predicate id (KeyError otherwise)."""
        return self.bits[predicate_id]

    def pid_at(self, bit: int) -> int | None:
        """The predicate id at ``bit``, or ``None`` for a free slot."""
        return self.pids[bit]

    def bits_of(self, predicate_ids: Iterable[int]) -> tuple[int, ...]:
        """Bit positions for an iterable of live predicate ids."""
        bits = self.bits
        return tuple(bits[pid] for pid in predicate_ids)

    @property
    def capacity(self) -> int:
        """Allocated bit-space width (live + free slots)."""
        return len(self.pids)

    def __len__(self) -> int:
        """Number of live (assigned) predicate ids."""
        return len(self.bits)

    def __contains__(self, predicate_id: int) -> bool:
        return predicate_id in self.bits

    def __repr__(self) -> str:
        return (
            f"BitLayout(live={len(self.bits)}, capacity={self.capacity}, "
            f"epoch={self.epoch})"
        )


class FulfilledMatrix:
    """Column-major batch form of phase-1 output.

    ``columns[bit]`` is an event-space integer: bit ``i`` set means
    event ``i`` fulfils the predicate at layout position ``bit``.
    ``active_bits`` lists the nonzero columns (typically a small
    fraction of the layout), so consumers never scan the full width.
    The row view (one bitmap per event, the transpose) is available for
    reference and fallback paths; the columns are the hot form because
    one subscription clause evaluates against *all* events with a
    couple of int operations.
    """

    __slots__ = ("layout", "columns", "active_bits", "event_count", "epoch", "_id_sets")

    def __init__(
        self,
        layout: BitLayout,
        columns: list[int],
        active_bits: list[int],
        event_count: int,
    ) -> None:
        self.layout = layout
        self.columns = columns
        self.active_bits = active_bits
        self.event_count = event_count
        self.epoch = layout.epoch
        self._id_sets: list[set[int]] | None = None

    @classmethod
    def from_id_sets(
        cls, layout: BitLayout, fulfilled_sets: Sequence[Iterable[int]]
    ) -> "FulfilledMatrix":
        """Transpose per-event fulfilled-id sets into column form.

        The set-based reference construction — tests pit engine matrix
        paths against set paths through it.
        """
        columns = [0] * layout.capacity
        active_bits: list[int] = []
        bit_of = layout.bits
        event_bit = 1
        for fulfilled in fulfilled_sets:
            for pid in fulfilled:
                bit = bit_of[pid]
                if not columns[bit]:
                    active_bits.append(bit)
                columns[bit] |= event_bit
            event_bit <<= 1
        return cls(layout, columns, active_bits, len(fulfilled_sets))

    @property
    def all_events_mask(self) -> int:
        """Event-space mask with every event's bit set."""
        return (1 << self.event_count) - 1

    def column(self, bit: int) -> int:
        """The event-space column at layout position ``bit``."""
        return self.columns[bit]

    def row(self, index: int) -> int:
        """Event ``index``'s fulfilled bits as a layout-space integer."""
        if not 0 <= index < self.event_count:
            raise IndexError(f"event {index} out of range")
        event_bit = 1 << index
        row = 0
        columns = self.columns
        for bit in self.active_bits:
            if columns[bit] & event_bit:
                row |= 1 << bit
        return row

    def select(self, indices: Sequence[int]) -> "FulfilledMatrix":
        """Sub-matrix over the events at ``indices`` (renumbered densely).

        Row ``j`` of the result is row ``indices[j]`` of this matrix —
        the slicing primitive behind routed shard pruning: the parent
        builds one batch matrix, each candidate shard evaluates only the
        rows of the events it might match.  Columns that become zero are
        dropped from ``active_bits``, so a shard whose candidate events
        fulfil few predicates scans proportionally less.  Selecting every
        event in order returns ``self`` (no copy).
        """
        if len(indices) == self.event_count and all(
            got == want for want, got in enumerate(indices)
        ):
            return self
        columns = [0] * self.layout.capacity
        active: list[int] = []
        own_columns = self.columns
        for bit in self.active_bits:
            column = own_columns[bit]
            sub = 0
            for j, i in enumerate(indices):
                if (column >> i) & 1:
                    sub |= 1 << j
            if sub:
                columns[bit] = sub
                active.append(bit)
        return FulfilledMatrix(self.layout, columns, active, len(indices))

    def active_pids(self) -> list[int]:
        """Predicate ids fulfilled by at least one event in the batch."""
        pids = self.layout.pids
        return [pids[bit] for bit in self.active_bits]

    def to_id_sets(self) -> list[set[int]]:
        """Expand back to per-event fulfilled predicate id sets (cached).

        The bridge to set-based phase 2: engines without a matrix path
        (and closure-mode fallbacks) consume this; building it costs one
        pass over the set bits, paid at most once per matrix.
        """
        if self._id_sets is None:
            sets: list[set[int]] = [set() for _ in range(self.event_count)]
            pids = self.layout.pids
            for bit in self.active_bits:
                pid = pids[bit]
                column = self.columns[bit]
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
            f"capacity={self.layout.capacity})"
        )
