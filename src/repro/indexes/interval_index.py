"""Interval index for BETWEEN predicates.

A ``attr between [low, high]`` predicate is fulfilled by event value
``x`` iff ``low <= x <= high`` — a *stabbing query* over the set of
registered intervals.

Implementation: a **centered interval tree** (static, median-split) with
a lazy rebuild policy.  Insertions land in a small pending buffer and
removals in a tombstone set; once either outgrows a fraction of the tree
the structure is rebuilt from scratch.  This amortized scheme is simpler
and — for registration-heavy, query-heavy pub/sub workloads — as fast in
practice as a fully dynamic augmented tree, while keeping queries
O(log n + answer).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Optional, Sequence

from .base import PredicateIndex


class _IntervalNode:
    __slots__ = ("center", "by_low", "by_high", "left", "right")

    def __init__(
        self,
        center: Any,
        by_low: list[tuple[Any, Any, int]],
        by_high: list[tuple[Any, Any, int]],
        left: Optional["_IntervalNode"],
        right: Optional["_IntervalNode"],
    ) -> None:
        self.center = center
        self.by_low = by_low  # intervals containing center, ascending low
        self.by_high = by_high  # same intervals, descending high
        self.left = left
        self.right = right


def _build(intervals: list[tuple[Any, Any, int]]) -> Optional[_IntervalNode]:
    if not intervals:
        return None
    endpoints = sorted(
        {low for low, _, _ in intervals} | {high for _, high, _ in intervals}
    )
    center = endpoints[len(endpoints) // 2]
    here: list[tuple[Any, Any, int]] = []
    lefts: list[tuple[Any, Any, int]] = []
    rights: list[tuple[Any, Any, int]] = []
    for interval in intervals:
        low, high, _ = interval
        if high < center:
            lefts.append(interval)
        elif low > center:
            rights.append(interval)
        else:
            here.append(interval)
    by_low = sorted(here, key=lambda iv: iv[0])
    by_high = sorted(here, key=lambda iv: iv[1], reverse=True)
    return _IntervalNode(center, by_low, by_high, _build(lefts), _build(rights))


def _stab(node: Optional[_IntervalNode], x: Any, out: set[int]) -> None:
    while node is not None:
        if x < node.center:
            for low, _, pid in node.by_low:
                if low > x:
                    break
                out.add(pid)
            node = node.left
        elif x > node.center:
            for _, high, pid in node.by_high:
                if high < x:
                    break
                out.add(pid)
            node = node.right
        else:
            for _, _, pid in node.by_low:
                out.add(pid)
            return


class IntervalIndex(PredicateIndex):
    """Stabbing index over (low, high, predicate_id) intervals.

    Parameters
    ----------
    rebuild_fraction:
        Rebuild once pending inserts plus tombstones exceed this fraction
        of the built tree's interval count (minimum 16 entries before the
        fraction kicks in, so small indexes never thrash).
    """

    def __init__(self, *, rebuild_fraction: float = 0.25) -> None:
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in (0, 1]")
        self._rebuild_fraction = rebuild_fraction
        self._root: Optional[_IntervalNode] = None
        self._built: dict[int, tuple[Any, Any]] = {}
        self._pending: dict[int, tuple[Any, Any]] = {}
        self._tombstones: set[int] = set()

    def insert(self, operand: Any, predicate_id: int) -> None:
        low, high = operand
        if predicate_id in self._tombstones:
            if self._built.get(predicate_id) == (low, high):
                # pure resurrection of the identical interval
                self._tombstones.discard(predicate_id)
                return
            # the registry recycled this id for *different* bounds: the
            # tombstone must keep masking the stale built entry while the
            # new bounds ride the pending buffer until the next rebuild
            self._pending[predicate_id] = (low, high)
            self._maybe_rebuild()
            return
        if predicate_id in self._built or predicate_id in self._pending:
            return
        self._pending[predicate_id] = (low, high)
        self._maybe_rebuild()

    def remove(self, operand: Any, predicate_id: int) -> bool:
        low, high = operand
        if predicate_id in self._pending:
            if self._pending[predicate_id] != (low, high):
                return False
            del self._pending[predicate_id]
            return True
        if predicate_id in self._built and predicate_id not in self._tombstones:
            if self._built[predicate_id] != (low, high):
                return False
            self._tombstones.add(predicate_id)
            self._maybe_rebuild()
            return True
        return False

    def match(self, value: Any) -> Iterable[int]:
        result: set[int] = set()
        try:
            _stab(self._root, value, result)
        except TypeError:
            return ()  # value not comparable with this index's domain
        result -= self._tombstones
        for predicate_id, (low, high) in self._pending.items():
            try:
                if low <= value <= high:
                    result.add(predicate_id)
            except TypeError:
                continue
        return result

    def sweep(
        self, values: Sequence[Any], prefix: Sequence[int]
    ) -> Iterator[tuple[tuple[int], int]]:
        """``((pid,), event mask)`` for every interval a batch stabs.

        ``values`` and ``prefix`` are as in
        :meth:`~repro.indexes.thresholds.SortedThresholds.sweep`: the
        events inside ``[low, high]`` are a contiguous run of the sorted
        values, so each live interval costs two bisects and one XOR.
        """
        for low, high, pid in self.intervals():
            inside = prefix[bisect_right(values, high)]
            mask = inside ^ prefix[bisect_left(values, low)]
            if mask:
                yield (pid,), mask

    def __len__(self) -> int:
        return len(self._built) - len(self._tombstones) + len(self._pending)

    def _maybe_rebuild(self) -> None:
        churn = len(self._pending) + len(self._tombstones)
        if churn < 16:
            return
        if churn <= self._rebuild_fraction * max(len(self._built), 1):
            return
        self.rebuild()

    def rebuild(self) -> None:
        """Force integration of pending inserts and tombstones."""
        merged = {
            pid: bounds
            for pid, bounds in self._built.items()
            if pid not in self._tombstones
        }
        merged.update(self._pending)
        self._built = merged
        self._pending = {}
        self._tombstones = set()
        self._root = _build([(low, high, pid) for pid, (low, high) in merged.items()])

    def intervals(self) -> Iterator[tuple[Any, Any, int]]:
        """All live (low, high, predicate_id) triples."""
        for pid, (low, high) in self._built.items():
            if pid not in self._tombstones:
                yield (low, high, pid)
        for pid, (low, high) in self._pending.items():
            yield (low, high, pid)
