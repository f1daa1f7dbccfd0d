"""Sorted threshold arrays for the order operators ``<``, ``<=``, ``>``, ``>=``.

Paper §3.2 serves range predicates with B+ trees.  A B+ tree is a sorted
key sequence cut into linked pages so that inserts stay cheap on disk;
held in memory by one process, the same order index is one sorted
``keys`` list with a parallel list of predicate-id ``buckets``.  Inserts
and removals are a bisect plus a list insert or delete, and every query
is a bisect over the keys.

One :class:`SortedThresholds` holds the predicates of one operator over
one value domain (numbers or strings), so its keys are always mutually
comparable.  NaN operands never reach it: NaN orders with nothing, so
the index manager keeps predicates with NaN operands out of every order
structure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from .base import PredicateIndex


class SortedThresholds(PredicateIndex):
    """``attr ? c`` predicates of one order operator, sorted by ``c``.

    Parameters
    ----------
    below:
        Whether an event value fulfils the thresholds *below* it
        (``>``, ``>=``) rather than those above it (``<``, ``<=``).
    inclusive:
        Whether a threshold equal to the event value is fulfilled
        (``>=``, ``<=``).
    """

    def __init__(self, *, below: bool, inclusive: bool) -> None:
        self.below = below
        #: bisects an event value into the keys: the value fulfils the
        #: keys before the cut when ``below``, the keys from it on
        #: otherwise (``>`` cuts before keys equal to the value, ``>=``
        #: after them; ``<`` after them, ``<=`` before them)
        self._side = bisect_right if below == inclusive else bisect_left
        #: distinct operands, ascending
        self.keys: list[Any] = []
        #: ``buckets[i]`` holds the ids of the predicates on ``keys[i]``
        self.buckets: list[set[int]] = []
        self._entries = 0

    def insert(self, operand: Any, predicate_id: int) -> None:
        keys = self.keys
        index = bisect_left(keys, operand)
        if index < len(keys) and keys[index] == operand:
            bucket = self.buckets[index]
            if predicate_id in bucket:
                return
            bucket.add(predicate_id)
        else:
            keys.insert(index, operand)
            self.buckets.insert(index, {predicate_id})
        self._entries += 1

    def remove(self, operand: Any, predicate_id: int) -> bool:
        keys = self.keys
        index = bisect_left(keys, operand)
        if index == len(keys) or keys[index] != operand:
            return False
        bucket = self.buckets[index]
        if predicate_id not in bucket:
            return False
        bucket.discard(predicate_id)
        if not bucket:
            del keys[index]
            del self.buckets[index]
        self._entries -= 1
        return True

    def match(self, value: Any) -> set[int]:
        """Ids fulfilled by one event value: one bisect, one slice."""
        cut = self._side(self.keys, value)
        buckets = self.buckets[:cut] if self.below else self.buckets[cut:]
        return set().union(*buckets)

    def sweep(
        self, values: Sequence[Any], prefix: Sequence[int]
    ) -> Iterator[tuple[Iterable[int], int]]:
        """``(ids, event mask)`` for every run of thresholds a batch fulfils.

        ``values`` are the batch's event values for this attribute and
        domain, ascending; ``prefix[k]`` ORs the event masks of
        ``values[:k]``, and masks of different values are disjoint.
        Bisecting each value into the keys cuts them into runs: the keys
        between the cuts of ``values[k - 1]`` and ``values[k]`` are
        fulfilled by the values from ``values[k]`` on (``>``, ``>=``) or
        by those before it (``<``, ``<=``), the same events for the whole
        run.  So a batch costs one bisect per value and one mask per run,
        not one per key.
        """
        keys, buckets, below = self.keys, self.buckets, self.below
        cuts = [0]
        cuts.extend(self._side(keys, value) for value in values)
        cuts.append(len(keys))
        total = prefix[-1]
        for k, mask in enumerate(prefix):
            start, end = cuts[k], cuts[k + 1]
            if below:
                mask ^= total
            if mask and start < end:
                yield chain.from_iterable(buckets[start:end]), mask

    def __len__(self) -> int:
        return self._entries
