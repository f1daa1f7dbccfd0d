"""Hash-based indexes for point predicates.

"Point predicates utilise hash tables" (paper §3.2).  Four flavours:

* :class:`EqualityIndex` — ``attr = v`` predicates;
* :class:`NotEqualIndex` — ``attr != v`` predicates (matched by
  complement: all NE predicates minus those whose operand equals the
  event value);
* :class:`MembershipIndex` — ``attr in {v1, ...}`` predicates, indexed
  once per alternative;
* :class:`ExistsIndex` — ``exists(attr)`` predicates, fulfilled by any
  event carrying the attribute.

A NaN operand equals no value, itself included, while a dict lookup
would find the very NaN object it was stored under; the ``=`` and
``!=`` indexes therefore file NaN operands under a key no event value
can reach.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from .base import PredicateIndex

#: Bucket key of NaN operands: no event value looks it up.
_UNEQUAL = object()


def _bucket_key(operand: Any) -> Any:
    """The bucket key of an ``=``/``!=`` operand (NaN equals nothing)."""
    return operand if operand == operand else _UNEQUAL


def _sweep_buckets(
    buckets: Mapping[Any, set[int]], masks: Mapping[Any, int]
) -> Iterator[tuple[set[int], int]]:
    """``(bucket, event mask)`` for every bucket a batch's values hit.

    ``masks`` maps each distinct event value to the mask of the events
    carrying it.  The join walks the smaller side: one hash lookup per
    operand or per value, whichever is fewer.
    """
    if len(buckets) < len(masks):
        for operand, bucket in buckets.items():
            mask = masks.get(operand)
            if mask:
                yield bucket, mask
    else:
        for value, mask in masks.items():
            bucket = buckets.get(value)
            if bucket:
                yield bucket, mask


class EqualityIndex(PredicateIndex):
    """operand value → ids of ``= value`` predicates."""

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}
        self._entries = 0

    def insert(self, operand: Any, predicate_id: int) -> None:
        bucket = self._buckets.setdefault(_bucket_key(operand), set())
        if predicate_id not in bucket:
            bucket.add(predicate_id)
            self._entries += 1

    def remove(self, operand: Any, predicate_id: int) -> bool:
        key = _bucket_key(operand)
        bucket = self._buckets.get(key)
        if bucket is None or predicate_id not in bucket:
            return False
        bucket.discard(predicate_id)
        self._entries -= 1
        if not bucket:
            del self._buckets[key]
        return True

    def match(self, value: Any) -> Iterable[int]:
        return self._buckets.get(value, ())

    def sweep(self, masks: Mapping[Any, int]) -> Iterator[tuple[set[int], int]]:
        """``(bucket, event mask)`` per operand a batch's values equal."""
        return _sweep_buckets(self._buckets, masks)

    def __len__(self) -> int:
        return self._entries

    def operands(self) -> Iterator[Any]:
        """Distinct indexed operand values (NaN operands excepted)."""
        return (key for key in self._buckets if key is not _UNEQUAL)


class NotEqualIndex(PredicateIndex):
    """Ids of ``!= value`` predicates, matched by complement.

    An event value ``x`` fulfils every NE predicate except those whose
    operand equals ``x`` — one hash lookup plus a set difference.
    """

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}
        self._all: set[int] = set()

    def insert(self, operand: Any, predicate_id: int) -> None:
        if predicate_id in self._all:
            return
        self._buckets.setdefault(_bucket_key(operand), set()).add(predicate_id)
        self._all.add(predicate_id)

    def remove(self, operand: Any, predicate_id: int) -> bool:
        key = _bucket_key(operand)
        bucket = self._buckets.get(key)
        if bucket is None or predicate_id not in bucket:
            return False
        bucket.discard(predicate_id)
        self._all.discard(predicate_id)
        if not bucket:
            del self._buckets[key]
        return True

    def match(self, value: Any) -> Iterable[int]:
        excluded = self._buckets.get(value)
        if not excluded:
            return set(self._all)
        return self._all - excluded

    def sweep(
        self, present: int, equal: Mapping[Any, int]
    ) -> Iterator[tuple[set[int], int]]:
        """``(bucket, event mask)`` per operand over a batch.

        ``present`` masks the events carrying the attribute and
        ``equal`` maps each of their values to the mask of the events
        carrying it, so an operand's events are ``present`` XOR its
        ``=`` mask: one hash lookup per operand.
        """
        for operand, bucket in self._buckets.items():
            mask = present ^ equal.get(operand, 0)
            if mask:
                yield bucket, mask

    def __len__(self) -> int:
        return len(self._all)


class MembershipIndex(PredicateIndex):
    """``attr in {alternatives}`` predicates, indexed per alternative.

    ``insert`` takes the *full* frozenset operand and fans out.
    """

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}
        self._ids: set[int] = set()

    def insert(self, operand: Any, predicate_id: int) -> None:
        if predicate_id in self._ids:
            return
        for alternative in operand:
            self._buckets.setdefault(alternative, set()).add(predicate_id)
        self._ids.add(predicate_id)

    def remove(self, operand: Any, predicate_id: int) -> bool:
        if predicate_id not in self._ids:
            return False
        for alternative in operand:
            bucket = self._buckets.get(alternative)
            if bucket is not None:
                bucket.discard(predicate_id)
                if not bucket:
                    del self._buckets[alternative]
        self._ids.discard(predicate_id)
        return True

    def match(self, value: Any) -> Iterable[int]:
        return self._buckets.get(value, ())

    def sweep(self, masks: Mapping[Any, int]) -> Iterator[tuple[set[int], int]]:
        """``(bucket, event mask)`` per alternative a batch's values hit."""
        return _sweep_buckets(self._buckets, masks)

    def __len__(self) -> int:
        return len(self._ids)


class ExistsIndex(PredicateIndex):
    """``exists(attr)`` predicates — fulfilled by any value."""

    def __init__(self) -> None:
        self._ids: set[int] = set()

    def insert(self, operand: Any, predicate_id: int) -> None:
        self._ids.add(predicate_id)

    def remove(self, operand: Any, predicate_id: int) -> bool:
        if predicate_id not in self._ids:
            return False
        self._ids.discard(predicate_id)
        return True

    def match(self, value: Any) -> Iterable[int]:
        return set(self._ids)

    def __len__(self) -> int:
        return len(self._ids)
