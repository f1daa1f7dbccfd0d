"""Phase-1 predicate matching: the per-attribute index manager.

"In the first step of event filtering (predicate matching) all predicates
matching an event e are determined ... accomplished by the application of
one-dimensional index structures such as hash tables or B+ trees ...
applied based on operators used in predicates" (paper §3.2).

The :class:`IndexManager` owns one :class:`AttributeIndexes` bundle per
attribute name; each bundle holds the operator-family structures that
attribute's predicates need, created on first use:

* ``=`` and ``!=`` predicates sit in hash indexes, one per operand
  *kind*: bools apart from every other value, because under these
  operators ``True`` equals ``True`` only, never ``1``;
* ``in`` and ``exists`` predicates sit in hash indexes too;
* ``<``, ``<=``, ``>`` and ``>=`` predicates sit in sorted threshold
  arrays (:mod:`repro.indexes.thresholds`), ``between`` predicates in an
  interval index, one per operand *domain*: numbers and strings do not
  order against each other, and bools order against nothing;
* ``prefix``/``suffix`` predicates sit in tries, ``contains`` in a scan
  list.

Phase 1 reads these structures in two ways:

* ``match(event)`` walks the event's attributes once — "applying indexes
  means to evaluate each attribute only once" (§2.1) — and returns the
  set of fulfilled predicate ids.  Each order structure answers with one
  bisect.
* ``match_batch_bits(events)`` evaluates each attribute once per
  *batch*.  It groups the batch's values per attribute, sorts them once
  per domain and builds prefix-OR event masks over the sorted values
  (the ``BitList`` idiom of SNIPPETS Snippet 3).  Every threshold's
  column is then one bisect and one int operation, and every interval's
  two bisects.  The hash families take one lookup per distinct value,
  and ``!=`` is the present mask XOR the ``=`` mask.  The result is a
  :class:`~repro.core.bitset.FulfilledMatrix`; ``match_batch`` expands
  it to per-event id sets.

A batch costs O(predicates + values · log values) per attribute and no
longer grows with (distinct value × fulfilled id) pairs, so nothing is
cached between batches and no state outlives a call.

NaN follows :meth:`~repro.predicates.predicate.Predicate.matches`: it
fulfils no order or ``between`` predicate and equals nothing.  NaN event
values skip the order structures (in the batch sweep a NaN in the sort
would corrupt every other event's prefix mask), and order predicates
with a NaN operand are registered but held in no structure.

All engines share this phase; the paper's comparison (and ours) is about
what happens *after* it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..events.event import Event
from ..predicates.operators import Operator
from ..predicates.predicate import Predicate
from .base import PredicateIndex
from .hash_index import EqualityIndex, ExistsIndex, MembershipIndex, NotEqualIndex
from .interval_index import IntervalIndex
from .thresholds import SortedThresholds
from .trie import ContainsScanList, PrefixTrie, SuffixTrie

_NUMERIC = "numeric"
_STRING = "string"


def _domain(value) -> str | None:
    """Order domain of a non-bool value; ``None`` for NaN."""
    if isinstance(value, str):
        return _STRING
    return _NUMERIC if value == value else None


def _order_domain(predicate: Predicate) -> str | None:
    """Domain of an order or ``between`` predicate; ``None`` on a NaN bound."""
    if predicate.operator is Operator.BETWEEN:
        low, high = predicate.value
        return _domain(low) if high == high else None
    return _domain(predicate.value)


def _is_bool(predicate: Predicate) -> bool:
    """The hash-family kind of an ``=``/``!=`` predicate's operand."""
    return predicate.value.__class__ is bool


class AttributeIndexes:
    """All index structures for one attribute, created on first use."""

    __slots__ = (
        "equality",
        "not_equal",
        "membership",
        "exists",
        "order",
        "intervals",
        "prefix",
        "suffix",
        "contains",
        "entries",
    )

    def __init__(self) -> None:
        #: {operand is a bool: index} for ``=`` and ``!=`` predicates
        self.equality: dict[bool, EqualityIndex] = {}
        self.not_equal: dict[bool, NotEqualIndex] = {}
        self.membership: MembershipIndex | None = None
        self.exists: ExistsIndex | None = None
        #: {(domain, operator): thresholds} for LT/LE/GT/GE predicates
        self.order: dict[tuple[str, Operator], SortedThresholds] = {}
        #: {domain: IntervalIndex} for BETWEEN predicates
        self.intervals: dict[str, IntervalIndex] = {}
        self.prefix: PrefixTrie | None = None
        self.suffix: SuffixTrie | None = None
        self.contains: ContainsScanList | None = None
        #: predicates held across all structures
        self.entries = 0

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match_value(self, value, fulfilled: set[int]) -> None:
        """Add the ids one event value fulfils to ``fulfilled``."""
        kind = value.__class__ is bool
        for index in (
            self.equality.get(kind),
            self.not_equal.get(kind),
            self.membership,
            self.exists,
        ):
            if index is not None:
                fulfilled.update(index.match(value))
        if kind:
            return
        domain = _domain(value)
        for (index_domain, _), index in self.order.items():
            if index_domain == domain:
                fulfilled.update(index.match(value))
        interval = self.intervals.get(domain)
        if interval is not None:
            fulfilled.update(interval.match(value))
        if domain == _STRING:
            for index in (self.prefix, self.suffix, self.contains):
                if index is not None:
                    fulfilled.update(index.match(value))

    def sweep(self, kinds: tuple[dict, dict], hits: list) -> None:
        """Append ``(ids, event mask)`` pairs for every fulfilled predicate.

        ``kinds`` holds two maps from the distinct values a batch carries
        for this attribute to the mask of the events carrying them: other
        values first, then bools.  Keys merge by equality within a kind,
        so ``1`` and ``1.0`` share a mask while ``True`` keeps its own.
        The masks are disjoint, since an event carries an attribute once.
        """
        membership = self.membership
        for is_bool, by_value in zip((False, True), kinds):
            if not by_value:
                continue
            for index in (self.equality.get(is_bool), membership):
                if index is not None:
                    hits.extend(index.sweep(by_value))
            not_equal = self.not_equal.get(is_bool)
            if self.exists is not None or not_equal is not None:
                present = 0
                for mask in by_value.values():
                    present |= mask
                if self.exists is not None:
                    hits.append((self.exists.match(None), present))
                if not_equal is not None:
                    hits.extend(not_equal.sweep(present, by_value))
        tries = [
            index
            for index in (self.prefix, self.suffix, self.contains)
            if index is not None
        ]
        if not (kinds[0] and (tries or self.order or self.intervals)):
            return
        numbers: list[tuple] = []
        strings: list[tuple] = []
        for value, mask in kinds[0].items():
            if isinstance(value, str):
                strings.append((value, mask))
            elif value == value:  # NaN orders with nothing
                numbers.append((value, mask))
        for index in tries:
            for value, mask in strings:
                ids = set(index.match(value))
                if ids:
                    hits.append((ids, mask))
        for domain, pairs in ((_NUMERIC, numbers), (_STRING, strings)):
            if not pairs:
                continue
            structures: list = [
                index
                for (index_domain, _), index in self.order.items()
                if index_domain == domain
            ]
            interval = self.intervals.get(domain)
            if interval is not None:
                structures.append(interval)
            if not structures:
                continue
            # one sort per domain, then prefix-OR masks over it
            pairs.sort()
            values = [value for value, _ in pairs]
            prefix = [0]
            acc = 0
            for _, mask in pairs:
                acc |= mask
                prefix.append(acc)
            for index in structures:
                hits.extend(index.sweep(values, prefix))


# ----------------------------------------------------------------------
# declarative operator -> slot dispatch
# ----------------------------------------------------------------------
def _operand(predicate: Predicate) -> object:
    """A predicate's operand: the key most structures index it under."""
    return predicate.value


@dataclass(frozen=True)
class OperatorSlot:
    """Where one operator family stores its predicates.

    ``find`` returns the existing structure for a predicate (or ``None``
    when absent), ``create`` builds and attaches a fresh one, and ``key``
    maps the predicate to the value inserted into / removed from the
    structure.  ``add`` and ``remove`` are generic over these three
    callables.
    """

    find: Callable[[AttributeIndexes, Predicate], PredicateIndex | None]
    create: Callable[[AttributeIndexes, Predicate], PredicateIndex]
    key: Callable[[Predicate], object] = _operand
    #: whether the structure orders its operands, so a NaN one (which
    #: orders with nothing) is kept out of it
    ordered: bool = False


def _attribute_slot(attribute: str, factory: Callable[[], PredicateIndex]):
    """A slot living in a plain ``AttributeIndexes`` attribute."""

    def find(bundle: AttributeIndexes, predicate: Predicate):
        return getattr(bundle, attribute)

    def create(bundle: AttributeIndexes, predicate: Predicate):
        index = factory()
        setattr(bundle, attribute, index)
        return index

    return OperatorSlot(find=find, create=create)


def _keyed_slot(
    attribute: str,
    slot_key: Callable[[Predicate], object],
    factory: Callable[[], PredicateIndex],
    *,
    ordered: bool = False,
) -> OperatorSlot:
    """A slot in an ``AttributeIndexes`` dict, keyed by ``slot_key``."""

    def find(bundle: AttributeIndexes, predicate: Predicate):
        return getattr(bundle, attribute).get(slot_key(predicate))

    def create(bundle: AttributeIndexes, predicate: Predicate):
        index = getattr(bundle, attribute)[slot_key(predicate)] = factory()
        return index

    return OperatorSlot(find=find, create=create, ordered=ordered)


def _order_slot(operator: Operator, *, below: bool, inclusive: bool) -> OperatorSlot:
    """A slot keyed by (operand domain, operator) in ``order``."""
    return _keyed_slot(
        "order",
        lambda predicate: (_order_domain(predicate), operator),
        lambda: SortedThresholds(below=below, inclusive=inclusive),
        ordered=True,
    )


#: The dispatch registry: one entry per supported operator.  New
#: operators plug in here without touching ``add``/``remove``.
OPERATOR_SLOTS: dict[Operator, OperatorSlot] = {
    Operator.EQ: _keyed_slot("equality", _is_bool, EqualityIndex),
    Operator.NE: _keyed_slot("not_equal", _is_bool, NotEqualIndex),
    Operator.IN: _attribute_slot("membership", MembershipIndex),
    Operator.EXISTS: _attribute_slot("exists", ExistsIndex),
    Operator.LT: _order_slot(Operator.LT, below=False, inclusive=False),
    Operator.LE: _order_slot(Operator.LE, below=False, inclusive=True),
    Operator.GT: _order_slot(Operator.GT, below=True, inclusive=False),
    Operator.GE: _order_slot(Operator.GE, below=True, inclusive=True),
    Operator.BETWEEN: _keyed_slot(
        "intervals", _order_domain, IntervalIndex, ordered=True
    ),
    Operator.PREFIX: _attribute_slot("prefix", PrefixTrie),
    Operator.SUFFIX: _attribute_slot("suffix", SuffixTrie),
    Operator.CONTAINS: _attribute_slot("contains", ContainsScanList),
}


def _indexed(slot: OperatorSlot, predicate: Predicate) -> bool:
    """Whether a structure holds ``predicate``: all but NaN-bound orders."""
    return not slot.ordered or _order_domain(predicate) is not None


class IndexManager:
    """Registers predicates into per-attribute indexes and matches events."""

    def __init__(self) -> None:
        self._attributes: dict[str, AttributeIndexes] = {}
        self._registered: dict[int, Predicate] = {}
        #: column count of the batch matrices: highest id indexed + 1
        self._width = 1

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, predicate: Predicate, predicate_id: int) -> None:
        """Index ``predicate`` under ``predicate_id``.

        Idempotent per id: re-adding an id already indexed is a no-op
        (predicates are shared across subscriptions and refcounted by the
        registry; the index holds each live predicate exactly once).
        """
        if predicate_id in self._registered:
            return
        slot = OPERATOR_SLOTS[predicate.operator]
        if _indexed(slot, predicate):
            bundle = self._attributes.get(predicate.attribute)
            if bundle is None:
                bundle = self._attributes[predicate.attribute] = AttributeIndexes()
            index = slot.find(bundle, predicate)
            if index is None:
                index = slot.create(bundle, predicate)
            index.insert(slot.key(predicate), predicate_id)
            bundle.entries += 1
        self._registered[predicate_id] = predicate
        if predicate_id >= self._width:
            self._width = predicate_id + 1

    def remove(self, predicate_id: int) -> bool:
        """Drop ``predicate_id`` from its index; returns ``True`` if present."""
        predicate = self._registered.pop(predicate_id, None)
        if predicate is None:
            return False
        slot = OPERATOR_SLOTS[predicate.operator]
        if _indexed(slot, predicate):
            bundle = self._attributes[predicate.attribute]
            slot.find(bundle, predicate).remove(slot.key(predicate), predicate_id)
            bundle.entries -= 1
            if not bundle.entries:
                del self._attributes[predicate.attribute]
        return True

    @property
    def width(self) -> int:
        """Column count of the batch matrices: the highest id indexed + 1.

        Column ``pid`` is predicate ``pid``.  The registry recycles
        released ids, so the width follows the peak number of live
        predicates, not the registration traffic.
        """
        return self._width

    # ------------------------------------------------------------------
    # matching (phase 1)
    # ------------------------------------------------------------------
    def match(self, event: Event) -> set[int]:
        """All predicate ids fulfilled by ``event`` — the phase-1 output."""
        fulfilled: set[int] = set()
        attributes = self._attributes
        for attribute, value in event.items():
            bundle = attributes.get(attribute)
            if bundle is not None:
                bundle.match_value(value, fulfilled)
        return fulfilled

    def match_batch(self, events: Sequence[Event]) -> list[set[int]]:
        """Phase 1 over a batch as per-event id sets.

        Result ``i`` equals ``match(events[i])``: the batch sweep's
        matrix, expanded row by row.
        """
        return self._sweep(events).to_id_sets()

    def match_batch_bits(self, events: Sequence[Event]):
        """Phase 1 over a batch, in the kernel's column-major bit form.

        Returns a :class:`~repro.core.bitset.FulfilledMatrix`: one
        event-space integer column per predicate id, built by one sweep
        per attribute (see the module docstring).
        """
        return self._sweep(events)

    def _sweep(self, events: Sequence[Event]):
        """The one batch phase-1 implementation behind both batch forms."""
        # deferred: ``core`` imports this module at package init
        from ..core.bitset import FulfilledMatrix

        attributes = self._attributes
        # attribute -> ({value: event mask}, {bool value: event mask})
        groups: dict[str, tuple[dict, dict]] = {}
        event_bit = 1
        for event in events:
            for attribute, value in event.items():
                kinds = groups.get(attribute)
                if kinds is None:
                    if attribute not in attributes:
                        continue
                    kinds = groups[attribute] = ({}, {})
                by_value = kinds[value.__class__ is bool]
                by_value[value] = by_value.get(value, 0) | event_bit
            event_bit <<= 1
        hits: list[tuple[Iterable[int], int]] = []
        for attribute, kinds in groups.items():
            attributes[attribute].sweep(kinds, hits)
        columns = [0] * self._width
        active_bits: list[int] = []
        for ids, mask in hits:
            for pid in ids:
                column = columns[pid]
                if not column:
                    active_bits.append(pid)
                columns[pid] = column | mask
        return FulfilledMatrix(columns, active_bits, len(events))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of indexed predicates."""
        return len(self._registered)

    def __contains__(self, predicate_id: int) -> bool:
        return predicate_id in self._registered

    def attributes(self) -> Iterator[str]:
        """Attribute names with at least one indexed predicate."""
        return iter(self._attributes)

    def predicate(self, predicate_id: int) -> Predicate:
        """The predicate indexed under ``predicate_id``."""
        return self._registered[predicate_id]
