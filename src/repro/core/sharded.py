"""Sharded matching runtime: partition subscriptions across engine shards.

The paper benchmarks a single matcher; scaling to millions of
subscriptions needs the registered population split across several
independent matchers whose answers are unioned.  This module provides
that as a first-class engine: :class:`ShardedEngine` partitions
subscriptions across ``N`` inner shards — each built from any
:class:`~repro.core.registry.EngineSpec` — places them through a
:class:`ShardPartitioner` strategy, and evaluates them in one
in-process loop over the candidate shards.

Two properties make the design sound:

* **the partitioner owns the subscription→shard map** and every mutation
  flows through it (``assign`` on register, ``forget`` on unregister,
  ``plan_rebalance`` moves), so ``register``, ``unregister`` and event
  routing always agree on who owns what;
* **shards share the parent's phase-1 state** (predicate registry and
  index manager), so a fulfilled-predicate-id set means the same thing
  to every shard, one phase-1 pass per batch serves every shard, and
  ``match_fulfilled`` is simply the union of the shards' answers.

Partitioner strategies
----------------------
``hash``
    :func:`shard_index`, a Knuth multiplicative hash of the subscription
    id.  Stateless and perfectly balanced, but *blind*: every event must
    visit every shard, so sharding is pure overhead (``run_shard_sweep``
    curves scale negatively).  The default.
``routed``
    :class:`RoutedPartitioner` — places each subscription into an
    **event-space region group** derived from its expression summary
    (:func:`repro.subscriptions.summary.summarize`, the covering index's
    summary shape): subscriptions whose every DNF clause pins an
    attribute to a point are grouped by that anchor value set;
    subscriptions with tight interval hulls are grouped by hull
    signature; everything else lands in a universal group.  Whole groups
    map to shards, and a per-event digest probe (point lookups over the
    anchor index, interval admission over the merged scan hulls) yields
    the *candidate shard subset* — pruned shards are never probed, which
    is where the speedup over hash sharding comes from.  Group loads
    feed a greedy rebalancer that migrates whole groups off overloaded
    shards.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Iterable, Mapping, Sequence

from ..events.event import Event
from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.registry import PredicateRegistry
from ..subscriptions.subscription import Subscription
from ..subscriptions.summary import (
    ExpressionSummary,
    _hull,
    interval_admits,
    summarize,
)
from .base import FilterEngine, MatchCounters, UnknownSubscriptionError
from .registry import EngineSpec

#: Knuth's multiplicative constant (2^32 / phi); spreads consecutive ids.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 0xFFFFFFFF


def shard_index(subscription_id: int, shard_count: int) -> int:
    """The shard owning ``subscription_id`` — stable across runs.

    A multiplicative hash with the high half folded into the low half —
    a bare ``(id * C) % shards`` keeps ``id``'s own low bits for
    power-of-two shard counts, degenerating to round-robin, and plain
    ``id % shards`` aliases with any periodic id sequence.  Deliberately
    *not* Python's ``hash()``, whose string seed varies per process
    (ints are unseeded today, but the partitioner must never depend on
    that staying true).
    """
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    mixed = (subscription_id * _HASH_MULTIPLIER) & _HASH_MASK
    mixed ^= mixed >> 16
    return mixed % shard_count


# ----------------------------------------------------------------------
# partitioner strategies
# ----------------------------------------------------------------------
class ShardPartitioner(abc.ABC):
    """Strategy that places subscriptions on shards and routes events.

    A partitioner is bound to a shard count (:meth:`bind`) before any
    placement.  The engine calls :meth:`assign` on register (the
    partitioner remembers the placement), :meth:`forget` on unregister,
    and :meth:`shard_of` whenever it needs the current owner.  Routing
    partitioners (:attr:`routes` true) additionally narrow the per-event
    shard fan-out through :meth:`candidate_shards` and propose load
    migrations through :meth:`plan_rebalance`.

    **Soundness contract of** :meth:`candidate_shards`: the returned
    set must contain the shard of *every* subscription the event could
    match — over-approximation is fine (it only costs a probe), an
    omission loses matches.
    """

    #: Strategy name as it appears in specs and ``partitioner=`` options.
    name: str = "abstract"
    #: Whether :meth:`candidate_shards` ever prunes (``False`` lets the
    #: engine skip per-event routing work entirely).
    routes: bool = False

    def bind(self, shard_count: int) -> None:
        """Fix the shard count; called once, before any placement."""
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        self.shard_count = shard_count

    @abc.abstractmethod
    def assign(self, subscription: Subscription) -> int:
        """Place ``subscription`` and return its shard (remembered)."""

    def forget(self, subscription_id: int) -> None:
        """Drop the placement of ``subscription_id``."""

    @abc.abstractmethod
    def shard_of(self, subscription_id: int) -> int:
        """The shard currently owning ``subscription_id``."""

    def candidate_shards(self, event: Event) -> Iterable[int]:
        """Shards that may hold a subscription matching ``event``."""
        return range(self.shard_count)

    def plan_rebalance(self) -> list[tuple[int, int, int]]:
        """Load-balancing moves as ``(subscription_id, src, dst)`` tuples.

        The partitioner updates its own placement map before returning;
        the engine applies the corresponding shard migrations.
        An empty list means the placement is balanced enough.
        """
        return []

    def memory_breakdown(self) -> Mapping[str, int]:
        """Bytes of partitioner-owned routing state (paper cost model).

        Charged by :meth:`ShardedEngine.memory_breakdown` on top of the
        shards' own structures — routing digests are real phase-2 memory
        and hiding them would flatter the routed configurations.
        """
        return {}


class HashPartitioner(ShardPartitioner):
    """Stateless id-hash placement — every event visits every shard.

    The default.  Placement is a pure function of the subscription id,
    so there is nothing to remember, nothing to rebalance, and zero
    bytes of routing state (``shards=1`` hash configurations stay
    memory-identical to the unsharded engine).
    """

    name = "hash"
    routes = False

    def assign(self, subscription: Subscription) -> int:
        return shard_index(subscription.subscription_id, self.shard_count)

    def shard_of(self, subscription_id: int) -> int:
        return shard_index(subscription_id, self.shard_count)


class _RegionGroup:
    """One event-space region: a set of co-routed subscriptions.

    Groups are the unit of placement *and* migration — every member
    lives on :attr:`shard`, and rebalancing moves whole groups so the
    routing digest never has to split a region across shards.  Scan
    groups carry merged admission ``hulls`` (grow-only: member removal
    never shrinks them, which keeps removal O(1) at the cost of
    admitting conservatively until the group empties and is dropped).
    """

    __slots__ = ("key", "shard", "members", "hulls")

    def __init__(self, key: tuple, shard: int) -> None:
        self.key = key
        self.shard = shard
        self.members: set[int] = set()
        self.hulls: dict = {}

    def __repr__(self) -> str:
        return (
            f"_RegionGroup(key={self.key!r}, shard={self.shard}, "
            f"members={len(self.members)})"
        )


_UNIVERSAL_KEY = ("universal",)


class RoutedPartitioner(ShardPartitioner):
    """Region-based placement with per-event shard pruning.

    Placement
        Each subscription's expression summary
        (:func:`~repro.subscriptions.summary.summarize`, derived once
        per ``assign``) yields a region key:

        * ``("anchor", attr, values)`` when every satisfiable DNF clause
          pins ``attr`` to a point — the hot-key case; the group is
          registered in a point index under each anchor value;
        * ``("hulls", attrs)`` when the summary has tight interval
          hulls — the group is scanned with merged hull admission;
        * the universal key otherwise (no prunable structure): its group
          admits every event.

        A new anchor group goes to the **home shard** of its smallest
        anchor value (first-come, least-loaded; sticky while any live
        group anchors at that value, released once none does), so
        every group touching a key co-locates with that key's other
        groups — an event for the key then resolves to one or two
        shards instead of wherever load-balancing happened to scatter
        them.  Non-anchor groups go to the least-loaded shard.  Later
        members always follow their group (regions stay whole).

    Routing
        ``candidate_shards(event)`` unions the shards of (a) every scan
        group whose merged hulls admit the event — an event missing a
        hull attribute, or carrying a value outside the hull, cannot
        match any member (hull tightness, see the summary module) — and
        (b) every anchor group found by point lookup on the event's
        attribute values.  Everything else is pruned.

    Rebalancing
        When the max shard load exceeds ``imbalance_factor ×`` the mean,
        whole groups migrate greedily from the most- to the least-loaded
        shard, each move strictly lowering the peak; ``migrations``
        counts accepted moves.  Single-group skew (one giant region)
        cannot be split and is left alone.
    """

    name = "routed"
    routes = True

    def __init__(
        self,
        *,
        imbalance_factor: float = 1.5,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if imbalance_factor < 1.0:
            raise ValueError("imbalance_factor must be at least 1.0")
        self.imbalance_factor = imbalance_factor
        self._cost_model = cost_model
        #: accepted group migrations (rebalance effectiveness signal)
        self.migrations = 0
        self._assignments: dict[int, _RegionGroup] = {}
        self._groups: dict[tuple, _RegionGroup] = {}
        #: attr -> anchor value -> groups anchored there (point probes)
        self._point_index: dict[str, dict] = {}
        #: hull/universal groups, admission-scanned per event
        self._scan_groups: set[_RegionGroup] = set()
        #: (attr, anchor value) -> sticky home shard for new groups,
        #: held while a live group anchors at that value
        self._value_homes: dict[tuple, int] = {}
        self._loads: list[int] = []

    def bind(self, shard_count: int) -> None:
        super().bind(shard_count)
        self._loads = [0] * shard_count

    # -- placement ------------------------------------------------------
    @staticmethod
    def _region_key(summary: ExpressionSummary) -> tuple:
        anchors = summary.anchors
        if anchors:
            attribute = min(anchors)
            return ("anchor", attribute, anchors[attribute])
        if summary.hulls:
            return ("hulls", frozenset(summary.hulls))
        return _UNIVERSAL_KEY

    def assign(self, subscription: Subscription) -> int:
        sid = subscription.subscription_id
        summary = summarize(subscription.expression)
        key = self._region_key(summary)
        group = self._groups.get(key)
        if group is None:
            shard = self._place(key)
            group = _RegionGroup(key, shard)
            self._groups[key] = group
            if key[0] == "anchor":
                attr_map = self._point_index.setdefault(key[1], {})
                for value in key[2]:
                    attr_map.setdefault(value, set()).add(group)
            else:
                self._scan_groups.add(group)
        if key[0] == "hulls":
            self._merge_hulls(group, summary)
        group.members.add(sid)
        self._assignments[sid] = group
        self._loads[group.shard] += 1
        return group.shard

    def _place(self, key: tuple) -> int:
        """The shard a brand-new region group starts on.

        Anchor groups pin to the sticky home of their smallest anchor
        value: subscriptions sharing a key end up on the same shard, so
        an event for that key prunes everything else.  Spreading such
        groups by load instead would drag every key's interest onto
        every shard and leave nothing to prune — load problems are the
        rebalancer's job, not placement's.  An empty anchor set (the
        unsatisfiable ``x = 1 and x = 2``) has no home: no event reaches it.
        """
        loads = self._loads
        if key[0] == "anchor" and key[2]:
            # keyed by the smallest anchor value; repr-ordered so mixed
            # value domains stay deterministic instead of raising
            anchor = min(key[2], key=lambda v: (type(v).__name__, repr(v)))
            home_key = (key[1], anchor)
            home = self._value_homes.get(home_key)
            if home is None:
                home = min(range(self.shard_count), key=loads.__getitem__)
                self._value_homes[home_key] = home
            return home
        return min(range(self.shard_count), key=loads.__getitem__)

    @staticmethod
    def _admission_hulls(summary) -> dict:
        """The tightest sound admission interval per tight attribute.

        ``summary.hulls`` guarantees *presence* (every clause carries a
        positive interval literal, so a matching event must carry the
        attribute) but unions literal-level intervals — for a range
        subscription like ``value > 10 and value < 20`` that union is
        unbounded.  ``summary.clause_hulls`` holds the per-clause
        *intersection* hull (the event value must satisfy every positive
        literal of some clause), which is tight for exactly those
        shapes; fall back to the literal hull when the clause hull is
        unusable (cross-domain bounds or unsatisfiable).
        """
        hulls = {}
        for attribute, hull in summary.hulls.items():
            clause_hull = summary.clause_hulls.get(attribute)
            hulls[attribute] = (
                clause_hull if isinstance(clause_hull, tuple) else hull
            )
        return hulls

    def _merge_hulls(
        self, group: _RegionGroup, summary: ExpressionSummary
    ) -> None:
        """Grow the group's admission hulls to cover the new member."""
        incoming_hulls = self._admission_hulls(summary)
        if not group.members:
            group.hulls = incoming_hulls
            return
        for attribute in list(group.hulls):
            incoming = incoming_hulls[attribute]
            try:
                group.hulls[attribute] = _hull(group.hulls[attribute], incoming)
            except TypeError:
                # cross-domain members: no usable interval on this
                # attribute any more — admission falls back to presence
                del group.hulls[attribute]

    def forget(self, subscription_id: int) -> None:
        group = self._assignments.pop(subscription_id)
        group.members.discard(subscription_id)
        self._loads[group.shard] -= 1
        if group.members:
            return
        del self._groups[group.key]
        key = group.key
        if key[0] == "anchor":
            attr_map = self._point_index.get(key[1], {})
            for value in key[2]:
                groups = attr_map.get(value)
                if groups is not None:
                    groups.discard(group)
                    if not groups:
                        # no live group anchors here: release the home
                        del attr_map[value]
                        self._value_homes.pop((key[1], value), None)
            if not attr_map:
                self._point_index.pop(key[1], None)
        else:
            self._scan_groups.discard(group)

    def shard_of(self, subscription_id: int) -> int:
        return self._assignments[subscription_id].shard

    # -- routing --------------------------------------------------------
    def candidate_shards(self, event: Event) -> set[int]:
        shard_count = self.shard_count
        shards: set[int] = set()
        for group in self._scan_groups:
            if group.shard in shards:
                continue
            for attribute, hull in group.hulls.items():
                value = event.get(attribute)
                if value is None or not interval_admits(hull, value):
                    break
            else:
                shards.add(group.shard)
                if len(shards) == shard_count:
                    return shards
        for attribute, value_map in self._point_index.items():
            value = event.get(attribute)
            if value is None:
                continue
            groups = value_map.get(value)
            if not groups:
                continue
            for group in groups:
                shards.add(group.shard)
            if len(shards) == shard_count:
                return shards
        return shards

    # -- rebalancing ----------------------------------------------------
    def plan_rebalance(self) -> list[tuple[int, int, int]]:
        if self.shard_count <= 1:
            return []
        loads = self._loads
        total = sum(loads)
        if not total:
            return []
        threshold = self.imbalance_factor * (total / self.shard_count)
        if max(loads) <= threshold:
            return []
        moves: list[tuple[int, int, int]] = []
        moved: set[int] = set()
        while max(loads) > threshold:
            src = max(range(self.shard_count), key=loads.__getitem__)
            dst = min(range(self.shard_count), key=loads.__getitem__)
            best: _RegionGroup | None = None
            for group in self._groups.values():
                if group.shard != src or id(group) in moved:
                    continue
                size = len(group.members)
                # only moves that strictly lower the peak terminate the
                # loop; anything else could oscillate forever
                if size and loads[dst] + size < loads[src]:
                    if best is None or size > len(best.members):
                        best = group
            if best is None:
                break
            moved.add(id(best))
            size = len(best.members)
            loads[src] -= size
            loads[dst] += size
            best.shard = dst
            self.migrations += 1
            moves.extend((sid, src, dst) for sid in sorted(best.members))
        return moves

    # -- memory ---------------------------------------------------------
    def memory_breakdown(self) -> Mapping[str, int]:
        """Routing-digest bytes under the paper's cost model.

        One location-table entry per placed subscription, one keyed slot
        per group (plus two interval bounds per merged hull), and one
        keyed slot plus a group pointer per point-index posting — the
        same per-entry constants the engines' association/location
        tables use, so routed and hash configurations compare fairly.
        """
        model = self._cost_model
        total = model.location_table_bytes(len(self._assignments))
        total += len(self._value_homes) * (
            model.table_entry_overhead_bytes + model.pointer_bytes
        )
        for group in self._groups.values():
            total += model.table_entry_overhead_bytes + model.pointer_bytes
            total += len(group.hulls) * 2 * model.pointer_bytes
        for value_map in self._point_index.values():
            total += model.table_entry_overhead_bytes
            for groups in value_map.values():
                total += (
                    model.table_entry_overhead_bytes
                    + len(groups) * model.pointer_bytes
                )
        return {"shard_router": total}


#: partitioner name -> strategy class
_PARTITIONERS: dict[str, type[ShardPartitioner]] = {
    "hash": HashPartitioner,
    "routed": RoutedPartitioner,
}


def partitioner_names() -> tuple[str, ...]:
    """The partitioner strategy names."""
    return tuple(_PARTITIONERS)


def make_partitioner(partitioner: ShardPartitioner | str) -> ShardPartitioner:
    """Resolve a partitioner strategy instance or name."""
    if isinstance(partitioner, ShardPartitioner):
        return partitioner
    try:
        factory = _PARTITIONERS[partitioner]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown partitioner {partitioner!r}; partitioners: "
            f"{', '.join(partitioner_names())}"
        ) from None
    return factory()


# ----------------------------------------------------------------------
# the sharded engine
# ----------------------------------------------------------------------
class ShardedEngine(FilterEngine):
    """Partition subscriptions across N inner engines built from one spec.

    Parameters
    ----------
    spec:
        Inner-engine configuration — an
        :class:`~repro.core.registry.EngineSpec`, a registry name, or
        ``None`` for the default non-canonical engine.  The spec may not
        itself be sharded (no nesting).
    shards:
        Number of inner shards (>= 1).
    partitioner:
        Placement strategy: a name (``"hash"``, ``"routed"``) or a
        :class:`ShardPartitioner` instance.
    registry / indexes:
        Shared phase-1 state, as for every engine; all shards share it,
        so one phase-1 pass serves every shard.
    """

    name = "sharded"

    def __init__(
        self,
        spec: EngineSpec | str | None = None,
        *,
        shards: int = 2,
        partitioner: ShardPartitioner | str = "hash",
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
    ) -> None:
        super().__init__(registry=registry, indexes=indexes)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if spec is None:
            spec = EngineSpec("noncanonical")
        elif isinstance(spec, str):
            spec = EngineSpec(spec)
        if any(
            option in spec.options
            for option in ("shards", "executor", "partitioner")
        ):
            raise ValueError(
                f"inner spec {spec!r} is itself sharded; nested sharding "
                "is not supported"
            )
        self.spec = spec
        self.shard_count = shards
        self._shards: list[FilterEngine] = [
            spec.build(registry=self.registry, indexes=self.indexes)
            for _ in range(shards)
        ]
        self._subscriptions: dict[int, Subscription] = {}
        self._partitioner = make_partitioner(partitioner)
        self._partitioner.bind(shards)
        self.name = f"{self._shards[0].name}×{shards}"
        # one shared phase-1 bit matrix can feed every shard's phase 2
        # iff the shards have a matrix kernel; otherwise the set pipeline
        # stays (expanding the matrix per shard would multiply the
        # transpose cost by the shard count)
        self._matrix_capable = all(shard.has_matrix_kernel for shard in self._shards)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def partitioner(self) -> ShardPartitioner:
        """The active partitioner strategy instance."""
        return self._partitioner

    @property
    def shards(self) -> tuple[FilterEngine, ...]:
        """The in-process shard engines, in shard order."""
        return tuple(self._shards)

    def shard_of(self, subscription_id: int) -> int:
        """The shard currently owning ``subscription_id``."""
        return self._partitioner.shard_of(subscription_id)

    @property
    def counters(self) -> MatchCounters:
        """Aggregated phase-2 work counters, summed across the shards.

        The parent contributes its own routing counters
        (``shards_probed``/``shards_pruned``).
        """
        total = MatchCounters(**self._counters.snapshot())
        for shard in self._shards:
            total = total + shard.counters
        return total

    def reset_counters(self) -> None:
        self._counters.reset()
        for shard in self._shards:
            shard.reset_counters()

    def stats(self) -> dict:
        entry = super().stats()
        entry["shards"] = self.shard_count
        entry["partitioner"] = self._partitioner.name
        return entry

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, subscription: Subscription) -> None:
        """Route to the shard the partitioner picks; mirror the change."""
        sid = subscription.subscription_id
        if sid in self._subscriptions:
            raise ValueError(f"subscription id {sid} already registered")
        shard = self._partitioner.assign(subscription)
        try:
            # may raise UnsupportedSubscriptionError
            self._shards[shard].register(subscription)
        except BaseException:
            self._partitioner.forget(sid)
            raise
        self._subscriptions[sid] = subscription
        self._maybe_rebalance()

    def unregister(self, subscription_id: int) -> None:
        if subscription_id not in self._subscriptions:
            raise UnknownSubscriptionError(subscription_id)
        shard = self._partitioner.shard_of(subscription_id)
        self._shards[shard].unregister(subscription_id)
        self._partitioner.forget(subscription_id)
        del self._subscriptions[subscription_id]
        self._maybe_rebalance()

    def _maybe_rebalance(self) -> None:
        """Apply the partitioner's migration plan, if any.

        Moves flow through the ordinary shard register/unregister calls.
        """
        for sid, src, dst in self._partitioner.plan_rebalance():
            self._shards[src].unregister(sid)
            self._shards[dst].register(self._subscriptions[sid])

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    @property
    def stored_subscription_count(self) -> int:
        return sum(shard.stored_subscription_count for shard in self._shards)

    def subscription_ids(self) -> frozenset[int]:
        return frozenset(self._subscriptions)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(self, event: Event) -> set[int]:
        """A batch of one through :meth:`match_batch` (same pruning and
        counters)."""
        return self.match_batch([event])[0]

    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Union of the shards' phase-2 answers.

        No event is in scope here, so no shard pruning: fulfilled ids
        alone cannot tell which event-space region produced them.
        """
        return set().union(
            *(shard.match_fulfilled(fulfilled_ids) for shard in self._shards)
        )

    def _partition_events(self, events: Sequence[Event]) -> list[list[int]]:
        """Per-shard candidate-event index lists (ascending), counted.

        ``result[s]`` holds the indices of the events shard ``s`` must
        evaluate; events routed away from a shard are counted as pruned.
        A non-routing partitioner gives every shard every event.
        """
        counters = self._counters
        if not self._partitioner.routes:
            counters.shards_probed += self.shard_count * len(events)
            return [list(range(len(events)))] * self.shard_count
        shard_events: list[list[int]] = [[] for _ in range(self.shard_count)]
        probed = 0
        partitioner = self._partitioner
        for index, event in enumerate(events):
            candidates = partitioner.candidate_shards(event)
            for shard in candidates:
                shard_events[shard].append(index)
            probed += len(candidates)
        counters.shards_probed += probed
        counters.shards_pruned += self.shard_count * len(events) - probed
        return shard_events

    def match_batch(self, events: Sequence[Event]) -> list[set[int]]:
        """Batch matching over the candidate shards, in one loop.

        The partitioner first computes each event's candidate shard
        subset; pruned shards are never probed.  One shared phase-1 pass
        feeds phase 2 on the candidate shards: row-mask slices of one bit
        matrix (:meth:`FulfilledMatrix.select` keeps the batch's
        numbering, so a shard's answer ``i`` is event ``i``'s) when the
        shards have a matrix kernel, per-event id sets otherwise.  A
        batch of one takes the per-event phase 1 and ``match_fulfilled``.
        """
        events = list(events)
        if not events:
            return []
        results: list[set[int]] = [set() for _ in events]
        live = [
            (self._shards[shard], indices)
            for shard, indices in enumerate(self._partition_events(events))
            if indices
        ]
        if not live:
            return results
        if len(events) == 1:
            fulfilled_ids = self.indexes.match(events[0])
            for shard, _ in live:
                results[0] |= shard.match_fulfilled(fulfilled_ids)
        elif self._matrix_capable:
            matrix = self.indexes.match_batch_bits(events)
            for shard, indices in live:
                answers = shard.match_fulfilled_matrix(matrix.select(indices))
                for index in indices:
                    results[index] |= answers[index]
        else:
            fulfilled = self.indexes.match_batch(events)
            for shard, indices in live:
                answers = shard.match_fulfilled_batch([fulfilled[i] for i in indices])
                for index, matched in zip(indices, answers):
                    results[index] |= matched
        return results

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> Mapping[str, int]:
        """Aggregated per-structure bytes, summed across shards.

        The partitioner's routing digest is charged on top (key
        ``shard_router``): region groups, merged hulls and the anchor
        point index are phase-2 state the routed configuration pays for
        its pruning, exactly like the engines' own tables — see the
        memory-policy note in DESIGN §9/§10.  The hash partitioner
        charges nothing, keeping ``shards=1`` memory identical to the
        unsharded engine.
        """
        total: dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.memory_breakdown().items():
                total[key] = total.get(key, 0) + value
        for key, value in self._partitioner.memory_breakdown().items():
            total[key] = total.get(key, 0) + value
        return total

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the shards."""
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedEngine({self.spec.name!r}, shards={self.shard_count}, "
            f"partitioner={self._partitioner.name!r}, "
            f"subscriptions={self.subscription_count})"
        )
