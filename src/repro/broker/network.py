"""Broker overlay network with content-based routing.

Models the deployment the paper motivates: "in typical real world
situations we will find peer-to-peer networks of less equipped machines,
such as laptops and mobile devices to perform event filtering" (§1).

Topology and routing follow the classical acyclic-overlay design
(SIENA-style):

* brokers form a **tree** (connecting two already-connected brokers is
  rejected — reverse-path routing needs acyclicity);
* a subscription registered at broker ``B`` is propagated to every
  broker; each broker's :class:`~repro.broker.routing.RoutingTable`
  remembers the neighbor on the path back toward ``B`` (its *next
  hop*) and, with covering enabled (the default), registers the
  subscription on the local engine only when no same-direction
  subscription already covers it;
* an event published at broker ``P`` is matched by ``P``'s engine and
  forwarded only toward neighbors that are the next hop of at least one
  matching subscription; every broker on the path re-matches with its
  own engine and delivers locally when it owns the subscriber.

Every broker filters with its *own* engine over the routed subscription
set, which is exactly the situation whose memory ceiling the paper
analyses — ``network.broker(name).engine.memory_bytes()`` plus
``network.routing_table(name).memory_bytes()`` is one broker's share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..core.base import FilterEngine
from ..core.registry import EngineSpec
from ..events.event import Event
from ..events.schema import EventSchema
from ..subscriptions.subscription import Subscription
from ..subscriptions.summary import summarize
from .broker import (
    Broker,
    Notification,
    coerce_event,
    coerce_events,
    coerce_subscription_id,
    stream_events,
)
from .handle import SubscriptionHandle
from .routing import RoutingTable
from .sinks import DeliverySink


class TopologyError(ValueError):
    """Raised on invalid overlay mutations (cycles, unknown brokers)."""


@dataclass
class NetworkStats:
    """Network-wide counters."""

    events_published: int = 0
    batches_published: int = 0    # publish(iterable) invocations
    broker_hops: int = 0          # broker-to-broker transmissions (a
                                  # forwarded batch counts one hop)
    matches_computed: int = 0     # per-broker matching invocations (one
                                  # match_batch call counts one)
    notifications_delivered: int = 0
    hops_visited: int = 0         # broker-to-broker subscription
                                  # transmissions, suppressed or not
    registrations_forwarded: int = 0   # remote engine registrations
                                       # actually performed
    suppressed_registrations: int = 0  # covering-elided remote
                                       # registrations (incl. absorptions)
    reinstated_registrations: int = 0  # orphans re-registered after
                                       # their coverer withdrew


class BrokerNetwork:
    """An acyclic overlay of :class:`~repro.broker.broker.Broker` nodes.

    Parameters
    ----------
    covering_enabled:
        Apply subscription covering (Mühl & Fiege [14], see
        :mod:`repro.subscriptions.covering_index`) during propagation —
        **on by default**, and fixed for the network's lifetime.  A
        remote broker's routing table skips registering a new
        subscription when an already-registered one with the **same
        next hop** covers it, and a late-arriving wide subscription
        absorbs the narrower ones it covers.  The home broker always
        registers its own subscriptions, so deliveries are unaffected;
        when a coverer is withdrawn its covered subscriptions are
        re-absorbed under surviving coverers and reinstated only when
        none remains.
    """

    def __init__(self, *, covering_enabled: bool = True) -> None:
        self._brokers: dict[str, Broker] = {}
        self._neighbors: dict[str, set[str]] = {}
        #: per broker: next hops + suppression state, one table each
        self._routing: dict[str, RoutingTable] = {}
        #: subscription id -> home broker name
        self._home: dict[int, str] = {}
        self._covering_enabled = covering_enabled
        self.stats = NetworkStats()

    @property
    def covering_enabled(self) -> bool:
        """Whether subscription arrivals may be suppressed (fixed when
        the network is built, shared by every broker's routing table)."""
        return self._covering_enabled

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_broker(
        self,
        broker: Broker | str,
        *,
        engine: FilterEngine | EngineSpec | str | None = None,
        schema: EventSchema | None = None,
    ) -> Broker:
        """Add a broker node (initially disconnected).

        Accepts a constructed :class:`~repro.broker.broker.Broker` or
        just a name — with a name, the broker is built here and
        ``engine`` may be an engine spec or registry name, so
        heterogeneous overlays (the paper's peer-device deployments) are
        described declaratively.
        """
        if isinstance(broker, str):
            broker = Broker(broker, engine=engine, schema=schema)
        elif engine is not None or schema is not None:
            raise TypeError(
                "engine/schema apply only when adding a broker by name"
            )
        if broker.name in self._brokers:
            raise TopologyError(f"broker {broker.name!r} already present")
        self._brokers[broker.name] = broker
        self._neighbors[broker.name] = set()
        self._routing[broker.name] = RoutingTable(
            broker, covering_enabled=self._covering_enabled
        )
        return broker

    def connect(self, first: str, second: str) -> None:
        """Link two brokers; rejects links that would close a cycle."""
        if first == second:
            raise TopologyError("cannot connect a broker to itself")
        for name in (first, second):
            if name not in self._brokers:
                raise TopologyError(f"unknown broker {name!r}")
        if self._reachable(first, second):
            raise TopologyError(
                f"linking {first!r} and {second!r} would create a cycle; "
                "the overlay must stay acyclic for reverse-path routing"
            )
        self._neighbors[first].add(second)
        self._neighbors[second].add(first)

    def _reachable(self, start: str, goal: str) -> bool:
        frontier = [start]
        seen = {start}
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for neighbor in self._neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return False

    def broker(self, name: str) -> Broker:
        """Look up a broker by name."""
        try:
            return self._brokers[name]
        except KeyError:
            raise TopologyError(f"unknown broker {name!r}") from None

    def brokers(self) -> list[Broker]:
        """All brokers in the overlay."""
        return list(self._brokers.values())

    def neighbors(self, name: str) -> frozenset[str]:
        """Neighbor names of a broker."""
        return frozenset(self._neighbors[self.broker(name).name])

    def routing_table(self, name: str) -> RoutingTable:
        """The routing table of one broker (next hops + suppression)."""
        return self._routing[self.broker(name).name]

    # ------------------------------------------------------------------
    # subscription routing
    # ------------------------------------------------------------------
    def subscribe(
        self,
        broker_name: str,
        subscription: Subscription | str,
        *,
        subscriber: str | None = None,
        sink: DeliverySink | Callable[[Notification], None] | None = None,
    ) -> SubscriptionHandle:
        """Register at ``broker_name`` and propagate overlay-wide.

        Returns a :class:`~repro.broker.handle.SubscriptionHandle` that
        withdraws **network-wide** on ``unsubscribe()``; pausing it
        suppresses delivery at the home broker, which is where all of
        this subscription's deliveries happen.
        """
        home = self.broker(broker_name)
        handle = home.subscribe(subscription, subscriber=subscriber, sink=sink)
        # re-own the handle: its unsubscribe() must withdraw everywhere
        handle._owner = self
        sid = handle.id
        self._home[sid] = home.name
        self._routing[home.name].add_local(handle.subscription)
        self._propagate_subscription(home.name, handle.subscription)
        return handle

    def _propagate_subscription(
        self, origin: str, subscription: Subscription
    ) -> None:
        """Walk the overlay outward from ``origin``, entering the
        subscription into every routing table (the tables decide whether
        the local engine registers it or a coverer suppresses it).

        With covering on, the subscription's summary is derived here,
        once, and handed to every table's covering index; with it off,
        no table reads a summary."""
        summary = (
            summarize(subscription.expression)
            if self._covering_enabled
            else None
        )
        frontier = [(origin, neighbor) for neighbor in self._neighbors[origin]]
        while frontier:
            came_from, current = frontier.pop()
            change = self._routing[current].add_remote(
                subscription, came_from, summary
            )
            self.stats.hops_visited += 1
            if change.suppressed_by is not None:
                self.stats.suppressed_registrations += 1
            else:
                self.stats.registrations_forwarded += 1
                # a late-arriving wide subscription absorbs the narrow
                # ones it covers: those count as suppressions too
                self.stats.suppressed_registrations += len(change.absorbed)
            for neighbor in self._neighbors[current]:
                if neighbor != came_from:
                    frontier.append((current, neighbor))

    def unsubscribe(
        self, subscription: SubscriptionHandle | Subscription | int
    ) -> None:
        """Withdraw a subscription (handle, subscription object, or raw
        id) everywhere.

        With covering enabled, subscriptions this one covered are
        re-absorbed under surviving same-direction coverers where
        possible and reinstated into the engines only where none
        remains.
        """
        subscription_id = coerce_subscription_id(subscription)
        home = self._home.pop(subscription_id, None)
        if home is None:
            raise TopologyError(f"unknown subscription {subscription_id}")
        for table in self._routing.values():
            if subscription_id in table:
                change = table.remove(subscription_id)
                self.stats.reinstated_registrations += len(change.reinstated)
                self.stats.suppressed_registrations += len(change.absorbed)

    # ------------------------------------------------------------------
    # event routing
    # ------------------------------------------------------------------
    def publish(
        self,
        broker_name: str,
        events: Event | Mapping | Iterable[Event | Mapping],
    ) -> list[Notification] | list[list[Notification]]:
        """Publish at ``broker_name`` — the single publish surface.

        Mirrors :meth:`Broker.publish`: a single event or mapping is
        routed as a batch of one and returns its network-wide
        deliveries; any other iterable is materialized once and routed
        as one batch (result ``i`` holds event ``i``'s deliveries,
        counted in ``stats.batches_published``).  Use :meth:`stream` for
        unbounded feeds.
        """
        if isinstance(events, (Event, Mapping)):
            return self._publish_batch(broker_name, [coerce_event(events)])[0]
        deliveries = self._publish_batch(broker_name, coerce_events(events))
        self.stats.batches_published += 1
        return deliveries

    def stream(
        self,
        broker_name: str,
        events: Iterable[Event | Mapping],
        *,
        batch_size: int = 256,
    ) -> Iterator[list[Notification]]:
        """Publish a feed at ``broker_name``, batching internally.

        Yields each event's network-wide deliveries in input order,
        pulling at most ``batch_size`` events ahead.
        """
        return stream_events(
            lambda batch: self.publish(broker_name, batch), events, batch_size
        )

    def _publish_batch(
        self, broker_name: str, events: Sequence[Event]
    ) -> list[list[Notification]]:
        """Reverse-path forwarding of a batch; one matching invocation per
        broker per batch.

        The events travel only toward brokers with matching downstream
        subscriptions; each broker on the path re-matches its event
        subset with its own engine (standard reverse-path content-based
        forwarding) in a single
        :meth:`~repro.core.base.FilterEngine.match_batch` call, and the
        subset bound for each neighbor is forwarded as one grouped
        transmission (one ``broker_hops`` increment), which is how a real
        overlay would ship a frame of events.  Result ``i`` holds event
        ``i``'s deliveries in traversal order; a single event is a batch
        of one.
        """
        home = self.broker(broker_name).name
        self.stats.events_published += len(events)
        deliveries: list[list[Notification]] = [[] for _ in events]
        if not events:
            return deliveries
        #: (came_from, current, indices of events reaching ``current``)
        frontier: list[tuple[str | None, str, list[int]]] = [
            (None, home, list(range(len(events))))
        ]
        while frontier:
            came_from, current, indices = frontier.pop()
            broker = self._brokers[current]
            subset = [events[index] for index in indices]
            if broker.schema is not None:
                for event in subset:
                    broker.schema.validate(event)
            matched_sets = broker.engine.match_batch(subset)
            self.stats.matches_computed += 1
            broker.stats.events_published += len(subset)
            next_hop = self._routing[current].hops
            forward: dict[str, list[int]] = {}
            for index, event, matched in zip(indices, subset, matched_sets):
                if not matched:
                    continue
                local: list[int] = []
                forwarded_to: set[str] = set()
                for sid in sorted(matched):
                    hop = next_hop.get(sid)
                    if hop is None:
                        # this broker is the subscription's home
                        local.append(sid)
                    elif hop != came_from and hop not in forwarded_to:
                        forwarded_to.add(hop)
                        forward.setdefault(hop, []).append(index)
                if local:
                    broker.stats.events_matched += 1
                    deliveries[index] += broker.notify_local(event, local)
            for neighbor, neighbor_indices in forward.items():
                self.stats.broker_hops += 1
                frontier.append((current, neighbor, neighbor_indices))
        self.stats.notifications_delivered += sum(map(len, deliveries))
        return deliveries

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def suppression_ratio(self) -> float:
        """Fraction of remote routing-table entries currently suppressed.

        Computed from live table state, not the cumulative counters
        (absorption and reinstatement churn can suppress one entry many
        times over its life), so the ratio is always in ``[0, 1]`` and
        describes the compaction the overlay holds *right now*.
        """
        remote = 0
        suppressed = 0
        for table in self._routing.values():
            shape = table.stats()
            remote += shape.entries - shape.local
            suppressed += shape.suppressed
        if not remote:
            return 0.0
        return suppressed / remote

    def __len__(self) -> int:
        return len(self._brokers)
