"""Per-broker routing tables: next hops plus covering suppression.

A :class:`RoutingTable` owns every piece of routing state one broker
carries in the overlay:

* **next hops** — subscription id -> the neighbor toward the
  subscription's home broker (``None`` when this broker *is* the home);
* **suppression** — one incremental
  :class:`~repro.subscriptions.covering_index.CoveringIndex` per
  direction.  A remote subscription whose index arrival reports a
  same-direction coverer is *suppressed*: it gets a next hop but no
  engine registration, because any event it matches also matches its
  coverer and is already forwarded the same way (Mühl & Fiege [14]).

The same-direction requirement is what makes suppression sound: the
coverer's next hop equals the covered subscription's, so forwarding
decisions made on the coverer alone still push matching events toward
the covered subscription's home, where it remains fully registered and
delivers normally.

Suppression is maintained in *both* temporal directions: a narrow
subscription arriving after a wide one is suppressed on arrival, and a
wide subscription arriving late **absorbs** already-registered narrow
ones (they are unregistered from the engine).  On withdrawal of a
coverer, its orphans are re-absorbed under surviving coverers where one
exists and reinstated into the engine only when none does — churn never
permanently degrades the table back to flooding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..subscriptions.covering_index import CoveringIndex
from ..subscriptions.subscription import Subscription
from ..subscriptions.summary import ExpressionSummary
from .broker import Broker

#: Paper-style cost-model charge per routing-table entry: a next-hop
#: pointer plus poset bookkeeping (id, coverer link, bucket slot).
ROUTING_ENTRY_BYTES = 32


@dataclass(frozen=True)
class RouteChange:
    """What one table mutation did, for the network's accounting.

    ``registered``/``unregistered`` count *engine* registrations this
    change performed; ``suppressed_by`` is set when the subject
    subscription was elided under a coverer; ``absorbed`` lists
    previously-registered ids this change newly suppressed;
    ``reinstated`` lists ids this change re-registered because their
    coverer left and no other covers them.
    """

    subscription_id: int
    suppressed_by: int | None = None
    absorbed: tuple[int, ...] = ()
    reinstated: tuple[int, ...] = ()


@dataclass
class RoutingTableStats:
    """Current-shape counters of one broker's table."""

    entries: int = 0
    registered: int = 0
    suppressed: int = 0
    local: int = 0


class RoutingTable:
    """All routing state of one broker in the overlay.

    Parameters
    ----------
    broker:
        The broker whose engine this table drives; remote registrations
        and reinstatements go through ``broker.subscribe`` /
        ``broker.unsubscribe`` so engine state always mirrors the table.
    covering_enabled:
        When ``False`` the table degenerates to pure next-hop flooding
        (every remote subscription registered, no indexes).  Fixed for
        the table's lifetime.
    """

    def __init__(
        self, broker: Broker, *, covering_enabled: bool = True
    ) -> None:
        self.broker = broker
        self._covering_enabled = covering_enabled
        #: subscription id -> neighbor toward home (None = home here)
        self._hops: dict[int, str | None] = {}
        #: subscription id -> the routed subscription (for reinstatement)
        self._subscriptions: dict[int, Subscription] = {}
        #: one covering poset per outbound direction
        self._indexes: dict[str, CoveringIndex] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._hops)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._hops

    @property
    def covering_enabled(self) -> bool:
        """Whether remote arrivals may be suppressed (read-only)."""
        return self._covering_enabled

    @property
    def hops(self) -> dict[int, str | None]:
        """The live next-hop mapping (the event-routing hot path reads
        this directly; treat it as read-only)."""
        return self._hops

    def next_hop(self, subscription_id: int) -> str | None:
        """Neighbor toward the subscription's home (None = home here)."""
        return self._hops[subscription_id]

    def subscription(self, subscription_id: int) -> Subscription:
        """The routed subscription object."""
        return self._subscriptions[subscription_id]

    def is_suppressed(self, subscription_id: int) -> bool:
        """Whether the id rides a coverer instead of being registered."""
        direction = self._hops.get(subscription_id)
        if direction is None:
            return False
        index = self._indexes.get(direction)
        return index is not None and index.is_covered(subscription_id)

    def coverer_of(self, subscription_id: int) -> int | None:
        """The suppressing coverer, or ``None``."""
        direction = self._hops.get(subscription_id)
        if direction is None:
            return None
        index = self._indexes.get(direction)
        return index.coverer_of(subscription_id) if index else None

    def suppressed(self) -> dict[int, int]:
        """Covered subscription id -> covering subscription id."""
        mapping: dict[int, int] = {}
        for index in self._indexes.values():
            mapping.update(index.covered_mapping())
        return mapping

    def stats(self) -> RoutingTableStats:
        """Current table shape, for reports and invariant checks."""
        suppressed = sum(
            index.covered_count() for index in self._indexes.values()
        )
        local = sum(1 for hop in self._hops.values() if hop is None)
        return RoutingTableStats(
            entries=len(self._hops),
            registered=len(self._hops) - suppressed,
            suppressed=suppressed,
            local=local,
        )

    def memory_bytes(self) -> int:
        """Table working set under the paper-style cost model."""
        return ROUTING_ENTRY_BYTES * len(self._hops)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_local(self, subscription: Subscription) -> RouteChange:
        """Record a home registration (the broker already holds the
        live handle; locals are never suppressed)."""
        sid = subscription.subscription_id
        self._hops[sid] = None
        self._subscriptions[sid] = subscription
        return RouteChange(sid)

    def add_remote(
        self,
        subscription: Subscription,
        direction: str,
        summary: ExpressionSummary | None,
    ) -> RouteChange:
        """Route a flooded subscription arriving from ``direction``.

        Registers it on the broker's engine unless a same-direction
        coverer suppresses it; a maximal arrival absorbs (unregisters)
        the same-direction subscriptions it covers.  ``summary`` is the
        subscription's :func:`~repro.subscriptions.summary.summarize`
        summary, derived once by the network for every table the
        subscription enters; it is ``None`` exactly when covering is
        off, and then goes unread.
        """
        sid = subscription.subscription_id
        self._hops[sid] = direction
        self._subscriptions[sid] = subscription
        if not self._covering_enabled:
            self._register(sid)
            return RouteChange(sid)
        index = self._indexes.get(direction)
        if index is None:
            index = self._indexes[direction] = CoveringIndex()
        outcome = index.add(sid, summary)
        if outcome.covered_by is not None:
            return RouteChange(sid, suppressed_by=outcome.covered_by)
        self._register(sid)
        for absorbed in outcome.newly_covered:
            self.broker.unsubscribe(absorbed)
        return RouteChange(sid, absorbed=outcome.newly_covered)

    def remove(self, subscription_id: int) -> RouteChange:
        """Withdraw a subscription from this broker's table.

        Unregisters it from the engine when it was registered; orphans
        it covered are re-absorbed under surviving coverers or
        reinstated into the engine when none survives.  A reinstated
        wide orphan may itself absorb previously-registered members
        (``RouteChange.absorbed``) — those are unregistered here.
        """
        direction = self._hops.pop(subscription_id)
        self._subscriptions.pop(subscription_id)
        if direction is None or not self._covering_enabled:
            # home registrations keep their live handle; the broker
            # unsubscribe also invalidates it
            self.broker.unsubscribe(subscription_id)
            return RouteChange(subscription_id)
        # with covering on, every remote entry sits in its direction's index
        outcome = self._indexes[direction].remove(subscription_id)
        if outcome.was_covered:
            return RouteChange(subscription_id, suppressed_by=outcome.coverer)
        self.broker.unsubscribe(subscription_id)
        for orphan in outcome.newly_exposed:
            self._register(orphan)
        for victim in outcome.absorbed:
            self.broker.unsubscribe(victim)
        return RouteChange(
            subscription_id,
            reinstated=outcome.newly_exposed,
            absorbed=outcome.absorbed,
        )

    def _register(self, subscription_id: int) -> None:
        """Match-only engine registration of a routed subscription."""
        source = self._subscriptions[subscription_id]
        self.broker.subscribe(
            Subscription(
                expression=source.expression,
                subscriber=source.subscriber,
                subscription_id=subscription_id,
            )
        )
