"""Subscription handles: the object a ``subscribe()`` call hands back.

A :class:`SubscriptionHandle` owns one live subscription's lifecycle —
identity, delivery sink, pause/resume, withdrawal — replacing the raw
``int`` bookkeeping that used to be duplicated across ``Broker``,
``Subscriber``, and ``BrokerNetwork``.  Handles proxy the registered
:class:`~repro.subscriptions.subscription.Subscription`'s read-only
attributes (``subscription_id``, ``expression``, ``subscriber``), so
code written against the old return type keeps working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from ..subscriptions.subscription import Subscription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..subscriptions.ast import Node
    from .sinks import DeliverySink


class _HandleOwner(Protocol):
    """Anything that can withdraw a subscription by id (broker/network)."""

    def unsubscribe(self, subscription) -> None: ...


class SubscriptionHandle:
    """One live subscription at a broker (or across an overlay network).

    Handles are created by ``subscribe()`` — never directly.  A handle
    created through :meth:`BrokerNetwork.subscribe` withdraws
    network-wide; one created through :meth:`Broker.subscribe` withdraws
    at that broker.
    """

    __slots__ = ("subscription", "sink", "_owner", "_active", "_paused", "_subscriber")

    def __init__(
        self,
        subscription: Subscription,
        *,
        sink: DeliverySink | None,
        owner: _HandleOwner,
    ) -> None:
        self.subscription = subscription
        # beside the pause flag and sink: delivery reads all three per match
        self._subscriber = subscription.subscriber
        #: where matched notifications go; ``None`` means match-only
        self.sink = sink
        self._owner = owner
        self._active = True
        self._paused = False

    # ------------------------------------------------------------------
    # identity (and legacy Subscription proxies)
    # ------------------------------------------------------------------
    @property
    def id(self) -> int:
        """The subscription's system-wide id."""
        return self.subscription.subscription_id

    @property
    def subscription_id(self) -> int:
        """Alias of :attr:`id` (legacy ``Subscription`` return type)."""
        return self.subscription.subscription_id

    @property
    def expression(self) -> Node:
        """The subscription's Boolean expression."""
        return self.subscription.expression

    @property
    def subscriber(self) -> str | None:
        """The subscribing client's name, if any."""
        return self._subscriber

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the subscription is still registered."""
        return self._active

    @property
    def paused(self) -> bool:
        """Whether delivery is currently suppressed."""
        return self._paused

    def pause(self) -> None:
        """Suppress delivery; the subscription stays registered.

        While paused, matches for this subscription produce no
        notifications (no sink delivery, no per-event result entry).
        """
        self._paused = True

    def resume(self) -> None:
        """Re-enable delivery after :meth:`pause`."""
        self._paused = False

    def unsubscribe(self) -> bool:
        """Withdraw the subscription; idempotent.

        Returns ``True`` on the call that performed the withdrawal,
        ``False`` if the handle was already inactive.
        """
        if not self._active:
            return False
        self._owner.unsubscribe(self.id)
        self._active = False
        return True

    def _invalidate(self) -> None:
        """Mark withdrawn (called by the owner on any unsubscribe path)."""
        self._active = False

    def __repr__(self) -> str:
        state = "active" if self._active else "inactive"
        if self._active and self._paused:
            state = "paused"
        return (
            f"SubscriptionHandle(id={self.id}, "
            f"subscriber={self.subscriber!r}, {state})"
        )
