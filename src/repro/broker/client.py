"""Client-side helpers: subscribers and publishers.

Thin convenience wrappers around a :class:`~repro.broker.broker.Broker`
that keep per-client state.  A :class:`Subscriber` owns the
:class:`~repro.broker.handle.SubscriptionHandle` of every subscription
it registers and funnels deliveries into one
:class:`~repro.broker.sinks.CollectingSink`; a :class:`Publisher`
counts what it publishes through the broker's unified publish surface.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..events.event import Event
from ..subscriptions.subscription import Subscription
from .broker import (
    Broker,
    Notification,
    coerce_event,
    coerce_events,
    coerce_subscription_id,
    stream_events,
)
from .handle import SubscriptionHandle
from .sinks import CollectingSink


class Subscriber:
    """A named client that collects its notifications.

    Example
    -------
    >>> broker = Broker("edge")
    >>> alice = Subscriber("alice", broker)
    >>> sub = alice.subscribe("price > 10")
    >>> broker.publish(Event({"price": 12}))  # doctest: +ELLIPSIS
    [...]
    >>> len(alice.notifications)
    1
    """

    def __init__(self, name: str, broker: Broker) -> None:
        if not name:
            raise ValueError("subscriber name must be non-empty")
        self.name = name
        self.broker = broker
        #: one sink shared by every subscription this client registers
        self.sink = CollectingSink()
        self._handles: dict[int, SubscriptionHandle] = {}

    def subscribe(self, subscription: Subscription | str) -> SubscriptionHandle:
        """Register interest; notifications accumulate on :attr:`sink`."""
        handle = self.broker.subscribe(
            subscription, subscriber=self.name, sink=self.sink
        )
        self._handles[handle.id] = handle
        return handle

    def unsubscribe(
        self, subscription: SubscriptionHandle | Subscription | int
    ) -> None:
        """Drop one of this subscriber's subscriptions (handle,
        subscription object, or raw id)."""
        subscription_id = coerce_subscription_id(subscription)
        handle = self._handles.pop(subscription_id, None)
        if handle is None:
            raise KeyError(
                f"{self.name} does not own subscription {subscription_id}"
            )
        handle.unsubscribe()

    def unsubscribe_all(self) -> None:
        """Drop every subscription this subscriber owns."""
        for subscription_id in list(self._handles):
            self.unsubscribe(subscription_id)

    @property
    def notifications(self) -> list[Notification]:
        """Notifications received so far (the sink's collection)."""
        return self.sink.notifications

    def _prune_withdrawn(self) -> None:
        """Forget handles withdrawn behind our back (handle.unsubscribe
        talks to the broker, not to this wrapper)."""
        for sid in [
            sid for sid, h in self._handles.items() if not h.active
        ]:
            del self._handles[sid]

    @property
    def handles(self) -> list[SubscriptionHandle]:
        """Handles of this subscriber's live subscriptions, in id order."""
        self._prune_withdrawn()
        return [self._handles[sid] for sid in sorted(self._handles)]

    @property
    def subscription_ids(self) -> frozenset[int]:
        """Ids of this subscriber's live subscriptions."""
        self._prune_withdrawn()
        return frozenset(self._handles)

    def clear(self) -> None:
        """Forget received notifications (between test phases)."""
        self.sink.clear()


class Publisher:
    """A named client that publishes events through one broker."""

    def __init__(self, name: str, broker: Broker) -> None:
        if not name:
            raise ValueError("publisher name must be non-empty")
        self.name = name
        self.broker = broker
        self.published_count = 0

    def publish(
        self, events: Event | Mapping | Iterable[Event | Mapping]
    ) -> list[Notification] | list[list[Notification]]:
        """Publish an event, a mapping, or an iterable of either.

        Mirrors :meth:`Broker.publish`: iterables (including
        generators) are materialized exactly once, counted, and routed
        through the batch matching pipeline.
        """
        if isinstance(events, (Event, Mapping)):
            self.published_count += 1
            return self.broker.publish(coerce_event(events))
        prepared = coerce_events(events)
        self.published_count += len(prepared)
        return self.broker.publish(prepared)

    def stream(
        self,
        events: Iterable[Event | Mapping],
        *,
        batch_size: int = 256,
    ) -> Iterator[list[Notification]]:
        """Stream a feed through the broker, batching internally.

        ``published_count`` moves when a batch is published (matching
        the broker's own counters even if the consumer stops early), not
        per yielded event.
        """

        def publish_and_count(batch):
            self.published_count += len(batch)
            return self.broker.publish(batch)

        return stream_events(publish_and_count, events, batch_size)
