"""A single pub/sub broker.

A broker owns a matching engine (pluggable — an instance, an
:class:`~repro.core.registry.EngineSpec`, or a registry name), accepts
subscriptions and publications, delivers notifications through
:mod:`delivery sinks <repro.broker.sinks>`, and validates events against
an optional schema.  Its lifetime counters are the :attr:`Broker.stats`
field; the engine's own report is ``broker.engine.stats()``.

The public surface:

* :meth:`Broker.subscribe` returns a
  :class:`~repro.broker.handle.SubscriptionHandle` owning the
  subscription's lifecycle (``unsubscribe``/``pause``/``resume``) and
  its delivery sink;
* :meth:`Broker.publish` is the one publish surface — it accepts a
  single :class:`~repro.events.event.Event`, a plain mapping, or an
  iterable of either (routed through the batch matching pipeline);
* :meth:`Broker.stream` generates per-event deliveries for feeds too
  large to materialize, batching internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..core.base import FilterEngine
from ..core.registry import EngineSpec, resolve_engine
from ..events.event import Event
from ..events.schema import EventSchema
from ..subscriptions.subscription import Subscription
from .handle import SubscriptionHandle
from .sinks import DeliverySink, as_sink


class Notification(NamedTuple):
    """A delivery: ``event`` matched ``subscription_id`` for ``subscriber``.

    An immutable tuple of its four fields, so it unpacks and compares
    equal to a plain tuple of the same values.
    """

    event: Event
    subscription_id: int
    subscriber: str | None
    broker: str


@dataclass
class BrokerStats:
    """Counters a broker maintains over its lifetime."""

    events_published: int = 0
    events_matched: int = 0          # events with >= 1 local match
    batches_published: int = 0       # batch publications (one per batch)
    notifications_delivered: int = 0
    subscriptions_registered: int = 0
    subscriptions_removed: int = 0


def coerce_event(event: Event | Mapping) -> Event:
    """Normalize one publishable item (an event or a plain mapping)."""
    if isinstance(event, Event):
        return event
    if isinstance(event, Mapping):
        return Event(event)
    raise TypeError(f"expected an Event or a mapping, got {event!r}")


def require_event_iterable(events) -> None:
    """Reject values that are single events (or plain wrong) where an
    iterable *of* events is required — eagerly, with a useful message."""
    if isinstance(events, (Event, Mapping, str, bytes)) or not isinstance(
        events, Iterable
    ):
        raise TypeError(
            f"expected an iterable of events, got {events!r}; "
            "a single event/mapping goes to publish() directly"
        )


def coerce_events(events: Iterable[Event | Mapping]) -> list[Event]:
    """Materialize an iterable of publishable items exactly once.

    Generators are consumed here and nowhere else — every publish path
    funnels through this single materialization, so counting and
    matching always see the same batch.
    """
    require_event_iterable(events)
    return [coerce_event(event) for event in events]


def iter_event_batches(
    events: Iterable[Event | Mapping], batch_size: int
) -> Iterator[list[Event]]:
    """Chunk a feed into coerced batches of at most ``batch_size``.

    The accumulate-and-flush loop behind every ``stream()`` surface
    (broker, network, publisher); pulls at most ``batch_size`` events
    ahead of the consumer.
    """
    require_event_iterable(events)
    batch: list[Event] = []
    for event in events:
        batch.append(coerce_event(event))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def coerce_subscription_id(subscription) -> int:
    """Normalize a handle, subscription object, or raw id to the id.

    The shared coercion behind every ``unsubscribe()`` surface.
    """
    if isinstance(subscription, int):
        return subscription
    subscription_id = getattr(subscription, "subscription_id", None)
    if subscription_id is None:
        raise TypeError(
            "expected a SubscriptionHandle, Subscription, or int id; "
            f"got {subscription!r}"
        )
    return subscription_id


def stream_events(
    publish_batch: Callable[[list[Event]], list[list[Notification]]],
    events: Iterable[Event | Mapping],
    batch_size: int,
) -> Iterator[list[Notification]]:
    """The one ``stream()`` implementation behind every surface.

    Validates eagerly (bad ``batch_size`` or a single event passed where
    a feed belongs fail at the call, not at first ``next()``), then
    yields each event's notification list, publishing one coerced batch
    at a time through ``publish_batch``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    require_event_iterable(events)

    def generate() -> Iterator[list[Notification]]:
        for batch in iter_event_batches(events, batch_size):
            yield from publish_batch(batch)

    return generate()


class Broker:
    """A standalone content-based pub/sub broker.

    Parameters
    ----------
    name:
        Broker identity (used in notifications and overlay routing).
    engine:
        Matching engine: a :class:`~repro.core.base.FilterEngine`
        instance, an :class:`~repro.core.registry.EngineSpec`, or a
        registry name (e.g. ``"counting"``).  Defaults to a fresh
        non-canonical engine.
    schema:
        Optional event schema enforced at the publish boundary.
    """

    def __init__(
        self,
        name: str,
        *,
        engine: FilterEngine | EngineSpec | str | None = None,
        schema: EventSchema | None = None,
    ) -> None:
        if not name:
            raise ValueError("broker name must be non-empty")
        self.name = name
        self.engine = resolve_engine(engine)
        self.schema = schema
        self.stats = BrokerStats()
        self._handles: dict[int, SubscriptionHandle] = {}

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscription: Subscription | str,
        *,
        subscriber: str | None = None,
        sink: DeliverySink | Callable[[Notification], None] | None = None,
    ) -> SubscriptionHandle:
        """Register a subscription (object or source text).

        Returns the :class:`~repro.broker.handle.SubscriptionHandle`
        owning the registration.  ``sink`` takes a
        :class:`~repro.broker.sinks.DeliverySink` or a bare callable.
        """
        if isinstance(subscription, str):
            subscription = Subscription.from_text(
                subscription, subscriber=subscriber
            )
        elif subscriber is not None and subscription.subscriber != subscriber:
            subscription = Subscription(
                expression=subscription.expression,
                subscriber=subscriber,
                subscription_id=subscription.subscription_id,
            )
        self.engine.register(subscription)
        handle = SubscriptionHandle(
            subscription,
            sink=as_sink(sink),
            owner=self,
        )
        self._handles[subscription.subscription_id] = handle
        self.stats.subscriptions_registered += 1
        return handle

    def unsubscribe(
        self, subscription: SubscriptionHandle | Subscription | int
    ) -> None:
        """Remove a subscription (handle, subscription object, or raw id).

        Raises :class:`~repro.core.base.UnknownSubscriptionError` for an
        id that is not registered; prefer
        :meth:`SubscriptionHandle.unsubscribe`, which is idempotent.
        """
        subscription_id = coerce_subscription_id(subscription)
        self.engine.unregister(subscription_id)
        handle = self._handles.pop(subscription_id, None)
        if handle is not None:
            handle._invalidate()
        self.stats.subscriptions_removed += 1

    def subscription(self, subscription_id: int) -> Subscription:
        """The registered subscription object for ``subscription_id``."""
        return self._handles[subscription_id].subscription

    def handle(self, subscription_id: int) -> SubscriptionHandle:
        """The live handle for ``subscription_id``."""
        return self._handles[subscription_id]

    def handles(self) -> list[SubscriptionHandle]:
        """All live handles, in registration (id) order."""
        return [self._handles[sid] for sid in sorted(self._handles)]

    def subscriptions(self) -> list[Subscription]:
        """All registered subscriptions, in id order."""
        return [handle.subscription for handle in self.handles()]

    @property
    def subscription_count(self) -> int:
        """Number of live subscriptions at this broker."""
        return self.engine.subscription_count

    # ------------------------------------------------------------------
    # publication — one surface
    # ------------------------------------------------------------------
    def publish(
        self, events: Event | Mapping | Iterable[Event | Mapping]
    ) -> list[Notification] | list[list[Notification]]:
        """Publish one event or a batch — the single publish surface.

        * an :class:`~repro.events.event.Event` or plain mapping is
          published as a batch of one and returns its notifications;
        * any other iterable (list, tuple, generator, ...) is
          materialized once and matched with one engine invocation
          (:meth:`~repro.core.base.FilterEngine.match_batch`); result
          ``i`` holds the deliveries of event ``i``, and the batch
          counts toward ``stats.batches_published``.

        For unbounded feeds, use :meth:`stream` instead of passing a
        huge iterable.

        Raises
        ------
        SchemaViolationError
            When a schema is configured and an event does not conform
            (a violating event rejects its whole batch before any
            delivery happens).
        """
        if isinstance(events, (Event, Mapping)):
            return self._publish_batch([coerce_event(events)])[0]
        deliveries = self._publish_batch(coerce_events(events))
        self.stats.batches_published += 1
        return deliveries

    def stream(
        self,
        events: Iterable[Event | Mapping],
        *,
        batch_size: int = 256,
    ) -> Iterator[list[Notification]]:
        """Publish a (possibly unbounded) feed, batching internally.

        Yields each event's notification list, in input order, while
        pulling at most ``batch_size`` events ahead — the streaming face
        of the batch pipeline.
        """
        return stream_events(self.publish, events, batch_size)

    def _publish_batch(
        self, events: Sequence[Event]
    ) -> list[list[Notification]]:
        """The one publish path: validate the whole batch, match it with
        one engine invocation, deliver per matched event."""
        if self.schema is not None:
            for event in events:
                self.schema.validate(event)
        self.stats.events_published += len(events)
        matched_sets = self.engine.match_batch(events)
        batched: list[list[Notification]] = []
        for event, matched in zip(events, matched_sets):
            if matched:
                self.stats.events_matched += 1
                batched.append(self.notify_local(event, sorted(matched)))
            else:
                batched.append([])
        return batched

    def notify_local(
        self, event: Event, subscription_ids: Iterable[int]
    ) -> list[Notification]:
        """Build and deliver one event's notifications — the one delivery
        loop, shared by :meth:`publish` and the overlay network.

        Notifications follow the order of ``subscription_ids`` (callers
        pass ascending ids).  Paused handles are skipped entirely (no
        notification object, no sink call); an id with no handle here
        yields a notification with ``subscriber=None``.  A bounded sink
        may still drop internally — that shows up in the sink's own
        ``dropped`` counter, not here.
        """
        handles = self._handles
        name = self.name
        notifications = []
        for subscription_id in subscription_ids:
            handle = handles.get(subscription_id)
            if handle is None:
                subscriber = sink = None
            elif handle._paused:
                continue
            else:
                subscriber = handle._subscriber
                sink = handle.sink
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            notification = tuple.__new__(
                Notification, (event, subscription_id, subscriber, name)
            )
            if sink is not None:
                sink.deliver(notification)
            notifications.append(notification)
        self.stats.notifications_delivered += len(notifications)
        return notifications

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the lifetime counters; live subscriptions are untouched."""
        self.stats = BrokerStats()

    def __repr__(self) -> str:
        return (
            f"Broker({self.name!r}, engine={self.engine.name!r}, "
            f"subscriptions={self.subscription_count})"
        )
