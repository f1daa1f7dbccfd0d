"""Delivery sinks: where a subscription's notifications go.

A :class:`DeliverySink` is the delivery half of a subscription — the
broker matches, the sink receives.  Sinks unify what used to be two
ad-hoc paths (a bare ``callback`` argument and
``Subscriber.notifications`` list bookkeeping) and give the system its
first backpressure knob: :class:`QueueSink` bounds its depth and counts
what it drops, which is what a broker on a "less equipped machine"
(paper §1) must do when a subscriber cannot keep up.

Every sink counts deliveries in :attr:`DeliverySink.delivered`;
:func:`as_sink` adapts plain callables, so ``sink=`` accepts a bare
callable too.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .broker import Notification


class DeliverySink(abc.ABC):
    """Destination for one subscription's notifications."""

    def __init__(self) -> None:
        #: notifications this sink accepted over its lifetime
        self.delivered = 0

    def deliver(self, notification: Notification) -> bool:
        """Offer a notification; returns whether the sink accepted it."""
        if self._accept(notification):
            self.delivered += 1
            return True
        return False

    @abc.abstractmethod
    def _accept(self, notification: Notification) -> bool:
        """Sink-specific acceptance; returns False to drop."""


class CallbackSink(DeliverySink):
    """Invoke a callable per notification (what a bare callable ``sink`` becomes)."""

    def __init__(self, callback: Callable[[Notification], None]) -> None:
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        super().__init__()
        self.callback = callback

    def _accept(self, notification: Notification) -> bool:
        self.callback(notification)
        return True

    def __repr__(self) -> str:
        return f"CallbackSink({self.callback!r})"


class CollectingSink(DeliverySink):
    """Accumulate notifications in a list (the ``Subscriber`` path)."""

    def __init__(self) -> None:
        super().__init__()
        self.notifications: list[Notification] = []

    def _accept(self, notification: Notification) -> bool:
        self.notifications.append(notification)
        return True

    def clear(self) -> None:
        """Forget collected notifications (between test phases)."""
        self.notifications.clear()

    def __len__(self) -> int:
        return len(self.notifications)

    def __iter__(self) -> Iterator[Notification]:
        return iter(self.notifications)

    def __repr__(self) -> str:
        return f"CollectingSink(pending={len(self)})"


class QueueSink(DeliverySink):
    """A bounded notification queue with drop accounting.

    Parameters
    ----------
    maxsize:
        Queue depth bound; ``None`` means unbounded.
    policy:
        What to do with a notification arriving at a full queue:
        ``"drop-newest"`` rejects the arrival, ``"drop-oldest"`` evicts
        the head to make room (the arrival is accepted).

    :attr:`dropped` counts every notification lost either way — the
    backpressure signal an operator watches.
    """

    POLICIES = ("drop-newest", "drop-oldest")

    def __init__(
        self, maxsize: int | None = None, *, policy: str = "drop-newest"
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be at least 1 (or None)")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; use one of {self.POLICIES}"
            )
        super().__init__()
        self.maxsize = maxsize
        self.policy = policy
        #: notifications lost to the bound (either policy)
        self.dropped = 0
        self._pending: deque[Notification] = deque()

    def _accept(self, notification: Notification) -> bool:
        if self.maxsize is not None and len(self._pending) >= self.maxsize:
            self.dropped += 1
            if self.policy == "drop-newest":
                return False
            self._pending.popleft()
        self._pending.append(notification)
        return True

    @property
    def depth(self) -> int:
        """Notifications currently queued."""
        return len(self._pending)

    def pop(self) -> Notification | None:
        """Dequeue the oldest pending notification (``None`` when empty)."""
        return self._pending.popleft() if self._pending else None

    def drain(self) -> list[Notification]:
        """Dequeue everything pending, oldest first."""
        drained = list(self._pending)
        self._pending.clear()
        return drained

    def __len__(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        bound = "∞" if self.maxsize is None else self.maxsize
        return f"QueueSink(depth={self.depth}/{bound}, dropped={self.dropped})"


def as_sink(
    target: DeliverySink | Callable[[Notification], None] | None,
) -> DeliverySink | None:
    """Normalize a delivery target: sink, bare callable, or ``None``."""
    if target is None or isinstance(target, DeliverySink):
        return target
    if callable(target):
        return CallbackSink(target)
    raise TypeError(f"expected a DeliverySink, a callable, or None; got {target!r}")
