"""Subscription objects.

A :class:`Subscription` bundles an arbitrary Boolean expression with its
system-wide identifier ``id(s)`` and the identity of the subscriber to
notify on a match.  Engines compile the expression further (into trees,
encodings or DNF clauses, depending on the engine); the subscription
object itself is the registration-time handle users deal with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..events.event import Event
from .ast import BooleanExpression
from .parser import parse

_subscription_counter = itertools.count(1)


def next_subscription_id() -> int:
    """Draw a fresh process-unique subscription identifier."""
    return next(_subscription_counter)


@dataclass(frozen=True)
class Subscription:
    """A registered interest: an expression plus identity metadata.

    Parameters
    ----------
    expression:
        The arbitrary Boolean expression over predicates.
    subscriber:
        Opaque identity of the party to notify (broker client name,
        callback key, ...).
    subscription_id:
        Explicit identifier; auto-assigned when omitted.
    """

    expression: BooleanExpression
    subscriber: Optional[str] = None
    subscription_id: int = field(default_factory=next_subscription_id)

    @classmethod
    def from_text(
        cls, text: str, *, subscriber: Optional[str] = None
    ) -> "Subscription":
        """Parse subscription text into a registered-ready subscription.

        Example
        -------
        >>> Subscription.from_text("price > 10 and (side = 'buy' or urgent = true)")
        """
        return cls(expression=parse(text), subscriber=subscriber)

    def matches(self, event: Event) -> bool:
        """Direct (index-free) evaluation against an event.

        This is the brute-force oracle semantics every engine must agree
        with; the engines exist to compute the same answer faster.
        """
        return self.expression.matches(event)

    def predicate_count(self) -> int:
        """Number of *distinct* predicates (the paper's ``|p|``)."""
        return len(self.expression.unique_predicates())

    def __str__(self) -> str:
        return f"s{self.subscription_id}: {self.expression}"
