"""Workload generators reproducing the paper's experimental setup (§4).

Three generators cover the evaluation and the tests:

* :class:`PaperSubscriptionGenerator` — subscriptions with ``|p| = 2k``
  *unique* predicates arranged as an AND of ``k`` binary ORs.  This is
  the non-DNF shape whose transformation yields exactly ``2**(|p|/2)``
  conjunctive subscriptions with ``|p|/2`` predicates each, matching
  Table 1's "number of subscriptions per subscription after
  transformation: 8 to 32" for ``|p| ∈ {6, 8, 10}``;
* :class:`GeneralSubscriptionGenerator` — random arbitrary Boolean
  expressions (AND/OR/NOT, configurable shape) for property tests and
  robustness checks;
* :class:`EventGenerator` / :class:`FulfilledPredicateSampler` — event
  streams.  The paper measures phase 2 in isolation and controls "the
  number of matching predicates per event" directly (5,000–10,000); the
  sampler reproduces exactly that by drawing the fulfilled predicate id
  set, while the event generator produces real events for full-pipeline
  tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..events.event import Event
from ..predicates.operators import Operator
from ..predicates.predicate import Predicate
from ..subscriptions.ast import (
    And,
    BooleanExpression,
    Not,
    Or,
    PredicateLeaf,
)
from ..subscriptions.subscription import Subscription
from .distributions import make_rng, zipf_weights


@dataclass
class PaperSubscriptionGenerator:
    """Paper-shaped subscriptions: AND of ``k`` binary ORs, unique predicates.

    Parameters
    ----------
    predicates_per_subscription:
        The paper's ``|p|`` (6, 8 or 10 in the experiments); must be even.
    attribute_pool:
        Number of distinct attribute names to spread predicates over.
    shared_predicate_fraction:
        0.0 reproduces the paper ("we avoid the usage of shared
        predicates"); > 0 reuses already-issued predicates with that
        probability (ablation A4).
    seed:
        RNG seed for reproducibility.
    """

    predicates_per_subscription: int = 6
    attribute_pool: int = 64
    shared_predicate_fraction: float = 0.0
    seed: int | None = 0
    _rng: object = field(init=False, repr=False)
    _counter: Iterator[int] = field(init=False, repr=False)
    _issued: list[Predicate] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.predicates_per_subscription < 2:
            raise ValueError("need at least 2 predicates per subscription")
        if self.predicates_per_subscription % 2:
            raise ValueError("the paper's workload uses even |p| (= 2k)")
        if not 0.0 <= self.shared_predicate_fraction < 1.0:
            raise ValueError("shared_predicate_fraction must be in [0, 1)")
        self._rng = make_rng(self.seed)
        self._counter = itertools.count()
        self._issued = []

    def _fresh_predicate(self) -> Predicate:
        """A globally unique predicate (distinct operand value).

        Values are drawn from a large integer domain — "domains are
        supposed to have relatively large sizes and subscribers are
        interested in different events" (§4).
        """
        serial = next(self._counter)
        attribute = f"attr{serial % self.attribute_pool:03d}"
        # Unique value per serial; alternate operators across the
        # hash and order families so phase 1 exercises both index types.
        value = serial * 7 + 13
        operator = (Operator.EQ, Operator.GT, Operator.LE)[serial % 3]
        return Predicate(attribute, operator, value)

    def _next_predicate(self) -> Predicate:
        if (
            self._issued
            and self.shared_predicate_fraction > 0.0
            and self._rng.random() < self.shared_predicate_fraction
        ):
            return self._rng.choice(self._issued)
        predicate = self._fresh_predicate()
        self._issued.append(predicate)
        return predicate

    def subscription(self, *, subscriber: str | None = None) -> Subscription:
        """One subscription: AND of ``|p|/2`` binary OR groups."""
        k = self.predicates_per_subscription // 2
        groups = []
        for _ in range(k):
            left = PredicateLeaf(self._next_predicate())
            right = PredicateLeaf(self._next_predicate())
            groups.append(Or((left, right)))
        expression: BooleanExpression = groups[0] if k == 1 else And(tuple(groups))
        return Subscription(expression=expression, subscriber=subscriber)

    def subscriptions(self, count: int) -> list[Subscription]:
        """``count`` independent subscriptions."""
        return [self.subscription() for _ in range(count)]


@dataclass
class GeneralSubscriptionGenerator:
    """Random arbitrary Boolean expressions for tests and robustness runs.

    Generates expression trees with configurable depth and fan-out over a
    mixed-operator predicate pool (equality, comparisons, between, in,
    string operators) so the whole index zoo is exercised.

    Parameters
    ----------
    max_depth:
        Maximum nesting depth of operator nodes.
    max_fanout:
        Maximum children of an AND/OR node.
    allow_not:
        Include NOT nodes (the counting engines reject the resulting
        negative literals unless operator complementing is enabled).
    numeric_attributes / string_attributes:
        Attribute name pools.
    value_range:
        Bound for numeric operand values.
    """

    max_depth: int = 3
    max_fanout: int = 3
    allow_not: bool = True
    numeric_attributes: Sequence[str] = ("price", "volume", "qty", "score")
    string_attributes: Sequence[str] = ("symbol", "category")
    value_range: int = 100
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.max_fanout < 2:
            raise ValueError("max_fanout must be at least 2")
        self._rng = make_rng(self.seed)

    def predicate(self) -> Predicate:
        """One random predicate over the configured attribute pools."""
        rng = self._rng
        if rng.random() < 0.75:
            attribute = rng.choice(list(self.numeric_attributes))
            operator = rng.choice(
                [Operator.EQ, Operator.NE, Operator.LT, Operator.LE,
                 Operator.GT, Operator.GE, Operator.BETWEEN, Operator.IN]
            )
            if operator is Operator.BETWEEN:
                low = rng.randint(0, self.value_range - 1)
                high = rng.randint(low, self.value_range)
                return Predicate(attribute, operator, (low, high))
            if operator is Operator.IN:
                count = rng.randint(1, 4)
                values = {rng.randint(0, self.value_range) for _ in range(count)}
                return Predicate(attribute, operator, values)
            return Predicate(attribute, operator, rng.randint(0, self.value_range))
        attribute = rng.choice(list(self.string_attributes))
        operator = rng.choice(
            [Operator.EQ, Operator.NE, Operator.PREFIX,
             Operator.SUFFIX, Operator.CONTAINS]
        )
        word = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 4)))
        return Predicate(attribute, operator, word)

    def expression(self, depth: int | None = None) -> BooleanExpression:
        """One random Boolean expression."""
        rng = self._rng
        if depth is None:
            depth = self.max_depth
        if depth <= 0 or rng.random() < 0.3:
            leaf = PredicateLeaf(self.predicate())
            if self.allow_not and rng.random() < 0.15:
                return Not(leaf)
            return leaf
        fanout = rng.randint(2, self.max_fanout)
        children = tuple(self.expression(depth - 1) for _ in range(fanout))
        node: BooleanExpression = (
            And(children) if rng.random() < 0.5 else Or(children)
        )
        if self.allow_not and rng.random() < 0.1:
            return Not(node)
        return node

    def subscription(self, *, subscriber: str | None = None) -> Subscription:
        """One subscription with a random expression."""
        return Subscription(expression=self.expression(), subscriber=subscriber)

    def subscriptions(self, count: int) -> list[Subscription]:
        """``count`` independent subscriptions."""
        return [self.subscription() for _ in range(count)]


@dataclass
class EventGenerator:
    """Random events over the generators' attribute spaces.

    Parameters
    ----------
    attribute_pool:
        Number of ``attrNNN`` attributes (match the subscription
        generator's pool).
    attributes_per_event:
        How many attributes each event carries.
    value_range:
        Values are drawn uniformly from ``[0, value_range)``.
    skew:
        Zipf skew over attribute popularity (0 = uniform).
    """

    attribute_pool: int = 64
    attributes_per_event: int = 16
    value_range: int = 1_000_000
    skew: float = 0.0
    seed: int | None = 0

    def __post_init__(self) -> None:
        if not 0 < self.attributes_per_event <= self.attribute_pool:
            raise ValueError(
                "attributes_per_event must be in (0, attribute_pool]"
            )
        self._rng = make_rng(self.seed)
        self._names = [f"attr{i:03d}" for i in range(self.attribute_pool)]
        self._weights = (
            zipf_weights(self.attribute_pool, self.skew) if self.skew else None
        )

    def event(self) -> Event:
        """One random event."""
        rng = self._rng
        if self._weights is None:
            chosen = rng.sample(self._names, self.attributes_per_event)
        else:
            chosen_set: dict[str, None] = {}
            while len(chosen_set) < self.attributes_per_event:
                name = rng.choices(self._names, weights=self._weights, k=1)[0]
                chosen_set[name] = None
            chosen = list(chosen_set)
        return Event(
            {name: rng.randrange(self.value_range) for name in chosen}
        )

    def events(self, count: int) -> list[Event]:
        """``count`` independent events."""
        return [self.event() for _ in range(count)]


@dataclass
class FulfilledPredicateSampler:
    """Draws phase-1 outputs directly: sets of fulfilled predicate ids.

    The paper's experiments fix "matching predicates per event" at 5,000
    or 10,000 and time phase 2 only.  Sampling the fulfilled id set from
    the registered predicate universe reproduces that measurement exactly
    (DESIGN.md §3 records this substitution).
    """

    predicate_ids: Sequence[int]
    fulfilled_per_event: int
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.fulfilled_per_event <= 0:
            raise ValueError("fulfilled_per_event must be positive")
        self._rng = make_rng(self.seed)
        self._universe = list(self.predicate_ids)

    def sample(self) -> set[int]:
        """One event's fulfilled predicate id set.

        When the universe is smaller than ``fulfilled_per_event`` the
        whole universe is returned (small-scale smoke runs).
        """
        count = min(self.fulfilled_per_event, len(self._universe))
        return set(self._rng.sample(self._universe, count))

    def samples(self, count: int) -> list[set[int]]:
        """``count`` independent fulfilled-id sets."""
        return [self.sample() for _ in range(count)]
