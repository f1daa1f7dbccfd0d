"""Domain scenarios for the example applications.

The paper's introduction motivates filtering on "less equipped machines,
such as laptops and mobile devices" in peer-to-peer settings.  These
scenarios provide realistic schemas, subscription templates and event
streams for two such domains:

* **stock ticker** — trade events; subscriptions combine price bands,
  symbols and volumes with real Boolean structure;
* **auction monitor** — bid events; sniping/outbid alert subscriptions.

Two further scenarios exist to stress the **sharded runtime** rather
than to model a domain:

* **skewed hot keys** — a handful of keys receive most of the events
  *and* most of the subscriptions, so candidate work concentrates
  instead of spreading evenly (the adversarial case for a partitioner);
* **subscribe/unsubscribe churn** — a deterministic interleaving of
  registrations, withdrawals and publications, the workload that
  exercises partition routing and worker mirroring under mutation.

The **network tier** adds overlay topology generators (line, star,
balanced tree, random connected tree — the shapes broker deployments
actually take) and :class:`NetworkChurnScenario`, a churn stream whose
subscriptions *nest* (narrow value bands inside wider ones on the same
key), the structure that makes covering-based routing-table compaction
bite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from ..events.event import Event
from ..events.schema import AttributeSpec, AttributeType, EventSchema
from ..subscriptions.subscription import Subscription
from .distributions import make_rng, zipf_weights

STOCK_SYMBOLS = (
    "ACME", "GLOBEX", "INITECH", "UMBRELLA", "HOOLI",
    "STARK", "WAYNE", "WONKA", "TYRELL", "CYBERDYNE",
)

STOCK_SCHEMA = EventSchema(
    "trade",
    [
        AttributeSpec("symbol", AttributeType.STRING, required=True),
        AttributeSpec("price", AttributeType.FLOAT, required=True),
        AttributeSpec("volume", AttributeType.INT, required=True),
        AttributeSpec("exchange", AttributeType.STRING),
        AttributeSpec("halted", AttributeType.BOOL),
    ],
)

AUCTION_SCHEMA = EventSchema(
    "bid",
    [
        AttributeSpec("item", AttributeType.STRING, required=True),
        AttributeSpec("bid", AttributeType.FLOAT, required=True),
        AttributeSpec("bidder", AttributeType.STRING, required=True),
        AttributeSpec("seconds_left", AttributeType.INT),
    ],
)


@dataclass
class StockScenario:
    """Trade event stream and trader subscriptions."""

    seed: int | None = 0
    _rng: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)

    def event(self) -> Event:
        """One random trade conforming to :data:`STOCK_SCHEMA`."""
        rng = self._rng
        event = Event(
            {
                "symbol": rng.choice(STOCK_SYMBOLS),
                "price": round(rng.uniform(1.0, 500.0), 2),
                "volume": rng.randint(1, 50_000),
                "exchange": rng.choice(("NYSE", "NASDAQ", "LSE")),
                "halted": rng.random() < 0.01,
            }
        )
        STOCK_SCHEMA.validate(event)
        return event

    def subscription(self, subscriber: str) -> Subscription:
        """A trader's alert: a watchlist in the paper's AND-of-ORs shape.

        "Either of my two symbols, crossing out of its band, on a large
        or urgent print" — three OR-groups under one AND, the exact
        non-DNF structure whose canonical transformation multiplies
        (2 x 2 x 2 = 8 conjunctive clauses per alert).
        """
        rng = self._rng
        first, second = self._rng.sample(STOCK_SYMBOLS, 2)
        low = round(rng.uniform(10.0, 80.0), 2)
        high = round(rng.uniform(300.0, 490.0), 2)
        block = rng.randint(30_000, 48_000)
        exchange = rng.choice(("NYSE", "NASDAQ", "LSE"))
        text = (
            f"(symbol = '{first}' or symbol = '{second}') "
            f"and (price <= {low} or price >= {high}) "
            f"and (volume >= {block} or exchange = '{exchange}')"
        )
        return Subscription.from_text(text, subscriber=subscriber)


@dataclass
class AuctionScenario:
    """Bid event stream and sniping-alert subscriptions."""

    seed: int | None = 0
    items: tuple[str, ...] = (
        "clock", "violin", "stamp", "comic", "lamp", "atlas", "coin", "mask",
    )

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)

    def event(self) -> Event:
        """One random bid conforming to :data:`AUCTION_SCHEMA`."""
        rng = self._rng
        event = Event(
            {
                "item": rng.choice(self.items),
                "bid": round(rng.uniform(1.0, 900.0), 2),
                "bidder": f"user{rng.randint(1, 200):03d}",
                "seconds_left": rng.randint(0, 3600),
            }
        )
        AUCTION_SCHEMA.validate(event)
        return event

    def subscription(self, subscriber: str) -> Subscription:
        """An outbid/sniping alert over one watched item."""
        rng = self._rng
        item = rng.choice(self.items)
        ceiling = round(rng.uniform(50.0, 800.0), 2)
        text = (
            f"item = '{item}' and (bid > {ceiling} "
            f"or (seconds_left < 120 and bid > {round(ceiling * 0.8, 2)}))"
        )
        return Subscription.from_text(text, subscriber=subscriber)


HOTKEY_SCHEMA = EventSchema(
    "update",
    [
        AttributeSpec("key", AttributeType.STRING, required=True),
        AttributeSpec("value", AttributeType.INT, required=True),
        AttributeSpec("region", AttributeType.STRING),
    ],
)


@dataclass
class SkewedHotKeyScenario:
    """Zipf-skewed key popularity: the partitioner's adversarial case.

    A small set of *hot* keys receives most of the event traffic and
    most of the subscription interest (both drawn from the same Zipf
    distribution over key ranks).  Under uniform hashing the hot
    subscriptions still spread across shards — which is exactly the
    property the shard-parity and scaling suites verify with this
    scenario — but per-event candidate sets are large and highly
    overlapping, so load per shard is dominated by a few keys.

    Parameters
    ----------
    keys:
        Size of the key universe.
    skew:
        Zipf exponent over key ranks; 0 degenerates to uniform traffic.
    value_range:
        Values are uniform ints in ``[0, value_range)``.
    """

    seed: int | None = 0
    keys: int = 64
    skew: float = 1.2
    value_range: int = 1000
    regions: tuple[str, ...] = ("us", "eu", "apac")

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._keys = [f"k{index:03d}" for index in range(self.keys)]
        self._weights = zipf_weights(self.keys, self.skew)

    def _pick_key(self) -> str:
        return self._rng.choices(self._keys, weights=self._weights, k=1)[0]

    def event(self) -> Event:
        """One update on a popularity-skewed key."""
        rng = self._rng
        event = Event(
            {
                "key": self._pick_key(),
                "value": rng.randrange(self.value_range),
                "region": rng.choice(self.regions),
            }
        )
        HOTKEY_SCHEMA.validate(event)
        return event

    def events(self, count: int) -> list[Event]:
        """A batch of ``count`` skewed events."""
        return [self.event() for _ in range(count)]

    def subscription(self, subscriber: str) -> Subscription:
        """Interest in a (skew-chosen) key: a value band, optionally
        escalating on a second hot key — OR structure, so the canonical
        engines pay their transformation here too."""
        rng = self._rng
        key = self._pick_key()
        low = rng.randrange(self.value_range // 2)
        high = low + rng.randrange(1, self.value_range // 2)
        if rng.random() < 0.5:
            other = self._pick_key()
            region = rng.choice(self.regions)
            text = (
                f"(key = '{key}' and value >= {low} and value <= {high}) "
                f"or (key = '{other}' and region = '{region}')"
            )
        else:
            text = f"key = '{key}' and value >= {low} and value <= {high}"
        return Subscription.from_text(text, subscriber=subscriber)

    def subscriptions(self, count: int) -> list[Subscription]:
        """A batch of ``count`` skew-targeted subscriptions."""
        return [
            self.subscription(f"subscriber{index:04d}")
            for index in range(count)
        ]


#: One churn operation: ``("subscribe", Subscription)``,
#: ``("unsubscribe", int)`` or ``("publish", Event)``.
ChurnOp = tuple[str, Union[Subscription, int, Event]]


@dataclass
class ChurnScenario:
    """Deterministic subscribe/unsubscribe churn interleaved with traffic.

    Produces an operation stream over a base scenario (default
    :class:`SkewedHotKeyScenario`): warm-up registrations, then a mix of
    publications, fresh subscriptions, and withdrawals of a *random
    live* subscription.  The stream is a pure function of the seed, so
    two engines fed the same stream must produce identical match sets —
    the property the sharded-parity churn suite asserts.

    Parameters
    ----------
    warmup_subscriptions:
        Registrations emitted before any other operation.
    subscribe_weight / unsubscribe_weight / publish_weight:
        Relative frequencies of the three operation kinds after warm-up.
    """

    seed: int | None = 0
    base: object | None = None
    warmup_subscriptions: int = 20
    subscribe_weight: float = 1.0
    unsubscribe_weight: float = 1.0
    publish_weight: float = 3.0

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        if self.base is None:
            self.base = SkewedHotKeyScenario(seed=self.seed)

    def ops(self, count: int) -> Iterator[ChurnOp]:
        """Yield ``count`` post-warm-up operations (plus the warm-up).

        Withdrawals target a random live subscription; when none is
        live, a registration is emitted instead, so the stream is always
        applicable.
        """
        rng = self._rng
        live: list[int] = []
        serial = 0

        def fresh() -> Subscription:
            nonlocal serial
            subscription = self.base.subscription(f"churn{serial:05d}")
            serial += 1
            live.append(subscription.subscription_id)
            return subscription

        for _ in range(self.warmup_subscriptions):
            yield ("subscribe", fresh())
        kinds = ("subscribe", "unsubscribe", "publish")
        weights = (
            self.subscribe_weight,
            self.unsubscribe_weight,
            self.publish_weight,
        )
        for _ in range(count):
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            if kind == "unsubscribe" and not live:
                kind = "subscribe"
            if kind == "subscribe":
                yield ("subscribe", fresh())
            elif kind == "unsubscribe":
                victim = live.pop(rng.randrange(len(live)))
                yield ("unsubscribe", victim)
            else:
                yield ("publish", self.base.event())

    def apply(self, engine, ops: Iterator[ChurnOp]) -> list[set[int]]:
        """Drive ``engine`` through an operation stream.

        Returns the matched-id set of every publish, in stream order —
        the comparable trace of the run.  The same ``ops`` sequence must
        be materialized once and fed to every engine under comparison
        (the stream carries live :class:`Subscription` objects).
        """
        trace: list[set[int]] = []
        for kind, payload in ops:
            if kind == "subscribe":
                engine.register(payload)
            elif kind == "unsubscribe":
                engine.unregister(payload)
            else:
                trace.append(engine.match(payload))
        return trace


# ----------------------------------------------------------------------
# overlay topologies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Topology:
    """A named broker overlay shape: node names plus tree edges.

    Overlays must stay acyclic (reverse-path routing), so every
    generator emits a tree; ``build`` instantiates it on a
    :class:`~repro.broker.network.BrokerNetwork`.
    """

    name: str
    brokers: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def build(self, network, **add_broker_options):
        """Add this topology's brokers and links to ``network``.

        ``add_broker_options`` (``engine=``, ``schema=``)
        are forwarded to every
        :meth:`~repro.broker.network.BrokerNetwork.add_broker` call.
        Returns ``network`` for chaining.
        """
        for name in self.brokers:
            network.add_broker(name, **add_broker_options)
        for left, right in self.edges:
            network.connect(left, right)
        return network


def _broker_names(count: int) -> tuple[str, ...]:
    if count < 1:
        raise ValueError("a topology needs at least one broker")
    return tuple(f"b{index:02d}" for index in range(count))


def line_topology(brokers: int = 8) -> Topology:
    """A chain — the worst diameter, every hop sees most traffic."""
    names = _broker_names(brokers)
    return Topology("line", names, tuple(zip(names, names[1:])))


def star_topology(brokers: int = 8) -> Topology:
    """One hub with ``brokers - 1`` leaves — diameter 2, hot center."""
    names = _broker_names(brokers)
    hub = names[0]
    return Topology(
        "star", names, tuple((hub, leaf) for leaf in names[1:])
    )


def tree_topology(brokers: int = 8, *, fanout: int = 2) -> Topology:
    """A balanced ``fanout``-ary tree (node ``i`` hangs off
    ``(i - 1) // fanout``) — the deployment shape broker overlays
    usually approximate."""
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    names = _broker_names(brokers)
    edges = tuple(
        (names[(index - 1) // fanout], names[index])
        for index in range(1, brokers)
    )
    return Topology("tree", names, edges)


def random_topology(brokers: int = 8, *, seed: int | None = 0) -> Topology:
    """A uniformly random connected tree (each node attaches to a
    random earlier node) — the unplanned-growth overlay."""
    rng = make_rng(seed)
    names = _broker_names(brokers)
    edges = tuple(
        (names[rng.randrange(index)], names[index])
        for index in range(1, brokers)
    )
    return Topology("random", names, edges)


#: Topology generators by name — sweep and bench configuration is data.
TOPOLOGY_BUILDERS = {
    "line": line_topology,
    "star": star_topology,
    "tree": tree_topology,
    "random": random_topology,
}


def make_topology(name: str, brokers: int = 8, *, seed: int | None = 0) -> Topology:
    """Build a registered topology by name."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; registered: "
            f"{', '.join(TOPOLOGY_BUILDERS)}"
        ) from None
    if name == "random":
        return builder(brokers, seed=seed)
    return builder(brokers)


# ----------------------------------------------------------------------
# network churn
# ----------------------------------------------------------------------
#: One network operation: ``("subscribe", broker, Subscription)``,
#: ``("unsubscribe", subscription_id)`` or ``("publish", broker, Event)``.
NetworkOp = tuple


@dataclass
class NetworkChurnScenario:
    """Deterministic overlay churn with covering-friendly structure.

    Events and subscriptions live on the :data:`HOTKEY_SCHEMA` domain
    (Zipf-popular keys, integer values).  Subscriptions come in three
    shapes chosen per draw:

    * a **wide** key watch (``key = 'k…'`` alone) with probability
      ``wide_probability`` — covers every band on that key;
    * a **nested** band with probability ``nesting`` — a strict
      sub-band of a previously issued subscription on the same key,
      guaranteeing covering pairs throughout the stream;
    * a fresh random band otherwise.

    The operation stream (:meth:`ops`) interleaves registrations at
    random brokers, withdrawals of random live subscriptions, and
    publications at random brokers, all as a pure function of the seed —
    replaying one materialized stream against two overlay configurations
    must produce identical delivery traces (:meth:`apply` returns the
    comparable trace).
    """

    seed: int | None = 0
    keys: int = 24
    skew: float = 1.1
    value_range: int = 1_000
    regions: tuple[str, ...] = ("us", "eu", "apac")
    nesting: float = 0.4
    wide_probability: float = 0.1
    warmup_subscriptions: int = 24
    subscribe_weight: float = 1.0
    unsubscribe_weight: float = 1.0
    publish_weight: float = 3.0

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._keys = [f"k{index:03d}" for index in range(self.keys)]
        self._weights = zipf_weights(self.keys, self.skew)
        #: issued bands, the nesting pool: (key, low, high)
        self._bands: list[tuple[str, int, int]] = []

    def _pick_key(self) -> str:
        return self._rng.choices(self._keys, weights=self._weights, k=1)[0]

    def event(self) -> Event:
        """One update on a popularity-skewed key."""
        rng = self._rng
        event = Event(
            {
                "key": self._pick_key(),
                "value": rng.randrange(self.value_range),
                "region": rng.choice(self.regions),
            }
        )
        HOTKEY_SCHEMA.validate(event)
        return event

    def subscription(self, subscriber: str) -> Subscription:
        """One wide / nested / fresh subscription (see class docs)."""
        rng = self._rng
        roll = rng.random()
        if roll < self.wide_probability:
            key = self._pick_key()
            self._bands.append((key, 0, self.value_range - 1))
            text = f"key = '{key}'"
        elif roll < self.wide_probability + self.nesting and self._bands:
            key, low, high = self._bands[rng.randrange(len(self._bands))]
            span = high - low
            shrink = max(span // 4, 1)
            new_low = low + rng.randrange(shrink) if span else low
            new_high = max(high - rng.randrange(shrink), new_low) if span else high
            self._bands.append((key, new_low, new_high))
            text = f"key = '{key}' and value between [{new_low}, {new_high}]"
        else:
            key = self._pick_key()
            low = rng.randrange(self.value_range // 2)
            high = low + rng.randrange(1, self.value_range // 2)
            self._bands.append((key, low, high))
            text = f"key = '{key}' and value between [{low}, {high}]"
        return Subscription.from_text(text, subscriber=subscriber)

    def subscriptions(self, count: int) -> list[Subscription]:
        """A batch of ``count`` covering-friendly subscriptions."""
        return [
            self.subscription(f"subscriber{index:04d}")
            for index in range(count)
        ]

    def ops(
        self, count: int, brokers: Sequence[str]
    ) -> Iterator[NetworkOp]:
        """Yield the warm-up plus ``count`` churn operations.

        Withdrawals target a random live subscription; when none is
        live a registration is emitted instead.
        """
        if not brokers:
            raise ValueError("need at least one broker name")
        rng = self._rng
        brokers = list(brokers)
        live: list[int] = []
        serial = 0

        def fresh() -> Subscription:
            nonlocal serial
            subscription = self.subscription(f"peer{serial:05d}")
            serial += 1
            live.append(subscription.subscription_id)
            return subscription

        for _ in range(self.warmup_subscriptions):
            yield ("subscribe", rng.choice(brokers), fresh())
        kinds = ("subscribe", "unsubscribe", "publish")
        weights = (
            self.subscribe_weight,
            self.unsubscribe_weight,
            self.publish_weight,
        )
        for _ in range(count):
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            if kind == "unsubscribe" and not live:
                kind = "subscribe"
            if kind == "subscribe":
                yield ("subscribe", rng.choice(brokers), fresh())
            elif kind == "unsubscribe":
                victim = live.pop(rng.randrange(len(live)))
                yield ("unsubscribe", victim)
            else:
                yield ("publish", rng.choice(brokers), self.event())

    @staticmethod
    def apply(network, ops) -> list[frozenset]:
        """Drive a :class:`~repro.broker.network.BrokerNetwork` through
        an operation stream.

        Returns one ``frozenset`` of ``(subscriber, subscription_id,
        broker)`` triples per publish, in stream order — the comparable
        delivery trace (identical for any two configurations routing
        the same stream, covering on or off).
        """
        trace: list[frozenset] = []
        for op in ops:
            if op[0] == "subscribe":
                _, broker, subscription = op
                network.subscribe(
                    broker, subscription, subscriber=subscription.subscriber
                )
            elif op[0] == "unsubscribe":
                network.unsubscribe(op[1])
            else:
                _, broker, event = op
                deliveries = network.publish(broker, event)
                trace.append(
                    frozenset(
                        (n.subscriber, n.subscription_id, n.broker)
                        for n in deliveries
                    )
                )
        return trace
