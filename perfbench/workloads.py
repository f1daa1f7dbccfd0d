"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload runs in a closed loop with one caller on one thread: the
next call is issued only after the previous one returned.  Inputs are a
pure function of ``(seed, calls, scale)``.  The subscription population
is generated before any set-up; each traffic call's payload is generated
just before that call, outside its timing, so the process never holds
the whole run's inputs and its peak RSS is the program's.

A workload exposes these steps, which :mod:`perfbench.passes` times:

* :meth:`Workload.generate` builds the initial population (never timed);
* :meth:`Workload.setup` builds the broker(s) and registers the initial
  population, one timed ``subscribe`` call per subscription;
* :meth:`Workload.teardown` withdraws that population again, one timed
  ``unsubscribe`` call per subscription, and :meth:`Workload.close`
  drops the broker(s) without withdrawing (both run on spare set-ups,
  whose state is discarded);
* :meth:`Workload.traffic` yields the timed calls, ``calls`` of them, as
  ``(kind, payload)`` pairs that :meth:`Workload.call` executes.

:meth:`Workload.check` compares a call's result with the brute-force
oracle (``Subscription.matches`` over the live subscriptions); it runs
outside the timed region.  WORKLOADS.md records why each workload
exists and what it measured.
"""

from __future__ import annotations

from repro import Broker, BrokerNetwork, EngineSpec, Subscription
from repro.workloads.distributions import make_rng
from repro.workloads.generator import EventGenerator, PaperSubscriptionGenerator
from repro.workloads.scenarios import (
    HOTKEY_SCHEMA,
    NetworkChurnScenario,
    SkewedHotKeyScenario,
    make_topology,
)

#: Seed of every workload's initial subscription population.  The
#: population is the deployment's fixed configuration and ``--seed``
#: varies the traffic: drawing the population from the run seed spread
#: hotkey-b32's throughput by 7% (IQR over six seeds, one process),
#: against 2% for the traffic seed alone.
POPULATION_SEED = 0
#: Every ``CHECK_EVERY``-th batched publish call is compared with the
#: oracle, on ``CHECK_EVENTS`` of its events; overlay-churn checks every
#: ``CHECK_EVERY_OVERLAY``-th call.
CHECK_EVERY = 8
CHECK_EVENTS = 8
CHECK_EVERY_OVERLAY = 32


class Workload:
    """Base class: population, set-up, traffic and oracle of one workload.

    ``calls`` is the number of timed traffic calls; ``scale`` shrinks
    the initial population for the benchmark's self-check.
    """

    name = "abstract"
    #: events carried by one publish call
    batch = 1
    #: whether the traffic subscribes and unsubscribes too
    writes = False
    #: set-ups timed in an end-to-end run; ``setup_s`` is their median
    setup_repeats = 12

    def __init__(self, seed: int, calls: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.calls = calls
        self.scale = scale
        self.state = None

    def population(self, full: int) -> int:
        return max(int(full * self.scale), 8)

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self, timer, instrument=None) -> None:
        """Build the broker(s), hand them to ``instrument`` (the traced
        pass wraps their methods there) and register the population.

        ``timer(kind, function, *args)`` performs and times one call.
        """
        raise NotImplementedError

    def teardown(self, timer) -> None:
        """Withdraw the population, one timed call each, then :meth:`close`."""
        raise NotImplementedError

    def close(self) -> None:
        """Close the broker engines and drop them, withdrawing nothing."""
        for engine in self.engines():
            engine.close()
        self.state = None

    def traffic(self):
        raise NotImplementedError

    def call(self, kind: str, payload):
        raise NotImplementedError

    def check(self, index: int, kind: str, payload, result) -> bool:
        raise NotImplementedError

    def engines(self) -> list:
        """The top-level engine of every broker (for counters and memory)."""
        raise NotImplementedError

    @staticmethod
    def events_of(kind: str, payload) -> list:
        """The events a traffic call publishes (empty for writes)."""
        return payload if kind == "publish" else []


class _SingleBroker(Workload):
    """One broker, a fixed subscription population, batched publishes."""

    def _new_broker(self) -> Broker:
        raise NotImplementedError

    def setup(self, timer, instrument=None) -> None:
        broker = self._new_broker()
        if instrument is not None:
            instrument(broker)
        handles = [
            timer("subscribe", broker.subscribe, subscription)
            for subscription in self.subscriptions
        ]
        self.state = (broker, handles)

    def teardown(self, timer) -> None:
        broker, handles = self.state
        for handle in handles:
            timer("unsubscribe", broker.unsubscribe, handle)
        self.close()

    def call(self, kind: str, payload):
        return self.state[0].publish(payload)

    def check(self, index: int, kind: str, payload, result) -> bool:
        if index % CHECK_EVERY:
            return True
        if len(result) != len(payload):
            return False
        step = max(len(payload) // CHECK_EVENTS, 1)
        for position in range(0, len(payload), step):
            event = payload[position]
            expected = {s.subscription_id for s in self.subscriptions if s.matches(event)}
            delivered = [n.subscription_id for n in result[position]]
            if len(delivered) != len(expected) or set(delivered) != expected:
                return False
        return True

    def engines(self) -> list:
        return [self.state[0].engine]


class PaperBatch(_SingleBroker):
    """``paper-b256``: the paper's own traffic in 256-event batches."""

    name = "paper-b256"
    batch = 256

    def generate(self) -> None:
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=8, attribute_pool=64, seed=POPULATION_SEED
        )
        self.subscriptions = generator.subscriptions(self.population(500))

    def traffic(self):
        events = EventGenerator(
            attribute_pool=64,
            attributes_per_event=8,
            value_range=1_000_000,
            seed=self.seed,
        )
        seen: set[int] = set()
        for _ in range(self.calls):
            batch = []
            while len(batch) < self.batch:
                event = events.event()
                # an event's exact content as one int: 26 bits per pair
                key = 0
                for name, value in sorted(event.items()):
                    key = (key << 26) | (int(name[4:]) << 20) | value
                if key not in seen:  # events never repeat within a run
                    seen.add(key)
                    batch.append(event)
            yield "publish", batch

    def _new_broker(self) -> Broker:
        return Broker("paper", engine="noncanonical")


class HotKeyBatch(_SingleBroker):
    """``hotkey-b32``: Zipf hot keys on a routed 8-shard broker."""

    name = "hotkey-b32"
    batch = 32

    def generate(self) -> None:
        population = SkewedHotKeyScenario(seed=POPULATION_SEED)
        self.subscriptions = population.subscriptions(self.population(1000))

    def traffic(self):
        scenario = SkewedHotKeyScenario(seed=self.seed)
        for _ in range(self.calls):
            yield "publish", scenario.events(self.batch)

    def _new_broker(self) -> Broker:
        spec = EngineSpec(
            "noncanonical",
            {"shards": 8, "partitioner": "routed", "executor": "serial"},
        )
        return Broker("hot", engine=spec, schema=HOTKEY_SCHEMA)


class OverlayChurn(Workload):
    """``overlay-churn``: subscribe/unsubscribe/publish on an 8-broker tree.

    Subscriptions and events come from :class:`NetworkChurnScenario`:
    the initial population from one seeded with ``POPULATION_SEED``, the
    traffic from one seeded with ``--seed``.  Calls go to uniformly
    random brokers, publish 3 : write 2.  A write
    subscribes when fewer subscriptions than the initial population are
    live, withdraws a random live one when more are, and picks either at
    even odds otherwise, so subscribe and unsubscribe stay 1 : 1 and the
    live population never drifts from its initial size.  (The scenario's
    own ``ops()`` stream lets it random-walk, by about 16% over a run of
    this length, which moved the per-seed cost as much.)

    Subscriptions travel as text, so parsing is part of every subscribe.
    ``handles`` maps the scenario's subscription ids to the handles the
    network returned.
    """

    name = "overlay-churn"
    writes = True
    setup_repeats = 6

    def generate(self) -> None:
        self.topology = make_topology("tree", 8)
        population = NetworkChurnScenario(seed=POPULATION_SEED)
        placement = make_rng(POPULATION_SEED)
        self.initial = [
            (
                placement.choice(self.topology.brokers),
                population.subscription(f"peer{serial:05d}"),
            )
            for serial in range(self.population(1000))
        ]
        self._scenario = NetworkChurnScenario(seed=self.seed)
        self._rng = make_rng(self.seed)
        self._serial = len(self.initial)

    def _fresh(self) -> Subscription:
        subscription = self._scenario.subscription(f"peer{self._serial:05d}")
        self._serial += 1
        return subscription

    def traffic(self):
        rng = self._rng
        brokers = self.topology.brokers
        target = len(self.initial)
        live = [subscription.subscription_id for _, subscription in self.initial]
        for _ in range(self.calls):
            roll = rng.random() * 5
            if roll < 3:
                yield "publish", (rng.choice(brokers), self._scenario.event())
                continue
            if len(live) < target or (len(live) == target and roll < 4):
                subscription = self._fresh()
                live.append(subscription.subscription_id)
                yield "subscribe", (rng.choice(brokers), subscription)
            else:
                yield "unsubscribe", live.pop(rng.randrange(len(live)))

    @staticmethod
    def events_of(kind: str, payload) -> list:
        return [payload[1]] if kind == "publish" else []

    def _subscribe(self, broker: str, subscription: Subscription):
        network, handles = self.state
        handle = network.subscribe(
            broker, str(subscription.expression), subscriber=subscription.subscriber
        )
        handles[subscription.subscription_id] = handle
        return handle

    def setup(self, timer, instrument=None) -> None:
        network = BrokerNetwork(covering_enabled=True)
        self.topology.build(network, engine="noncanonical")
        if instrument is not None:
            instrument(network)
        self.state = (network, {})
        for broker, subscription in self.initial:
            timer("subscribe", self._subscribe, broker, subscription)

    def teardown(self, timer) -> None:
        network, handles = self.state
        for scenario_id in list(handles):
            timer("unsubscribe", network.unsubscribe, handles.pop(scenario_id))
        self.close()

    def call(self, kind: str, payload):
        network, handles = self.state
        if kind == "publish":
            return network.publish(payload[0], payload[1])
        if kind == "subscribe":
            return self._subscribe(payload[0], payload[1])
        return network.unsubscribe(handles.pop(payload))

    def check(self, index: int, kind: str, payload, result) -> bool:
        if kind == "subscribe":
            # the text must round-trip to the scenario's expression
            return result.subscription.expression == payload[1].expression
        if kind == "unsubscribe" or index % CHECK_EVERY_OVERLAY:
            return True
        event = payload[1]
        expected = {
            handle.id
            for handle in self.state[1].values()
            if handle.subscription.matches(event)
        }
        delivered = [n.subscription_id for n in result]
        return len(delivered) == len(expected) and set(delivered) == expected

    def engines(self) -> list:
        return [broker.engine for broker in self.state[0].brokers()]


WORKLOADS = {cls.name: cls for cls in (PaperBatch, HotKeyBatch, OverlayChurn)}
