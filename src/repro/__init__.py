"""repro — non-canonical filtering for publish/subscribe systems.

A complete, from-scratch reproduction of

    Sven Bittner & Annika Hinze,
    *On the Benefits of Non-Canonical Filtering in Publish/Subscribe
    Systems*, ICDCS Workshops (ICDCSW) 2005.

The package implements the paper's contribution — a matching engine that
filters **arbitrary Boolean subscriptions directly**, without rewriting
them into disjunctive normal form — together with every substrate the
evaluation depends on: the predicate language and its one-dimensional
indexes (hash tables, sorted threshold arrays, interval index, tries),
the canonical DNF pipeline and counting-algorithm baselines it is
compared against, byte-level subscription tree codecs, a memory cost
model with a simulated 512 MB machine, a broker overlay network, and the
workload generators and experiment harness that regenerate the paper's
Table 1 and all six panels of Figure 3.

Quickstart
----------
>>> from repro import Broker, Event
>>> broker = Broker("edge")
>>> sub = broker.subscribe(
...     "(price > 10 or urgent = true) and symbol prefix 'AC'"
... )
>>> broker.publish(Event({"symbol": "ACME", "price": 12.5}))
... # doctest: +ELLIPSIS
[Notification(...)]

See ``examples/`` for full scenarios and ``DESIGN.md`` for the system
inventory and the paper-to-module map.
"""

from .broker import (
    Broker,
    BrokerNetwork,
    CallbackSink,
    CollectingSink,
    DeliverySink,
    Notification,
    Publisher,
    QueueSink,
    Subscriber,
    SubscriptionHandle,
    TopologyError,
    as_sink,
)
from .core import (
    ENGINES,
    BruteForceEngine,
    CountingEngine,
    CountingVariantEngine,
    DiskTreeStore,
    EngineSpec,
    FilterEngine,
    FulfilledMatrix,
    MatchCounters,
    MatchingTreeEngine,
    NonCanonicalEngine,
    PagedNonCanonicalEngine,
    HashPartitioner,
    RoutedPartitioner,
    ShardPartitioner,
    ShardedEngine,
    UnknownEngineError,
    UnknownSubscriptionError,
    UnsupportedSubscriptionError,
    build_engine,
    canonical_engine_name,
    engine_names,
    make_partitioner,
    partitioner_names,
    resolve_engine,
    shard_index,
    spec_of,
)
from .events import (
    AttributeSpec,
    AttributeType,
    Event,
    EventSchema,
    InvalidEventError,
    SchemaViolationError,
)
from .memory import PAPER_MACHINE, CostModel, SimulatedMachine
from .predicates import (
    InvalidPredicateError,
    Operator,
    Predicate,
    PredicateRegistry,
)
from .subscriptions import (
    CoveringIndex,
    Subscription,
    SubscriptionSyntaxError,
    covers,
    parse,
    summarize,
    to_dnf,
)

__version__ = "1.0.0"

__all__ = [
    "Broker",
    "BrokerNetwork",
    "Notification",
    "Publisher",
    "Subscriber",
    "SubscriptionHandle",
    "DeliverySink",
    "CallbackSink",
    "CollectingSink",
    "QueueSink",
    "as_sink",
    "TopologyError",
    "ENGINES",
    "EngineSpec",
    "UnknownEngineError",
    "build_engine",
    "canonical_engine_name",
    "engine_names",
    "resolve_engine",
    "spec_of",
    "ShardedEngine",
    "ShardPartitioner",
    "HashPartitioner",
    "RoutedPartitioner",
    "make_partitioner",
    "partitioner_names",
    "shard_index",
    "BruteForceEngine",
    "CountingEngine",
    "CountingVariantEngine",
    "DiskTreeStore",
    "FilterEngine",
    "FulfilledMatrix",
    "MatchCounters",
    "MatchingTreeEngine",
    "NonCanonicalEngine",
    "PagedNonCanonicalEngine",
    "UnknownSubscriptionError",
    "UnsupportedSubscriptionError",
    "AttributeSpec",
    "AttributeType",
    "Event",
    "EventSchema",
    "InvalidEventError",
    "SchemaViolationError",
    "PAPER_MACHINE",
    "CostModel",
    "SimulatedMachine",
    "InvalidPredicateError",
    "Operator",
    "Predicate",
    "PredicateRegistry",
    "Subscription",
    "SubscriptionSyntaxError",
    "parse",
    "to_dnf",
    "covers",
    "CoveringIndex",
    "summarize",
    "__version__",
]
