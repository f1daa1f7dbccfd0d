"""Matching engines: the paper's non-canonical filter and its baselines."""

from .base import (
    FilterEngine,
    MatchCounters,
    UnknownSubscriptionError,
    UnsupportedSubscriptionError,
)
from .bitset import FulfilledMatrix
from .bruteforce import BruteForceEngine
from .counting import MAX_CLAUSE_PREDICATES, CountingEngine, CountingVariantEngine
from .matching_tree import MatchingTreeEngine
from .noncanonical import NonCanonicalEngine
from .paged import DiskTreeStore, PagedNonCanonicalEngine
from .registry import (
    EngineSpec,
    UnknownEngineError,
    build_engine,
    canonical_engine_name,
    engine_catalog,
    engine_names,
    resolve_engine,
    spec_of,
)
from .sharded import (
    HashPartitioner,
    RoutedPartitioner,
    ShardPartitioner,
    ShardedEngine,
    make_partitioner,
    partitioner_names,
    shard_index,
)

#: Engine display name -> class, a snapshot of the registry's catalog
#: (kept for callers that predate the registry; new code should use
#: :func:`build_engine` / :func:`engine_names`).
ENGINES = engine_catalog()

__all__ = [
    "FilterEngine",
    "MatchCounters",
    "UnknownSubscriptionError",
    "UnsupportedSubscriptionError",
    "FulfilledMatrix",
    "BruteForceEngine",
    "MAX_CLAUSE_PREDICATES",
    "CountingEngine",
    "CountingVariantEngine",
    "MatchingTreeEngine",
    "NonCanonicalEngine",
    "DiskTreeStore",
    "PagedNonCanonicalEngine",
    "ENGINES",
    "EngineSpec",
    "UnknownEngineError",
    "build_engine",
    "canonical_engine_name",
    "engine_catalog",
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
]
