"""One-dimensional predicate indexes (phase-1 matching)."""

from .base import PredicateIndex
from .hash_index import EqualityIndex, ExistsIndex, MembershipIndex, NotEqualIndex
from .interval_index import IntervalIndex
from .manager import AttributeIndexes, IndexManager
from .thresholds import SortedThresholds
from .trie import ContainsScanList, PrefixTrie, SuffixTrie

__all__ = [
    "PredicateIndex",
    "EqualityIndex",
    "ExistsIndex",
    "MembershipIndex",
    "NotEqualIndex",
    "IntervalIndex",
    "AttributeIndexes",
    "IndexManager",
    "SortedThresholds",
    "ContainsScanList",
    "PrefixTrie",
    "SuffixTrie",
]
