"""Unit and property tests for the sorted threshold arrays
(repro.indexes.thresholds)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes import SortedThresholds

#: operator -> (below, inclusive, reference comparison of value and key)
OPERATORS = {
    "<": (False, False, lambda value, key: value < key),
    "<=": (False, True, lambda value, key: value <= key),
    ">": (True, False, lambda value, key: value > key),
    ">=": (True, True, lambda value, key: value >= key),
}


def thresholds(symbol: str) -> SortedThresholds:
    below, inclusive, _ = OPERATORS[symbol]
    return SortedThresholds(below=below, inclusive=inclusive)


class TestBookkeeping:
    def test_keys_stay_sorted_with_parallel_buckets(self):
        index = thresholds(">")
        for pid, key in enumerate((5, 1, 3, 3, 9)):
            index.insert(key, pid)
        assert index.keys == [1, 3, 5, 9]
        assert index.buckets == [{1}, {2, 3}, {0}, {4}]
        assert len(index) == 5

    def test_duplicate_pair_not_double_counted(self):
        index = thresholds("<")
        index.insert(4, 1)
        index.insert(4, 1)
        assert len(index) == 1

    def test_remove_keeps_key_until_bucket_empties(self):
        index = thresholds("<=")
        index.insert(4, 1)
        index.insert(4, 2)
        assert index.remove(4, 1)
        assert index.keys == [4]
        assert index.remove(4, 2)
        assert index.keys == [] and index.buckets == [] and len(index) == 0

    def test_remove_missing_returns_false(self):
        index = thresholds(">=")
        index.insert(4, 1)
        assert not index.remove(5, 1)
        assert not index.remove(4, 2)
        assert len(index) == 1

    def test_string_keys(self):
        index = thresholds(">")
        for pid, key in enumerate(("b", "a", "c")):
            index.insert(key, pid)
        assert index.match("bb") == {0, 1}


@pytest.mark.parametrize("symbol", sorted(OPERATORS))
def test_ties_follow_the_operator(symbol):
    index = thresholds(symbol)
    index.insert(5, 1)
    compare = OPERATORS[symbol][2]
    for value in (4, 5, 6):
        assert index.match(value) == ({1} if compare(value, 5) else set())


@given(
    st.sampled_from(sorted(OPERATORS)),
    st.lists(st.integers(-6, 6), max_size=12),
    st.lists(st.integers(-8, 8), max_size=10),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sweep_and_match_agree_with_the_comparison(symbol, keys, event_values):
    """The batch sweep and the per-value bisect both equal the plain
    comparison, for every operator and tie."""
    index = thresholds(symbol)
    for pid, key in enumerate(keys):
        index.insert(key, pid)
    compare = OPERATORS[symbol][2]
    values = sorted(set(event_values))
    # event j carries values[j]: its mask is 1 << j
    prefix = [0]
    for position in range(len(values)):
        prefix.append(prefix[-1] | 1 << position)
    columns: dict[int, int] = {}
    if values:
        for ids, mask in index.sweep(values, prefix):
            for pid in ids:
                columns[pid] = columns.get(pid, 0) | mask
    for position, value in enumerate(values):
        expected = {pid for pid, key in enumerate(keys) if compare(value, key)}
        assert index.match(value) == expected
        swept = {pid for pid, column in columns.items() if column >> position & 1}
        assert swept == expected
