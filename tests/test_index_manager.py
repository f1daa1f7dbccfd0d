"""Unit and property tests for phase-1 predicate matching
(repro.indexes.manager)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import event_strategy, predicate_strategy
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import Operator, Predicate
from repro.predicates.predicate import InvalidPredicateError


class TestDispatch:
    """One predicate of each operator family lands in the right index and
    matches correctly through the manager."""

    @pytest.mark.parametrize(
        "predicate, matching, non_matching",
        [
            (Predicate("x", Operator.EQ, 5), {"x": 5}, {"x": 6}),
            (Predicate("x", Operator.NE, 5), {"x": 6}, {"x": 5}),
            (Predicate("x", Operator.LT, 5), {"x": 4}, {"x": 5}),
            (Predicate("x", Operator.LE, 5), {"x": 5}, {"x": 6}),
            (Predicate("x", Operator.GT, 5), {"x": 6}, {"x": 5}),
            (Predicate("x", Operator.GE, 5), {"x": 5}, {"x": 4}),
            (Predicate("x", Operator.BETWEEN, (1, 3)), {"x": 2}, {"x": 4}),
            (Predicate("x", Operator.IN, [1, 2]), {"x": 2}, {"x": 3}),
            (Predicate("x", Operator.EXISTS), {"x": 0}, {"y": 0}),
            (Predicate("s", Operator.PREFIX, "ab"), {"s": "abc"}, {"s": "ba"}),
            (Predicate("s", Operator.SUFFIX, "bc"), {"s": "abc"}, {"s": "cb"}),
            (Predicate("s", Operator.CONTAINS, "b"), {"s": "abc"}, {"s": "ac"}),
        ],
        ids=lambda value: str(value),
    )
    def test_operator_families(self, predicate, matching, non_matching):
        manager = IndexManager()
        manager.add(predicate, 1)
        assert manager.match(Event(matching)) == {1}
        assert manager.match(Event(non_matching)) == set()

    def test_add_is_idempotent_per_id(self):
        manager = IndexManager()
        p = Predicate("x", Operator.EQ, 5)
        manager.add(p, 1)
        manager.add(p, 1)
        assert len(manager) == 1

    def test_numeric_and_string_domains_separated(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.GT, 5), 1)
        manager.add(Predicate("x", Operator.GT, "m"), 2)
        assert manager.match(Event({"x": 10})) == {1}
        assert manager.match(Event({"x": "z"})) == {2}

    def test_bool_event_value_only_hits_hash_family(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.EQ, True), 1)
        manager.add(Predicate("x", Operator.GT, 0), 2)
        assert manager.match(Event({"x": True})) == {1}

    def test_event_with_unknown_attributes(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.EQ, 5), 1)
        assert manager.match(Event({"other": 5})) == set()


class TestRemoval:
    def test_remove_each_family(self):
        manager = IndexManager()
        predicates = {
            1: Predicate("x", Operator.EQ, 5),
            2: Predicate("x", Operator.NE, 5),
            3: Predicate("x", Operator.GT, 5),
            4: Predicate("x", Operator.BETWEEN, (1, 3)),
            5: Predicate("x", Operator.IN, [1]),
            6: Predicate("x", Operator.EXISTS),
            7: Predicate("s", Operator.PREFIX, "a"),
            8: Predicate("s", Operator.SUFFIX, "a"),
            9: Predicate("s", Operator.CONTAINS, "a"),
        }
        for pid, p in predicates.items():
            manager.add(p, pid)
        for pid in predicates:
            assert manager.remove(pid)
        assert len(manager) == 0
        assert list(manager.attributes()) == []

    def test_remove_unknown_returns_false(self):
        assert not IndexManager().remove(99)

    def test_predicate_lookup(self):
        manager = IndexManager()
        p = Predicate("x", Operator.EQ, 5)
        manager.add(p, 1)
        assert manager.predicate(1) == p
        assert 1 in manager
        assert 2 not in manager


class TestAgainstDirectEvaluation:
    @given(st.lists(predicate_strategy(), max_size=25), event_strategy())
    @settings(max_examples=120, deadline=None)
    def test_match_equals_per_predicate_evaluation(self, predicates, event):
        manager = IndexManager()
        for pid, predicate in enumerate(predicates, start=1):
            manager.add(predicate, pid)
        expected = {
            pid
            for pid, predicate in enumerate(predicates, start=1)
            if predicate.matches(event)
        }
        assert manager.match(event) == expected

    @given(st.lists(predicate_strategy(), min_size=2, max_size=25),
           event_strategy(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_match_after_partial_removal(self, predicates, event, data):
        manager = IndexManager()
        for pid, predicate in enumerate(predicates, start=1):
            manager.add(predicate, pid)
        removed = data.draw(
            st.sets(st.integers(1, len(predicates)), max_size=len(predicates))
        )
        for pid in removed:
            manager.remove(pid)
        expected = {
            pid
            for pid, predicate in enumerate(predicates, start=1)
            if pid not in removed and predicate.matches(event)
        }
        assert manager.match(event) == expected


# -- the batch sweep against the spec, under churn ---------------------

NAN = float("nan")
#: Event values and operands: ``True`` vs ``1`` vs ``1.0``, NaN (two
#: distinct objects, so identity-based lookups are exercised too), ±inf,
#: and strings that are prefixes, suffixes and substrings of each other.
SWEEP_VALUES = (
    True, False, 0, 1, 1.0, -1, 2.5, -0.0, math.nan, NAN, math.inf, -math.inf,
    "", "a", "ab", "ba", "b", "1",
)
ORDERABLE = tuple(v for v in SWEEP_VALUES if not isinstance(v, bool))
STRINGS = tuple(v for v in SWEEP_VALUES if isinstance(v, str))
#: drawn as often as all other values together: the cases that differ
TRICKY = (True, 1, math.nan, NAN)
ATTRIBUTES = ("x", "y")


zoo_value_strategy = st.sampled_from(SWEEP_VALUES) | st.sampled_from(TRICKY)


def _between(bounds):
    try:
        return Predicate("x", Operator.BETWEEN, bounds).value
    except InvalidPredicateError:  # out of order or mixed domains
        return None


def zoo_predicate_strategy():
    """One predicate of any operator over any operand the operator takes."""
    attribute = st.sampled_from(ATTRIBUTES)
    orderable = st.sampled_from(ORDERABLE) | st.sampled_from((1, math.nan, NAN))
    operand = {
        Operator.EQ: zoo_value_strategy,
        Operator.NE: zoo_value_strategy,
        Operator.LT: orderable,
        Operator.LE: orderable,
        Operator.GT: orderable,
        Operator.GE: orderable,
        Operator.BETWEEN: st.tuples(orderable, orderable)
        .map(_between)
        .filter(lambda bounds: bounds is not None),
        Operator.IN: st.frozensets(zoo_value_strategy, min_size=1, max_size=3),
        Operator.PREFIX: st.sampled_from(STRINGS),
        Operator.SUFFIX: st.sampled_from(STRINGS),
        Operator.CONTAINS: st.sampled_from(STRINGS),
        Operator.EXISTS: st.none(),
    }
    return st.one_of(
        *(
            st.builds(Predicate, attribute, st.just(operator), values)
            for operator, values in operand.items()
        )
    )


zoo_event_strategy = st.fixed_dictionaries(
    {"x": zoo_value_strategy},
    optional={"y": zoo_value_strategy, "z": st.just(1)},
).map(Event)

churn_step_strategy = st.one_of(
    st.tuples(st.just("add"), zoo_predicate_strategy()),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(
        st.just("batch"), st.lists(zoo_event_strategy, min_size=1, max_size=64)
    ),
)


class TestBatchSweepAgainstSpec:
    """Every phase-1 form agrees with ``Predicate.matches`` under churn."""

    @given(
        st.lists(zoo_predicate_strategy(), max_size=30),
        st.lists(churn_step_strategy, min_size=1, max_size=30),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_all_phase1_forms_agree_with_the_spec(self, population, steps):
        manager = IndexManager()
        live: dict[int, Predicate] = {}
        next_pid = 1
        for action, argument in [("add", p) for p in population] + steps:
            if action == "add":
                manager.add(argument, next_pid)
                live[next_pid] = argument
                next_pid += 1
            elif action == "remove":
                if live:
                    pid = sorted(live)[argument % len(live)]
                    assert manager.remove(pid)
                    del live[pid]
            else:
                expected = [
                    {pid for pid, p in live.items() if p.matches(event)}
                    for event in argument
                ]
                assert manager.match_batch_bits(argument).to_id_sets() == expected
                assert manager.match_batch(argument) == expected
                assert [manager.match(event) for event in argument] == expected
