"""Shared hypothesis strategies and fixture predicates for the test suite.

Imported absolutely (``from helpers import ...``) — pytest's rootdir
import mode puts ``tests/`` on ``sys.path``, so these helpers work both
under ``python -m pytest`` from the repository root and when a single
test module is run directly.

Setting the ``REPRO_ENGINE`` environment variable to a registry name
narrows :func:`make_all_engines` to that engine (constructed through the
engine registry) plus the brute-force oracle — the CI engine matrix runs
the agreement and parity suites once per engine this way, proving
spec-driven construction for every engine.

Setting ``REPRO_SHARDS`` to an integer additionally wraps every engine
under test (never the oracle) in a
:class:`~repro.core.sharded.ShardedEngine` with that many shards and the
routed partitioner — the CI sharded leg runs the same suites through
the sharded runtime this way.  Routed, not hash: hash sends every event
to every shard, so the batch path would never slice the fulfilled
matrix (:meth:`~repro.core.bitset.FulfilledMatrix.select`); hash stays
covered per engine by ``tests/test_sharded.py``.
"""

from __future__ import annotations

import os

from hypothesis import strategies as st

from repro import EngineSpec, build_engine, canonical_engine_name, engine_names
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import Operator, Predicate, PredicateRegistry
from repro.subscriptions import And, Not, Or, PredicateLeaf

#: Every canonical registry engine name, in registration order — the
#: parametrization list for suites that cover the whole registry.
ALL_ENGINE_NAMES = engine_names()

#: Canonical registry name selected by the CI engine matrix, or None.
SELECTED_ENGINE = (
    canonical_engine_name(os.environ["REPRO_ENGINE"])
    if os.environ.get("REPRO_ENGINE")
    else None
)

#: Shard count for the CI sharded leg, or None.
SELECTED_SHARDS = (
    int(os.environ["REPRO_SHARDS"])
    if os.environ.get("REPRO_SHARDS")
    else None
)


def _maybe_sharded(spec: EngineSpec) -> EngineSpec:
    """Wrap a spec in the routed sharded runtime when REPRO_SHARDS is
    set."""
    if SELECTED_SHARDS is None:
        return spec
    return spec.with_options(shards=SELECTED_SHARDS, partitioner="routed")


def _spec_options(name, *, complement_operators=False):
    """Per-engine options making it workload-compatible with the suite."""
    if name == "counting":
        return {
            "support_unsubscription": True,
            "complement_operators": complement_operators,
        }
    if name in ("counting-variant", "matching-tree") and complement_operators:
        return {"complement_operators": True}
    return {}


def make_all_engines(*, shared=True, complement_operators=False):
    """One engine of each kind, optionally sharing registry/indexes.

    The last engine is always the brute-force oracle.  With
    ``REPRO_ENGINE`` set, returns just the selected engine (built from
    its registry spec) followed by the oracle.
    """
    if shared:
        registry = PredicateRegistry()
        indexes = IndexManager()
        kwargs = dict(registry=registry, indexes=indexes)
    else:
        kwargs = {}
    if SELECTED_ENGINE is not None:
        spec = _maybe_sharded(
            EngineSpec(
                SELECTED_ENGINE,
                _spec_options(
                    SELECTED_ENGINE, complement_operators=complement_operators
                ),
            )
        )
        engines = [] if SELECTED_ENGINE == "bruteforce" else [spec.build(**kwargs)]
        engines.append(build_engine("bruteforce", **kwargs))
        return engines
    specs = [
        EngineSpec("noncanonical"),
        EngineSpec("noncanonical", {"codec": "varint"}),
        EngineSpec("noncanonical", {"evaluation": "encoded"}),
        EngineSpec(
            "counting",
            {
                "support_unsubscription": True,
                "complement_operators": complement_operators,
            },
        ),
        EngineSpec(
            "counting-variant", {"complement_operators": complement_operators}
        ),
    ]
    engines = [_maybe_sharded(spec).build(**kwargs) for spec in specs]
    engines.append(build_engine("bruteforce", **kwargs))
    return engines

P1 = Predicate("a", Operator.GT, 10)
P2 = Predicate("b", Operator.EQ, 1)
P3 = Predicate("c", Operator.LT, 0)


def random_expressions(max_leaves=6):
    """Hypothesis strategy producing random AST trees over 3 attributes."""
    predicates = st.sampled_from([P1, P2, P3]).map(PredicateLeaf)
    return st.recursive(
        predicates,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(tuple).map(And),
            st.lists(children, min_size=2, max_size=3).map(tuple).map(Or),
            children.map(Not),
        ),
        max_leaves=max_leaves,
    )


def random_events():
    """Hypothesis strategy producing events over the same 3 attributes."""
    return st.fixed_dictionaries(
        {},
        optional={
            "a": st.integers(-5, 20),
            "b": st.integers(0, 3),
            "c": st.integers(-3, 3),
        },
    ).map(Event)


def predicate_strategy():
    """Random predicates covering every operator family and both domains."""
    numeric_attr = st.sampled_from(["a", "b", "c"])
    string_attr = st.sampled_from(["s", "t"])
    value = st.integers(-10, 10)
    word = st.text(alphabet="xyz", max_size=3)
    return st.one_of(
        st.tuples(numeric_attr, st.sampled_from(
            [Operator.EQ, Operator.NE, Operator.LT, Operator.LE,
             Operator.GT, Operator.GE]), value
        ).map(lambda t: Predicate(*t)),
        st.builds(
            lambda a, low, span: Predicate(a, Operator.BETWEEN, (low, low + span)),
            numeric_attr, value, st.integers(0, 8),
        ),
        st.builds(
            lambda a, values: Predicate(a, Operator.IN, values),
            numeric_attr, st.sets(value, min_size=1, max_size=4),
        ),
        st.tuples(string_attr, st.sampled_from(
            [Operator.EQ, Operator.NE, Operator.PREFIX,
             Operator.SUFFIX, Operator.CONTAINS]), word
        ).map(lambda t: Predicate(*t)),
        st.builds(lambda a: Predicate(a, Operator.EXISTS), numeric_attr),
    )


def event_strategy():
    """Random events over the strategy attributes (numeric and string)."""
    return st.fixed_dictionaries(
        {},
        optional={
            "a": st.integers(-12, 12),
            "b": st.integers(-12, 12),
            "c": st.integers(-12, 12),
            "s": st.text(alphabet="xyz", max_size=4),
            "t": st.text(alphabet="xyz", max_size=4),
        },
    ).map(Event)
