"""Outside-in tracing: spans around the public methods of each layer.

Nothing under ``src/`` is edited.  :func:`instrument` replaces methods
on the live objects of one workload, and :class:`ClassPatches` the four
methods the program reaches through a class, with wrappers that record
a span per call: its name, start, end, parent span and op id.  Calls
made outside a benchmark call (input generation) are not recorded.
Spans stay in memory; :meth:`Recorder.write` stores them when the run
ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans of one op sum exactly to the
op's root span; the root's own self time is the time no wrapped layer
claimed (the benchmark loop and unwrapped glue), reported as
``unattributed``.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from pathlib import Path

from repro import BrokerNetwork, CoveringIndex, FulfilledMatrix, Subscription

#: Layer of the root ``op.<kind>`` spans: time no wrapped layer claimed.
ROOT_LAYER = "unattributed"


def layer_of(name: str) -> str:
    """A span's layer: the prefix of its name (``indexes.phase1``)."""
    return ROOT_LAYER if name.startswith("op.") else name.split(".", 1)[0]


class Recorder:
    """In-memory span store with online self-time aggregation.

    Spans are kept column-wise in typed arrays (about 40 bytes a span).
    Aggregates are keyed by ``(phase, kind, name)``: ``phase`` is
    ``setup``, ``teardown`` or ``traffic`` and ``kind`` the root op's
    kind (``publish``, ``subscribe`` or ``unsubscribe``).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self._children: list[int] = []
        self._stack: list[int] = []
        self.op = 0
        self.phase = "setup"
        self.kind = ""
        self.self_ns: dict[tuple, int] = defaultdict(int)
        self.calls: dict[tuple, int] = defaultdict(int)
        #: counts attributed to the running op, keyed like the aggregates
        self.counts: dict[tuple, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def busy(self) -> bool:
        """Whether a benchmark call (root span) is open."""
        return bool(self._stack)

    def enter(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self._children.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def exit(self, index: int) -> None:
        end = time.perf_counter_ns()
        self.end[index] = end
        self._stack.pop()
        duration = end - self.start[index]
        parent = self.parent[index]
        if parent >= 0:
            self._children[parent] += duration
        key = (self.phase, self.kind, self.names[self.name[index]])
        self.self_ns[key] += duration - self._children[index]
        self.calls[key] += 1

    def count(self, name: str, amount: int) -> None:
        self.counts[(self.phase, self.kind, name)] += amount

    def root(self, kind: str, function, *args):
        """Run one benchmark call as op ``self.op`` under a root span."""
        self.op += 1
        self.kind = kind
        index = self.enter(f"op.{kind}")
        try:
            return function(*args)
        finally:
            self.exit(index)

    def write(self, path: Path) -> None:
        """Store every span as a gzipped TSV (start/end in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index in range(len(self.start)):
                out.write(
                    f"{self.op_of[index]}\t{index}\t{self.parent[index]}\t"
                    f"{names[self.name[index]]}\t{self.start[index]}\t{self.end[index]}\n"
                )


def _wrap(recorder: Recorder, function, name: str, counter=None):
    """A span-recording stand-in for ``function``.

    ``counter(result, args)`` may derive work counts from the result; it
    runs inside its own ``trace.count`` span so its cost is kept out of
    every layer's self time.
    """

    def traced(*args, **kwargs):
        if not recorder.busy:  # outside benchmark calls: input generation
            return function(*args, **kwargs)
        index = recorder.enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.exit(index)
        if counter is not None:
            index = recorder.enter("trace.count")
            try:
                counter(result, args)
            finally:
                recorder.exit(index)
        return result

    traced.__wrapped__ = function
    return traced


def _wrap_method(recorder, obj, method: str, name: str, counter=None) -> None:
    function = getattr(obj, method)
    if not hasattr(function, "__wrapped__"):  # objects shared by set-ups
        setattr(obj, method, _wrap(recorder, function, name, counter))


def _fulfilled_counter(recorder: Recorder):
    def count(result, args) -> None:
        if isinstance(result, FulfilledMatrix):
            columns = result.columns
            recorder.count("events", result.event_count)
            recorder.count(
                "fulfilled", sum(columns[bit].bit_count() for bit in result.active_bits)
            )
        elif isinstance(result, list):
            recorder.count("events", len(result))
            recorder.count("fulfilled", sum(len(ids) for ids in result))
        else:
            recorder.count("events", 1)
            recorder.count("fulfilled", len(result))

    return count


class ClassPatches:
    """Wrappers of the class-level entry points, undone by :meth:`restore`."""

    def __init__(self, recorder: Recorder) -> None:
        self._saved = []
        self._patch(
            FulfilledMatrix,
            "select",
            _wrap(recorder, FulfilledMatrix.select, "core.matrix_select"),
        )
        parse = Subscription.__dict__["from_text"].__func__
        self._patch(
            Subscription,
            "from_text",
            classmethod(_wrap(recorder, parse, "subscriptions.parse")),
        )
        for method in ("add", "remove"):
            self._patch(
                CoveringIndex,
                method,
                _covering_wrapper(recorder, getattr(CoveringIndex, method)),
            )

    def _patch(self, cls, attribute: str, value) -> None:
        self._saved.append((cls, attribute, cls.__dict__[attribute]))
        setattr(cls, attribute, value)

    def restore(self) -> None:
        for cls, attribute, original in reversed(self._saved):
            setattr(cls, attribute, original)
        self._saved.clear()


def _covering_wrapper(recorder: Recorder, function):
    """``CoveringIndex.add``/``remove`` span plus the exact-test count."""
    traced = _wrap(recorder, function, "subscriptions.covering")

    def covering(self, *args, **kwargs):
        before = self.covers_calls
        try:
            return traced(self, *args, **kwargs)
        finally:
            recorder.count("covers_calls", self.covers_calls - before)

    return covering


def instrument_engine(recorder: Recorder, engine) -> None:
    """Wrap one broker's engine, its shards, partitioner and indexes."""
    shards = getattr(engine, "shards", None)
    top = "core.dispatch" if shards is not None else "core.match"
    for method in ("match", "match_batch"):
        _wrap_method(recorder, engine, method, top)
    _wrap_method(recorder, engine, "register", "core.register")
    _wrap_method(recorder, engine, "unregister", "core.unregister")
    for leaf in shards if shards is not None else (engine,):
        for method in ("match_fulfilled", "match_fulfilled_batch", "match_fulfilled_matrix"):
            _wrap_method(recorder, leaf, method, "core.phase2")
    if shards is not None:
        _wrap_method(recorder, engine.partitioner, "candidate_shards", "core.shard_route")
    counter = _fulfilled_counter(recorder)
    for method in ("match", "match_batch", "match_batch_bits"):
        _wrap_method(recorder, engine.indexes, method, "indexes.phase1", counter)


def instrument_broker(recorder: Recorder, broker) -> None:
    """Wrap a broker's publish, delivery and subscription entry points."""
    _wrap_method(recorder, broker, "publish", "broker.publish")
    _wrap_method(recorder, broker, "notify_local", "broker.deliver")
    _wrap_method(recorder, broker, "subscribe", "broker.subscribe")
    _wrap_method(recorder, broker, "unsubscribe", "broker.unsubscribe")
    if broker.schema is not None:
        _wrap_method(recorder, broker.schema, "validate", "events.validate")
    instrument_engine(recorder, broker.engine)


def instrument_network(recorder: Recorder, network) -> None:
    """Wrap the overlay, every routing table and every broker."""
    _wrap_method(recorder, network, "publish", "broker.forward")
    _wrap_method(recorder, network, "subscribe", "broker.propagate")
    _wrap_method(recorder, network, "unsubscribe", "broker.propagate")
    for broker in network.brokers():
        table = network.routing_table(broker.name)
        for method in ("add_local", "add_remote", "remove"):
            _wrap_method(recorder, table, method, "broker.route")
        instrument_broker(recorder, broker)


def instrument(recorder: Recorder, target) -> None:
    """Wrap a freshly built broker or overlay before it takes traffic."""
    if isinstance(target, BrokerNetwork):
        instrument_network(recorder, target)
    else:
        instrument_broker(recorder, target)
