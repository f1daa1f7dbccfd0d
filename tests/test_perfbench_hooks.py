"""The benchmark's hooks into the program, checked on every test run.

``perfbench/`` imports names from ``repro`` and wraps the program's
methods by name (:mod:`perfbench.tracer`), so a rename or deletion under
``src/`` can break the benchmark while every program test passes.  This
module imports the benchmark's passes and traces one tiny set-up, a few
traffic calls and a teardown of each workload, so such a break fails
here instead of only in the benchmark's own self-check.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import passes, tracer  # noqa: E402

WORKLOADS = [
    entry["name"]
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
#: Traffic calls traced per workload (the first few of its stream).
CALLS = 6

#: Span names every workload records, by phase.
COMMON_SPANS = {
    "setup": {"broker.subscribe", "core.register"},
    "traffic": {"indexes.phase1", "core.phase2"},
    "teardown": {"broker.unsubscribe", "core.unregister"},
}
#: Span names only some workloads reach, by phase.
WORKLOAD_SPANS = {
    "paper-b256": {"traffic": {"broker.publish"}},
    "hotkey-b32": {
        "traffic": {
            "broker.publish",
            "broker.deliver",
            "core.dispatch",
            "core.shard_route",
        },
    },
    "overlay-churn": {
        "setup": {
            "subscriptions.parse",
            "broker.propagate",
            "broker.route",
            "subscriptions.covering",
        },
        "traffic": {"broker.forward", "broker.deliver"},
    },
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracer_instruments_a_tiny_run(name):
    workload = passes.make_workload(name, seed=1, calls=CALLS, scale=0.01)
    recorder = tracer.Recorder()
    patches = tracer.ClassPatches(recorder)
    try:
        recorder.phase = "setup"
        workload.setup(
            recorder.root, lambda target: tracer.instrument(recorder, target)
        )
        recorder.phase = "traffic"
        for index, (kind, payload) in enumerate(workload.traffic()):
            result = recorder.root(kind, workload.call, kind, payload)
            assert workload.check(index, kind, payload, result), (kind, index)
        recorder.phase = "teardown"
        workload.teardown(recorder.root)
    finally:
        patches.restore()
    recorded = {}
    for phase, _kind, span in recorder.calls:
        recorded.setdefault(phase, set()).add(span)
    for phase, spans in COMMON_SPANS.items():
        expected = spans | WORKLOAD_SPANS.get(name, {}).get(phase, set())
        assert expected <= recorded.get(phase, set()), (phase, expected)
