"""The same-machine A/B gate's verdict (``tools/perf_ab.py``).

The verdict is a pure function of the result lines both sides printed
plus ``BENCHMARK.json``, so each rule is checked here on synthetic
result lines: timing medians against their bounds, failed operations,
missing metrics, and the deterministic model-bytes and suppression
counts of the traced run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / "tools" / "perf_ab.py"
)
perf_ab = sys.modules["perf_ab"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
BASE_METRICS = {
    "throughput_ops_s": 1000.0,
    "publish_p90_us": 500.0,
    "subscribe_p90_us": 200.0,
    "unsubscribe_p90_us": 100.0,
    "setup_s": 0.5,
    "rss_peak_mb": 50.0,
}
BASE_TRACED = {"core.model_bytes": 20_000.0, "broker.suppression_ratio": 0.7}


def result(metrics: dict, failed: int = 0) -> dict:
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def side(scale=None, drop=(), failed=0, traced=None) -> "perf_ab.Side":
    """Five runs of every workload; ``scale`` multiplies one metric of
    the paper-b256 runs, ``drop`` removes metrics from them."""
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = []
        for jitter in (0.98, 0.99, 1.0, 1.01, 1.02):
            metrics = {name: value * jitter for name, value in BASE_METRICS.items()}
            if workload == "paper-b256":
                if scale is not None:
                    name, factor = scale
                    metrics[name] *= factor
                for name in drop:
                    del metrics[name]
            runs[workload].append(result(metrics, failed))
    traced_metrics = dict(BASE_TRACED, **(traced or {}))
    return perf_ab.Side(
        runs=runs,
        traced={workload: result(traced_metrics) for workload in WORKLOADS},
    )


def failures(head: "perf_ab.Side") -> list[str]:
    return perf_ab.verdict(side(), head, BENCHMARK)


def test_identical_sides_pass():
    assert failures(side()) == []


def test_slowdown_past_the_bound_fails():
    [failure] = failures(side(scale=("throughput_ops_s", 0.5)))
    assert failure.startswith("paper-b256/throughput_ops_s:")


@pytest.mark.parametrize(
    "name, factor", [("throughput_ops_s", 0.8), ("publish_p90_us", 1.2)]
)
def test_drop_within_the_bound_passes(name, factor):
    assert failures(side(scale=(name, factor))) == []


def test_latency_growth_past_the_bound_fails():
    [failure] = failures(side(scale=("publish_p90_us", 1.3)))
    assert failure.startswith("paper-b256/publish_p90_us:")


def test_failed_ops_on_head_fail():
    assert "head reported" in " ".join(failures(side(failed=1)))


def test_missing_metric_fails():
    [failure] = failures(side(drop=("unsubscribe_p90_us",)))
    assert failure == "paper-b256/unsubscribe_p90_us: missing on head"


def test_metric_absent_on_both_sides_is_not_gated():
    base = side(drop=("unsubscribe_p90_us",))
    head = side(drop=("unsubscribe_p90_us",))
    assert perf_ab.verdict(base, head, BENCHMARK) == []


def test_model_bytes_growth_over_five_percent_fails():
    assert failures(side(traced={"core.model_bytes": 20_900.0})) == []
    found = failures(side(traced={"core.model_bytes": 21_100.0}))
    assert len(found) == len(WORKLOADS)
    assert all("core.model_bytes" in failure for failure in found)


def test_suppression_drop_over_five_points_fails():
    assert failures(side(traced={"broker.suppression_ratio": 0.66})) == []
    found = failures(side(traced={"broker.suppression_ratio": 0.64}))
    assert len(found) == len(WORKLOADS)
    assert all("broker.suppression_ratio" in failure for failure in found)


def test_report_names_every_end_to_end_metric_and_layer():
    lines = perf_ab.report(side(), side(scale=("setup_s", 2.0)), BENCHMARK)
    text = "\n".join(lines)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["name"] in text
    assert "core.model_bytes" in text
    assert "+100.0%" in text


def test_report_labels_a_metric_unresolved_when_the_base_spread_passes_its_bound():
    base = side()
    for run, factor in zip(base.runs["paper-b256"], (0.8, 0.9, 1.0, 1.1, 1.2)):
        run["metrics"]["rss_peak_mb"]["value"] *= factor
    lines = perf_ab.report(base, side(), BENCHMARK)
    unresolved = [line for line in lines if "unresolved" in line]
    [line] = unresolved  # rss of paper-b256 only: +-2% jitter is inside 5%
    assert line.lstrip().startswith("rss_peak_mb")
    assert lines.index(line) < lines.index("== hotkey-b32")
    assert "base IQR 33% of its median" in line
    # the label reports; the verdict on medians is unchanged
    assert perf_ab.verdict(base, side(), BENCHMARK) == []
