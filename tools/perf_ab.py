"""Same-machine A/B of the end-to-end benchmark: a base revision vs the tree.

Usage, from the repository root::

    python3 tools/perf_ab.py <base-rev>

The base side is built by ``git archive``-ing the base revision's ``src/``
into ``.bench_build/<sha>/`` next to a copy of this tree's ``perfbench/``
and ``BENCHMARK.json``, so both sides run the same benchmark code; only
the package under test differs.  The head side is this working tree.

For :data:`PAIRS` pairs, every workload of ``BENCHMARK.json`` runs once
on each side at its ``run_seconds``, in fresh processes, with the side
that goes first alternating between pairs — a host that flips between a
fast and a slow state then slows both sides alike.  Each side also makes
one small traced run per workload (:data:`TRACED_ARGS`, the self-check's
size, where ``perfbench/selfcheck.py`` proves the work counts repeat
exactly).

The verdict (:func:`verdict`) fails when, on any workload,

* an ``end_to_end`` metric's median over the pairs is worse than the base
  median by more than the ``bound`` ``BENCHMARK.json`` gives it;
* a head run reports failed operations;
* a metric the base reports is missing on the head side;
* the traced run's ``core.model_bytes`` grows by more than
  :data:`MODEL_BYTES_GROWTH`, or its ``broker.suppression_ratio`` drops by
  more than :data:`SUPPRESSION_DROP` (absolute) — both are deterministic
  counts, so they gate tighter than timings.

The report labels an end-to-end metric ``unresolved`` when the base
side's interquartile range, relative to its median, is wider than the
metric's bound: the pairs cannot tell a change of that size from the
host's own spread, so "within the bound" does not mean "unchanged".  The
label does not gate.  Per-layer deltas of the traced runs are printed so
that a regression can be traced to a layer; they do not gate either.
Exit status: 0 pass, 1 verdict failed, 2 the measurement itself could
not be made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Interleaved base/head pairs per workload: five keep the CI job near
#: fifteen minutes on a 2-vCPU runner (about 27 s per full-length run).
PAIRS = 5

#: The traced run's size: selfcheck's, where the counts are deterministic.
TRACED_ARGS = ("--scale", "0.2", "--seconds", "1", "--trace", "1")

#: Relative growth of the deterministic model bytes that fails the gate.
MODEL_BYTES_GROWTH = 0.05

#: Absolute drop of the deterministic suppression ratio that fails it.
SUPPRESSION_DROP = 0.05


class MeasurementError(Exception):
    """A benchmark run could not produce a result line."""


@dataclass
class Side:
    """The result lines one side produced, keyed by workload."""

    runs: dict[str, list[dict]] = field(default_factory=dict)
    traced: dict[str, dict] = field(default_factory=dict)


def _value(result: dict, name: str) -> float | None:
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def _values(results: list[dict], name: str) -> list[float] | None:
    """The metric from every result, or ``None`` if any result lacks it."""
    values = [_value(result, name) for result in results]
    return None if None in values else values


def _change(base: float, head: float) -> float:
    """Relative change of head against base (``inf`` from a zero base)."""
    if base == 0:
        return 0.0 if head == 0 else float("inf")
    return (head - base) / abs(base)


def verdict(base: Side, head: Side, benchmark: dict) -> list[str]:
    """Every reason head fails against base; empty when head passes."""
    failures = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        head_runs = head.runs.get(workload, [])
        failed = sum(result["failed"] for result in head_runs)
        if failed or not all(result["correct"] for result in head_runs):
            failures.append(f"{workload}: head reported {failed} failed ops")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = _values(base.runs.get(workload, []), name)
            if not base_values:
                continue  # the workload never issues this kind of call
            head_values = _values(head_runs, name)
            if not head_values:
                failures.append(f"{workload}/{name}: missing on head")
                continue
            change = _change(
                statistics.median(base_values), statistics.median(head_values)
            )
            worse = -change if metric["better"] == "higher" else change
            if worse > metric["bound"]:
                failures.append(
                    f"{workload}/{name}: median {change:+.1%} against base, "
                    f"bound {metric['bound']:.0%}"
                )
        failures.extend(_deterministic_failures(workload, base, head))
    return failures


def _deterministic_failures(workload: str, base: Side, head: Side) -> list[str]:
    failures = []
    base_traced = base.traced.get(workload, {"metrics": {}})
    head_traced = head.traced.get(workload, {"metrics": {}})
    for name in ("core.model_bytes", "broker.suppression_ratio"):
        before = _value(base_traced, name)
        after = _value(head_traced, name)
        if before is None:
            continue
        if after is None:
            failures.append(f"{workload}/{name}: missing on head")
            continue
        if name == "core.model_bytes":
            worse, limit = _change(before, after), MODEL_BYTES_GROWTH
        else:
            worse, limit = before - after, SUPPRESSION_DROP
        if worse > limit:
            failures.append(
                f"{workload}/{name}: {before:.4g} -> {after:.4g} in the traced "
                f"run, worse by {worse:.3g} (limit {limit})"
            )
    return failures


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    low, median, high = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{low:.4g}, {high:.4g}]"


def _relative_spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    low, median, high = statistics.quantiles(values, n=4)
    return _change(median, median + high - low)


def report(base: Side, head: Side, benchmark: dict) -> list[str]:
    """Median and quartiles per end-to-end metric, then per-layer deltas."""
    lines = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        lines.append(f"== {workload}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = _values(base.runs.get(workload, []), name)
            head_values = _values(head.runs.get(workload, []), name)
            if not base_values or not head_values:
                continue
            change = _change(
                statistics.median(base_values), statistics.median(head_values)
            )
            spread = _relative_spread(base_values)
            unresolved = (
                f" unresolved: base IQR {spread:.0%} of its median"
                if spread > metric["bound"]
                else ""
            )
            lines.append(
                f"  {name:<20} base {_quartiles(base_values):<32} "
                f"head {_quartiles(head_values):<32} {change:+.1%} "
                f"({metric['better']} is better, bound {metric['bound']:.0%})"
                f"{unresolved}"
            )
        base_traced = base.traced.get(workload)
        head_traced = head.traced.get(workload)
        if base_traced is None or head_traced is None:
            continue
        lines.append("  per layer (traced run, not gated):")
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            before = _value(base_traced, name)
            after = _value(head_traced, name)
            if before is None or after is None or before == after == 0:
                continue
            lines.append(
                f"    {name:<42} {before:>12.4g} -> {after:<12.4g} "
                f"{_change(before, after):+.1%} {metric['unit']}"
            )
    return lines


def _git(*args: str) -> bytes:
    completed = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if completed.returncode != 0:
        raise MeasurementError(
            f"git {' '.join(args)}: {completed.stderr.decode().strip()}"
        )
    return completed.stdout


def build_base(rev: str) -> Path:
    """``.bench_build/<sha>/`` with the base's ``src/`` and our benchmark."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    build = ROOT / ".bench_build" / sha
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    archive = _git("archive", "--format=tar", sha, "src")
    subprocess.run(["tar", "-x", "-C", str(build)], input=archive, check=True)
    shutil.copytree(
        ROOT / "perfbench",
        build / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy2(ROOT / "BENCHMARK.json", build / "BENCHMARK.json")
    return build


def run_once(root: Path, workload: str, seed: int, args: tuple) -> dict:
    """One ``perfbench/run.py`` run under ``root``; its result line."""
    command = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        *args,
    ]
    completed = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if completed.returncode != 0:
        raise MeasurementError(
            f"{' '.join(command)} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(base_root: Path, benchmark: dict) -> tuple[Side, Side]:
    roots = {"base": base_root, "head": ROOT}
    sides = {"base": Side(), "head": Side()}
    run_args = ("--seconds", str(benchmark["run_seconds"]), "--trace", "0")
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for name in order:
                result = run_once(roots[name], workload, pair + 1, run_args)
                sides[name].runs.setdefault(workload, []).append(result)
                print(f"pair {pair + 1}/{PAIRS} {workload} {name}", flush=True)
    for workload in workloads:
        for name in ("base", "head"):
            sides[name].traced[workload] = run_once(
                roots[name], workload, 1, TRACED_ARGS
            )
    return sides["base"], sides["head"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision to compare against")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        base, head = measure(build_base(args.base), benchmark)
    except MeasurementError as error:
        print(f"perf-ab: {error}", file=sys.stderr)
        return 2
    print("\n".join(report(base, head, benchmark)))
    failures = verdict(base, head, benchmark)
    for failure in failures:
        print(f"REGRESSION {failure}")
    print("perf-ab: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
