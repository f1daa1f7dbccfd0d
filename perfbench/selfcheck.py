"""Self-check of the benchmark: a tiny-size run of every workload.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py`` at a small ``--scale`` once with
``--trace 0`` and twice with ``--trace 1`` (same seed) and asserts that

* the result line has exactly the contract's keys, reports no failed op
  (the oracle check passed) and emits every metric BENCHMARK.json names
  (a p90 only once its kind had 100 calls);
* the two traced runs give identical counts;
* in the written spans every child lies inside its parent and the self
  times of each op's spans sum to the op's root span.

Exits non-zero with a message on the first failed assertion.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = 1
SCALE = 0.2
#: per-layer metrics that are counts of work, not times
COUNT_UNITS = ("count", "ratio", "B")
TIMING_RATIOS = ("trace.overhead_ratio", "trace.unattributed_share", "indexes.probe_cache_rss_share")


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace), "--scale", str(SCALE),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    check(completed.returncode == 0, f"{workload} trace={trace} exited {completed.returncode}: {completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["samples"], json.loads(lines[-1])


def check_result(workload: str, result: dict, samples: dict, declared: list) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{workload}: {result['failed']} failed ops")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")
    for metric in declared:
        name = metric["name"]
        kind = name.split("_")[0]
        if name.endswith("_p90_us") and samples.get(kind, 0) < 100:
            check(name not in result["metrics"], f"{workload}: {name} from {samples[kind]} calls")
            continue
        check(name in result["metrics"], f"{workload}: {name} missing")
        check(result["metrics"][name]["unit"] == metric["unit"], f"{workload}: {name} unit")
    extra = set(result["metrics"]) - {metric["name"] for metric in declared}
    check(not extra, f"{workload}: undeclared metrics {sorted(extra)}")


def check_spans(workload: str) -> None:
    """Children nest inside parents; self times sum to each op's root."""
    path = ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.tsv.gz"
    with gzip.open(path, "rt") as spans_file:
        next(spans_file)
        spans = [line.rstrip("\n").split("\t") for line in spans_file]
    start = [int(row[4]) for row in spans]
    end = [int(row[5]) for row in spans]
    children = defaultdict(int)
    for index, row in enumerate(spans):
        parent = int(row[2])
        if parent >= 0:
            check(start[parent] <= start[index] and end[index] <= end[parent], f"{workload}: span {index} escapes its parent")
            check(row[0] == spans[parent][0], f"{workload}: span {index} changes op")
            children[parent] += end[index] - start[index]
        else:
            check(row[3].startswith("op."), f"{workload}: orphan span {row[3]}")
    self_sum = defaultdict(int)
    root = {}
    for index, row in enumerate(spans):
        self_sum[row[0]] += end[index] - start[index] - children[index]
        if int(row[2]) < 0:
            root[row[0]] = end[index] - start[index]
    check(all(self_sum[op] == root[op] for op in root), f"{workload}: self times do not sum to op time")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for entry in benchmark["workloads"]:
            workload = entry["name"]
            samples, plain = run(workload, 0)
            check_result(workload, plain, samples, benchmark["end_to_end"])
            _, first = run(workload, 1)
            check_result(workload, first, {}, benchmark["per_layer"])
            check_spans(workload)
            _, second = run(workload, 1)
            for metric in benchmark["per_layer"]:
                name = metric["name"]
                if metric["unit"] in COUNT_UNITS and name not in TIMING_RATIOS:
                    check(
                        first["metrics"][name]["value"] == second["metrics"][name]["value"],
                        f"{workload}: count {name} differs between traced runs",
                    )
            print(f"{workload}: ok ({plain['attempted']} ops, {len(first['metrics'])} per-layer metrics)")
    except CheckFailed as failure:
        print(f"self-check failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
