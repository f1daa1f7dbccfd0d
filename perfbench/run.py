"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-b256 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the end-to-end pass in this process and reports the
end-to-end metrics.  ``--trace 1`` runs three passes, each in a fresh
child process so that no process-wide state (the DNF memo, the
subscription-id counter, the probe cache) leaks between them: an
untraced pass (for the tracing overhead), the traced pass and the
tracemalloc pass; it reports the per-layer metrics and writes the spans
to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the sample count of every latency and, with ``--trace 0``,
the median latency of each kind and the host-speed check of
:func:`perfbench.passes.host_check_ms`, which are not metrics.  The
benchmark needs the package sources in ``src/`` next to this directory
and exits with status 2 without a result when they are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = ("end-to-end", "traced", "memory")


def _import_passes():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import passes

    return passes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink population and traffic (self-check runs)",
    )
    parser.add_argument("--pass", dest="pass_", choices=PASSES, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, pass_name: str) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--pass", pass_name,
    ]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    if completed.returncode != 0:
        sys.exit(completed.returncode)
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    passes = _import_passes()
    if args.workload not in passes.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(passes.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.pass_ is not None:
        result = passes.run_pass(args.pass_, args.workload, args.seed, args.seconds, args.scale)
        print(json.dumps(result))
        return 0
    if args.trace == 0:
        result = passes.end_to_end(args.workload, args.seed, args.seconds, args.scale)
    else:
        results = {name: _child(args, name) for name in PASSES}
        result = passes.combine(args.workload, args.seed, results, ROOT / ".perfbench")
    print(json.dumps({key: result[key] for key in ("samples", "p50_us", "host_check_ms") if key in result}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
