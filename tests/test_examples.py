"""Smoke tests: every example script runs end to end and tells its story."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name: str, timeout: int = 240) -> str:
    # Examples import ``repro``; put src/ on the subprocess path so they
    # run whether or not the package is installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_complete():
    present = {path.name for path in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "stock_ticker.py",
        "broker_network.py",
        "paper_experiment.py",
        "sharded_throughput.py",
    } <= present


def test_quickstart():
    out = run_example("quickstart.py")
    assert "registered" in out
    assert "alice" in out and "bob" in out
    assert "no match" in out
    assert "engine memory" in out
    assert "after unsubscribe: 1 subscription(s) left" in out


def test_stock_ticker():
    out = run_example("stock_ticker.py")
    assert "400 traders registered" in out
    assert "3,200 conjunctive clauses" in out  # the 8x DNF blow-up
    assert "notifications from each engine" in out
    assert "faster on this workload" in out


def test_broker_network():
    out = run_example("broker_network.py")
    assert "subscriptions registered across the overlay" in out
    assert "pruned routing" in out
    assert "suppression ratio" in out
    assert "routing_table=" in out
    assert "suppressed)" in out
    assert "memory_pressure" in out
    assert "busiest subscriber" in out
    # forwarding-only brokers (no homed subscriber) match no event locally
    matched = {
        line.split()[0]: line.split("matched_events=")[1].split()[0]
        for line in out.splitlines()
        if "matched_events=" in line
    }
    assert matched["geneva"] == matched["lima"] == "0"
    assert int(matched["tokyo"]) > 0 and int(matched["cusco"]) > 0


@pytest.mark.slow
def test_paper_experiment():
    out = run_example("paper_experiment.py", timeout=600)
    assert "10 predicates" in out
    assert "normalized slope" in out
    assert "counting exhausts the memory budget" in out


def test_sharded_throughput():
    out = run_example("sharded_throughput.py")
    assert "600 subscribers registered" in out
    assert "(non-canonical×4, partitioner=hash)" in out
    assert "per-shard stats" in out
    shard_lines = [
        line.split() for line in out.splitlines()
        if line.startswith("  shard ")
    ]
    assert [line[1] for line in shard_lines] == ["0:", "1:", "2:", "3:"]
    # the per-shard populations sum to the registered subscribers
    assert sum(int(line[2]) for line in shard_lines) == 600
    assert "shard-scaling sweep:" in out
    sweep = out.split("shard-scaling sweep:")[1]
    assert "events/sec" in sweep and "speedup" in sweep
    rows = [line.split() for line in sweep.splitlines() if line.endswith("x")]
    assert [row[0] for row in rows] == ["1", "2", "4"]
    assert rows[0][2] == "1.00x"
    assert "speedup is relative to the unsharded single-shard baseline" in out
