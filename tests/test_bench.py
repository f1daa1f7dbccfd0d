"""The benchmark observability subsystem: records, runner, comparator.

Covers the ISSUE-4 acceptance surface:

* reports round-trip through JSON (dict, text, file);
* a quick-style run produces a schema-valid report covering at least
  two engines, every scenario, and the explanatory counter metrics;
* the comparator passes a self-comparison and flags an artificially
  injected regression (time and memory), with hardware mismatch
  softening timing failures only;
* the match/probe counters that feed the reports are exposed through
  ``FilterEngine.stats()`` / ``Broker.engine_stats()`` and aggregate
  across shards.
"""

from __future__ import annotations

import json

import pytest

from repro import Broker, build_engine
from repro.bench import (
    QUICK,
    SCHEMA_VERSION,
    BenchRecord,
    BenchReport,
    SchemaError,
    compare_reports,
    environment_metadata,
    run_bench,
    scaled_down,
)
from repro.bench.cli import main as bench_main
from repro.bench.compare import main as compare_main
from repro.workloads import PaperSubscriptionGenerator
from helpers import ALL_ENGINE_NAMES


def make_record(**overrides) -> BenchRecord:
    """A valid record with field overrides, for schema tests."""
    fields = dict(
        scenario="throughput",
        engine="noncanonical",
        shards=1,
        executor="serial",
        batch_size=256,
        events=256,
        seconds=0.01,
        events_per_second=25_600.0,
        memory_bytes=4096,
        metrics={"candidates_probed_per_event": 12.5},
    )
    fields.update(overrides)
    return BenchRecord(**fields)


def make_report(*records: BenchRecord) -> BenchReport:
    return BenchReport(
        scale="quick",
        records=list(records) if records else [make_record()],
    )


# ----------------------------------------------------------------------
# records and JSON round-trip
# ----------------------------------------------------------------------
class TestRecords:
    def test_record_round_trips_through_dict(self):
        record = make_record()
        assert BenchRecord.from_dict(record.to_dict()) == record

    def test_report_round_trips_through_json_text(self):
        report = make_report(
            make_record(),
            make_record(engine="counting", metrics={}),
            make_record(scenario="churn", batch_size=1),
        )
        clone = BenchReport.from_json(report.to_json())
        assert clone.scale == report.scale
        assert clone.environment == report.environment
        assert clone.records == report.records
        assert clone.schema_version == SCHEMA_VERSION

    def test_report_round_trips_through_file(self, tmp_path):
        path = tmp_path / "report.json"
        report = make_report()
        report.save(str(path))
        clone = BenchReport.load(str(path))
        assert clone.records == report.records
        # the file is plain JSON — external tooling can read it
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION

    def test_environment_metadata_fingerprints_the_machine(self):
        environment = environment_metadata()
        assert environment["cpu_count"] >= 1
        assert environment["python"]
        assert environment["machine"]

    def test_record_key_is_the_comparison_identity(self):
        record = make_record(shards=4, executor="process")
        assert record.key == (
            "throughput",
            "noncanonical",
            4,
            "process",
            "hash",
            256,
        )
        assert "×4" in record.label()

    def test_partitioner_defaults_to_hash_for_old_reports(self):
        # reports written before the routing layer carry no partitioner
        # field; they must load as hash-partitioned records so the
        # comparator matches them against fresh hash points
        data = make_record().to_dict()
        del data["partitioner"]
        record = BenchRecord.from_dict(data)
        assert record.partitioner == "hash"
        assert record.key[4] == "hash"

    def test_routed_partitioner_is_part_of_the_label(self):
        record = make_record(shards=8, partitioner="routed")
        assert "routed" in record.label()
        assert record.key[4] == "routed"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scenario": ""},
            {"engine": ""},
            {"shards": 0},
            {"batch_size": 0},
            {"events": 0},
            {"seconds": -1.0},
            {"events_per_second": 0.0},
            {"memory_bytes": -1},
        ],
    )
    def test_malformed_records_are_rejected(self, overrides):
        with pytest.raises(SchemaError):
            make_record(**overrides)

    def test_duplicate_record_keys_are_a_schema_error(self):
        report = make_report(make_record(), make_record())
        with pytest.raises(SchemaError, match="duplicate"):
            report.validate()

    def test_unknown_schema_version_is_rejected(self):
        data = make_report().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="version"):
            BenchReport.from_dict(data)

    def test_missing_record_field_is_rejected(self):
        data = make_report().to_dict()
        del data["records"][0]["events_per_second"]
        with pytest.raises(SchemaError, match="missing"):
            BenchReport.from_dict(data)

    def test_invalid_json_text_is_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            BenchReport.from_json("{not json")


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
#: Small enough for a unit test, still covering two engines of opposite
#: phase-2 character (candidate-driven versus full-vector scan).
TINY = scaled_down(QUICK, 8)


class TestRunner:
    @pytest.fixture(scope="class")
    def report(self) -> BenchReport:
        return run_bench(TINY, engines=("noncanonical", "counting"))

    def test_quick_run_is_schema_valid(self, report):
        report.validate()  # raises on violation
        clone = BenchReport.from_json(report.to_json())
        assert clone.records == report.records

    def test_quick_run_covers_engines_and_scenarios(self, report):
        assert {"noncanonical", "counting"} <= report.engines()
        assert report.scenarios() == {
            "throughput",
            "shard-scaling",
            "shard-routing",
            "skew",
            "churn",
            "network-line",
            "network-star",
            "network-tree",
            "network-random",
        }
        # a shard point beyond the unsharded baseline is present
        assert any(record.shards > 1 for record in report.records)

    def test_network_records_carry_routing_metrics(self, report):
        network = [
            record
            for record in report.records
            if record.scenario.startswith("network-")
        ]
        assert {record.scenario for record in network} == {
            "network-line",
            "network-star",
            "network-tree",
            "network-random",
        }
        for record in network:
            assert 0.0 <= record.metrics["suppression_ratio"] <= 1.0
            assert record.metrics["registrations_per_broker"] > 0
            assert record.metrics["flooding_events_per_second"] > 0
            # covering compacts the tables relative to flooding
            assert (
                record.metrics["registrations_per_broker"]
                <= record.metrics["flooding_registrations_per_broker"]
            )

    def test_throughput_records_cover_every_batch_size(self, report):
        for engine in ("noncanonical", "counting"):
            batch_sizes = [
                record.batch_size
                for record in report.records
                if record.scenario == "throughput" and record.engine == engine
            ]
            assert batch_sizes == list(TINY.batch_sizes)

    def test_records_carry_explanatory_metrics(self, report):
        throughput = [
            record
            for record in report.records
            if record.scenario == "throughput"
        ]
        assert all(
            "candidates_probed_per_event" in record.metrics
            for record in throughput
        )
        # the paper's asymmetry: counting probes every stored clause,
        # the non-canonical engine only its candidates
        probes = {
            record.engine: record.metrics["candidates_probed_per_event"]
            for record in throughput
            if record.batch_size == 1
        }
        assert probes["counting"] > probes["noncanonical"]
        shard_points = [
            record
            for record in report.records
            if record.scenario == "shard-scaling"
        ]
        assert all("speedup" in record.metrics for record in shard_points)
        churn = [
            record for record in report.records if record.scenario == "churn"
        ]
        assert all(record.metrics["publish_ops"] > 0 for record in churn)

    def test_memory_model_bytes_are_recorded(self, report):
        assert all(record.memory_bytes > 0 for record in report.records)

    def test_full_matrix_covers_all_six_engines(self):
        # throughput phase only, smallest possible populations: the
        # point is registry coverage, not timing quality
        from repro.bench import throughput_records

        records = throughput_records(TINY)
        assert {record.engine for record in records} == set(ALL_ENGINE_NAMES)


# ----------------------------------------------------------------------
# the comparator
# ----------------------------------------------------------------------
class TestComparator:
    def test_identical_reports_pass(self):
        report = make_report()
        result = compare_reports(report, report)
        assert result.ok
        assert result.compared == 1
        assert not result.regressions

    def test_injected_slowdown_is_flagged(self):
        baseline = make_report()
        slow = make_report(
            make_record(events_per_second=baseline.records[0].events_per_second / 2)
        )
        result = compare_reports(baseline, slow)
        assert not result.ok
        [regression] = result.regressions
        assert regression.metric == "events_per_second"
        assert regression.ratio == pytest.approx(0.5)

    def test_drop_within_noise_floor_passes(self):
        baseline = make_report()
        slightly_slow = make_report(
            make_record(
                events_per_second=baseline.records[0].events_per_second * 0.80
            )
        )
        assert compare_reports(baseline, slightly_slow).ok

    def test_memory_growth_is_flagged(self):
        baseline = make_report()
        bloated = make_report(
            make_record(memory_bytes=baseline.records[0].memory_bytes * 2)
        )
        result = compare_reports(baseline, bloated)
        assert not result.ok
        [regression] = result.regressions
        assert regression.metric == "memory_bytes"

    def test_missing_baseline_point_fails_additions_pass(self):
        baseline = make_report(
            make_record(), make_record(engine="counting")
        )
        fresh = make_report(
            make_record(), make_record(engine="matching-tree")
        )
        result = compare_reports(baseline, fresh)
        assert not result.ok
        assert [record.engine for record in result.missing] == ["counting"]
        assert [record.engine for record in result.additions] == [
            "matching-tree"
        ]

    def test_sub_resolution_points_are_skipped_not_gated(self):
        baseline = make_report(make_record(events_per_second=0.5))
        fresh = make_report(make_record(events_per_second=0.1))
        result = compare_reports(baseline, fresh)
        assert result.ok
        assert len(result.skipped) == 1

    def test_hardware_mismatch_is_detected(self):
        baseline = make_report()
        fresh = make_report()
        fresh.environment = dict(fresh.environment, machine="sparc64")
        result = compare_reports(baseline, fresh)
        assert result.hardware_mismatch == ["machine"]

    def test_cpu_count_and_python_do_not_soften_the_gate(self):
        # the quick matrix is serial and the noise floor absorbs
        # interpreter drift: neither key may quietly disarm CI
        baseline = make_report()
        fresh = make_report()
        fresh.environment = dict(
            fresh.environment, cpu_count=9999, python="99.0.0"
        )
        assert compare_reports(baseline, fresh).hardware_mismatch == []


class TestCompareCli:
    def _write(self, tmp_path, name, report) -> str:
        path = tmp_path / name
        report.save(str(path))
        return str(path)

    def test_self_comparison_exits_zero(self, tmp_path, capsys):
        report = make_report()
        baseline = self._write(tmp_path, "baseline.json", report)
        fresh = self._write(tmp_path, "fresh.json", report)
        assert compare_main([baseline, fresh]) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "baseline.json", make_report())
        fresh = self._write(
            tmp_path,
            "fresh.json",
            make_report(make_record(events_per_second=100.0)),
        )
        assert compare_main([baseline, fresh]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "gate: FAIL" in out

    def test_hardware_mismatch_softens_timing_regressions(
        self, tmp_path, capsys
    ):
        baseline = self._write(tmp_path, "baseline.json", make_report())
        slow = make_report(make_record(events_per_second=100.0))
        slow.environment = dict(slow.environment, machine="sparc64")
        fresh = self._write(tmp_path, "fresh.json", slow)
        assert compare_main([baseline, fresh]) == 0
        assert "gate: WARN" in capsys.readouterr().out
        # ... but --strict-hardware restores the failure
        assert compare_main([baseline, fresh, "--strict-hardware"]) == 1

    def test_hardware_mismatch_does_not_excuse_memory_growth(
        self, tmp_path, capsys
    ):
        baseline = self._write(tmp_path, "baseline.json", make_report())
        bloated = make_report(make_record(memory_bytes=1 << 20))
        bloated.environment = dict(bloated.environment, machine="sparc64")
        fresh = self._write(tmp_path, "fresh.json", bloated)
        assert compare_main([baseline, fresh]) == 1
        assert "gate: FAIL" in capsys.readouterr().out

    def test_unreadable_report_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        good = self._write(tmp_path, "good.json", make_report())
        assert compare_main([missing, good]) == 2
        assert "error" in capsys.readouterr().err


class TestBenchCli:
    def test_run_write_and_self_compare(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert (
            bench_main(
                [
                    "--quick",
                    "--shrink",
                    "8",
                    "--engines",
                    "noncanonical",
                    "counting",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        report = BenchReport.load(out)
        assert {"noncanonical", "counting"} <= report.engines()
        captured = capsys.readouterr().out
        assert "scenario" in captured  # the table rendered
        # a second run gated against the first passes — with a loose
        # floor: shrunken populations time in microseconds, where
        # run-to-run jitter dwarfs the quick-scale noise policy
        assert (
            bench_main(
                [
                    "--quick",
                    "--shrink",
                    "8",
                    "--engines",
                    "noncanonical",
                    "counting",
                    "--baseline",
                    out,
                    "--time-tolerance",
                    "0.95",
                ]
            )
            == 0
        )


# ----------------------------------------------------------------------
# the counter surface feeding the reports
# ----------------------------------------------------------------------
class TestCounterSurface:
    def _load(self, engine):
        generator = PaperSubscriptionGenerator(
            predicates_per_subscription=4, seed=7
        )
        for subscription in generator.subscriptions(30):
            engine.register(subscription)
        return engine

    @pytest.mark.parametrize("name", ALL_ENGINE_NAMES)
    def test_stats_expose_match_counters(self, name):
        engine = self._load(build_engine(name))
        try:
            stats = engine.stats()
            assert stats["phase2_calls"] == 0
            engine.match_fulfilled({1, 2, 3})
            stats = engine.stats()
            assert stats["phase2_calls"] == 1
            assert stats["candidates_probed"] >= 0
            engine.reset_counters()
            assert engine.stats()["phase2_calls"] == 0
        finally:
            engine.close()

    def test_sharded_engine_aggregates_shard_counters(self):
        engine = self._load(build_engine("noncanonical", shards=4))
        try:
            engine.match_fulfilled({1, 2, 3})
            # every shard answered once; the aggregate says so
            assert engine.counters.phase2_calls == 4
            assert engine.stats()["phase2_calls"] == 4
            per_shard = [
                shard.counters.phase2_calls for shard in engine.shards
            ]
            assert per_shard == [1, 1, 1, 1]
            engine.reset_counters()
            assert engine.counters.phase2_calls == 0
        finally:
            engine.close()

    def test_broker_engine_stats_carry_counters(self):
        broker = Broker("hub", engine="noncanonical")
        broker.subscribe("price > 10")
        broker.publish({"price": 20})
        stats = broker.engine_stats()
        assert stats["phase2_calls"] == 1
        assert stats["matches_found"] == 1
