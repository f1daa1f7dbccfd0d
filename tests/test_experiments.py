"""Unit tests for the experiment harness, reporting, and the Fig. 3 driver."""

from __future__ import annotations

import io

import pytest

from repro.experiments import (
    FULL_SCALE,
    PAPER_PARAMETERS,
    QUICK_SCALE,
    ascii_plot,
    format_bytes,
    format_seconds,
    format_table,
    growth_ratio,
    least_squares_slope,
    normalized_slope,
    run_sweep,
    time_subscription_matching,
)
from repro.experiments.figure3 import (
    PANELS,
    machine_for,
    main,
    render_table1,
    run_panel,
    sweep_positions,
)
from repro.experiments.parameters import ScaleConfig
from repro.memory import SimulatedMachine


class TestShapeAnalysis:
    def test_slope_of_exact_line(self):
        slope, r_squared = least_squares_slope([(0, 1), (1, 3), (2, 5)])
        assert slope == pytest.approx(2.0)
        assert r_squared == pytest.approx(1.0)

    def test_slope_of_flat_series(self):
        slope, r_squared = least_squares_slope([(0, 4), (1, 4), (2, 4)])
        assert slope == pytest.approx(0.0)
        assert r_squared == pytest.approx(0.0)

    def test_slope_validation(self):
        with pytest.raises(ValueError):
            least_squares_slope([(1, 1)])
        with pytest.raises(ValueError):
            least_squares_slope([(1, 1), (1, 2)])

    def test_growth_ratio(self):
        assert growth_ratio([(1, 2.0), (10, 8.0)]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            growth_ratio([(1, 2.0)])

    def test_normalized_slope_classification(self):
        linear = [(n, 0.001 * n) for n in (100, 200, 400, 800)]
        flat = [(n, 5.0) for n in (100, 200, 400, 800)]
        assert normalized_slope(linear) > 0.8
        assert abs(normalized_slope(flat)) < 0.05


class TestReportRendering:
    def test_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert "long-name" in table

    def test_ascii_plot_contains_markers_and_legend(self):
        plot = ascii_plot(
            {"one": [(0, 0.0), (10, 1.0)], "two": [(0, 1.0), (10, 0.0)]},
            x_label="n",
            y_label="s",
        )
        assert "*" in plot and "o" in plot
        assert "one" in plot and "two" in plot

    def test_ascii_plot_empty(self):
        assert ascii_plot({}) == "(no data)"

    def test_format_seconds_ranges(self):
        assert "us" in format_seconds(5e-6)
        assert "ms" in format_seconds(5e-3)
        assert "s" in format_seconds(5.0)

    def test_format_bytes_ranges(self):
        assert "B" in format_bytes(100)
        assert "KiB" in format_bytes(10_000)
        assert "MiB" in format_bytes(10_000_000)


TINY_SCALE = ScaleConfig(
    name="tiny",
    subscription_divisor=25_000,
    fulfilled_divisor=500,
    events_per_point=2,
    points_per_curve=3,
)


class TestHarness:
    def test_time_subscription_matching_positive(self):
        from repro import NonCanonicalEngine
        from repro.subscriptions import Subscription

        engine = NonCanonicalEngine()
        engine.register(Subscription.from_text("a = 1"))
        seconds = time_subscription_matching(engine, [{1}, {2}], repeats=2)
        assert seconds > 0

    def test_time_requires_samples(self):
        from repro import NonCanonicalEngine

        with pytest.raises(ValueError):
            time_subscription_matching(NonCanonicalEngine(), [])

    def test_run_sweep_requires_ascending_counts(self):
        with pytest.raises(ValueError):
            run_sweep(
                predicates_per_subscription=6,
                subscription_counts=[100, 50],
                fulfilled_per_event=10,
                machine=SimulatedMachine(),
            )

    def test_run_sweep_structure(self):
        machine = machine_for(TINY_SCALE)
        result = run_sweep(
            predicates_per_subscription=6,
            subscription_counts=[50, 100, 150],
            fulfilled_per_event=10,
            machine=machine,
            events_per_point=2,
            repeats=1,
        )
        assert set(result.sweeps) == {
            "non-canonical", "counting-variant", "counting",
        }
        for sweep in result.sweeps.values():
            assert [p.subscriptions for p in sweep.points] == [50, 100, 150]
            assert all(p.raw_seconds > 0 for p in sweep.points)
            assert all(p.seconds >= p.raw_seconds for p in sweep.points)
            assert all(p.slowdown >= 1.0 for p in sweep.points)
        counting = result.sweeps["counting"].points
        assert all(p.stored_subscriptions == 8 * p.subscriptions for p in counting)

    def test_memory_monotone_in_subscriptions(self):
        result = run_sweep(
            predicates_per_subscription=6,
            subscription_counts=[50, 100],
            fulfilled_per_event=10,
            machine=SimulatedMachine(),
            events_per_point=1,
            repeats=1,
        )
        for sweep in result.sweeps.values():
            memory = [p.memory_bytes for p in sweep.points]
            assert memory == sorted(memory)
            assert memory[0] < memory[1]


class TestFigure3Driver:
    def test_panel_definitions_match_paper(self):
        assert set(PANELS) == set("abcdef")
        assert PANELS["a"].predicates_per_subscription == 6
        assert PANELS["c"].predicates_per_subscription == 10
        assert PANELS["d"].fulfilled_paper == 10_000
        assert PANELS["c"].paper_max_subscriptions == 2_500_000

    def test_sweep_positions_ascending_with_small_point(self):
        positions = sweep_positions(PANELS["a"], QUICK_SCALE)
        assert positions == sorted(positions)
        assert positions[0] <= QUICK_SCALE.subscriptions(2_000)

    def test_machine_scaled_budget(self):
        quick = machine_for(QUICK_SCALE)
        full = machine_for(FULL_SCALE)
        assert quick.available_bytes < full.available_bytes

    def test_run_panel_tiny(self):
        result = run_panel(PANELS["a"], TINY_SCALE, repeats=1)
        assert result.fulfilled_per_event == 10
        assert all(len(s.points) >= 2 for s in result.sweeps.values())

    def test_table1_rendering(self):
        text = render_table1()
        assert "1.8 GHz" in text
        assert "512 MB" in text
        assert "5,000,000" in text
        assert "AND, OR" in text

    def test_paper_parameter_rows_complete(self):
        rows = PAPER_PARAMETERS.rows()
        assert len(rows) == 7

    def test_cli_table1(self):
        out = io.StringIO()
        assert main(["--table1"], out=out) == 0
        assert "Table 1" in out.getvalue()

    def test_cli_rejects_unknown_panel(self):
        with pytest.raises(SystemExit):
            main(["--panel", "z"], out=io.StringIO())
