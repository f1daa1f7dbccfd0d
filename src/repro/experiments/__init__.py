"""Experiment harness: sweeps, the Figure 3 driver, reporting.

The Figure 3 driver itself lives in :mod:`repro.experiments.figure3`
(import it directly; keeping it out of this namespace lets
``python -m repro.experiments.figure3`` run without a double-import
warning).
"""

from .harness import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_ENGINES,
    DEFAULT_SHARD_COUNTS,
    ShardScalingPoint,
    EngineSweep,
    SweepPoint,
    SweepResult,
    ThroughputPoint,
    growth_ratio,
    least_squares_slope,
    measure_throughput,
    normalized_slope,
    run_shard_sweep,
    run_sweep,
    run_throughput_sweep,
    time_subscription_matching,
)
from .parameters import (
    FULL_SCALE,
    PAPER_PARAMETERS,
    QUICK_SCALE,
    SCALES,
    PaperParameters,
    ScaleConfig,
)
from .report import ascii_plot, format_bytes, format_seconds, format_table

__all__ = [
    "DEFAULT_BATCH_SIZES",
    "DEFAULT_ENGINES",
    "EngineSweep",
    "SweepPoint",
    "SweepResult",
    "ThroughputPoint",
    "growth_ratio",
    "least_squares_slope",
    "measure_throughput",
    "normalized_slope",
    "run_sweep",
    "run_throughput_sweep",
    "time_subscription_matching",
    "DEFAULT_SHARD_COUNTS",
    "ShardScalingPoint",
    "run_shard_sweep",
    "FULL_SCALE",
    "PAPER_PARAMETERS",
    "QUICK_SCALE",
    "SCALES",
    "PaperParameters",
    "ScaleConfig",
    "ascii_plot",
    "format_bytes",
    "format_seconds",
    "format_table",
]
