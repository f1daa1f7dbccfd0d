"""Sampling helpers for workload generation.

All generators take an explicit :class:`random.Random` so every workload
is reproducible from a seed — experiment configurations record the seed
and EXPERIMENTS.md results can be regenerated bit-identically.
"""

from __future__ import annotations

import random


def make_rng(seed: int | None) -> random.Random:
    """A dedicated RNG; ``None`` derives entropy from the system."""
    return random.Random(seed)


def zipf_weights(n: int, skew: float = 1.0) -> list[float]:
    """Normalized Zipf weights for ranks ``1..n``.

    ``skew=0`` degenerates to uniform; larger values concentrate mass on
    the first ranks.  Used to model popularity-skewed attribute and value
    choices (shared-predicate ablation A4).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    raw = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]
