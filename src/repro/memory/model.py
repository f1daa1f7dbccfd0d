"""Simulated machine: memory budget and page-swap slowdown.

The paper ran on a real 1.8 GHz / 512 MB machine; the "sharp bends" in
Fig. 3 "denote the point when available main memory resources are
exhausted and the operating system starts page swapping" (§4.1).

We substitute that physical machine with an analytic model (DESIGN.md
§3): engines report their working set in bytes under the paper's cost
model, and :class:`SimulatedMachine` converts any working set that
exceeds the available budget into a matching-time multiplier.  The
multiplier grows with the *fraction of the working set that lives in
swap*, scaled by how much slower a swapped access is than a resident
one — producing exactly the linear-then-steeper shape of the paper's
curves, with the bend at the point where bytes run out.
"""

from __future__ import annotations

from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class SimulatedMachine:
    """The evaluation machine of paper Table 1, as an analytic model.

    Parameters
    ----------
    total_memory_bytes:
        Physical RAM (paper: 512 MB).
    os_reserved_bytes:
        Memory not available to the filtering process (operating system,
        process image, phase-1 indexes); the paper's bends imply roughly
        this much headroom.
    swap_penalty:
        How much slower an access to a swapped page is compared to a
        resident one.  Disk-versus-RAM latencies of the paper's era give
        values in the tens of thousands; because matching touches a small
        working subset per event we use an *effective* penalty on the
        order of tens, which reproduces the observed bend steepness.
        EXPERIMENTS.md records the calibration.
    """

    total_memory_bytes: int = 512 * MIB
    os_reserved_bytes: int = 96 * MIB
    swap_penalty: float = 40.0

    def __post_init__(self) -> None:
        if self.total_memory_bytes <= 0:
            raise ValueError("total_memory_bytes must be positive")
        if not 0 <= self.os_reserved_bytes < self.total_memory_bytes:
            raise ValueError(
                "os_reserved_bytes must be non-negative and below total memory"
            )
        if self.swap_penalty < 0:
            raise ValueError("swap_penalty must be non-negative")

    @property
    def available_bytes(self) -> int:
        """Bytes available to engine data structures."""
        return self.total_memory_bytes - self.os_reserved_bytes

    def is_thrashing(self, working_set_bytes: int) -> bool:
        """Whether the working set exceeds available memory."""
        return working_set_bytes > self.available_bytes

    def swapped_fraction(self, working_set_bytes: int) -> float:
        """Fraction of the working set that must live in swap."""
        if working_set_bytes <= 0:
            return 0.0
        excess = working_set_bytes - self.available_bytes
        if excess <= 0:
            return 0.0
        return excess / working_set_bytes

    def slowdown_factor(self, working_set_bytes: int) -> float:
        """Multiplier on matching time for a given working set.

        Uniform-access model: a fraction ``f`` of accesses hit swapped
        pages, each costing ``swap_penalty`` times a resident access, so
        time scales by ``1 + f * (swap_penalty - 1)``.
        """
        fraction = self.swapped_fraction(working_set_bytes)
        if fraction == 0.0:
            return 1.0
        return 1.0 + fraction * (self.swap_penalty - 1.0)

    def adjusted_time(self, seconds: float, working_set_bytes: int) -> float:
        """Matching time after applying the swap model."""
        return seconds * self.slowdown_factor(working_set_bytes)


#: The machine of paper Table 1.
PAPER_MACHINE = SimulatedMachine()
