"""Bit-error-rate handling.

The paper sweeps BER from single-bit flips up to >1e-2 (14 nm SRAM at lowered
supply voltage, degraded wireless channels).  A :class:`BitErrorRate` couples
the raw probability with the paper's display convention (fault counts such as
"52 (2.0%)" for GridWorld heatmap rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import faults_for_ber


@dataclass(frozen=True)
class BitErrorRate:
    """Probability that any given storage bit is upset during the exposure."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"bit error rate must be within [0, 1], got {self.rate}")

    @property
    def percent(self) -> float:
        """The rate in the paper's percent notation (0.02 -> ``2.0``)."""
        return self.rate * 100.0

    def fault_count(self, total_bits: int, rng: np.random.Generator) -> int:
        """Number of upset bits over ``total_bits`` for one exposure."""
        return fault_count_for(total_bits, self.rate, rng)

    def expected_faults(self, total_bits: int) -> float:
        """Expected number of upset bits over ``total_bits`` exposures."""
        return total_bits * self.rate

    def label(self, total_bits: int) -> str:
        """Paper-style row label, e.g. ``"52 (2.0%)"``."""
        return f"{int(round(self.expected_faults(total_bits)))} ({self.percent:.1f}%)"

    def __str__(self) -> str:
        return f"{self.rate:g}"


def fault_count_for(total_bits: int, rate: float, rng: np.random.Generator) -> int:
    """Sample the number of bit faults for one exposure of ``total_bits``."""
    return faults_for_ber(total_bits, rate, rng)
