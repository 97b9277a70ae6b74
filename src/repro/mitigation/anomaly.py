"""Range-based anomaly detection for inference (paper §V-B).

Before the agents enter steady exploitation the weights of each layer are
tallied and their range ``(w_min, w_max)`` recorded; a 10 % margin widens the
detector.  At inference time any weight falling outside its layer's range is
flagged as corrupted and suppressed (the operations that would consume the
outlier are skipped, which is equivalent to treating the weight as zero —
most NN values sit near zero, so this is the minimal-disturbance repair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.nn.network import clone_state_dict

StateDict = Dict[str, np.ndarray]


@dataclass(frozen=True)
class WeightRange:
    """Observed value range of one layer plus the detection margin."""

    minimum: float
    maximum: float
    margin: float

    @property
    def lower_bound(self) -> float:
        # The paper widens the detector to (1.1*w_min, 1.1*w_max) for the
        # usual case w_min < 0 < w_max; expressed generally, each bound moves
        # outward by 10 % of its magnitude (or by the margin itself when the
        # bound sits at zero) so a healthy weight is never flagged.
        if self.minimum == 0.0:
            return -self.margin
        return self.minimum - self.margin * abs(self.minimum)

    @property
    def upper_bound(self) -> float:
        if self.maximum == 0.0:
            return self.margin
        return self.maximum + self.margin * abs(self.maximum)

    def contains(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return (values >= self.lower_bound) & (values <= self.upper_bound)


class RangeAnomalyDetector:
    """Per-layer weight-range detector with out-of-range suppression."""

    def __init__(self, margin: float = 0.10) -> None:
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.margin = margin
        self._ranges: Dict[str, WeightRange] = {}

    @property
    def ranges(self) -> Dict[str, WeightRange]:
        return dict(self._ranges)

    def calibrate(self, state: StateDict) -> None:
        """Record per-layer ranges from a known-good policy."""
        if not state:
            raise ValueError("cannot calibrate on an empty state dict")
        self._ranges = {}
        for name, values in state.items():
            values = np.asarray(values, dtype=np.float64)
            self._ranges[name] = WeightRange(
                minimum=float(values.min()), maximum=float(values.max()), margin=self.margin
            )

    def detect(self, state: StateDict) -> Dict[str, np.ndarray]:
        """Boolean mask of anomalous elements per layer."""
        self._require_calibration()
        anomalies: Dict[str, np.ndarray] = {}
        for name, values in state.items():
            if name not in self._ranges:
                raise KeyError(f"layer {name!r} was not seen during calibration")
            anomalies[name] = ~self._ranges[name].contains(values)
        return anomalies

    def repair(self, state: StateDict) -> Tuple[StateDict, int]:
        """Suppress anomalous values; returns (repaired state, #repaired).

        Out-of-range values are replaced by zero (most NN values sit near
        zero, so skipping the operation is the minimal-disturbance repair).
        If zero itself lies outside a layer's calibrated range — e.g. a bias
        vector whose healthy values are all positive — the value is clamped to
        the nearest range bound instead, so a repaired state is always free of
        anomalies.
        """
        self._require_calibration()
        repaired = clone_state_dict(state)
        total = 0
        for name, mask in self.detect(state).items():
            count = int(mask.sum())
            if count:
                layer_range = self._ranges[name]
                if layer_range.lower_bound <= 0.0 <= layer_range.upper_bound:
                    replacement = 0.0
                else:
                    values = repaired[name][mask]
                    replacement = np.clip(
                        values, layer_range.lower_bound, layer_range.upper_bound
                    )
                repaired[name][mask] = replacement
                total += count
        return repaired, total

    def _require_calibration(self) -> None:
        if not self._ranges:
            raise RuntimeError("detector must be calibrated before use")
