"""Loss functions and probability helpers."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


class HuberLoss:
    """Huber (smooth L1) loss, used for stable Q-learning targets."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"prediction shape {predictions.shape} does not match target shape {targets.shape}"
            )
        diff = predictions - targets
        abs_diff = np.abs(diff)
        quadratic = abs_diff <= self.delta
        loss_values = np.where(
            quadratic, 0.5 * diff**2, self.delta * (abs_diff - 0.5 * self.delta)
        )
        loss = float(loss_values.mean())
        grad = np.where(quadratic, diff, self.delta * np.sign(diff)) / diff.size
        return loss, grad

