"""Evaluation metrics on the normalized scale."""
from __future__ import annotations

import numpy as np

from .tensor import NumericalError


def metrics(pred: np.ndarray, target: np.ndarray, mask: np.ndarray | None = None):
    """(MSE, MAE); with a binary mask, averaged over mask==1 positions only.
    A non-finite MSE or MAE is a NumericalError."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if mask is not None:
        if mask.shape != pred.shape:
            raise ValueError("mask shape mismatch")
        denom = mask.sum()
        if denom == 0:
            raise ValueError("empty mask")
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        err = pred - target
        if mask is not None:
            mse = float((mask * err ** 2).sum() / denom)
            mae = float((mask * np.abs(err)).sum() / denom)
        else:
            mse = float((err ** 2).mean())
            mae = float(np.abs(err).mean())
    if not (np.isfinite(mse) and np.isfinite(mae)):
        raise NumericalError(f"metrics: non-finite error (MSE={mse}, MAE={mae})")
    # Jensen: E|e| <= sqrt(E e^2)
    if not mae <= np.sqrt(mse) + 1e-12:
        raise ValueError(f"metrics: MAE {mae} exceeds sqrt(MSE) {np.sqrt(mse)}")
    return mse, mae
