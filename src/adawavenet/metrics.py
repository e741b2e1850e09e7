"""Evaluation metrics on the normalized scale."""
from __future__ import annotations

import numpy as np

from .tensor import NumericalError

def within_jensen(mse: float, mae: float) -> bool:
    """MAE <= sqrt(MSE) (Jensen), up to a relative 1e-12 for the rounding of
    the sums behind both."""
    return mae <= np.sqrt(mse) * (1.0 + 1e-12)


def score(batches):
    """(MSE, MAE) over (prediction, target, mask) batches; a binary mask keeps
    only the mask==1 positions, a None mask keeps all. Only the squared-error
    sum, the absolute-error sum and the scored count outlive a batch.
    A non-finite MSE or MAE is a NumericalError."""
    sq = ab = count = 0.0
    for pred, target, mask in batches:
        if pred.shape != target.shape or (mask is not None and mask.shape != pred.shape):
            raise ValueError(f"shape mismatch: prediction {pred.shape}, target "
                             f"{target.shape}, mask {getattr(mask, 'shape', None)}")
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            err = pred - target
            keep = 1.0 if mask is None else mask
            sq += float((keep * err ** 2).sum())
            ab += float((keep * np.abs(err)).sum())
        count += err.size if mask is None else float(mask.sum())
    if count == 0:
        raise ValueError("empty mask")
    mse, mae = sq / count, ab / count
    if not (np.isfinite(mse) and np.isfinite(mae)):
        raise NumericalError(f"metrics: non-finite error (MSE={mse}, MAE={mae})")
    if not within_jensen(mse, mae):
        raise ValueError(f"metrics: MAE {mae} exceeds sqrt(MSE) {np.sqrt(mse)}")
    return mse, mae


def metrics(pred: np.ndarray, target: np.ndarray):
    """`score` of one unmasked batch."""
    return score([(pred, target, None)])
