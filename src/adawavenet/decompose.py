"""Additive seasonal/trend split of time-series windows.

The trend is a centered moving average with edge replication; the seasonal
component is whatever remains, so the two always sum back to the input
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .tensor import Tensor


@dataclass
class DecomposedSeries:
    seasonal: Tensor
    trend: Tensor


def decompose(x: Tensor, ma_window: int) -> DecomposedSeries:
    """Split x into (seasonal, trend); moving_average rejects an even or
    non-positive window."""
    trend = T.moving_average(x, ma_window)
    return DecomposedSeries(seasonal=T.sub(x, trend), trend=trend)
