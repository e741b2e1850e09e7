"""Additive seasonal/trend split of time-series windows.

The trend is a centered moving average with edge replication; the seasonal
component is whatever remains, so the two always sum back to the input
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .tensor import Tensor

DEFAULT_MA_WINDOW = 25


@dataclass
class DecomposedSeries:
    seasonal: Tensor
    trend: Tensor
    ma_window: int


def decompose(x: Tensor, ma_window: int = DEFAULT_MA_WINDOW) -> DecomposedSeries:
    if ma_window % 2 == 0 or ma_window < 1:
        raise T.TensorError("ma_window must be odd and >= 1")
    trend = T.moving_average(x, ma_window)
    seasonal = T.sub(x, trend)
    return DecomposedSeries(seasonal=seasonal, trend=trend, ma_window=ma_window)
