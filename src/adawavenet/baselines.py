"""Internal sanity baselines: persistence and a single shared linear map."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .data import Dataset, windows
from .tensor import Tensor
from .train import AdamState, _train_epoch


def baseline_persistence(x_in: np.ndarray, pred_len: int) -> np.ndarray:
    """Repeat the last observed value: x[..., -1] broadcast over pred_len."""
    return np.repeat(x_in[..., -1:], pred_len, axis=-1)


class LinearBaseline:
    """One weight matrix + bias shared by all channels, trained by Adam."""

    def __init__(self, input_len: int, pred_len: int):
        self.input_len = input_len
        self.pred_len = pred_len
        self.weight = Tensor(np.eye(input_len, pred_len), requires_grad=True)
        self.bias = Tensor(np.zeros(pred_len), requires_grad=True)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return self.forward(Tensor(x)).data

    def fit(self, dataset: Dataset, train_cfg: TrainConfig):
        xs, ys = windows(dataset, "train", self.input_len, self.pred_len, "forecast")
        params = self.parameters()
        state = AdamState(params)
        rng = np.random.default_rng(train_cfg.seed)
        for _ in range(train_cfg.max_epochs):
            _train_epoch(self, params, state, train_cfg, rng.permutation(len(xs)),
                         lambda idx: (xs[idx], ys[idx], None))
        return self
