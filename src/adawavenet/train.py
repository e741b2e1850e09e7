"""Training loop: Adam, gradient clipping, early stopping, logging."""
from __future__ import annotations

import csv
import time

import numpy as np

from . import tensor as T
from .config import ModelConfig, TrainConfig
from .data import DataError, Dataset, MaskSpec, downsample, make_mask, windows
from .decompose import decompose
from .grouped import fit_clustering
from .metrics import score
from .model import AdaWaveNet, zoh_upsample
from .tensor import NumericalError, Tensor

MAX_FEATURE_WINDOWS = 512   # leading train windows whose mean feeds k-means
EVAL_BATCH = 64             # most windows per scoring forward
SLICE_BYTES = 1 << 20       # input bytes per forward slice of a batch
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    def __init__(self, params: dict[str, Tensor]):
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float):
    """Standard bias-corrected Adam update of m, v and the parameters in
    place; grads must be populated."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p.data -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + ADAM_EPS)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Rescale grads to global norm <= max_norm (if > 0) by replacing each .grad,
    as leaves fed by one op may share an array; return the unclipped norm."""
    live = [p for p in params.values() if p.grad is not None]
    norm = float(np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in live)))
    if max_norm > 0 and norm > max_norm:
        with np.errstate(invalid="ignore"):     # an inf gradient times 0 is NaN
            for p in live:
                p.grad = p.grad * (max_norm / norm)
    return norm


def build_model(dataset: Dataset, config: ModelConfig) -> AdaWaveNet:
    """Construct the model, fitting the channel clustering on the trend of the
    mean leading train window, which is their mean trend (the average is linear)."""
    channels = dataset.values.shape[0]
    if config.n_clusters > channels:
        raise DataError(f"n_clusters={config.n_clusters} exceeds the data's "
                        f"{channels} channel(s)")
    assignments = None
    if config.n_clusters > 1:
        xs, _ = windows(dataset, "train", config.input_len, config.pred_len,
                        config.task)
        trend = decompose(Tensor(xs[:MAX_FEATURE_WINDOWS].mean(axis=0)),
                          config.ma_window).trend.data  # [C, L]
        assignments = fit_clustering(trend, config.n_clusters, seed=config.seed)
    return AdaWaveNet(config, channels=channels, assignments=assignments)


def _slice_windows(window: np.ndarray) -> int:
    """Windows per forward slice: as many inputs like ``window`` as fit in
    SLICE_BYTES, and at least one."""
    return max(1, SLICE_BYTES // window.nbytes)


def _prepare_batch(task, xs, ys, idx, mask_spec, sr_ratio, mask_salt):
    """Assemble (input, target, loss_mask) numpy batches for one of config.TASKS."""
    x = xs[idx]
    y = ys[idx]
    if task == "forecast":
        return x, y, None
    if task == "impute":
        masks = make_mask(mask_spec, x.shape[1:], mask_salt, idx)
        return x * masks, y, 1.0 - masks
    return zoh_upsample(downsample(x, sr_ratio), sr_ratio), y, None


def score_split(model: AdaWaveNet, dataset: Dataset, split: str, task: str,
                mask_spec: MaskSpec | None = None, sr_ratio: int = 1):
    """(MSE, MAE) of the model's predictions over a split's windows, fed to
    `metrics.score` one batch at a time: at most EVAL_BATCH windows and at
    most a slice (`_slice_windows`); imputation masks use salt 0, so every
    call scores the same masks."""
    cfg = model.config
    xs, ys = windows(dataset, split, cfg.input_len, cfg.pred_len, task)
    n = min(EVAL_BATCH, _slice_windows(xs[0]))

    def batches():
        for start in range(0, len(xs), n):
            idx = np.arange(start, min(start + n, len(xs)))
            inp, tgt, lm = _prepare_batch(task, xs, ys, idx, mask_spec, sr_ratio,
                                          mask_salt=0)
            yield model.forward(Tensor(inp)).data, tgt, lm
    return score(batches())


def evaluate(model: AdaWaveNet, dataset: Dataset, split: str,
             mask_spec: MaskSpec | None):
    """(MSE, MAE) of the model on the task it was configured for, over a
    split, under `no_grad`; mask_spec is used only by imputation."""
    cfg = model.config
    with T.no_grad():
        return score_split(model, dataset, split, cfg.task, mask_spec,
                           cfg.sr_ratio)


def train(model: AdaWaveNet, dataset: Dataset, train_cfg: TrainConfig,
          mask_spec: MaskSpec | None = None, log_path: str | None = None,
          verbose: bool = False):
    """Minimize (masked) MSE on train windows with early stopping on the
    validation split; the best-validation parameters are restored in place.

    Returns (history, best_val_loss); history rows are
    (epoch, train_loss, val_loss, lr, seconds).
    """
    cfg = model.config
    if cfg.task == "impute" and mask_spec is None:
        raise ValueError("imputation training requires a mask spec")
    xs, ys = windows(dataset, "train", cfg.input_len, cfg.pred_len, cfg.task)
    params = model.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(train_cfg.seed)

    history, best_val, bad_epochs = [], np.inf, 0
    best_state = {k: p.data.copy() for k, p in params.items()}
    for epoch in range(train_cfg.max_epochs):
        t_start = time.perf_counter()
        train_loss = _train_epoch(
            model, params, state, train_cfg, rng.permutation(len(xs)),
            lambda idx: _prepare_batch(cfg.task, xs, ys, idx, mask_spec,
                                       cfg.sr_ratio, mask_salt=epoch + 1))
        try:
            val_loss = evaluate(model, dataset, "val", mask_spec)[0]
        except NumericalError:
            raise NumericalError(_nan_diagnostic(
                params, "validation loss is non-finite")) from None
        seconds = time.perf_counter() - t_start
        history.append((epoch, train_loss, val_loss, train_cfg.learning_rate,
                        seconds))
        if verbose:
            print(f"epoch {epoch}: train {train_loss:.6f} "
                  f"val {val_loss:.6f} ({seconds:.1f}s)")
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_state = {k: p.data.copy() for k, p in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_cfg.patience:
                break
    for k, p in params.items():
        p.data[...] = best_state[k]
    if log_path:
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "lr", "seconds"])
            writer.writerows(history)
    return history, best_val


def _train_epoch(model, params, state: AdamState, train_cfg: TrainConfig,
                 order: np.ndarray, batch) -> float:
    """One Adam step on the (masked) MSE of each batch_size run of ``order``;
    batch(idx) gives its (input, target, loss_mask). A batch runs forward and
    backward in slices of `_slice_windows` windows, each loss divided by the
    whole batch's scored count, so the slices' gradients add up in ``.grad``
    to the batch's; each slice's graph is freed before the next forward.
    Clipping and Adam run once per batch. Returns the mean loss."""
    total, starts = 0.0, range(0, len(order), train_cfg.batch_size)
    for start in starts:
        inp, tgt, lm = batch(order[start:start + train_cfg.batch_size])
        count = tgt.size if lm is None else lm.sum()
        n = _slice_windows(inp[0])
        for p in params.values():
            p.zero_grad()
        value = 0.0
        for s in range(0, len(inp), n):
            part = slice(s, s + n)
            pred = model.forward(Tensor(inp[part]))
            loss = T.mse(pred, Tensor(tgt[part]),
                         None if lm is None else Tensor(lm[part]), count)
            value += loss.item()
            if not np.isfinite(value):
                raise NumericalError(_nan_diagnostic(params, "loss is non-finite"))
            loss.backward()
            del pred, loss  # free this slice's graph before the next forward
        # a non-finite gradient gives a non-finite norm and stays so when clipped
        if not np.isfinite(clip_gradients(params, train_cfg.clip_norm)):
            bad = [k for k, p in params.items()
                   if p.grad is not None and not np.all(np.isfinite(p.grad))]
            if bad:
                raise NumericalError(_nan_diagnostic(params, f"non-finite grads in {bad}"))
        adam_step(params, state, train_cfg.learning_rate)
        total += value
    return total / len(starts)


def _nan_diagnostic(params, msg):
    broken = [k for k, p in params.items() if not np.all(np.isfinite(p.data))]
    return f"{msg}; non-finite parameter groups: {broken or 'none'}"
