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
from .model import AdaWaveNet, zoh_upsample
from .tensor import Tensor

MAX_FEATURE_WINDOWS = 512   # leading train windows whose trends feed k-means


class NumericalError(RuntimeError):
    pass


class AdamState:
    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # two scratch buffers per parameter, so that a step allocates nothing
        self.scratch = {k: (np.empty_like(p.data), np.empty_like(p.data))
                        for k, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float):
    """Standard bias-corrected Adam update of m, v and the parameters in
    place; grads must be populated. Every product is rounded as in
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = state.m[name], state.v[name]
        step, denom = state.scratch[name]
        m *= b1
        m += np.multiply(g, 1 - b1, out=step)
        v *= b2
        np.multiply(g, 1 - b2, out=step)
        step *= g
        v += step
        np.divide(v, 1 - b2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, 1 - b1 ** t, out=step)
        step *= lr
        step /= denom
        p.data -= step


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale grads in place to global norm <= max_norm (if > 0); return the unclipped norm."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
    if max_norm > 0 and norm > max_norm:
        with np.errstate(invalid="ignore"):     # an inf gradient times 0 is NaN
            for g in grads:
                g *= max_norm / norm
    return norm


def build_model(dataset: Dataset, config: ModelConfig) -> AdaWaveNet:
    """Construct the model, fitting the channel clustering on train trends."""
    channels = dataset.values.shape[0]
    if config.n_clusters > channels:
        raise DataError(f"n_clusters={config.n_clusters} exceeds the data's "
                        f"{channels} channel(s)")
    clustering = None
    if config.n_clusters > 1:
        xs, _ = windows(dataset, "train", config.input_len, config.pred_len,
                        config.task)
        trends = np.stack([decompose(Tensor(w), config.ma_window).trend.data
                           for w in xs[:MAX_FEATURE_WINDOWS]])
        clustering = fit_clustering(trends, config.n_clusters, seed=config.seed)
    return AdaWaveNet(config, channels=channels, clustering=clustering)


def _prepare_batch(task, xs, ys, idx, mask_spec, sr_ratio, mask_salt):
    """Assemble (input, target, loss_mask) numpy batches for one task."""
    x = xs[idx]
    y = ys[idx]
    if task == "forecast":
        return x, y, None
    if task == "impute":
        masks = np.stack([
            make_mask(mask_spec, x.shape[1:],
                      rng=np.random.default_rng([mask_spec.seed, mask_salt, int(i)]))
            for i in idx])
        return x * masks, y, 1.0 - masks
    if task == "superres":
        low = downsample(x, sr_ratio)
        return zoh_upsample(low, sr_ratio), y, None
    raise ValueError(f"unknown task {task!r}")


def _scored_batches(model: AdaWaveNet, task: str, xs, ys,
                    mask_spec: MaskSpec | None = None, sr_ratio: int = 1):
    """Yield (prediction, target, loss_mask) numpy batches of 64 windows in
    order; imputation masks use salt 0, so every call scores the same masks."""
    for start in range(0, len(xs), 64):
        idx = np.arange(start, min(start + 64, len(xs)))
        inp, tgt, lm = _prepare_batch(task, xs, ys, idx, mask_spec, sr_ratio,
                                      mask_salt=0)
        yield model.forward(Tensor(inp)).data, tgt, lm


def evaluate(model: AdaWaveNet, dataset: Dataset, split: str,
             mask_spec: MaskSpec | None = None):
    """Average loss (masked for imputation) over a split."""
    cfg = model.config
    xs, ys = windows(dataset, split, cfg.input_len, cfg.pred_len, cfg.task)
    total, weight = 0.0, 0.0
    with T.no_grad():
        for pred, tgt, lm in _scored_batches(model, cfg.task, xs, ys, mask_spec,
                                             cfg.sr_ratio):
            loss = T.mse(Tensor(pred), Tensor(tgt),
                         mask=Tensor(lm) if lm is not None else None)
            w = lm.sum() if lm is not None else tgt.size
            total += loss.item() * w
            weight += w
    return total / weight


def train(model: AdaWaveNet, dataset: Dataset, train_cfg: TrainConfig,
          mask_spec: MaskSpec | None = None, log_path: str | None = None,
          verbose: bool = False):
    """Minimize (masked) MSE on train windows with early stopping on the
    validation split; the best-validation parameters are restored in place.

    Returns (history, best_val_loss); history rows are
    (epoch, train_loss, val_loss, lr, seconds).
    """
    cfg = model.config
    train_cfg.validate()
    if cfg.task == "impute" and mask_spec is None:
        raise ValueError("imputation training requires a mask spec")
    xs, ys = windows(dataset, "train", cfg.input_len, cfg.pred_len, cfg.task)
    params = model.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(train_cfg.seed)

    history, best_val, bad_epochs = [], np.inf, 0
    best_state = {k: p.data.copy() for k, p in params.items()}
    for epoch in range(train_cfg.max_epochs):
        t_start = time.time()
        train_loss = _train_epoch(
            model, params, state, train_cfg, rng.permutation(len(xs)),
            lambda idx: _prepare_batch(cfg.task, xs, ys, idx, mask_spec,
                                       cfg.sr_ratio, mask_salt=epoch + 1))
        val_loss = evaluate(model, dataset, "val", mask_spec=mask_spec)
        seconds = time.time() - t_start
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
    """One Adam step on the (masked) MSE of each batch_size slice of ``order``;
    batch(idx) gives a slice's (input, target, loss_mask). Returns the mean loss."""
    total, starts = 0.0, range(0, len(order), train_cfg.batch_size)
    for start in starts:
        inp, tgt, lm = batch(order[start:start + train_cfg.batch_size])
        pred = model.forward(Tensor(inp))
        loss = T.mse(pred, Tensor(tgt), mask=Tensor(lm) if lm is not None else None)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(_nan_diagnostic(params, "loss is non-finite"))
        for p in params.values():
            p.zero_grad()
        loss.backward()
        # a non-finite gradient gives a non-finite norm and stays so when clipped
        if not np.isfinite(clip_gradients(params, train_cfg.clip_norm)):
            bad = [k for k, p in params.items()
                   if p.grad is not None and not np.all(np.isfinite(p.grad))]
            if bad:
                raise NumericalError(_nan_diagnostic(params, f"non-finite grads in {bad}"))
        adam_step(params, state, train_cfg.learning_rate)
        total += value
        del pred, loss  # free this step's graph before the next forward
    return total / max(len(starts), 1)


def _nan_diagnostic(params, msg):
    broken = [k for k, p in params.items() if not np.all(np.isfinite(p.data))]
    return f"{msg}; non-finite parameter groups: {broken or 'none'}"
