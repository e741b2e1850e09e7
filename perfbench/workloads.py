"""Workload definitions: generated inputs, set-up, and the timed units.

Every library call goes through a module attribute (``TR.train``, not a name
bound at import time) so that the tracer's wrappers are seen when tracing is
on. The workload seed only drives the generated data and the imputation
mask; model and training seeds are fixed, so quality differs between seeds
only through the data.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

import adawavenet.bench as B
import adawavenet.data as D
import adawavenet.model as M
import adawavenet.synth as S
import adawavenet.train as TR
from adawavenet.config import ModelConfig, TrainConfig
from adawavenet.tensor import Tensor

L = LP = 96
SPAN = L + LP - 1          # rows consumed by a window beyond its first row
SR_RATIO = 4
MASK_RATIO = 0.25
EPOCHS = 1                 # per timed training unit
REFERENCE_WINDOWS = 16     # distinct inputs cycled through by the latency probe


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "eval"
    channels: int
    n_clusters: int
    train_windows: int     # forecast windows in the train split
    val_windows: int       # forecast windows in the validation split
    test_rows: int
    min_units: int         # timed units run before --seconds can end the loop
    burst: int             # B=1 forwards in each latency burst
    min_latency: int       # B=1 forwards before --seconds can end the loop
    setup_repeats: int

    @property
    def tags(self) -> set[str]:
        """Which traced callables the workload must exercise."""
        return {self.kind} | ({"cluster"} if self.n_clusters > 1 else set())

    def tiny(self) -> "Workload":
        """The same pipeline at the smallest size that still runs every layer."""
        return replace(self, train_windows=min(self.train_windows, 32),
                       val_windows=min(self.val_windows, 8),
                       test_rows=min(self.test_rows, SPAN + 40), min_units=1,
                       burst=20, min_latency=20, setup_repeats=2)


# Units are short and alternate with short latency bursts: the host's speed
# drifts over seconds, and many short samples spread over the whole run give
# steadier medians than a few long ones.
WORKLOADS = {w.name: w for w in [
    Workload("train_c7", "train", channels=7, n_clusters=1, train_windows=256,
             val_windows=64, test_rows=SPAN + REFERENCE_WINDOWS, min_units=10,
             burst=80, min_latency=1000, setup_repeats=5),
    Workload("train_c321", "train", channels=321, n_clusters=4,
             train_windows=48, val_windows=32,
             test_rows=SPAN + REFERENCE_WINDOWS, min_units=5, burst=120,
             min_latency=600, setup_repeats=5),
    Workload("eval_c7", "eval", channels=7, n_clusters=1, train_windows=512,
             val_windows=0, test_rows=SPAN + 512, min_units=10, burst=80,
             min_latency=1000, setup_repeats=5),
]}


# -- inputs --------------------------------------------------------------------

def make_panel(seed: int, channels: int, rows: int) -> np.ndarray:
    """[channels, rows] panel stacked from the synthetic families.

    Channel c uses family c mod 3 with a base frequency that depends on c;
    the noise seeds come from the workload seed.
    """
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=channels)
    rows_out = []
    for c in range(channels):
        spec = S.SynthSpec(family=S.FAMILIES[c % 3], f1=2.0 + (c // 3) % 5,
                           n_points=rows, shift_onset=rows, seed=int(seeds[c]))
        rows_out.append(S.generate(spec))
    return np.concatenate(rows_out)


def split_rows(w: Workload) -> tuple[int, int, int]:
    val = w.val_windows + SPAN if w.val_windows else 0
    return w.train_windows + SPAN, val, w.test_rows


@dataclass
class Setup:
    dataset: D.Dataset
    model: M.AdaWaveNet
    initial: dict[str, np.ndarray]   # parameters before any timed unit
    mask_spec: D.MaskSpec


def set_up(w: Workload, seed: int, scratch: str) -> Setup:
    """Generate the data, build the model (k-means included) and, for eval,
    round-trip it through a checkpoint the way `adawave forecast` loads it."""
    rows = split_rows(w)
    total = sum(rows)
    panel = make_panel(seed, w.channels, total)
    names = [f"ch{c}" for c in range(w.channels)]
    dataset = D.build_dataset(names, panel, tuple(r / total for r in rows))
    cfg = ModelConfig(input_len=L, pred_len=LP, n_clusters=w.n_clusters, seed=0)
    model = TR.build_model(dataset, cfg)
    if w.kind == "eval":
        # a fixed perturbation stands in for trained weights, so that every
        # op (zero-initialised lifting kernels included) shapes the output
        rng = np.random.default_rng(0)
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.01, p.data.shape)
        path = os.path.join(scratch, f"{w.name}-{seed}-{os.getpid()}.awn")
        try:
            M.save_checkpoint(path, cfg, M.model_state(model, dataset.mean,
                                                       dataset.std))
            loaded_cfg, arrays = M.load_checkpoint(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        model = M.restore_model(loaded_cfg, arrays)
    initial = {k: p.data.copy() for k, p in model.parameters().items()}
    mask_spec = D.MaskSpec(mode="random", ratio=MASK_RATIO, seed=seed)
    return Setup(dataset, model, initial, mask_spec)


# -- timed units -----------------------------------------------------------------

@dataclass
class UnitResult:
    seconds: float
    windows: int
    quality: tuple          # compared bitwise; [0] is the reported quality_mse
    problems: list[str]     # failed correctness checks
    operations: int


def _finite(*values) -> bool:
    return all(np.isfinite(v) for v in values)


def train_unit(w: Workload, s: Setup) -> UnitResult:
    """One `train.train` call of one epoch from the same initial parameters
    (patience = max_epochs, so early stopping never cuts it short)."""
    for k, p in s.model.parameters().items():
        p.data[...] = s.initial[k]
    cfg = TrainConfig(batch_size=16, max_epochs=EPOCHS, patience=EPOCHS, seed=0)
    t0 = time.perf_counter()
    history, best_val = TR.train(s.model, s.dataset, cfg)
    seconds = time.perf_counter() - t0
    problems = []
    if len(history) != EPOCHS:
        problems.append(f"ran {len(history)} of {EPOCHS} epochs")
    if not all(_finite(row[1], row[2]) for row in history) or not _finite(best_val):
        problems.append("non-finite training or validation loss")
    if not all(np.all(np.isfinite(p.data)) for p in s.model.parameters().values()):
        problems.append("non-finite parameters after training")
    return UnitResult(seconds, w.train_windows * EPOCHS, (best_val,),
                      problems, 1)


def eval_unit(w: Workload, s: Setup) -> UnitResult:
    """Score the test split with the three task evaluators."""
    n_forecast = s.dataset.split_values("test").shape[1] - SPAN
    n_window = n_forecast + LP     # impute / superres windows are input-only
    t0 = time.perf_counter()
    results = (B.evaluate_forecast(s.model, s.dataset),
               B.evaluate_impute(s.model, s.dataset, s.mask_spec),
               B.evaluate_superres(s.model, s.dataset, SR_RATIO))
    seconds = time.perf_counter() - t0
    problems = [f"{task}: bad (mse, mae) {r}"
                for task, r in zip(("forecast", "impute", "superres"), results)
                if not (_finite(*r) and 0 <= r[1] <= np.sqrt(r[0]) + 1e-12)]
    return UnitResult(seconds, n_forecast + 2 * n_window,
                      tuple(v for r in results for v in r), problems, 3)


def run_unit(w: Workload, s: Setup) -> UnitResult:
    return train_unit(w, s) if w.kind == "train" else eval_unit(w, s)


# -- latency probe ---------------------------------------------------------------

class LatencyProbe:
    """Closed loop of single-window forecasts, as `adawave forecast` runs.

    Each output must have the expected shape, be finite, and match the same
    window's row of a batched forward computed once, before any timed call.
    """

    def __init__(self, w: Workload, s: Setup):
        test = s.dataset.split_values("test")
        self.model = s.model
        self.shape = (1, w.channels, LP)
        self.xs = np.stack([test[:, t:t + L] for t in range(REFERENCE_WINDOWS)])
        self.reference = np.concatenate([
            s.model.forward(Tensor(self.xs[i:i + 4])).data
            for i in range(0, REFERENCE_WINDOWS, 4)])
        self.latencies: list[float] = []

    def run(self, calls: int) -> list[str]:
        """Time `calls` more forwards; returns the failed checks."""
        problems = []
        for _ in range(calls):
            i = len(self.latencies) % REFERENCE_WINDOWS
            t0 = time.perf_counter()
            out = self.model.forward(Tensor(self.xs[i:i + 1])).data
            self.latencies.append(time.perf_counter() - t0)
            if out.shape != self.shape or not np.all(np.isfinite(out)):
                problems.append(f"B=1 output shape {out.shape} or non-finite")
            elif not np.allclose(out[0], self.reference[i], rtol=1e-9, atol=1e-12):
                problems.append(f"B=1 output differs from the batched forward")
        return problems
