"""Benchmark harness: runs train+eval cells from a manifest, aggregates
results over seeds, and writes CSV tables, a markdown report and SVG
showcase plots.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import LinearBaseline, baseline_persistence
from .config import (ConfigError, ModelConfig, TrainConfig, build, read_text,
                     to_text)
from .data import Dataset, DataError, MaskSpec, build_dataset, load_csv, windows
from .metrics import metrics
from .model import AdaWaveNet
from .svgplot import save_chart
from .synth import SynthSpec, denoised_target, generate
from .train import _scored_batches, build_model, train

# synthetic signals: 1024 points, first 512 for fitting (training plus the
# validation tail used for early stopping), last 512 held out
SYNTH_FRACTIONS = (0.3125, 0.1875, 0.5)


@dataclass
class RunResult:
    task: str
    dataset: str
    setting: str
    mse: float
    mae: float
    runtime_s: float
    config_hash: str
    seed: int

    def __post_init__(self):
        if not (self.mse >= 0 and self.mae >= 0):
            raise ValueError(f"RunResult: negative or NaN error (mse={self.mse}, mae={self.mae})")
        if not self.mae <= np.sqrt(self.mse) + 1e-12:
            raise ValueError(f"RunResult: MAE {self.mae} exceeds sqrt(MSE) {np.sqrt(self.mse)}")


def config_hash(model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    text = to_text(model_cfg) + to_text(train_cfg)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def synth_dataset(family: str, seed: int) -> Dataset:
    signal = generate(SynthSpec(family=family, seed=seed))
    return build_dataset([family], signal, SYNTH_FRACTIONS)


def resolve_dataset(name: str, seed: int = 0) -> Dataset:
    if name.startswith("synth:"):
        return synth_dataset(name.split(":", 1)[1], seed=seed)
    if not os.path.exists(name):
        raise DataError(f"dataset file not found: {name}")
    return load_csv(name)


# -- per-task evaluation -----------------------------------------------------

def _evaluate(model: AdaWaveNet, dataset: Dataset, task: str,
              mask_spec: MaskSpec | None = None, sr_ratio: int = 1):
    """(MSE, MAE) over every test window; masked for imputation."""
    cfg = model.config
    xs, ys = windows(dataset, "test", cfg.input_len, cfg.pred_len, task)
    preds, tgts, masks = zip(*_scored_batches(model, task, xs, ys, mask_spec,
                                              sr_ratio))
    mask = None if masks[0] is None else np.concatenate(masks)
    return metrics(np.concatenate(preds), np.concatenate(tgts), mask=mask)


def evaluate_forecast(model: AdaWaveNet, dataset: Dataset):
    return _evaluate(model, dataset, "forecast")


def evaluate_impute(model: AdaWaveNet, dataset: Dataset, mask_spec: MaskSpec):
    return _evaluate(model, dataset, "impute", mask_spec=mask_spec)


def evaluate_superres(model: AdaWaveNet, dataset: Dataset, ratio: int):
    return _evaluate(model, dataset, "superres", sr_ratio=ratio)


def evaluate_task(model: AdaWaveNet, dataset: Dataset,
                  mask_spec: MaskSpec | None = None):
    """(MSE, MAE) of the model on the task it was configured for; mask_spec
    is used only by imputation."""
    cfg = model.config
    return _evaluate(model, dataset, cfg.task, mask_spec, cfg.sr_ratio)


# -- synthetic case study ----------------------------------------------------

def case_study(family: str = "simple", seed: int = 0,
               variance_shift: float = 0.0, step_change: float = 0.0,
               verbose: bool = False):
    """Train on the first half of a synthetic signal and score forecasts on
    the test half against the denoised reference.

    Returns a dict with model/persistence/linear MSE+MAE on the normalized
    scale, plus the trained model and dataset.
    """
    spec = SynthSpec(family=family, seed=seed, variance_shift=variance_shift,
                     step_change=step_change)
    noisy = generate(spec)
    clean = denoised_target(spec)
    dataset = build_dataset([family], noisy, SYNTH_FRACTIONS)
    model_cfg = ModelConfig(seed=seed)
    train_cfg = TrainConfig(learning_rate=5e-3, max_epochs=200, patience=15,
                            seed=seed)
    model = build_model(dataset, model_cfg)
    train(model, dataset, train_cfg, verbose=verbose)

    # forecast windows fully inside the held-out half: noisy inputs, targets
    # from the denoised signal on the same train-split normalized scale
    L, Lp = model_cfg.input_len, model_cfg.pred_len
    xs, _ = windows(dataset, "test", L, Lp, "forecast")
    _, ys = windows(replace(dataset, values=clean), "test", L, Lp, "forecast")
    preds = np.concatenate([p for p, _, _ in _scored_batches(model, "forecast",
                                                             xs, ys)])
    result = {"model": metrics(preds, ys), "dataset": dataset,
              "trained": model, "inputs": xs, "targets": ys, "preds": preds}
    result["persistence"] = metrics(baseline_persistence(xs, Lp), ys)
    lin = LinearBaseline(L, Lp).fit(dataset, train_cfg)    # reads no patience
    result["linear"] = metrics(lin.predict(xs), ys)
    return result


# -- manifest-driven benchmark runs ------------------------------------------

def cell_configs(cell: dict, seed) -> tuple[ModelConfig, TrainConfig]:
    """Every cell key but the run keys (dataset, seeds, mask_mode, mask_ratio)
    sets the config field of its name; the run's seed overrides any ``seed``."""
    items = [(f"cell {cell['dataset']}", k, v) for k, v in cell.items()
             if k not in ("dataset", "seeds", "mask_mode", "mask_ratio")]
    return build((ModelConfig, TrainConfig), items + [("seeds", "seed", seed)])


def cell_mask_spec(cell: dict, seed) -> MaskSpec:
    """The imputation mask of a cell's run keys mask_mode (default random) and
    mask_ratio (default 0.25), each parsed as a config field's text is; a bad
    value is a ConfigError."""
    where = f"cell {cell['dataset']}"
    items = [(where, "mode", cell.get("mask_mode", "random")),
             (where, "ratio", cell.get("mask_ratio", 0.25)), ("seeds", "seed", seed)]
    try:
        return build((MaskSpec,), items)[0]
    except DataError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def run_cell(cell: dict, seed: int, verbose: bool = False) -> RunResult:
    """Train and test one manifest cell with one of its seeds."""
    name = cell["dataset"]
    model_cfg, train_cfg = cell_configs(cell, seed)
    seed = model_cfg.seed       # parsed like every other setting
    dataset = resolve_dataset(name, seed=seed)
    task = model_cfg.task
    mask_spec = None
    if task == "impute":
        mask_spec = cell_mask_spec(cell, seed)
        setting = f"mask={mask_spec.ratio}:{mask_spec.mode}"
    elif task == "superres":
        setting = f"r={model_cfg.sr_ratio}"
    else:
        setting = f"Lp={model_cfg.pred_len}"
    t0 = time.time()
    model = build_model(dataset, model_cfg)
    train(model, dataset, train_cfg, mask_spec=mask_spec, verbose=verbose)
    mse, mae = evaluate_task(model, dataset, mask_spec)
    return RunResult(task=task, dataset=name, setting=setting, mse=mse, mae=mae,
                     runtime_s=time.time() - t0,
                     config_hash=config_hash(model_cfg, train_cfg), seed=seed)


def run_benchmark(manifest: dict, out_dir: str, verbose: bool = False):
    """Execute every (cell, seed) pair; missing datasets skip with a notice.

    Returns (results, skipped_notices).
    """
    os.makedirs(out_dir, exist_ok=True)
    results, skipped = [], []
    for cell in manifest.get("cells", []):
        for seed in cell.get("seeds", [0]):
            try:
                results.append(run_cell(cell, seed, verbose=verbose))
            except DataError as exc:
                skipped.append(f"{cell.get('dataset')}: {exc}")
    write_results(results, skipped, out_dir)
    return results, skipped


def write_results(results: list[RunResult], skipped: list[str], out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "dataset", "setting", "mse", "mae",
                         "runtime_s", "config_hash", "seed"])
        for r in results:
            writer.writerow([r.task, r.dataset, r.setting, f"{r.mse:.6f}",
                             f"{r.mae:.6f}", f"{r.runtime_s:.2f}",
                             r.config_hash, r.seed])
    with open(os.path.join(out_dir, "report.md"), "w") as fh:
        fh.write(format_report(results, skipped))


def aggregate(results: list[RunResult]):
    """Mean and std of MSE/MAE per (task, dataset, setting) across seeds."""
    groups: dict[tuple, list[RunResult]] = {}
    for r in results:
        groups.setdefault((r.task, r.dataset, r.setting), []).append(r)
    rows = []
    for key, rs in groups.items():
        mses = np.array([r.mse for r in rs])
        maes = np.array([r.mae for r in rs])
        rows.append({"task": key[0], "dataset": key[1], "setting": key[2],
                     "n_seeds": len(rs),
                     "mse_mean": float(mses.mean()), "mse_std": float(mses.std()),
                     "mae_mean": float(maes.mean()), "mae_std": float(maes.std())})
    return rows


def format_report(results: list[RunResult], skipped: list[str]) -> str:
    lines = ["# Benchmark report", ""]
    if results:
        lines += ["| task | dataset | setting | seeds | MSE | MAE |",
                  "|---|---|---|---|---|---|"]
        for row in aggregate(results):
            lines.append(
                f"| {row['task']} | {row['dataset']} | {row['setting']} "
                f"| {row['n_seeds']} "
                f"| {row['mse_mean']:.3f} ± {row['mse_std']:.3f} "
                f"| {row['mae_mean']:.3f} ± {row['mae_std']:.3f} |")
    else:
        lines.append("_no results_")
    if skipped:
        lines += ["", "## Skipped cells", ""]
        lines += [f"- {s}" for s in skipped]
    lines.append("")
    return "\n".join(lines)


def load_manifest(path: str) -> dict:
    """A JSON object whose "cells" are objects, each naming a dataset and
    listing its seeds; a malformed manifest or cell setting is a ConfigError."""
    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not JSON: {exc}") from None
    cells = manifest.get("cells", []) if isinstance(manifest, dict) else None
    if not (isinstance(cells, list) and all(
            isinstance(c, dict) and isinstance(c.get("dataset"), str)
            and isinstance(c.get("seeds", []), list) for c in cells)):
        raise ConfigError(f"{path}: cells must be objects with a dataset and seeds list")
    for cell in cells:          # settings errors surface before any run
        for seed in cell.get("seeds", [0]):
            cell_configs(cell, seed)
            cell_mask_spec(cell, seed)
    return manifest


def showcase_plot(path: str, history: np.ndarray, truth: np.ndarray,
                  pred: np.ndarray, title: str = ""):
    """Input/ground-truth/prediction line chart for one channel."""
    series = {"input": np.concatenate([history, np.full(len(truth), history[-1])]),
              "ground truth": np.concatenate([history, truth]),
              "prediction": np.concatenate([history, pred])}
    save_chart(path, series, title=title)
