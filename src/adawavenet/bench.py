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
from .data import (Dataset, DataError, MaskSpec, build_dataset, load_csv,
                   normalize, windows)
from .metrics import metrics
from .model import AdaWaveNet
from .svgplot import save_chart
from .synth import SynthSpec, denoised_target, generate
from .tensor import NumericalError, Tensor, no_grad
from .train import EVAL_BATCH, build_model, evaluate, score_split, train

CSV_FRACTIONS = (0.7, 0.1, 0.2)     # a plain CSV file
# synthetic signals: 1024 points, first 512 for fitting (training plus the
# validation tail used for early stopping), last 512 held out
SYNTH_FRACTIONS = (0.3125, 0.1875, 0.5)
# hourly ETT files (ETTh1, ETTh2) as the paper's baselines split them: the
# first 12/4/4 months of 30 days x 24 rows for train/val/test
ETTH_ROWS = 14400
ETTH_FRACTIONS = (0.6, 0.2, 0.2)


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


def config_hash(model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    text = to_text(model_cfg) + to_text(train_cfg)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def resolve_dataset(name: str, seed: int = 0) -> Dataset:
    """The dataset a --data value names: ``synth:<family>`` (generated with
    ``seed``), ``etth:<path>`` (an hourly ETT CSV under the ETTh protocol) or
    a CSV path (split by CSV_FRACTIONS)."""
    if name.startswith("synth:"):
        family = name.split(":", 1)[1]
        return build_dataset([family], generate(SynthSpec(family=family, seed=seed)),
                             SYNTH_FRACTIONS)
    etth = name.startswith("etth:")
    path = name[len("etth:"):] if etth else name
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    names, values = load_csv(path)
    if not etth:
        return build_dataset(names, values, CSV_FRACTIONS)
    rows = values.shape[1]
    if rows < ETTH_ROWS:
        raise DataError(f"{path}: {rows} data rows, the ETTh protocol needs {ETTH_ROWS}")
    return build_dataset(names, values[:, :ETTH_ROWS], ETTH_FRACTIONS)


# -- per-task evaluation -----------------------------------------------------

def evaluate_forecast(model: AdaWaveNet, dataset: Dataset):
    return score_split(model, dataset, "test", "forecast")


def evaluate_impute(model: AdaWaveNet, dataset: Dataset, mask_spec: MaskSpec):
    return score_split(model, dataset, "test", "impute", mask_spec=mask_spec)


def evaluate_superres(model: AdaWaveNet, dataset: Dataset, ratio: int):
    return score_split(model, dataset, "test", "superres", sr_ratio=ratio)


# -- synthetic case study ----------------------------------------------------

def case_study(family: str = "simple", seed: int = 0,
               variance_shift: float = 0.0, step_change: float = 0.0,
               verbose: bool = False):
    """Train on the first half of a synthetic signal and score forecasts on
    the test half against the denoised reference.

    Returns a dict with model/persistence/linear (MSE, MAE) on the normalized
    scale, plus the test inputs, the denoised targets and the model's
    predictions.
    """
    spec = SynthSpec(family=family, seed=seed, variance_shift=variance_shift,
                     step_change=step_change)
    dataset = build_dataset([family], generate(spec), SYNTH_FRACTIONS)
    clean = normalize(denoised_target(spec), dataset.mean, dataset.std)
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
    with no_grad():
        preds = np.concatenate([model.forward(Tensor(xs[i:i + EVAL_BATCH])).data
                                for i in range(0, len(xs), EVAL_BATCH)])
    lin = LinearBaseline(L, Lp).fit(dataset, train_cfg)    # reads no patience
    return {"model": metrics(preds, ys), "linear": metrics(lin.predict(xs), ys),
            "persistence": metrics(baseline_persistence(xs, Lp), ys),
            "inputs": xs, "targets": ys, "preds": preds}


# -- manifest-driven benchmark runs ------------------------------------------

def cell_configs(cell: dict, seed) -> tuple[ModelConfig, TrainConfig]:
    """Every cell key but the run keys (dataset, seeds, mask_mode, mask_ratio)
    sets the config field of its name; the run's seed overrides any ``seed``."""
    items = [(f"cell {cell['dataset']}", k, v) for k, v in cell.items()
             if k not in ("dataset", "seeds", "mask_mode", "mask_ratio")]
    return build((ModelConfig, TrainConfig), items + [("seeds", "seed", seed)])


def cell_mask_spec(cell: dict, seed) -> MaskSpec:
    """The imputation mask of a cell's run keys mask_mode and mask_ratio (the
    MaskSpec defaults where absent), each parsed as a config field's text is;
    a bad value is a ConfigError."""
    items = [(f"cell {cell['dataset']}", key, cell[f"mask_{key}"])
             for key in ("mode", "ratio") if f"mask_{key}" in cell]
    return build((MaskSpec,), items + [("seeds", "seed", seed)])[0]


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
    t0 = time.perf_counter()
    model = build_model(dataset, model_cfg)
    train(model, dataset, train_cfg, mask_spec=mask_spec, verbose=verbose)
    mse, mae = evaluate(model, dataset, "test", mask_spec)
    return RunResult(task=task, dataset=name, setting=setting, mse=mse, mae=mae,
                     runtime_s=time.perf_counter() - t0,
                     config_hash=config_hash(model_cfg, train_cfg), seed=seed)


def run_benchmark(manifest: dict, out_dir: str, verbose: bool = False):
    """Execute every (cell, seed) pair. A missing dataset skips the run and a
    numerical failure fails it, each with a notice; the runs scored are
    written all the same.

    Returns (results, skipped_notices, failed_notices).
    """
    os.makedirs(out_dir, exist_ok=True)
    results, skipped, failed = [], [], []
    for i, cell in enumerate(manifest.get("cells", [])):
        for seed in cell.get("seeds", [0]):
            try:
                results.append(run_cell(cell, seed, verbose=verbose))
            except DataError as exc:
                skipped.append(f"{cell.get('dataset')}: {exc}")
            except NumericalError as exc:
                failed.append(f"cell {i} ({cell.get('dataset')}), seed {seed}: {exc}")
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "dataset", "setting", "mse", "mae",
                         "runtime_s", "config_hash", "seed"])
        for r in results:
            writer.writerow([r.task, r.dataset, r.setting, f"{r.mse:.6f}",
                             f"{r.mae:.6f}", f"{r.runtime_s:.2f}",
                             r.config_hash, r.seed])
    with open(os.path.join(out_dir, "report.md"), "w") as fh:
        fh.write(format_report(results, skipped, failed))
    return results, skipped, failed


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


def format_report(results: list[RunResult], skipped: list[str],
                  failed: list[str] = ()) -> str:
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
    for title, notices in (("Skipped cells", skipped), ("Failed runs", failed)):
        if notices:
            lines += ["", f"## {title}", ""] + [f"- {s}" for s in notices]
    lines.append("")
    return "\n".join(lines)


def load_manifest(path: str) -> dict:
    """A JSON object whose "cells" are objects, each naming a dataset and
    listing its seeds; a malformed manifest is a ConfigError, and so is a bad
    cell setting or synthetic family, named by its cell."""
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
        name = cell["dataset"]
        try:
            if name.startswith("synth:"):
                SynthSpec(family=name.split(":", 1)[1])
            for seed in cell.get("seeds", [0]):
                cell_configs(cell, seed)
                cell_mask_spec(cell, seed)
        except ConfigError as exc:      # named once, whichever check raised
            where = f"cell {name}: "
            raise ConfigError(where + str(exc).removeprefix(where)) from None
    return manifest


def showcase_plot(path: str, history: np.ndarray, truth: np.ndarray,
                  pred: np.ndarray, title: str = ""):
    """Input/ground-truth/prediction line chart for one channel."""
    series = {"input": np.concatenate([history, np.full(len(truth), history[-1])]),
              "ground truth": np.concatenate([history, truth]),
              "prediction": np.concatenate([history, pred])}
    save_chart(path, series, title=title)
