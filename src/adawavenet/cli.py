"""The ``adawave`` command line.

Subcommands: train, eval, forecast, impute, superres, synth, decompose, bench.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import bench as B
from . import svgplot
from .config import (ConfigError, ModelConfig, TrainConfig, build, read_items,
                     read_text)
from .data import DataError, MaskSpec, load_csv, windows
from .decompose import decompose
from .lifting import LiftingLevel, check_depth, lift_forward
from .model import load_checkpoint, model_state, restore_model, save_checkpoint
from .synth import SynthError, SynthSpec, denoised_target, generate
from .tensor import Tensor, TensorError, no_grad
from .train import NumericalError, _prepare_batch, build_model, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_csv(path, names, values):
    """values: [C, L] -> one named column per channel."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.asarray(values).T:
            writer.writerow([f"{v:.10g}" for v in row])


def _load_model(args):
    """The checkpoint's model and the --data dataset (synthetic data is
    generated with the checkpoint seed); the data must have the model's
    channel count."""
    config, arrays = load_checkpoint(args.checkpoint)
    model = restore_model(config, arrays)
    dataset = B.resolve_dataset(args.data, seed=config.seed)
    channels = dataset.values.shape[0]
    if channels != model.channels:
        raise DataError(f"{args.data} has {channels} channel(s), the checkpoint "
                        f"expects {model.channels}")
    return model, dataset


def _mask_spec(args, model):
    """Imputation masks as `eval` scores them; --seed defaults to the
    model's seed."""
    seed = model.config.seed if args.seed is None else args.seed
    if seed < 0:
        raise UsageError(f"--seed {seed} must be >= 0")
    return MaskSpec(mode=args.mask_mode, ratio=args.mask_ratio, seed=seed)


def _channel(args, model):
    """--channel, checked against the model before any file is written."""
    if not 0 <= args.channel < model.channels:
        raise UsageError(f"--channel {args.channel} outside [0, {model.channels})")
    return args.channel


def _test_window(model, dataset, task, index, mask_spec=None, sr_ratio=1):
    """One test window (index may be negative) batched as evaluation batches
    it: returns (input, target, loss_mask, prediction) without the batch axis."""
    cfg = model.config
    xs, ys = windows(dataset, "test", cfg.input_len, cfg.pred_len, task)
    inp, tgt, lm = _prepare_batch(task, xs, ys, np.array([index % len(xs)]),
                                  mask_spec, sr_ratio, mask_salt=0)
    with no_grad():
        pred = model.forward(Tensor(inp)).data[0]
    return inp[0], tgt[0], None if lm is None else lm[0], pred


def cmd_train(args):
    items = [] if args.config is None else read_items(read_text(args.config))
    if args.seed is not None:
        items.append(("--seed", "seed", args.seed))
    model_cfg, train_cfg = build((ModelConfig, TrainConfig), items)
    dataset = B.resolve_dataset(args.data, seed=model_cfg.seed)
    model = build_model(dataset, model_cfg)
    mask_spec = _mask_spec(args, model) if model_cfg.task == "impute" else None
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "training_log.csv")
    history, best_val = train(model, dataset, train_cfg, mask_spec=mask_spec,
                              log_path=log_path, verbose=not args.quiet)
    ckpt = args.checkpoint or os.path.join(args.out, "model.awn")
    save_checkpoint(ckpt, model_cfg,
                    model_state(model, dataset.mean, dataset.std))
    print(f"best validation loss {best_val:.6f} after {len(history)} epochs")
    print(f"checkpoint: {ckpt}")
    print(f"log: {log_path}")
    # cluster assignments for inspection
    _write_csv(os.path.join(args.out, "cluster_assignments.csv"),
               ["channel", "cluster"],
               np.stack([np.arange(model.channels),
                         model.trend_head.clustering.assignments]))
    return EXIT_OK


def cmd_eval(args):
    model, dataset = _load_model(args)
    mse, mae = B.evaluate_task(model, dataset, _mask_spec(args, model))
    print(f"task={model.config.task} test MSE={mse:.6f} MAE={mae:.6f}")
    return EXIT_OK


def cmd_forecast(args):
    model, dataset = _load_model(args)
    ch = _channel(args, model)
    x, truth, _, pred = _test_window(model, dataset, "forecast", -1)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "forecast.csv"), dataset.channel_names, pred)
    B.showcase_plot(os.path.join(args.out, "forecast.svg"), x[ch], truth[ch],
                    pred[ch], title=f"forecast (channel {ch})")
    print(f"wrote forecast.csv and forecast.svg to {args.out}")
    return EXIT_OK


def cmd_impute(args):
    model, dataset = _load_model(args)
    ch = _channel(args, model)
    spec = _mask_spec(args, model)
    _, x, loss_mask, pred = _test_window(model, dataset, "impute", 0, mask_spec=spec)
    mask = 1.0 - loss_mask
    filled = np.where(mask == 1, x, pred)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "imputed.csv"), dataset.channel_names, filled)
    _write_csv(os.path.join(args.out, "mask.csv"), dataset.channel_names, mask)
    shade = None
    if spec.mode == "extended":
        gaps = np.where(mask[ch] == 0)[0]
        shade = (int(gaps[0]), int(gaps[-1]) + 1)
    svgplot.save_chart(os.path.join(args.out, "imputed.svg"),
                       {"ground truth": x[ch], "imputed": filled[ch]},
                       title=f"imputation mask={spec.ratio} ({spec.mode})",
                       shade=shade)
    print(f"wrote imputed.csv, mask.csv and imputed.svg to {args.out}")
    return EXIT_OK


def cmd_superres(args):
    model, dataset = _load_model(args)
    ch = _channel(args, model)
    low_res, x, _, pred = _test_window(model, dataset, "superres", 0,
                                       sr_ratio=args.ratio)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "superres.csv"), dataset.channel_names, pred)
    svgplot.save_chart(os.path.join(args.out, "superres.svg"),
                       {"ground truth": x[ch], "low-res input": low_res[ch],
                        "prediction": pred[ch]},
                       title=f"super-resolution r={args.ratio}")
    print(f"wrote superres.csv and superres.svg to {args.out}")
    return EXIT_OK


def cmd_synth(args):
    spec = SynthSpec(family=args.family, variance_shift=args.variance_shift,
                     step_change=args.step_change, seed=args.seed,
                     n_points=args.n_points)
    signal = generate(spec)
    clean = denoised_target(spec)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "signal.csv"), [args.family], signal)
    _write_csv(os.path.join(args.out, "denoised.csv"), [args.family], clean)
    print(f"wrote signal.csv and denoised.csv to {args.out}")
    return EXIT_OK


def cmd_decompose(args):
    window = load_csv(args.data, (1.0, 0.0, 0.0))   # the whole CSV is one window
    names, values = window.channel_names, window.values
    try:                # --ma-window and --levels are checked before any output
        parts = decompose(Tensor(values), args.ma_window)
        if args.wavelet:
            check_depth(values.shape[1], args.levels)
    except TensorError as exc:
        raise UsageError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "seasonal.csv"), names, parts.seasonal.data)
    _write_csv(os.path.join(args.out, "trend.csv"), names, parts.trend.data)
    outputs = ["seasonal.csv", "trend.csv"]
    if args.wavelet:
        approx = parts.seasonal
        # an untrained level has zero kernels whatever their size: the
        # lifting steps vanish and each level is a plain polyphase split
        level = LiftingLevel(values.shape[0], 1)
        for i in range(1, args.levels + 1):
            approx, detail, _ = lift_forward(approx, level)
            for name, band in ((f"coeffs_level{i}.csv", detail),
                               (f"approx_level{i}.csv", approx)):
                _write_csv(os.path.join(args.out, name), names, band.data)
                outputs.append(name)
    print(f"wrote {', '.join(outputs)} to {args.out}")
    return EXIT_OK


def cmd_bench(args):
    manifest = B.load_manifest(args.manifest)
    results, skipped = B.run_benchmark(manifest, args.out, verbose=not args.quiet)
    print(B.format_report(results, skipped), end="")
    if skipped:
        print(f"{len(skipped)} cell(s) skipped", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="adawave",
                     description="Adaptive wavelet network for time series")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, each declared once
    shared = {
        "--data": dict(required=True, help="CSV path or synth:<family>"),
        "--checkpoint": dict(required=True),
        "--seed": dict(type=int, default=None),
        "--out": dict(default="out"),
        "--quiet": dict(action="store_true"),
        "--mask-mode": dict(default="random", choices=["random", "extended"]),
        "--mask-ratio": dict(type=float, default=0.25),
        "--channel": dict(type=int, default=0),
    }

    def command(name, func, summary, *flags):
        """A subcommand declaring the shared flags its function reads."""
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command("train", cmd_train, "train a model", "--data", "--seed",
                "--out", "--quiet", "--mask-mode", "--mask-ratio")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--checkpoint", help="checkpoint output path")
    command("eval", cmd_eval, "evaluate a checkpoint on the test split",
            "--data", "--checkpoint", "--seed", "--mask-mode", "--mask-ratio")
    command("forecast", cmd_forecast, "forecast the final test window",
            "--data", "--checkpoint", "--out", "--channel")
    command("impute", cmd_impute, "impute a masked test window", "--data",
            "--checkpoint", "--seed", "--out", "--mask-mode", "--mask-ratio",
            "--channel")
    p = command("superres", cmd_superres, "reconstruct from a downsampled window",
                "--data", "--checkpoint", "--out", "--channel")
    p.add_argument("--ratio", type=int, default=2)

    signal = SynthSpec()
    p = command("synth", cmd_synth, "generate a synthetic signal", "--out")
    p.add_argument("--seed", type=int, default=signal.seed)
    p.add_argument("--family", default=signal.family,
                   choices=["simple", "traffic", "electricity"])
    p.add_argument("--variance-shift", type=float, default=signal.variance_shift)
    p.add_argument("--step-change", type=float, default=signal.step_change)
    p.add_argument("--n-points", type=int, default=signal.n_points)

    model = ModelConfig()
    p = command("decompose", cmd_decompose, "seasonal/trend split of a CSV window",
                "--data", "--out")
    p.add_argument("--ma-window", type=int, default=model.ma_window)
    p.add_argument("--wavelet", action="store_true",
                   help="also dump per-level approximations and coefficients")
    p.add_argument("--levels", type=int, default=model.levels)

    p = command("bench", cmd_bench, "run a benchmark manifest", "--out", "--quiet")
    p.add_argument("--manifest", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, SynthError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, TensorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
