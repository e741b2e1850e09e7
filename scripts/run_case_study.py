"""Synthetic case study: train on the first half of a non-stationary signal
and score 96 -> 96 forecasts on the held-out half against the denoised
reference, alongside the persistence and shared-linear baselines.

Usage:
    python scripts/run_case_study.py [--family simple] [--seed 0]
                                     [--variance-shift 0] [--step-change 0]
                                     [--out out/case_study]
"""
import argparse
import os

import numpy as np

from adawavenet.bench import case_study, showcase_plot
from adawavenet.synth import FAMILIES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="simple", choices=FAMILIES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--variance-shift", type=float, default=0.0)
    parser.add_argument("--step-change", type=float, default=0.0)
    parser.add_argument("--out", default="out/case_study")
    args = parser.parse_args()

    result = case_study(args.family, seed=args.seed,
                        variance_shift=args.variance_shift,
                        step_change=args.step_change, verbose=True)
    for name in ("model", "persistence", "linear"):
        mse, mae = result[name]
        print(f"{name:12s} MSE {mse:.4f}  MAE {mae:.4f}")

    os.makedirs(args.out, exist_ok=True)
    # plot the first held-out window for a quick visual check
    x = result["inputs"][0, 0]
    truth = result["targets"][0, 0]
    pred = result["preds"][0, 0]
    path = os.path.join(args.out, f"{args.family}_seed{args.seed}.svg")
    showcase_plot(path, x, truth, pred,
                  title=f"{args.family} case study (seed {args.seed})")
    print(f"wrote {path}")

    np.savetxt(os.path.join(args.out, "predictions.csv"),
               result["preds"][:, 0, :], delimiter=",")


if __name__ == "__main__":
    main()
