"""CSV ingestion, chronological splits, windowing, masking, downsampling."""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    channel_names: list[str]
    values: np.ndarray                 # [C, T_total], normalized, read-only
    splits: dict[str, tuple[int, int]]  # name -> [start, stop)
    mean: np.ndarray                   # per-channel, train split only
    std: np.ndarray

    def split_values(self, split: str) -> np.ndarray:
        """One split of the normalized panel, as a view."""
        start, stop = self.splits[split]
        return self.values[:, start:stop]


def normalize(data: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Raw [C, T] values on the scale of the train split's mean and std."""
    return (data - mean[:, None]) / std[:, None]


def load_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a header + numeric-rows CSV in chronological order into
    (channel_names, values [C, T]); a leading non-numeric column (e.g. a date
    stamp) is dropped."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(header)
    drop_first = False
    try:
        float(rows[0][0])
    except (ValueError, IndexError):
        drop_first = True
    names = header[1:] if drop_first else header
    if not names:
        raise DataError(f"{path}: no data columns")
    values = []
    for i, row in enumerate(rows, 2):
        if len(row) != width:
            raise DataError(f"{path}: line {i}: expected {width} cells, got {len(row)}")
        cells = row[1:] if drop_first else row
        try:
            row_values = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: non-numeric cell ({exc})") from exc
        if not all(math.isfinite(v) for v in row_values):
            raise DataError(f"{path}: line {i}: non-finite cell (nan or inf)")
        values.append(row_values)
    return names, np.asarray(values).T


def build_dataset(names, data: np.ndarray, split_fractions) -> Dataset:
    """Chronological splits of raw [C, T] data, normalized once (`normalize`)."""
    if abs(sum(split_fractions) - 1.0) > 1e-9:
        raise DataError("split fractions must sum to 1")
    total = data.shape[1]
    n_train = int(round(split_fractions[0] * total))
    n_val = int(round(split_fractions[1] * total))
    splits = {"train": (0, n_train),
              "val": (n_train, n_train + n_val),
              "test": (n_train + n_val, total)}
    train = data[:, :n_train]
    mean = train.mean(axis=1)
    std = train.std(axis=1)
    constant = std == 0
    if np.any(constant):
        warnings.warn(f"constant channels {np.where(constant)[0].tolist()}: std forced to 1")
        std[constant] = 1.0
    values = normalize(data, mean, std)
    values.flags.writeable = False
    return Dataset(channel_names=list(names), values=values, splits=splits,
                   mean=mean, std=std)


def windows(dataset: Dataset, split: str, input_len: int, pred_len: int, task: str):
    """Return (inputs, targets): read-only [N, C, *] views of every window of
    a split, sliding with stride 1, into the dataset's normalized panel.

    Forecasting targets the following pred_len steps; imputation and
    super-resolution target the window itself, so targets is inputs.
    Callers gather batches with ``inputs[idx]``.
    """
    vals = dataset.split_values(split)
    span = input_len + pred_len if task == "forecast" else input_len
    if span > vals.shape[1]:
        raise DataError(f"split {split!r} too short: {vals.shape[1]} < {span}")
    view = sliding_window_view(vals, span, axis=-1).transpose(1, 0, 2)
    if task != "forecast":
        return view, view
    return view[..., :input_len], view[..., input_len:]


@dataclass(frozen=True)
class MaskSpec:
    """Imputation mask settings; an unknown mode, a ratio outside (0, 1) or a
    negative seed raises DataError when the spec is built."""
    mode: str = "random"       # "random" | "extended"
    ratio: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "extended"):
            raise DataError(f"unknown mask mode {self.mode!r}")
        if not 0.0 < self.ratio < 1.0:
            raise DataError("mask ratio must lie in (0, 1)")
        if self.seed < 0:
            raise DataError("mask seed must be >= 0")


def make_mask(spec: MaskSpec, shape: tuple[int, int], salt: int,
              window: int) -> np.ndarray:
    """Binary [C, L] mask of one window; 0 marks a concealed position.

    Random mode conceals positions independently per channel; extended mode
    conceals one contiguous block shared by every channel. The generator is
    seeded with (spec.seed, salt, window), whatever the window's batch.
    """
    C, L = shape
    n_masked = int(round(spec.ratio * L))
    if n_masked == 0:
        raise DataError(f"ratio {spec.ratio} conceals no sample of L={L}")
    rng = np.random.default_rng([spec.seed, salt, window])
    mask = np.ones(shape)
    if spec.mode == "random":
        for c in range(C):
            idx = rng.choice(L, size=n_masked, replace=False)
            mask[c, idx] = 0.0
    else:
        offset = int(rng.integers(0, L - n_masked + 1))
        mask[:, offset:offset + n_masked] = 0.0
    return mask


def downsample(x: np.ndarray, r: int) -> np.ndarray:
    """Keep every r-th sample (plain decimation, no anti-alias filter)."""
    if r < 1:
        raise DataError("downsample ratio must be >= 1")
    if x.shape[-1] % r != 0:
        raise DataError(f"length {x.shape[-1]} not divisible by ratio {r}")
    return x[..., ::r]
