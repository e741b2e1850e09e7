"""CSV ingestion, chronological splits, windowing, masking, downsampling."""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ConfigError


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
    negative seed raises ConfigError when the spec is built (a ratio that
    conceals no or every sample of a window is `make_mask`'s DataError)."""
    mode: str = "random"       # "random" | "extended"
    ratio: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "extended"):
            raise ConfigError(f"unknown mask mode {self.mode!r}")
        if not 0.0 < self.ratio < 1.0:
            raise ConfigError("mask ratio must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("mask seed must be >= 0")


_UINT64 = (1 << 64) - 1


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mix (Steele et al., OOPSLA 2014), in place on a
    uint64 array, wrapping mod 2**64."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _mix_int(h: np.ndarray, value: int) -> np.ndarray:
    """Mix a non-negative Python int of any size into the keys h, one 64-bit
    limb at a time (the low limb first; 0 is one limb)."""
    value = int(value)
    while True:
        h = _splitmix64(h ^ np.uint64(value & _UINT64))
        value >>= 64
        if not value:
            return h


def make_mask(spec: MaskSpec, shape: tuple[int, int], salt: int,
              window) -> np.ndarray:
    """Binary masks of one window or an int array of them, shaped
    ``np.shape(window) + (C, L)``; 0 marks a concealed position.

    Each window's key is a splitmix64 mix of (spec.seed, salt, window), and
    position (c, t) of the window gets the key mixed with ``c·L + t``: a
    counter-based stream (Salmon et al., SC 2011), so a window's mask is the
    same whatever its batch, and a batch is drawn in a few array passes.
    Random mode conceals the round(ratio·L) positions of smallest key in each
    channel; extended mode conceals one block of that length shared by every
    channel, at offset ``key mod (L - n + 1)``.
    """
    C, L = shape
    n_masked = int(round(spec.ratio * L))
    if n_masked == 0:
        raise DataError(f"ratio {spec.ratio} conceals no sample of L={L}")
    if n_masked == L:
        raise DataError(f"ratio {spec.ratio} conceals every sample of L={L}")
    window = np.asarray(window)
    keys = _mix_int(_mix_int(np.zeros(1, np.uint64), spec.seed), salt)
    keys = _splitmix64(keys ^ window.reshape(-1).astype(np.uint64))   # [N]
    if spec.mode == "random":
        positions = np.arange(C * L, dtype=np.uint64)
        element = _splitmix64(keys[:, None] ^ positions).reshape(-1, C, L)
        # splitmix64 is a bijection of uint64, so a channel's L keys are
        # distinct and exactly n_masked of them are <= its n_masked-th smallest
        kth = np.partition(element, n_masked - 1, axis=-1)[..., n_masked - 1, None]
        mask = (element > kth).astype(float)
    else:
        offset = (keys % np.uint64(L - n_masked + 1)).astype(np.int64)[:, None]
        t = np.arange(L)
        block = (t >= offset) & (t < offset + n_masked)                  # [N, L]
        mask = np.broadcast_to(~block[:, None, :], (len(keys), C, L)).astype(float)
    return mask.reshape(window.shape + (C, L))


def downsample(x: np.ndarray, r: int) -> np.ndarray:
    """Keep every r-th sample (plain decimation, no anti-alias filter)."""
    if r < 1:
        raise DataError("downsample ratio must be >= 1")
    if x.shape[-1] % r != 0:
        raise DataError(f"length {x.shape[-1]} not divisible by ratio {r}")
    return x[..., ::r]
