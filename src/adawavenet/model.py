"""The assembled network: decomposition, lifting cascade, channel attention,
inverse cascade, grouped linear trend head, optional RevIN, and the
checkpoint format.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import tensor as T
from .attention import AttentionHead
from .config import ModelConfig, build, read_items, to_text
from .data import DataError
from .decompose import decompose
from .grouped import GroupedLinear
from .lifting import LiftingLevel, analyze, synthesize
from .tensor import Tensor

CHECKPOINT_MAGIC = b"AWN1"
CHECKPOINT_VERSION = 1


class RevIN:
    """Reversible per-instance normalization with a learnable affine."""

    def __init__(self, channels: int):
        self.scale = Tensor(np.ones((channels, 1)), requires_grad=True)
        self.shift = Tensor(np.zeros((channels, 1)), requires_grad=True)

    def parameters(self):
        return {"scale": self.scale, "shift": self.shift}

    def normalize(self, x: Tensor):
        mu = T.mean(x)
        centered = T.sub(x, mu)
        sd = T.sqrt(T.add(T.mean(T.mul(centered, centered)), Tensor(T.NORM_EPS)))
        xn = T.add(T.mul(T.div(centered, sd), self.scale), self.shift)
        return xn, (mu, sd)

    def denormalize(self, y: Tensor, stats):
        mu, sd = stats
        return T.add(T.mul(T.div(T.sub(y, self.shift), self.scale), sd), mu)


class AdaWaveNet:
    def __init__(self, config: ModelConfig, channels: int,
                 assignments: np.ndarray | None = None):
        """assignments: an int array of each channel's trend cluster in
        [0, n_clusters), length ``channels``; None puts every channel in
        cluster 0 and is for n_clusters == 1. `train.build_model` fits them
        when n_clusters > 1, and `restore_model` reads them."""
        self.config = config
        self.channels = channels
        rng = np.random.default_rng(config.seed)
        if assignments is None:
            assignments = np.zeros(channels, dtype=int)
        self.levels = [LiftingLevel(channels, config.kernel_size)
                       for _ in range(config.levels)]
        self.head = AttentionHead(config.final_len, d_model=config.d_model,
                                  heads=config.heads, rng=rng)
        self.trend_head = GroupedLinear(assignments, config.n_clusters,
                                        config.input_len, config.pred_len)
        self.revin = RevIN(channels) if config.revin else None

    # -- parameters ----------------------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        groups = [(f"lifting.{i}", level.parameters(self.config.inverse_mode))
                  for i, level in enumerate(self.levels)]
        groups += [("attention", self.head.parameters()),
                   ("trend", self.trend_head.parameters())]
        if self.revin is not None:
            groups.append(("revin", self.revin.parameters()))
        return {f"{prefix}.{name}": p for prefix, group in groups
                for name, p in group.items()}

    # -- forward -------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """x: [B, C, L] -> [B, C, L_p]."""
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != self.channels or x.shape[2] != cfg.input_len:
            raise T.TensorError(
                f"expected input [B, {self.channels}, {cfg.input_len}], got {x.shape}")
        if self.revin is not None:
            x, stats = self.revin.normalize(x)
        parts = decompose(x, cfg.ma_window)
        # the trend head runs first, so that under no_grad the normalized
        # input and the trend are freed before the lifting cascade runs, and
        # the seasonal part once the cascade has read it
        trend_hat = self.trend_head.project_trend(parts.trend)
        seasonal = parts.seasonal
        del x, parts
        approx, details, pad_flags = analyze(seasonal, self.levels)
        del seasonal
        seasonal_hat = synthesize(self.head.project_approximation(approx), details,
                                  pad_flags, self.levels, cfg.inverse_mode)
        out = T.add(seasonal_hat, trend_hat)
        if self.revin is not None:
            out = self.revin.denormalize(out, stats)
        return out


def zoh_upsample(x_low: np.ndarray, r: int) -> np.ndarray:
    """Repeat each low-resolution sample r times along the last axis."""
    return np.repeat(x_low, r, axis=-1)


# -- checkpoints -------------------------------------------------------------

def save_checkpoint(path: str, config: ModelConfig, arrays: dict[str, np.ndarray]):
    """Binary format: magic, version u32, length-prefixed config text, then
    count-prefixed named arrays (name, rank, dims, little-endian f64 data)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        text = to_text(config).encode("utf-8")
        fh.write(struct.pack("<I", len(text)))
        fh.write(text)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())


class _Reader:
    """Bounds-checked reads from a checkpoint held in memory: a read past the
    end raises DataError instead of returning short data."""

    def __init__(self, data: bytes, path: str):
        self.data, self.pos, self.path = data, 0, path

    def take(self, n: int) -> bytes:
        if n > len(self.data) - self.pos:
            raise DataError(f"{self.path}: checkpoint truncated")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str):
    """Returns (config, arrays); raises DataError for an unreadable or
    malformed file: wrong magic or version, a cut-off field, bad text, an
    unknown key, or trailing bytes. Headers written while ModelConfig had
    eq9_literal carry ``eq9_literal=False``, which is dropped; at any other
    value it is an unknown key."""
    try:
        with open(path, "rb") as fh:
            r = _Reader(fh.read(), path)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    text = r.take(r.u32())
    try:
        items = [item for item in read_items(text.decode("utf-8"))
                 if item[1:] != ("eq9_literal", "False")]
        config = build((ModelConfig,), items)[0]
    except ValueError as exc:       # bad UTF-8, unknown key, bad value
        raise DataError(f"{path}: bad checkpoint config: {exc}") from exc
    arrays = {}
    for _ in range(r.u32()):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: bad array name in checkpoint") from exc
        shape = tuple(int(d) for d in np.frombuffer(r.take(4 * r.u32()), dtype="<u4"))
        data = r.take(8 * math.prod(shape))
        try:
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:   # an empty array with an unrepresentable shape
            raise DataError(f"{path}: bad shape {shape} for {name!r}") from exc
    if r.pos != len(r.data):
        raise DataError(f"{path}: trailing bytes after the last array")
    return config, arrays


def model_state(model: AdaWaveNet, norm_mean, norm_std) -> dict[str, np.ndarray]:
    arrays = {name: p.data for name, p in model.parameters().items()}
    arrays["clustering.assignments"] = model.trend_head.assignments.astype(float)
    arrays["norm.mean"] = np.asarray(norm_mean, dtype=float)
    arrays["norm.std"] = np.asarray(norm_std, dtype=float)
    return arrays


def restore_model(config: ModelConfig, arrays: dict[str, np.ndarray]) -> AdaWaveNet:
    """Rebuild a model from checkpoint arrays; a missing, mis-shaped or
    non-finite parameter or invalid cluster assignments raise DataError.
    Arrays the model does not read are ignored."""
    if "clustering.assignments" not in arrays:
        raise DataError("checkpoint missing array 'clustering.assignments'")
    assignments = arrays["clustering.assignments"]
    if assignments.ndim != 1 or not np.all(np.isin(assignments,
                                                   np.arange(config.n_clusters))):
        raise DataError(f"checkpoint cluster assignments are not integers in "
                        f"[0, {config.n_clusters})")
    model = AdaWaveNet(config, channels=len(assignments),
                       assignments=assignments.astype(int))
    for name, p in model.parameters().items():
        if name not in arrays:
            raise DataError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != p.data.shape:
            raise DataError(f"checkpoint shape mismatch for {name!r}")
        if not np.all(np.isfinite(arrays[name])):
            raise DataError(f"checkpoint parameter {name!r} is not finite")
        p.data[...] = arrays[name]
    return model
