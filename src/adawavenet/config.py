"""Dataclass configs and the key=value text format they serialize to."""
from __future__ import annotations

from dataclasses import dataclass, fields

TASKS = ("forecast", "impute", "superres")
INVERSE_MODES = ("tied", "learned")


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    levels: int = 4
    kernel_size: int = 7
    n_clusters: int = 1
    ma_window: int = 25
    d_model: int = 128
    heads: int = 4
    revin: bool = True
    inverse_mode: str = "learned"
    task: str = "forecast"
    input_len: int = 96
    pred_len: int = 96
    sr_ratio: int = 1
    eq9_literal: bool = False
    seed: int = 0

    def validate(self) -> "ModelConfig":
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.inverse_mode not in INVERSE_MODES:
            raise ConfigError(f"unknown inverse mode {self.inverse_mode!r}")
        for name in ("levels", "kernel_size", "n_clusters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.pred_len != self.input_len:
            raise ConfigError(
                "pred_len must equal input_len (the architecture aligns analysis "
                "and synthesis coefficient lengths)")
        if self.ma_window % 2 == 0 or self.ma_window < 1:
            raise ConfigError("ma_window must be odd and >= 1")
        if self.final_len < 4:
            raise ConfigError(
                f"input_len {self.input_len} too short for {self.levels} levels")
        if not 1 <= self.heads <= self.d_model or self.d_model % self.heads != 0:
            raise ConfigError("heads must be >= 1 and divide d_model")
        return self

    @property
    def final_len(self) -> int:
        n = self.input_len
        for _ in range(self.levels):
            n = (n + 1) // 2
        return n


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 16
    max_epochs: int = 30
    patience: int = 3
    seed: int = 0
    clip_norm: float = 5.0

    def validate(self) -> "TrainConfig":
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        return self


def _coerce(value: str, typ):
    if typ is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {value!r}")
    return typ(value)


def to_text(cfg) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def from_text(cls, text: str):
    known = {f.name: f.type for f in fields(cls)}
    types = {"int": int, "float": float, "bool": bool, "str": str}
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ = known[key]
        if isinstance(typ, str):
            typ = types[typ]
        try:
            kwargs[key] = _coerce(value, typ)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return cls(**kwargs).validate()


def load_mixed_config(path: str):
    """Read a key=value file holding both model and train settings."""
    model_keys = {f.name for f in fields(ModelConfig)}
    train_keys = {f.name for f in fields(TrainConfig)}
    model_lines, train_lines = [], []
    with open(path) as fh:
        for line in fh:
            stripped = line.split("#", 1)[0].strip()
            key = stripped.split("=", 1)[0].strip() if "=" in stripped else None
            if key is not None and key not in model_keys | train_keys:
                raise ConfigError(f"unknown config key {key!r}")
            # blank lines stand in for the other class's keys, so from_text
            # reports line numbers of the file
            model_lines.append(stripped if key in model_keys else "")
            train_lines.append(stripped if key in train_keys else "")
    return (from_text(ModelConfig, "\n".join(model_lines)),
            from_text(TrainConfig, "\n".join(train_lines)))
