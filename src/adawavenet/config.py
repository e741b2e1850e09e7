"""Frozen dataclass configs, each checked when it is built, and the key=value
text format they serialize to."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .lifting import MIN_FINAL_LENGTH, final_length

TASKS = ("forecast", "impute", "superres")
INVERSE_MODES = ("tied", "learned")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
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
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.inverse_mode not in INVERSE_MODES:
            raise ConfigError(f"unknown inverse mode {self.inverse_mode!r}")
        for name, low in (("levels", 1), ("kernel_size", 1), ("n_clusters", 1),
                          ("sr_ratio", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.task == "superres" and self.input_len % self.sr_ratio != 0:
            raise ConfigError(
                f"sr_ratio {self.sr_ratio} does not divide input_len {self.input_len}")
        if self.pred_len != self.input_len:
            raise ConfigError(
                "pred_len must equal input_len (the architecture aligns analysis "
                "and synthesis coefficient lengths)")
        if self.ma_window % 2 == 0 or self.ma_window < 1:
            raise ConfigError("ma_window must be odd and >= 1")
        if self.final_len < MIN_FINAL_LENGTH:
            raise ConfigError(
                f"input_len {self.input_len} too short for {self.levels} levels")
        if not 1 <= self.heads <= self.d_model or self.d_model % self.heads != 0:
            raise ConfigError("heads must be >= 1 and divide d_model")

    @property
    def final_len(self) -> int:
        return final_length(self.input_len, self.levels)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 16
    max_epochs: int = 30
    patience: int = 3
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        for name in ("learning_rate", "clip_norm"):     # clip_norm=0: no clipping
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")


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


def read_text(path: str) -> str:
    """A settings file's text; an unreadable file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def read_items(text: str) -> list[tuple[str, str, str]]:
    """(where, key, value) for each key=value line; text after # is a comment."""
    items = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        items.append((f"line {lineno}", key, value))
    return items


def build(classes, items) -> tuple:
    """One config per class from (where, key, value) items: a key sets the
    field of its name in every class that has one, a later item overrides an
    earlier one, and a value's text is parsed by its field's type. Each class
    checks its fields when it is built, so a bad value raises here."""
    types = {"int": int, "float": float, "bool": bool, "str": str}
    kwargs = [{} for _ in classes]
    for where, key, value in items:
        targets = [(kw, types[f.type]) for cls, kw in zip(classes, kwargs)
                   for f in fields(cls) if f.name == key]
        if not targets:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            for kw, typ in targets:
                kw[key] = _coerce(str(value), typ)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None
    return tuple(cls(**kw) for cls, kw in zip(classes, kwargs))
