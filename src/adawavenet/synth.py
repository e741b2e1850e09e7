"""Synthetic non-stationary signal generators.

Three families on t ∈ [0, 1]:

    simple      sin(2π f1 t) + sin(2π f2 t) exp(-α (t - t0)²) + β t + ε(t)
    traffic     sin(2π·24 t) + 0.5 sin(4π·24 t) + sin(2π·7 t) + 0.5 t + ε(t)
    electricity 5 sin(2π t) + 2 sin(4π t) + 3 sin(2π·365 t) + 2 t + ε(t)

f1 is set per signal; f2, α, t0 and β are the constants F2, ALPHA, T0 and
BETA. ε is Gaussian noise of standard deviation NOISE_STD. A variance shift
multiplies the noise amplitude by (1 + shift) from the onset index on; a step
change adds a constant from the onset on. Both apply to the test portion only
when the onset is set to the train/test boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError

FAMILIES = ("simple", "traffic", "electricity")
# the fixed terms of the simple family and every family's noise level
F2, ALPHA, T0, BETA = 50.0, 50.0, 0.5, 1.0
NOISE_STD = 0.1
DEFAULT_N_POINTS = 1024
DEFAULT_TRAIN_POINTS = 512


@dataclass(frozen=True)
class SynthSpec:
    """One synthetic signal; an unknown family, n_points < 2 or a negative
    seed raises ConfigError when the spec is built."""
    family: str = "simple"
    f1: float = 5.0
    variance_shift: float = 0.0   # 0, 1 or 2
    step_change: float = 0.0      # -0.5, 0 or +0.5
    shift_onset: int = DEFAULT_TRAIN_POINTS
    n_points: int = DEFAULT_N_POINTS
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        for name, low in (("n_points", 2), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")


def _clean(spec: SynthSpec, t: np.ndarray) -> np.ndarray:
    if spec.family == "simple":
        return (np.sin(2 * np.pi * spec.f1 * t)
                + np.sin(2 * np.pi * F2 * t) * np.exp(-ALPHA * (t - T0) ** 2)
                + BETA * t)
    if spec.family == "traffic":
        return (np.sin(2 * np.pi * 24 * t) + 0.5 * np.sin(4 * np.pi * 24 * t)
                + np.sin(2 * np.pi * 7 * t) + 0.5 * t)
    return (5 * np.sin(2 * np.pi * t) + 2 * np.sin(4 * np.pi * t)
            + 3 * np.sin(2 * np.pi * 365 * t) + 2 * t)


def generate(spec: SynthSpec) -> np.ndarray:
    """Noisy signal with optional variance shift / step change, shape [1, n]."""
    signal = denoised_target(spec)[0]
    rng = np.random.default_rng(spec.seed)
    eps = rng.normal(0.0, NOISE_STD, spec.n_points)
    onset = spec.shift_onset
    if spec.variance_shift:
        eps[onset:] *= 1.0 + spec.variance_shift
    signal = signal + eps
    if spec.step_change:
        signal[onset:] += spec.step_change
    return signal[None, :]


def denoised_target(spec: SynthSpec) -> np.ndarray:
    """Noise-free, shift-free reference signal, shape [1, n]."""
    t = np.linspace(0.0, 1.0, spec.n_points)
    return _clean(spec, t)[None, :]
