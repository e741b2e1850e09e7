"""Adaptive lifting blocks: split / predict / update with learnable
depthwise convolution kernels, plus the matching inverse blocks.

One level turns a length-L sequence into a half-length approximation and a
half-length detail band:

    detail  c  = odd  - tanh(W_p * even + b_p)
    approx  e' = even + tanh(W_u * c    + b_u)

With zero-initialized kernels and biases both nonlinear terms vanish, so a
freshly constructed stack is a pure polyphase decimation and the inverse is
an exact de-interleave; training then bends the wavelet away from that
starting point. Odd-length inputs are right-padded by edge replication and
the pad is cropped again on the way back.

Two reconstruction modes exist: "tied" reuses the forward kernels and is an
exact algebraic inverse (perfect reconstruction for any kernels); "learned"
uses independently trained transposed-convolution kernels.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

MIN_FINAL_LENGTH = 4


class LiftingLevel:
    """Learnable kernels for one decomposition level.

    Kernels are depthwise: one length-K filter per channel. The inverse
    kernels (``w_u_t`` etc.) are only used in learned-inverse mode.
    """

    def __init__(self, channels: int, kernel_size: int, rng: np.random.Generator | None = None):
        if kernel_size < 1:
            raise T.TensorError("kernel_size must be >= 1")
        self.channels = channels
        self.kernel_size = kernel_size

        def param(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        self.w_p = param((channels, kernel_size))
        self.b_p = param((channels,))
        self.w_u = param((channels, kernel_size))
        self.b_u = param((channels,))
        self.w_u_t = param((channels, kernel_size))
        self.b_u_t = param((channels,))
        self.w_p_t = param((channels, kernel_size))
        self.b_p_t = param((channels,))

    def parameters(self, mode: str = "learned"):
        ps = {"w_p": self.w_p, "b_p": self.b_p, "w_u": self.w_u, "b_u": self.b_u}
        if mode == "learned":
            ps.update({"w_u_t": self.w_u_t, "b_u_t": self.b_u_t,
                       "w_p_t": self.w_p_t, "b_p_t": self.b_p_t})
        return ps


class WaveletPyramid:
    def __init__(self, approx: Tensor, details: list[Tensor], pad_flags: list[bool]):
        self.approx = approx
        self.details = details
        self.pad_flags = pad_flags


def split(x: Tensor):
    """Polyphase split into even- and odd-indexed samples (L must be even)."""
    if x.shape[-1] % 2 != 0:
        raise T.TensorError("split requires an even length")
    return T.take_even(x), T.take_odd(x)


def lift_forward(x: Tensor, level: LiftingLevel):
    """One analysis step; returns (approx, detail, padded), where padded
    says whether the input needed a padding sample."""
    padded = x.shape[-1] % 2 != 0
    if padded:
        x = T.pad_edge_last(x, 1)
    even, odd = split(x)
    detail = T.sub(odd, T.tanh(T.depthwise_conv1d(even, level.w_p, level.b_p)))
    approx = T.add(even, T.tanh(T.depthwise_conv1d(detail, level.w_u, level.b_u)))
    return approx, detail, padded


def lift_inverse_tied(approx: Tensor, detail: Tensor, level: LiftingLevel,
                      padded: bool) -> Tensor:
    """Exact algebraic inverse of lift_forward using the forward kernels."""
    even = T.sub(approx, T.tanh(T.depthwise_conv1d(detail, level.w_u, level.b_u)))
    odd = T.add(detail, T.tanh(T.depthwise_conv1d(even, level.w_p, level.b_p)))
    x = T.interleave(even, odd)
    if padded:
        x = T.crop_last(x, 1)
    return x


def lift_inverse_learned(approx_hat: Tensor, detail: Tensor, level: LiftingLevel,
                         padded: bool, eq9_literal: bool = False) -> Tensor:
    """Reconstruction with independently trained transposed-conv kernels.

    ``eq9_literal`` additionally subtracts the detail band from the incoming
    approximation before the inverse update step; off by default because the
    forward pass never adds it, so the subtraction is not part of a
    consistent inverse. Kept as an experimentation toggle.
    """
    if eq9_literal:
        approx_hat = T.sub(approx_hat, detail)
    even = T.sub(approx_hat, T.tanh(
        T.depthwise_conv_transpose1d(detail, level.w_u_t, level.b_u_t)))
    odd = T.add(detail, T.tanh(
        T.depthwise_conv_transpose1d(even, level.w_p_t, level.b_p_t)))
    x = T.interleave(even, odd)
    if padded:
        x = T.crop_last(x, 1)
    return x


def analyze(x: Tensor, levels: list[LiftingLevel]) -> WaveletPyramid:
    """Apply the lifting cascade, producing the final approximation and the
    per-level detail bands."""
    n = len(levels)
    if n < 1:
        raise T.TensorError("at least one level required")
    final_len = x.shape[-1]
    for _ in range(n):
        final_len = (final_len + 1) // 2
    if final_len < MIN_FINAL_LENGTH:
        raise T.TensorError(
            f"too many levels: final length {final_len} < {MIN_FINAL_LENGTH}")
    details, flags = [], []
    cur = x
    for level in levels:
        cur, detail, padded = lift_forward(cur, level)
        details.append(detail)
        flags.append(padded)
    return WaveletPyramid(cur, details, flags)


def synthesize(pyramid: WaveletPyramid, levels: list[LiftingLevel],
               mode: str = "learned", eq9_literal: bool = False) -> Tensor:
    """Invert the cascade from the deepest level outward.

    The pyramid's approximation may be a prediction replacing the analysis
    output; the detail bands are reused unchanged.
    """
    if len(levels) != len(pyramid.details):
        raise T.TensorError("level count does not match pyramid depth")
    if mode not in ("tied", "learned"):
        raise T.TensorError(f"unknown inverse mode {mode!r}")
    cur = pyramid.approx
    for level, detail, padded in zip(reversed(levels), reversed(pyramid.details),
                                     reversed(pyramid.pad_flags)):
        if mode == "tied":
            cur = lift_inverse_tied(cur, detail, level, padded)
        else:
            cur = lift_inverse_learned(cur, detail, level, padded,
                                       eq9_literal=eq9_literal)
    return cur
