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

One inverse step serves two reconstruction modes that differ only in the
convolution and the kernels: "tied" reuses the forward kernels and is an
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

    def __init__(self, channels: int, kernel_size: int):
        if kernel_size < 1:
            raise T.TensorError("kernel_size must be >= 1")
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


def lift_inverse(approx: Tensor, detail: Tensor, level: LiftingLevel,
                 padded: bool, mode: str, eq9_literal: bool = False) -> Tensor:
    """One synthesis step: undo the update step, then the predict step.

    "tied" correlates with the forward kernels (``depthwise_conv1d``) and is
    the exact algebraic inverse of lift_forward; "learned" uses the
    independently trained ``*_t`` kernels with ``depthwise_conv_transpose1d``.

    ``eq9_literal`` (learned mode only) additionally subtracts the detail band
    from the incoming approximation before the inverse update step; off by
    default because the forward pass never adds it, so the subtraction is not
    part of a consistent inverse. Kept as an experimentation toggle.
    """
    if mode == "tied":
        conv = T.depthwise_conv1d
        w_u, b_u, w_p, b_p = level.w_u, level.b_u, level.w_p, level.b_p
    elif mode == "learned":
        conv = T.depthwise_conv_transpose1d
        w_u, b_u, w_p, b_p = level.w_u_t, level.b_u_t, level.w_p_t, level.b_p_t
        if eq9_literal:
            approx = T.sub(approx, detail)
    else:
        raise T.TensorError(f"unknown inverse mode {mode!r}")
    even = T.sub(approx, T.tanh(conv(detail, w_u, b_u)))
    odd = T.add(detail, T.tanh(conv(even, w_p, b_p)))
    x = T.interleave(even, odd)
    if padded:
        x = T.crop_last(x, 1)
    return x


def final_length(length: int, n_levels: int) -> int:
    """Length of the approximation after n_levels >= 0 lifting levels, each of
    which pads an odd length by one sample: ceil(length / 2**n_levels)."""
    return ((length - 1) >> n_levels) + 1


def check_depth(length: int, n_levels: int):
    """Raise TensorError unless 1 <= n_levels and n_levels halvings of a
    length-``length`` sequence leave at least MIN_FINAL_LENGTH samples."""
    if n_levels < 1:
        raise T.TensorError("at least one level required")
    final_len = final_length(length, n_levels)
    if final_len < MIN_FINAL_LENGTH:
        raise T.TensorError(
            f"too many levels: final length {final_len} < {MIN_FINAL_LENGTH}")


def analyze(x: Tensor, levels: list[LiftingLevel]) -> WaveletPyramid:
    """Apply the lifting cascade, producing the final approximation and the
    per-level detail bands."""
    check_depth(x.shape[-1], len(levels))
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
    cur = pyramid.approx
    for level, detail, padded in zip(reversed(levels), reversed(pyramid.details),
                                     reversed(pyramid.pad_flags)):
        cur = lift_inverse(cur, detail, level, padded, mode, eq9_literal)
    return cur
