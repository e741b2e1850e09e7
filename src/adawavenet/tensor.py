"""Dense float64 tensors with tape-based reverse-mode differentiation.

Only the operations the network actually uses are implemented. Everything is
numpy under the hood; gradients are hand-derived per op and validated by
finite differences in the test suite.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TensorError(ValueError):
    pass


class Tape:
    """Topologically ordered record of the ops reachable from a loss."""

    def __init__(self, nodes):
        self.nodes = nodes  # list of Tensor, parents always precede children


class Tensor:
    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._consumed = False

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------
    def build_tape(self):
        """Topologically sort the graph below this tensor (depth-first
        postorder, parents in order). Iterative, so that no self-referencing
        closure keeps the graph alive after the caller drops it."""
        order, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        return Tape(order)

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every leaf that
        requires grad; intermediate nodes keep ``grad`` None."""
        if self.size != 1:
            raise TensorError("backward requires a scalar loss")
        tape = self.build_tape()
        for node in tape.nodes:
            if node._consumed:
                raise TensorError("backward called twice on a consumed tape")
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(tape.nodes):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            node._consumed = True
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg


_recording = True   # False inside no_grad


class no_grad:
    """Context in which no op records its parents or a backward closure: the
    outputs are constants, and each intermediate is freed once nothing refers
    to it. The arithmetic is unchanged. Nests; the previous mode comes back
    on exit, also after an exception."""

    def __enter__(self):
        global _recording
        self._saved, _recording = _recording, False
        return self

    def __exit__(self, *exc):
        global _recording
        _recording = self._saved
        return False


def _make(data, parents, backward):
    """The op's output tensor. A backward closure returns one gradient per
    parent, or None for a parent that does not require one."""
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise -------------------------------------------------------------

def add(a, b):
    return _make(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape) if a.requires_grad else None,
        _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a, b):
    return _make(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape) if a.requires_grad else None,
        _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a, b):
    return _make(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a, b):
    return _make(a.data / b.data, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
        _unbroadcast(-g * a.data / b.data ** 2, b.shape) if b.requires_grad else None))


def sqrt(a):
    y = np.sqrt(a.data)
    return _make(y, (a,), lambda g: (g * 0.5 / y,))


def tanh(a):
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def softmax(a, axis=-1):
    s = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)

    def backward(g):
        gs = g * s
        inner = gs.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=gs)
        gs *= s
        return (gs,)

    return _make(s, (a,), backward)


def mean(a, axis=None, keepdims=False):
    y = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size if axis is None else a.data.size // y.size

    def backward(g):
        g = np.asarray(g)
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return _make(y, (a,), backward)


def tsum(a):
    """Sum of every element, as a scalar."""
    def backward(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(a.data.sum(), (a,), backward)


def mse(pred, target, mask=None):
    """Mean squared error; with a binary mask the average runs over mask==1
    positions only, and an empty mask is an error."""
    if pred.shape != target.shape:
        raise TensorError(f"mse shape mismatch {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    if mask is not None:
        m = mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)
        if not np.all((m == 0) | (m == 1)):
            raise TensorError("mse mask must be binary")
        denom = m.sum()
        if denom == 0:
            raise TensorError("mse mask is empty")
    else:
        m = np.ones_like(diff)
        denom = m.size
    val = (m * diff * diff).sum() / denom

    def backward(g):
        gp = g * 2.0 * m * diff / denom
        return (gp if pred.requires_grad else None,
                -gp if target.requires_grad else None)

    return _make(val, (pred, target), backward)


# -- linear algebra ----------------------------------------------------------

def matmul(a, b):
    def backward(g):
        if b.data.ndim == 1:
            raise TensorError("1-D right operands unsupported")
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad and b.data.ndim == 2:
            # the weight gradient summed over every leading axis in one GEMM
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(a.data @ b.data, (a, b), backward)


def linear(x, weight, bias=None):
    """Affine map over the trailing dimension: x[..., D_in] -> [..., D_out]."""
    if x.shape[-1] != weight.shape[0]:
        raise TensorError(
            f"linear: trailing dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    y = matmul(x, weight)
    if bias is not None:
        y = add(y, bias)
    return y


# -- shape manipulation ------------------------------------------------------

def reshape(a, shape):
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def _take_phase(a, phase):
    """Samples phase, phase + 2, ... along the last axis, which must have
    even length."""
    if a.shape[-1] % 2 != 0:
        raise TensorError("polyphase split requires an even last dimension")

    def backward(g):
        out = np.zeros(a.shape)
        out[..., phase::2] = g
        return (out,)

    return _make(a.data[..., phase::2], (a,), backward)


def take_even(a):
    return _take_phase(a, 0)


def take_odd(a):
    return _take_phase(a, 1)


def interleave(even, odd):
    """Merge two sequences back into one: out[2n]=even[n], out[2n+1]=odd[n]."""
    if even.shape != odd.shape:
        raise TensorError("interleave operands must have equal shapes")
    out = np.empty(even.shape[:-1] + (2 * even.shape[-1],))
    out[..., 0::2] = even.data
    out[..., 1::2] = odd.data
    return _make(out, (even, odd), lambda g: (g[..., 0::2], g[..., 1::2]))


def pad_edge_last(a, n):
    """Right-pad the last axis by replicating the final sample n times."""
    if n == 0:
        return a
    pad = np.repeat(a.data[..., -1:], n, axis=-1)

    def backward(g):
        out = g[..., :a.shape[-1]].copy()
        out[..., -1] += g[..., a.shape[-1]:].sum(axis=-1)
        return (out,)

    return _make(np.concatenate([a.data, pad], axis=-1), (a,), backward)


def crop_last(a, n):
    """Drop the final n samples of the last axis."""
    if n == 0:
        return a
    L = a.shape[-1] - n

    def backward(g):
        out = np.zeros(a.shape)
        out[..., :L] = g
        return (out,)

    return _make(a.data[..., :L], (a,), backward)


# -- convolutions ------------------------------------------------------------
# All convolutions are stride-1, "same" length, zero padded. For kernel size
# K the left pad is (K-1)//2 and the right pad is K//2 (symmetric for odd K).


def _pads(K):
    return (K - 1) // 2, K - 1 - (K - 1) // 2


def _zero_pad_last(x, pl, pr):
    xp = np.zeros(x.shape[:-1] + (x.shape[-1] + pl + pr,))
    xp[..., pl:pl + x.shape[-1]] = x
    return xp


def _depthwise_correlate(x, kernels, pl, pr):
    """Zero-pad x[..., C, L] by (pl, pr) and correlate each channel with its
    row of kernels[C, K]; returns the output and the [N, C, L, K] window view
    of the padded input, N the product of the leading axes."""
    xp = _zero_pad_last(x.reshape((-1,) + x.shape[-2:]), pl, pr)
    win = sliding_window_view(xp, kernels.shape[1], axis=-1)
    return np.einsum("nclk,ck->ncl", win, kernels).reshape(x.shape), win


def depthwise_conv1d(x, kernels, bias=None):
    """Per-channel cross-correlation as one sliding-window einsum:
    x[..., C, L], kernels[C, K] -> [..., C, L].

    Even K is allowed; the zero padding is then asymmetric ((K-1)//2 left,
    K//2 right), which keeps the map linear and exactly invertible inside the
    lifting blocks.
    """
    C, K = kernels.shape
    if x.shape[-2] != C:
        raise TensorError(f"depthwise_conv1d: channels {x.shape[-2]} != {C}")
    pl, pr = _pads(K)
    out, win = _depthwise_correlate(x.data, kernels.data, pl, pr)
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        gx = None
        if x.requires_grad:
            gx, _ = _depthwise_correlate(g, kernels.data[:, ::-1], pr, pl)
        grads = [gx, np.einsum("ncl,nclk->ck", g.reshape(win.shape[:-1]), win)]
        if bias is not None:
            grads.append(g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,)))
        return tuple(grads)

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return _make(out, parents, backward)


def depthwise_conv_transpose1d(x, kernels, bias=None):
    """Adjoint of depthwise_conv1d under the same padding convention: the same
    sliding-window correlation with the kernel reversed and the pads swapped."""
    C, K = kernels.shape
    if x.shape[-2] != C:
        raise TensorError(f"depthwise_conv_transpose1d: channels {x.shape[-2]} != {C}")
    pl, pr = _pads(K)
    out, _ = _depthwise_correlate(x.data, kernels.data[:, ::-1], pr, pl)
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        gx, win = _depthwise_correlate(g, kernels.data, pl, pr)
        grads = [gx, np.einsum("ncl,nclk->ck", x.data.reshape(win.shape[:-1]), win)]
        if bias is not None:
            grads.append(g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,)))
        return tuple(grads)

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return _make(out, parents, backward)


@functools.lru_cache(maxsize=8)
def _moving_average_matrix(L, window):
    """Read-only [L, L] banded A with (x @ A)[..., t] the edge-replicated
    centered mean of x[..., t - half : t + half + 1]."""
    half = (window - 1) // 2
    if L == 1:
        A = np.ones((1, 1))
    else:
        # counts[i, t]: the taps of output t that read sample i; the band
        # |i - t| <= half inside, every tap clipped onto an end at rows 0, L-1
        t = np.arange(L)
        counts = (np.abs(t[:, None] - t) <= half).astype(np.float64)
        counts[0] = np.maximum(half + 1 - t, 0)
        counts[-1] = np.maximum(half + 2 - L + t, 0)
        A = counts / window
    A.flags.writeable = False
    return A


def moving_average(x, window):
    """Centered moving average over the last axis with edge replication, as
    one product with a cached banded [L, L] matrix."""
    if window % 2 == 0 or window < 1:
        raise TensorError("moving_average window must be odd and >= 1")
    L = x.shape[-1]
    A = _moving_average_matrix(L, window)
    out = (x.data.reshape(-1, L) @ A).reshape(x.shape)

    def backward(g):
        return ((g.reshape(-1, L) @ A.T).reshape(x.shape),)

    return _make(out, (x,), backward)


def grouped_linear_op(x, weights, biases, assignments):
    """Per-cluster affine heads over the last axis, one GEMM per cluster.

    x: [..., C, L]; weights: [k, L, L_p]; biases: [k, L_p];
    assignments: int array of length C mapping channel -> cluster.
    """
    assignments = np.asarray(assignments)
    C, L = x.shape[-2:]
    k, _, Lp = weights.shape
    if assignments.shape != (C,):
        raise TensorError("grouped_linear: one assignment per channel required")
    if np.any((assignments < 0) | (assignments >= k)):
        raise TensorError(f"grouped_linear: assignments must lie in [0, {k})")
    members = [np.flatnonzero(assignments == j) for j in range(k)]
    xf = x.data.reshape(-1, C, L)
    out = np.empty(xf.shape[:-1] + (Lp,))
    for j, ch in enumerate(members):
        if ch.size:
            xj = xf[:, ch].reshape(-1, L)
            out[:, ch] = (xj @ weights.data[j] + biases.data[j]).reshape(-1, ch.size, Lp)

    def backward(g):
        gf = g.reshape(-1, C, Lp)
        gx = np.empty(xf.shape)
        gW = np.zeros(weights.shape)
        gb = np.zeros(biases.shape)
        for j, ch in enumerate(members):
            if ch.size:
                gj = gf[:, ch].reshape(-1, Lp)
                gx[:, ch] = (gj @ weights.data[j].T).reshape(-1, ch.size, L)
                gW[j] = xf[:, ch].reshape(-1, L).T @ gj
                gb[j] = gj.sum(axis=0)
        return (gx.reshape(x.shape), gW, gb)

    return _make(out.reshape(x.shape[:-1] + (Lp,)), (x, weights, biases), backward)


def layer_norm(x, scale, shift, eps=1e-8):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv
    out = xn * scale.data + shift.data

    def backward(g):
        gxn = g * scale.data
        gx = inv * (gxn - gxn.mean(axis=-1, keepdims=True)
                    - xn * (gxn * xn).mean(axis=-1, keepdims=True))
        gscale = _unbroadcast(g * xn, scale.shape)
        gshift = _unbroadcast(g, shift.shape)
        return (gx, gscale, gshift)

    return _make(out, (x, scale, shift), backward)
