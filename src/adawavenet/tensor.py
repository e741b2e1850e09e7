"""Dense float64 tensors with tape-based reverse-mode differentiation.

Only the operations the network actually uses are implemented. Everything is
numpy under the hood; gradients are hand-derived per op and validated by
finite differences in the test suite.
"""
from __future__ import annotations

import functools
import math

import numpy as np

NORM_EPS = 1e-8     # variance floor of layer_norm and of RevIN
_FLOAT64 = np.dtype(np.float64)


class TensorError(ValueError):
    pass


class NumericalError(ValueError):
    """A non-finite loss, gradient, score or prediction."""


class Tape:
    """Topologically ordered record of the ops reachable from a loss."""

    def __init__(self, nodes):
        self.nodes = nodes  # list of Tensor, parents always precede children


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad=False):
        # np.asarray would return an exact float64 ndarray unchanged; every
        # op's output is one, so it skips the call
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

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
        requires grad; intermediate nodes keep ``grad`` None. The walk frees
        the graph as it goes: a node whose closure has run drops its parents
        and its closure (now `_spent`), so reference counting frees what
        nothing else holds. A node's ``data`` is left alone."""
        if self.size != 1:
            raise TensorError("backward requires a scalar loss")
        tape = self.build_tape().nodes
        if any(node._backward is _spent for node in tape):
            _spent(None)
        grads = {id(self): np.ones_like(self.data)}
        while tape:
            node = tape.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg
            node._parents, node._backward = (), _spent


def _spent(g):
    """The closure of a node whose backward has run."""
    raise TensorError("backward called twice on a consumed tape")


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
    if _recording:
        for p in parents:   # any() over a generator costs more than a small op
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
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


def mean(a):
    """Mean over the last axis, which is kept with length 1."""
    n = a.shape[-1]
    return _make(_mean_last(a.data), (a,),
                 lambda g: (np.broadcast_to(g, a.shape) / n,))


def _mean_last(a):
    """a.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's
    Python-level wrapper: the same sum, divided by the count."""
    return a.sum(axis=-1, keepdims=True) / a.shape[-1]


def tsum(a):
    """Sum of every element, as a scalar."""
    def backward(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(a.data.sum(), (a,), backward)


def mse(pred, target, mask=None, count=None):
    """Mean squared error; with a mask Tensor of 0s and 1s the average runs
    over the mask==1 positions only, and an empty mask is an error. The sum
    is divided by ``count``, by default the number of positions scored here
    (the size, or the mask's sum): slices of a batch that each pass the
    batch's count add up, loss and gradient, to the batch's mean."""
    if pred.shape != target.shape:
        raise TensorError(f"mse shape mismatch {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    m = 1.0 if mask is None else mask.data
    denom = count if count is not None else diff.size if mask is None else m.sum()
    if denom == 0:
        raise TensorError("mse mask is empty")
    val = (diff * diff if mask is None else m * diff * diff).sum() / denom

    def backward(g):   # recomputes the difference from the parents' data
        gp = g * 2.0 * m * (pred.data - target.data) / denom
        return (gp if pred.requires_grad else None,
                -gp if target.requires_grad else None)

    return _make(val, (pred, target), backward)


# -- linear algebra ----------------------------------------------------------

def matmul(a, b):
    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad and b.data.ndim == 2:
            # the weight gradient summed over every leading axis in one GEMM
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    if b.data.ndim == 2:   # one GEMM, not one per leading index of a
        out = (a.data.reshape(-1, a.shape[-1]) @ b.data).reshape(a.shape[:-1] + b.shape[1:])
    else:
        out = a.data @ b.data
    return _make(out, (a, b), backward)


# -- shape manipulation ------------------------------------------------------

def reshape(a, shape):
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    return _make(a.data.transpose(axes), (a,),
                 lambda g: (g.transpose(np.argsort(axes)),))


def _take_phase(a, phase):
    """Samples phase, phase + 2, ... along the last axis. The length is even:
    `lifting.lift_forward`, the only caller, pads an odd one first, so the
    two phases have equal lengths."""
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
    """Merge two sequences of equal shape back into one: out[2n]=even[n],
    out[2n+1]=odd[n]."""
    out = np.empty(even.shape[:-1] + (2 * even.shape[-1],))
    out[..., 0::2] = even.data
    out[..., 1::2] = odd.data
    return _make(out, (even, odd), lambda g: (g[..., 0::2], g[..., 1::2]))


def pad_edge_last(a, n):
    """Right-pad the last axis by replicating the final sample n >= 1 times."""
    pad = np.repeat(a.data[..., -1:], n, axis=-1)

    def backward(g):
        out = g[..., :a.shape[-1]].copy()
        out[..., -1] += g[..., a.shape[-1]:].sum(axis=-1)
        return (out,)

    return _make(np.concatenate([a.data, pad], axis=-1), (a,), backward)


def crop_last(a, n):
    """Drop the final n >= 1 samples of the last axis."""
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


# Both convolutions are x[c] @ B_c (the transpose: x[c] @ B_c^T) with B_c the
# [L, L] band of channel c's kernel. The product has two implementations with
# the same signature: a sliding-window einsum at O(N C L K), and a batched
# GEMM with the bands at O(N C L^2) plus O(C L^2) to build them. The kernel
# gradient sums the K band diagonals of u_c^T v_c, with (u, v) = (x, g) for
# the convolution and (g, x) for its transpose.


def _window_product(a, kernels, flip):
    """a[..., C, L] times each channel's band (flip: its transpose), as a
    correlation over the [N, C, L, K] sliding windows of the zero-padded
    input, N the product of the leading axes."""
    pl, pr = _pads(kernels.shape[1])
    if flip:
        kernels, pl, pr = kernels[:, ::-1], pr, pl
    win = _windows(a, kernels.shape[1], pl, pr)
    return np.einsum("nclk,ck->ncl", win, kernels).reshape(a.shape)


def _windows(a, K, pl, pr):
    """Read-only [N, C, L, K] sliding windows of a[..., C, L] zero-padded by (pl, pr)."""
    a = a.reshape((-1,) + a.shape[-2:])
    ap = np.zeros(a.shape[:-1] + (a.shape[-1] + pl + pr,))
    ap[..., pl:pl + a.shape[-1]] = a
    # the ndarray constructor over ap's buffer: the view `as_strided` makes,
    # without its Python-level wrapper
    win = np.ndarray(a.shape + (K,), np.float64, ap, 0, ap.strides + ap.strides[-1:])
    win.flags.writeable = False
    return win


def _band_product(a, kernels, flip):
    """a[..., C, L] times each channel's band (flip: its transpose), as one
    batched GEMM. The bands are built anew on each call, so a graph keeps no
    [C, L, L] array alive."""
    out = np.empty(a.shape)
    np.matmul(_channel_major(a), _bands(kernels, a.shape[-1], flip),
              out=_channel_major(out))
    return out


def _kernel_grad(u, v, K):
    """Diagonal sums of u_c^T v_c for u, v [..., C, L] as one batched GEMM
    and one GEMM against the one-hot map of the band diagonals: [C, K]."""
    C, L = u.shape[-2:]
    M = _channel_major(u).swapaxes(1, 2) @ _channel_major(v)
    return M.reshape(C, L * L) @ _band_taps(L, K)


def _channel_major(a):
    """View of a[..., C, L] as [C, N, L]."""
    return a.reshape((-1,) + a.shape[-2:]).swapaxes(0, 1)


@functools.lru_cache(maxsize=16)
def _band_index(L, K):
    """Read-only [L, L] index into a kernel row with one zero appended:
    i - t + (K-1)//2 inside the band, K (the zero) outside it."""
    t = np.arange(L)
    idx = t[:, None] - t + (K - 1) // 2
    idx[(idx < 0) | (idx >= K)] = K
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=16)
def _band_taps(L, K):
    """Read-only [L*L, K] one-hot map from the entries of an [L, L] band to
    its K taps: a product with it sums each band diagonal."""
    H = (_band_index(L, K).reshape(-1, 1) == np.arange(K)).astype(np.float64)
    H.flags.writeable = False
    return H


def _bands(kernels, L, flip):
    """[C, L, L] bands B with (x @ B[c])[t] = sum_k kernels[c, k] *
    x[t + k - (K-1)//2], x zero outside [0, L): the correlation as a matrix.
    flip gathers each B[c]^T instead, as a contiguous array."""
    row = np.zeros((kernels.shape[0], kernels.shape[1] + 1))
    row[:, :-1] = kernels
    idx = _band_index(L, kernels.shape[1])
    return row.take(idx.T if flip else idx, axis=1)


def _depthwise(x, kernels, bias, transpose):
    """x[..., C, L] times each channel's band (transpose: its transpose),
    plus bias. The bands run once the batch pays for building them, N*K >= L
    with N the product of the leading axes; a smaller batch runs the
    sliding-window einsum. The rule was set from the C=321 crossover at
    L <= 48: at N=1 the bands lose at C=321, L=6, and longer windows are
    unmeasured. The kernel gradient always runs as GEMMs: a backward pass
    runs in training, whose batches are on the band side."""
    K = kernels.shape[1]
    banded = math.prod(x.shape[:-2]) * K >= x.shape[-1]
    product = _band_product if banded else _window_product
    out = product(x.data, kernels.data, transpose)
    out += bias.data[:, None]

    def backward(g):
        u, v = (g, x.data) if transpose else (x.data, g)
        return (product(g, kernels.data, not transpose) if x.requires_grad else None,
                _kernel_grad(u, v, K),
                g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,)))

    return _make(out, (x, kernels, bias), backward)


def depthwise_conv1d(x, kernels, bias):
    """Per-channel cross-correlation plus a per-channel bias: x[..., C, L],
    kernels[C, K], bias[C] -> [..., C, L].

    Even K is allowed; the zero padding is then asymmetric ((K-1)//2 left,
    K//2 right), which keeps the map linear and exactly invertible inside the
    lifting blocks.
    """
    return _depthwise(x, kernels, bias, False)


def depthwise_conv_transpose1d(x, kernels, bias):
    """Adjoint of depthwise_conv1d under the same padding convention: the
    correlation with the kernel reversed and the pads swapped."""
    return _depthwise(x, kernels, bias, True)


def lifting_filter(x, kernels, bias, transpose):
    """tanh(depthwise_conv1d(x, kernels, bias)) (transpose: of
    depthwise_conv_transpose1d) as one node with parents (x, kernels, bias):
    its backward runs the tanh's closure, then the convolution's, so the
    graph keeps the tanh's output and not the convolution's."""
    conv = depthwise_conv_transpose1d if transpose else depthwise_conv1d
    pre = conv(x, kernels, bias)
    act = tanh(pre)
    inner, outer = pre._backward, act._backward
    return _make(act.data, (x, kernels, bias), lambda g: inner(*outer(g)))


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
    C, L = x.shape[-2:]
    k, _, Lp = weights.shape
    members = [np.flatnonzero(assignments == j) for j in range(k)]
    if sum(ch.size for ch in members) != C:   # a channel is in no cluster
        raise TensorError(f"grouped_linear: assignments must lie in [0, {k})")
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


def layer_norm(x, scale, shift):
    """Normalize the last axis to zero mean / unit variance, then affine.
    The closure keeps only the [..., 1] mean and inverse deviation: the
    backward recomputes the normalized input from x, bitwise the forward's."""
    mu = _mean_last(x.data)
    xc = x.data - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    out = xc * inv * scale.data + shift.data

    def backward(g):
        xn = (x.data - mu) * inv
        gxn = g * scale.data
        gx = inv * (gxn - _mean_last(gxn) - xn * _mean_last(gxn * xn))
        gscale = _unbroadcast(g * xn, scale.shape)
        gshift = _unbroadcast(g, shift.shape)
        return (gx, gscale, gshift)

    return _make(out, (x, scale, shift), backward)


# -- attention ---------------------------------------------------------------

def attention(q, k, v, rows):
    """softmax(q kᵀ) v for q, k [N..., C, d] and v [N..., C, dv]: one [C, C]
    score matrix per index of the leading axes N, run in blocks of at most
    ``rows`` of them, each a view of the inputs (`_boxes`). A block's scores
    go through `softmax` and are dropped: the graph keeps no [C, C] array,
    and the backward recomputes each block's weights, bitwise, by the same
    GEMM, whose scores it drops once `softmax` returns. A block runs the
    GEMMs of ``softmax(q @ kᵀ) @ v`` in those ops' operand order; with
    ``rows`` at least the matrix count it is those ops. The output takes v's
    memory layout: for v a [B, H, C, dh] view of a [B, C, d] array, the
    heads merge back into [B, C, d] by a view."""
    lead = q.shape[:-2]
    boxes = _boxes(lead, rows)
    out = np.empty_like(v.data)

    def weights(at, record):   # the block's softmax(q kᵀ), with its closure if record
        global _recording   # the recompute records also in a backward under no_grad
        scores = q.data[at] @ np.swapaxes(k.data[at], -1, -2)
        saved, _recording = _recording, record
        try:
            block = softmax(Tensor(scores, record), axis=-1)
        finally:
            _recording = saved
        block._parents = ()   # its closure reads only the weights: drop the scores
        return block

    for at in boxes:
        np.matmul(weights(at, False).data, v.data[at], out=out[at])

    def backward(g):
        gq, gv = (np.empty(t.shape) if t.requires_grad else None for t in (q, v))
        # the gradient of kᵀ, transposed on return as the composed ops'
        # gradient is, so that the ops below it round alike
        gkt = np.empty(lead + k.shape[:-3:-1]) if k.requires_grad else None
        for at in boxes:
            block, gb = weights(at, True), g[at]
            if gv is not None:
                np.matmul(np.swapaxes(block.data, -1, -2), gb, out=gv[at])
            (gs,) = block._backward(gb @ np.swapaxes(v.data[at], -1, -2))
            if gq is not None:
                np.matmul(gs, k.data[at], out=gq[at])
            if gkt is not None:
                np.matmul(np.swapaxes(q.data[at], -1, -2), gs, out=gkt[at])
        return gq, None if gkt is None else np.swapaxes(gkt, -1, -2), gv

    return _make(out, (q, k, v), backward)


def _boxes(lead, rows):
    """Basic indices that cut the leading axes ``lead``, in order, into boxes
    of at most ``rows`` entries: runs of whole sub-arrays along the first
    axis, or, if a sub-array has more entries, the boxes of each in turn."""
    inner = math.prod(lead[1:])
    if rows >= inner:
        step = rows // inner
        return [(slice(s, s + step),) for s in range(0, lead[0], step)]
    return [(i,) + box for i in range(lead[0]) for box in _boxes(lead[1:], rows)]
