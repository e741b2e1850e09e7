import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from pytest import approx

import adawavenet.tensor as T
from adawavenet.tensor import Tensor, TensorError

from conftest import check_grads, composed_attention


def conv1d_oracle(x, w, b):
    """Direct triple-loop cross-correlation with symmetric zero padding."""
    C_out, C_in, K = w.shape
    L = x.shape[1]
    pad = (K - 1) // 2
    out = np.zeros((C_out, L))
    for o in range(C_out):
        for t in range(L):
            acc = b[o]
            for i in range(C_in):
                for k in range(K):
                    src = t + k - pad
                    if 0 <= src < L:
                        acc += w[o, i, k] * x[i, src]
            out[o, t] = acc
    return out


class TestDepthwiseConv:
    def test_matches_full_conv_with_diagonal_kernels(self, rng):
        x = rng.normal(size=(3, 10))
        wd = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        wf = np.zeros((3, 3, 5))
        for c in range(3):
            wf[c, c] = wd[c]
        got = T.depthwise_conv1d(Tensor(x), Tensor(wd), Tensor(b)).data
        assert got == approx(conv1d_oracle(x, wf, b))

    def test_even_kernel_supported(self, rng):
        x = rng.normal(size=(2, 8))
        w = rng.normal(size=(2, 4))
        out = T.depthwise_conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(2))).data
        assert out.shape == (2, 8)

    def test_transpose_is_adjoint(self, rng):
        for K in (3, 4, 7, 16):
            x = rng.normal(size=(2, 20))
            y = rng.normal(size=(2, 20))
            w = rng.normal(size=(2, K))
            zero = Tensor(np.zeros(2))     # the map is linear without a bias
            lhs = (T.depthwise_conv1d(Tensor(x), Tensor(w), zero).data * y).sum()
            rhs = (x * T.depthwise_conv_transpose1d(Tensor(y), Tensor(w), zero).data).sum()
            assert lhs == approx(rhs, abs=1e-10)


class TestLiftingFilter:
    """`lifting_filter` is tanh of a depthwise convolution as one node."""

    @staticmethod
    def composed(x, kernels, bias, transpose):
        conv = T.depthwise_conv_transpose1d if transpose else T.depthwise_conv1d
        return T.tanh(conv(x, kernels, bias))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("shape", [(1, 3, 12), (16, 3, 12)])   # window, bands
    def test_is_bitwise_the_composed_ops(self, rng, transpose, shape):
        arrays = [rng.normal(size=shape), rng.normal(size=(3, 5)), rng.normal(size=3)]
        weight = Tensor(rng.normal(size=shape))
        results = []
        for op in (T.lifting_filter, self.composed):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(*leaves, transpose)
            T.tsum(T.mul(out, weight)).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_one_node_keeps_not_the_convolution_output(self, rng, monkeypatch,
                                                       transpose):
        """The node's parents are the convolution's, and the convolution's
        output is freed when the op returns."""
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in [(2, 3, 12), (3, 5), (3,)])
        kept = []
        name = "depthwise_conv_transpose1d" if transpose else "depthwise_conv1d"
        conv_op = getattr(T, name)

        def conv(*args):
            pre = conv_op(*args)
            kept.append(weakref.ref(pre.data))
            return pre

        monkeypatch.setattr(T, name, conv)
        out = T.lifting_filter(x, w, b, transpose)
        assert out._parents == (x, w, b) and out._backward is not None
        assert len(out.build_tape().nodes) == 4
        assert len(kept) == 1 and kept[0]() is None

    def test_records_nothing_under_no_grad_or_with_constant_inputs(self, rng):
        arrays = [rng.normal(size=(2, 3, 12)), rng.normal(size=(3, 5)),
                  rng.normal(size=3)]
        want = T.lifting_filter(*(Tensor(a, requires_grad=True) for a in arrays), False)
        with T.no_grad():
            got = T.lifting_filter(*(Tensor(a, requires_grad=True) for a in arrays),
                                   False)
        constant = T.lifting_filter(*(Tensor(a) for a in arrays), False)
        for out in (got, constant):
            assert out._parents == () and out._backward is None
            assert not out.requires_grad
            assert np.array_equal(out.data, want.data)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_gradients_match_finite_differences(self, rng, transpose):
        target = rng.normal(size=(2, 3, 10))
        check_grads(lambda x, w, b: T.mse(T.lifting_filter(x, w, b, transpose),
                                          Tensor(target)),
                    [rng.normal(size=(2, 3, 10)), rng.normal(size=(3, 4)),
                     rng.normal(size=3)])


class TestElementwise:
    def test_tanh_zero(self):
        assert T.tanh(Tensor(0.0)).item() == 0.0

    def test_softmax_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        assert out.data == approx([1 / 3] * 3)

    def test_softmax_rows_sum_to_one(self, rng):
        out = T.softmax(Tensor(rng.normal(size=(4, 6))), axis=-1)
        assert out.data.sum(axis=-1) == approx(np.ones(4))

    def test_masked_mse_all_ones_equals_unmasked(self, rng):
        """Bitwise, loss and gradient: the unmasked branch only skips the
        product with ones."""
        p = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        t = Tensor(rng.normal(size=(3, 5)))
        full = T.mse(p, t)
        masked = T.mse(p, t, mask=Tensor(np.ones((3, 5))))
        assert masked.item() == full.item()
        g = np.array(0.7)
        assert np.array_equal(masked._backward(g)[0], full._backward(g)[0])

    def test_masked_mse_empty_mask_rejected(self, rng):
        p = Tensor(rng.normal(size=(2, 4)))
        t = Tensor(rng.normal(size=(2, 4)))
        with pytest.raises(TensorError, match="empty"):
            T.mse(p, t, mask=Tensor(np.zeros((2, 4))))

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ValueError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestBackward:
    def test_sum_grad_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        T.tsum(x).backward()
        assert x.grad == approx(np.ones((3, 4)))

    def test_mse_keeps_no_difference(self, rng):
        """A recording mse keeps its scalar, not the [B, C, L] difference:
        the backward recomputes it from the parents."""
        pred = Tensor(rng.normal(size=(4, 8, 96)), requires_grad=True)
        target = Tensor(rng.normal(size=(4, 8, 96)))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            loss = T.mse(pred, target)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert loss._backward is not None
        assert kept < 0.25 * pred.data.nbytes

    def test_mse_closed_form(self, rng):
        xv = rng.normal(size=(2, 3))
        x = Tensor(xv, requires_grad=True)
        T.mse(x, Tensor(np.zeros((2, 3)))).backward()
        assert x.grad == approx(2 * xv / xv.size)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(TensorError, match="backward requires a scalar loss"):
            T.add(x, x).backward()

    def test_backward_twice_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.mse(x, Tensor([0.0, 0.0]))
        loss.backward()
        with pytest.raises(TensorError):
            loss.backward()

    def test_composite_graph_matches_finite_differences(self, rng):
        x = rng.normal(size=(2, 8))
        w = rng.normal(size=(2, 3)) * 0.3
        wl = rng.normal(size=(8, 4)) * 0.3
        bl = rng.normal(size=4)
        tgt = rng.normal(size=(2, 4))

        def loss(xt, wt, wlt, blt):
            h = T.tanh(T.depthwise_conv1d(xt, wt, Tensor(np.zeros(2))))
            return T.mse(T.add(T.matmul(h, wlt), blt), Tensor(tgt))

        check_grads(loss, [x, w, wl, bl])

    def test_tape_topological_order(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        y = T.mse(T.tanh(x), Tensor(np.zeros(4)))
        tape = y.build_tape()
        pos = {id(t): i for i, t in enumerate(tape.nodes)}
        for t in tape.nodes:
            for p in t._parents:
                assert pos[id(p)] < pos[id(t)]

    def test_tape_is_depth_first_postorder(self):
        a = Tensor(1.0, requires_grad=True)
        b = Tensor(2.0, requires_grad=True)
        ab = T.mul(a, b)
        out = T.add(T.tanh(ab), T.sub(b, ab))
        want = [a, b, ab, out._parents[0], out._parents[1], out]
        assert [id(t) for t in out.build_tape().nodes] == [id(t) for t in want]

    def test_graph_freed_by_reference_counting(self, rng):
        """Only leaves keep a gradient, and dropping the last reference to the
        loss frees the graph without the cyclic garbage collector."""
        gc.disable()
        try:
            x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            pred = T.tanh(T.depthwise_conv1d(x, w, Tensor(np.zeros(2))))
            inner = pred._parents[0]
            loss = T.mse(pred, Tensor(np.zeros((2, 8))))
            loss.backward()
            assert x.grad is not None and w.grad is not None
            assert pred.grad is None and inner.grad is None and loss.grad is None
            ref = weakref.ref(inner)
            del pred, loss, inner
            assert ref() is None
        finally:
            gc.enable()

    def test_interior_node_freed_while_backward_runs(self, rng):
        """Once the walk has passed a node that only the graph holds, the
        node is gone before the closures nearer the leaves run."""
        seen = []

        def graph():
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            # a probe op on the leaf side: its closure records whether
            # `interior` is still alive and passes the gradient on
            first = T._make(x.data.copy(), (x,), lambda g: (seen.append(ref()) or g,))
            interior = T.tanh(first)
            ref = weakref.ref(interior)
            return x, T.tsum(T.mul(interior, interior)), ref

        gc.disable()
        try:
            x, loss, ref = graph()
            assert ref() is not None
            loss.backward()
        finally:
            gc.enable()
        assert seen == [None]
        assert x.grad is not None

    def test_backward_through_a_consumed_node_changes_no_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        y = T.tanh(x)
        T.tsum(y).backward()
        before = x.grad.copy()
        with pytest.raises(TensorError, match="consumed"):
            T.tsum(T.mul(y, w)).backward()
        assert np.array_equal(x.grad, before) and w.grad is None
        with pytest.raises(TensorError, match="consumed"):
            y._backward(np.ones(y.shape))


class TestGradChecks:
    """Per-op finite-difference checks at f64 precision."""

    @pytest.mark.parametrize("K", [3, 4, 7])
    def test_depthwise_conv1d(self, rng, K):
        x = rng.normal(size=(2, 10))
        w = rng.normal(size=(2, K))
        b = rng.normal(size=2)
        check_grads(lambda *a: T.mse(T.depthwise_conv1d(*a), Tensor(np.zeros((2, 10)))),
                    [x, w, b])

    @pytest.mark.parametrize("K", [3, 4])
    def test_depthwise_conv_transpose1d(self, rng, K):
        x = rng.normal(size=(2, 10))
        w = rng.normal(size=(2, K))
        b = rng.normal(size=2)
        check_grads(lambda *a: T.mse(T.depthwise_conv_transpose1d(*a),
                                     Tensor(np.zeros((2, 10)))), [x, w, b])

    def test_softmax(self, rng):
        x = rng.normal(size=(3, 5))
        t = rng.normal(size=(3, 5))
        check_grads(lambda xt: T.mse(T.softmax(xt, axis=-1), Tensor(t)), [x])

    def test_layer_norm(self, rng):
        x = rng.normal(size=(2, 6))
        s = rng.normal(size=6)
        h = rng.normal(size=6)
        t = rng.normal(size=(2, 6))
        check_grads(lambda *a: T.mse(T.layer_norm(*a), Tensor(t)), [x, s, h])

    def test_moving_average(self, rng):
        x = rng.normal(size=(2, 12))
        t = rng.normal(size=(2, 12))
        check_grads(lambda xt: T.mse(T.moving_average(xt, 5), Tensor(t)), [x])

    def test_interleave_and_splits(self, rng):
        x = rng.normal(size=(2, 8))
        t = rng.normal(size=(2, 8))
        check_grads(lambda xt: T.mse(T.interleave(T.take_odd(xt), T.take_even(xt)),
                                     Tensor(t)), [x])

    def test_pad_and_crop(self, rng):
        x = rng.normal(size=(2, 7))
        t = rng.normal(size=(2, 6))
        check_grads(lambda xt: T.mse(T.crop_last(T.pad_edge_last(xt, 3), 4),
                                     Tensor(t)), [x])

    def test_grouped_linear(self, rng):
        x = rng.normal(size=(2, 3, 6))
        w = rng.normal(size=(2, 6, 4))
        b = rng.normal(size=(2, 4))
        assign = np.array([0, 1, 0])
        t = rng.normal(size=(2, 3, 4))
        check_grads(lambda *a: T.mse(T.grouped_linear_op(a[0], a[1], a[2], assign),
                                     Tensor(t)), [x, w, b])

    @pytest.mark.parametrize("axes", [(2, 0, 1), (1, 2, 0, 3)])
    def test_transpose(self, rng, axes):
        """Permutations that are not their own inverse, over axes of
        distinct lengths: a backward that applied ``axes`` itself fails."""
        x = rng.normal(size=(2, 3, 4, 5)[:len(axes)])
        t = rng.normal(size=x.transpose(axes).shape)
        check_grads(lambda xt: T.mse(T.transpose(xt, axes), Tensor(t)), [x])

    def test_elementwise_suite(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        check_grads(lambda a, b: T.mse(T.mul(T.tanh(a), T.add(b, a)), Tensor(t)),
                    [x, y])
        check_grads(lambda a: T.mse(T.div(a, Tensor(np.full((3, 4), 2.0))), Tensor(t)),
                    [x])


class TestTensorConstruction:
    def test_keeps_a_float64_array_by_identity(self, rng):
        a = rng.normal(size=(2, 3))
        assert Tensor(a).data is a
        view = a.T
        assert Tensor(view).data is view

    @pytest.mark.parametrize("value", [
        [1, 2, 3], [[0.5], [1.5]], 3, 2.5, True,
        np.array([1.5, -2.25], dtype=np.float32), np.array([True, False]),
        np.array([1.0, 2.0], dtype=">f8"), np.arange(4).view(np.ndarray)],
        ids=["int-list", "nested-list", "int", "float", "bool", "float32",
             "bool-array", "big-endian", "int-array"])
    def test_converts_other_inputs_to_float64(self, value):
        t = Tensor(value)
        want = np.asarray(value, dtype=np.float64)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        assert t.data.dtype.isnative
        assert t.data.shape == want.shape and np.array_equal(t.data, want)

    def test_subclass_becomes_a_plain_ndarray(self):
        class Sub(np.ndarray):
            pass

        a = np.zeros(3).view(Sub)
        assert type(Tensor(a).data) is np.ndarray

    def test_weak_reference(self):
        t = Tensor(np.zeros(2))
        ref = weakref.ref(t)
        assert ref() is t
        del t
        assert ref() is None

    def test_undeclared_attribute_rejected(self):
        with pytest.raises(AttributeError):
            Tensor(1.0).name = "x"


class TestTransposeRoundTrip:
    @pytest.mark.parametrize("axes", [(2, 0, 1), (1, 2, 0, 3)])
    def test_backward_undoes_the_forward_bitwise(self, rng, axes):
        x = Tensor(rng.normal(size=(2, 3, 4, 5)[:len(axes)]), requires_grad=True)
        y = T.transpose(x, axes)
        assert np.array_equal(y.data, np.transpose(x.data, axes))
        (back,) = y._backward(y.data)
        assert back.shape == x.shape and np.array_equal(back, x.data)


class TestLastAxisMeans:
    """`mean` and `layer_norm` divide a last-axis sum by its length: bit for
    bit the ``ndarray.mean`` formulas they replace."""

    @pytest.mark.parametrize("lead", [(), (3,), (16, 7)])
    @pytest.mark.parametrize("n", [1, 6, 95, 96])
    def test_mean(self, rng, lead, n):
        x = rng.normal(size=lead + (n,)) * 3.0 + 1.0
        assert np.array_equal(T.mean(Tensor(x)).data, x.mean(axis=-1, keepdims=True))

    @pytest.mark.parametrize("lead", [(), (3,), (16, 7)])
    @pytest.mark.parametrize("n", [1, 6, 95, 96])
    def test_layer_norm(self, rng, lead, n):
        x = rng.normal(size=lead + (n,)) * 3.0 + 1.0
        scale, shift, g = rng.normal(size=n), rng.normal(size=n), rng.normal(size=x.shape)
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.NORM_EPS)
        xn = xc * inv
        out = T.layer_norm(Tensor(x, requires_grad=True), Tensor(scale), Tensor(shift))
        assert np.array_equal(out.data, xn * scale + shift)
        gxn = g * scale
        want = inv * (gxn - gxn.mean(axis=-1, keepdims=True)
                      - xn * (gxn * xn).mean(axis=-1, keepdims=True))
        assert np.array_equal(out._backward(g)[0], want)

    def test_layer_norm_keeps_no_normalized_copy(self, rng):
        """A recording call keeps its output and [..., 1] statistics, not a
        second [..., d] array: the backward recomputes the normalized input
        (bitwise the forward's, as the test above pins)."""
        x = Tensor(rng.normal(size=(8, 64, 64)), requires_grad=True)
        scale, shift = Tensor(rng.normal(size=64)), Tensor(rng.normal(size=64))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = T.layer_norm(x, scale, shift)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert kept < out.data.nbytes + 0.25 * x.data.nbytes


class TestDeterminism:
    def test_identical_seeds_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(2, 16)), requires_grad=True)
            w = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
            loss = T.mse(T.tanh(T.depthwise_conv1d(x, w, Tensor(np.zeros(2)))),
                         Tensor(np.zeros((2, 16))))
            loss.backward()
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


# -- reference implementations -----------------------------------------------
# The per-tap, scatter-add and weight-gather formulations that the dense
# kernels in adawavenet.tensor replaced, kept verbatim as oracles.

def _reference_zero_pad_last(x, pl, pr):
    width = [(0, 0)] * (x.ndim - 1) + [(pl, pr)]
    return np.pad(x, width)


def _reference_depthwise_conv1d(x, kernels, bias=None):
    C, K = kernels.shape
    if x.shape[-2] != C:
        raise TensorError(f"depthwise_conv1d: channels {x.shape[-2]} != {C}")
    L = x.shape[-1]
    pl, pr = T._pads(K)
    xp = _reference_zero_pad_last(x.data, pl, pr)
    out = np.zeros(x.shape)
    for k in range(K):
        out += kernels.data[:, k, None] * xp[..., k:k + L]
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        gxp = np.zeros(x.shape[:-1] + (L + K - 1,))
        gw = np.zeros(kernels.shape)
        for k in range(K):
            gxp[..., k:k + L] += kernels.data[:, k, None] * g
            gw[:, k] = (g * xp[..., k:k + L]).sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,))
        grads = [gxp[..., pl:pl + L], gw]
        if bias is not None:
            grads.append(g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,)))
        return tuple(grads)

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return T._make(out, parents, backward)


def _reference_depthwise_conv_transpose1d(x, kernels, bias=None):
    C, K = kernels.shape
    if x.shape[-2] != C:
        raise TensorError(f"depthwise_conv_transpose1d: channels {x.shape[-2]} != {C}")
    L = x.shape[-1]
    pl, pr = T._pads(K)
    outp = np.zeros(x.shape[:-1] + (L + K - 1,))
    for k in range(K):
        outp[..., k:k + L] += kernels.data[:, k, None] * x.data
    out = outp[..., pl:pl + L]
    if bias is not None:
        out = out + bias.data[:, None]

    def backward(g):
        gp = _reference_zero_pad_last(g, pl, pr)
        gx = np.zeros(x.shape)
        gw = np.zeros(kernels.shape)
        for k in range(K):
            gx += kernels.data[:, k, None] * gp[..., k:k + L]
            gw[:, k] = (x.data * gp[..., k:k + L]).sum(axis=tuple(range(x.ndim - 2)) + (x.ndim - 1,))
        grads = [gx, gw]
        if bias is not None:
            grads.append(g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,)))
        return tuple(grads)

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return T._make(out, parents, backward)


def _reference_moving_average(x, window):
    if window % 2 == 0 or window < 1:
        raise TensorError("moving_average window must be odd and >= 1")
    L = x.shape[-1]
    half = (window - 1) // 2
    idx = np.clip(np.arange(-half, L + half), 0, L - 1)
    xp = x.data[..., idx]
    csum = np.cumsum(xp, axis=-1)
    out = np.empty(x.shape)
    out[..., 0] = csum[..., window - 1]
    out[..., 1:] = csum[..., window:] - csum[..., :L - 1]
    out /= window

    def backward(g):
        gx = np.zeros(x.shape)
        for j in range(-half, half + 1):
            tgt = np.clip(np.arange(L) + j, 0, L - 1)
            np.add.at(gx, (..., tgt), g / window)
        return (gx,)

    return T._make(out, (x,), backward)


def _reference_grouped_linear_op(x, weights, biases, assignments):
    assignments = np.asarray(assignments)
    C = x.shape[-2]
    if assignments.shape != (C,):
        raise TensorError("grouped_linear: one assignment per channel required")
    Wc = weights.data[assignments]            # [C, L, L_p]
    bc = biases.data[assignments]             # [C, L_p]
    out = np.einsum("...cl,clp->...cp", x.data, Wc) + bc

    def backward(g):
        gx = np.einsum("...cp,clp->...cl", g, Wc)
        xf = x.data.reshape(-1, C, x.shape[-1])
        gf = g.reshape(-1, C, g.shape[-1])
        gW_per_c = np.einsum("bcl,bcp->clp", xf, gf)
        gb_per_c = gf.sum(axis=0)
        gW = np.zeros(weights.shape)
        gb = np.zeros(biases.shape)
        np.add.at(gW, assignments, gW_per_c)
        np.add.at(gb, assignments, gb_per_c)
        return (gx, gW, gb)

    return T._make(out, (x, weights, biases), backward)


# The ops below as they were before each backward closure skipped the
# parents that require no gradient, kept verbatim (renamed) as oracles.

def _reference_add(a, b):
    return T._make(a.data + b.data, (a, b),
                   lambda g: (T._unbroadcast(g, a.shape), T._unbroadcast(g, b.shape)))


def _reference_sub(a, b):
    return T._make(a.data - b.data, (a, b),
                   lambda g: (T._unbroadcast(g, a.shape), T._unbroadcast(-g, b.shape)))


def _reference_mul(a, b):
    return T._make(a.data * b.data, (a, b),
                   lambda g: (T._unbroadcast(g * b.data, a.shape),
                              T._unbroadcast(g * a.data, b.shape)))


def _reference_div(a, b):
    return T._make(a.data / b.data, (a, b),
                   lambda g: (T._unbroadcast(g / b.data, a.shape),
                              T._unbroadcast(-g * a.data / b.data ** 2, b.shape)))


def _reference_softmax(a, axis=-1):
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return ((g - inner) * s,)

    return T._make(s, (a,), backward)


def _reference_mse(pred, target, mask=None):
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
        return (gp, -gp)

    return T._make(val, (pred, target), backward)


def _reference_matmul(a, b):
    def backward(g):
        if b.data.ndim == 1:
            raise TensorError("1-D right operands unsupported")
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return (T._unbroadcast(ga, a.shape), T._unbroadcast(gb, b.shape))

    return T._make(a.data @ b.data, (a, b), backward)


def _assert_close(got, want):
    """Agreement to 1e-12 relative to the magnitude of the reference; an
    all-zero reference must be matched exactly."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * float(np.abs(want).max(initial=0.0)))


def _compare_with_reference(op, reference, arrays, rng, *static,
                            requires_grad=None):
    """Forward output and every backward output of op against reference,
    for one random upstream gradient; returns op's backward outputs.

    requires_grad (one flag per array, default all True) marks the parents
    that require a gradient: op must return None for the others."""
    flags = [True] * len(arrays) if requires_grad is None else requires_grad
    got = op(*[Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)], *static)
    want = reference(*[Tensor(a, requires_grad=True) for a in arrays], *static)
    _assert_close(got.data, want.data)
    g = rng.normal(size=want.shape)
    got_grads, want_grads = got._backward(g), want._backward(g)
    assert len(got_grads) == len(want_grads) == len(arrays)
    for gg, wg, f in zip(got_grads, want_grads, flags):
        if f:
            _assert_close(gg, wg)
        else:
            assert gg is None
    return got_grads


# (x shape, K): default cell at the first lifting level, B=1, unbatched,
# even K, odd L, L shorter than K, Electricity's channel count, and the two
# sides of the kernel choice: N*K = L runs the bands, N*K = L - 1 the
# sliding-window einsum.
DEPTHWISE_CASES = [((16, 7, 48), 7), ((1, 7, 48), 7), ((7, 48), 7),
                   ((16, 7, 48), 4), ((16, 7, 47), 7), ((2, 3, 4), 7),
                   ((4, 321, 48), 7), ((4, 7, 28), 7), ((4, 7, 29), 7)]


class TestDenseKernelsMatchReference:
    @pytest.mark.parametrize("random_bias", [True, False])
    @pytest.mark.parametrize("shape,K", DEPTHWISE_CASES)
    def test_depthwise_conv1d(self, rng, shape, K, random_bias):
        C = shape[-2]
        arrays = [rng.normal(size=shape), rng.normal(size=(C, K)),
                  rng.normal(size=C) if random_bias else np.zeros(C)]
        _compare_with_reference(T.depthwise_conv1d, _reference_depthwise_conv1d,
                                arrays, rng)

    @pytest.mark.parametrize("random_bias", [True, False])
    @pytest.mark.parametrize("shape,K", DEPTHWISE_CASES)
    def test_depthwise_conv_transpose1d(self, rng, shape, K, random_bias):
        C = shape[-2]
        arrays = [rng.normal(size=shape), rng.normal(size=(C, K)),
                  rng.normal(size=C) if random_bias else np.zeros(C)]
        _compare_with_reference(T.depthwise_conv_transpose1d,
                                _reference_depthwise_conv_transpose1d, arrays, rng)

    @pytest.mark.parametrize("shape,window", [
        ((16, 7, 96), 25), ((1, 7, 96), 25), ((7, 96), 25), ((16, 7, 95), 25),
        ((2, 3, 4), 25), ((16, 7, 96), 1), ((4, 321, 96), 25)])
    def test_moving_average(self, rng, shape, window):
        _compare_with_reference(T.moving_average, _reference_moving_average,
                                [rng.normal(size=shape)], rng, window)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((16, 7, 6), (6, 128)), ((16, 7, 128), (128, 128)), ((16, 7, 128), (128, 6)),
        ((1, 7, 6), (6, 128)), ((64, 7, 128), (128, 128)), ((16, 321, 6), (6, 128)),
        ((16, 321, 128), (128, 128)), ((32, 321, 128), (128, 6)), ((7, 96), (96, 96))])
    def test_matmul_by_a_matrix_is_bitwise_the_batched_product(self, rng, a_shape,
                                                               b_shape):
        """A 2-D right operand takes one GEMM over every leading axis of the
        left one; at the attention head's shapes it rounds as numpy's
        per-index products do."""
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        assert np.array_equal(T.matmul(Tensor(a), Tensor(b)).data, np.matmul(a, b))
        view = np.swapaxes(a, -1, -2).copy().swapaxes(-1, -2)   # not C-contiguous
        assert np.array_equal(T.matmul(Tensor(view), Tensor(b)).data, np.matmul(a, b))

    def test_moving_average_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            T._moving_average_matrix(8, 3)[0, 0] = 1.0

    @pytest.mark.parametrize("shape,Lp,assign", [
        ((16, 7, 96), 96, [0] * 7), ((1, 7, 96), 96, [0] * 7),
        ((7, 96), 96, [0] * 7), ((16, 7, 95), 48, [0] * 7),
        ((16, 7, 96), 96, [0, 3, 1, 0, 3, 3, 1]),
        ((4, 321, 96), 96, np.random.default_rng(5).integers(0, 4, 321))])
    def test_grouped_linear_op(self, rng, shape, Lp, assign):
        k = int(np.max(assign)) + 1
        arrays = [rng.normal(size=shape), rng.normal(size=(k, shape[-1], Lp)),
                  rng.normal(size=(k, Lp))]
        _, gW, gb = _compare_with_reference(
            T.grouped_linear_op, _reference_grouped_linear_op, arrays, rng,
            np.asarray(assign))
        for j in set(range(k)) - set(np.asarray(assign).tolist()):
            assert np.all(gW[j] == 0) and np.all(gb[j] == 0)

    def test_grouped_linear_rejects_out_of_range_cluster(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(np.zeros((2, 4, 4)))
        b = Tensor(np.zeros((2, 4)))
        for assign in ([0, 2, 1], [0, -1, 1]):
            with pytest.raises(TensorError):
                T.grouped_linear_op(x, w, b, np.array(assign))

    def test_grouped_linear_rejects_an_assignment_in_no_cluster(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(np.zeros((2, 4, 4)))
        b = Tensor(np.zeros((2, 4)))
        for assign in ([0, 0.5, 1], [0, np.nan, 1]):
            with pytest.raises(TensorError, match="must lie in"):
                T.grouped_linear_op(x, w, b, np.array(assign))


# which parents require a gradient: both, only the first, only the second
FLAG_CASES = [[True, True], [True, False], [False, True]]


class TestSkippedAdjoints:
    """Each op returns None for a parent that requires no gradient and the
    reference's gradient, to 1e-12 relative, for every other parent."""

    @pytest.mark.parametrize("flags", FLAG_CASES)
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((16, 7, 12), (12, 8)), ((5, 12), (12, 8)),
        ((2, 4, 7, 6), (2, 4, 6, 7)), ((2, 4, 7, 6), (6, 3))],
        ids=["batched-2d", "2d-2d", "batched-batched", "4d-2d"])
    def test_matmul(self, rng, a_shape, b_shape, flags):
        _compare_with_reference(T.matmul, _reference_matmul,
                                [rng.normal(size=a_shape), rng.normal(size=b_shape)],
                                rng, requires_grad=flags)

    @pytest.mark.parametrize("flags", FLAG_CASES)
    @pytest.mark.parametrize("b_shape", [(3, 4), (3, 1), ()],
                             ids=["full", "broadcast", "scalar"])
    @pytest.mark.parametrize("op,reference", [
        (T.add, _reference_add), (T.sub, _reference_sub),
        (T.mul, _reference_mul), (T.div, _reference_div)],
        ids=["add", "sub", "mul", "div"])
    def test_elementwise(self, rng, op, reference, b_shape, flags):
        b = rng.uniform(0.5, 2.0, size=b_shape)
        _compare_with_reference(op, reference, [rng.normal(size=(2, 3, 4)), b],
                                rng, requires_grad=flags)

    @pytest.mark.parametrize("flags", FLAG_CASES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_mse(self, rng, masked, flags):
        mask = (rng.uniform(size=(3, 5)) < 0.5).astype(float) if masked else None
        if masked:
            mask[0, 0] = 1.0
            mask = Tensor(mask)
        _compare_with_reference(T.mse, _reference_mse,
                                [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))],
                                rng, mask, requires_grad=flags)

    @pytest.mark.parametrize("shape,axis", [((2, 4, 7, 7), -1), ((3, 5), 0),
                                            ((6,), -1)])
    def test_softmax(self, rng, shape, axis):
        _compare_with_reference(T.softmax, _reference_softmax,
                                [3.0 * rng.normal(size=shape)], rng, axis)

    @pytest.mark.parametrize("random_bias", [True, False])
    @pytest.mark.parametrize("shape,K", DEPTHWISE_CASES)
    def test_depthwise_conv1d_constant_input(self, rng, shape, K, random_bias):
        """Both depthwise ops with an input that requires no gradient."""
        C = shape[-2]
        for op, reference in ((T.depthwise_conv1d, _reference_depthwise_conv1d),
                              (T.depthwise_conv_transpose1d,
                               _reference_depthwise_conv_transpose1d)):
            arrays = [rng.normal(size=shape), rng.normal(size=(C, K)),
                      rng.normal(size=C) if random_bias else np.zeros(C)]
            _compare_with_reference(op, reference, arrays, rng,
                                    requires_grad=[False, True, True])


def _reference_bands(kernels, L):
    """The band of each channel filled one tap at a time: output t reads
    input t + k - (K-1)//2 with weight kernels[:, k]."""
    C, K = kernels.shape
    pl = (K - 1) // 2
    B = np.zeros((C, L, L))
    for k in range(K):
        for t in range(L):
            if 0 <= t + k - pl < L:
                B[:, t + k - pl, t] = kernels[:, k]
    return B


class TestBands:
    @pytest.mark.parametrize("L,K", [(1, 7), (1, 1), (4, 7), (6, 7), (48, 7),
                                     (48, 4), (12, 2), (24, 1)])
    def test_bitwise_equal_to_per_tap_loop(self, rng, L, K):
        kernels = rng.normal(size=(3, K))
        want = _reference_bands(kernels, L)
        assert np.array_equal(T._bands(kernels, L, flip=False), want)
        flipped = T._bands(kernels, L, flip=True)
        assert flipped.flags.c_contiguous
        assert np.array_equal(flipped, want.transpose(0, 2, 1))

    def test_cached_maps_are_read_only(self):
        with pytest.raises(ValueError):
            T._band_index(8, 3)[0, 0] = 0
        with pytest.raises(ValueError):
            T._band_taps(8, 3)[0, 0] = 1.0

    @pytest.mark.parametrize("shape,K", [((16, 7, 48), 7), ((1, 7, 6), 7),
                                         ((2, 3, 5, 12), 4), ((7, 6), 2)])
    def test_windows_are_the_sliding_window_view_read_only(self, rng, shape, K):
        a = rng.normal(size=shape)
        pl, pr = T._pads(K)
        padded = np.pad(a.reshape((-1,) + shape[-2:]), ((0, 0), (0, 0), (pl, pr)))
        win = T._windows(a, K, pl, pr)
        assert np.array_equal(win, np.lib.stride_tricks.sliding_window_view(
            padded, K, axis=-1))
        with pytest.raises(ValueError):
            win[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("shape,banded", [((4, 7, 28), True), ((4, 7, 29), False),
                                              ((7, 6), True), ((7, 48), False)])
    def test_bands_once_n_times_k_reaches_l(self, rng, monkeypatch, shape, banded):
        used = []
        for name in ("_band_product", "_window_product"):
            monkeypatch.setattr(T, name, lambda *a, f=getattr(T, name), name=name:
                                used.append(name) or f(*a))
        T.depthwise_conv1d(Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=(7, 7))),
                           Tensor(np.zeros(7)))
        assert used == ["_band_product" if banded else "_window_product"]

    @pytest.mark.parametrize("shape,K", [((16, 7, 48), 7), ((1, 7, 48), 7),
                                         ((7, 6), 7), ((16, 7, 47), 4),
                                         ((2, 3, 4), 7), ((4, 321, 12), 7)])
    def test_band_and_window_products_agree(self, rng, shape, K):
        """Both implementations of the product on one input, in both
        orientations."""
        x = rng.normal(size=shape)
        kernels = rng.normal(size=(shape[-2], K))
        for flip in (False, True):
            _assert_close(T._band_product(x, kernels, flip),
                          T._window_product(x, kernels, flip))


def _reference_moving_average_matrix(L, window):
    """The per-tap loop the closed-form banded matrix replaced."""
    half = (window - 1) // 2
    counts = np.zeros((L, L))
    cols = np.arange(L)
    for j in range(-half, half + 1):
        counts[np.clip(cols + j, 0, L - 1), cols] += 1.0
    return counts / window


class TestMovingAverageMatrix:
    @pytest.mark.parametrize("L", [1, 2, 7, 96])
    def test_bitwise_equal_to_per_tap_loop(self, L):
        for window in range(1, 2 * L + 6, 2):
            got = T._moving_average_matrix(L, window)
            assert np.array_equal(got, _reference_moving_average_matrix(L, window)), window

    def test_huge_window_builds_at_once(self):
        """A window far beyond 2L-1 (seconds for the per-tap loop) only
        replicates the edges; every column still sums to one."""
        A = T._moving_average_matrix(96, 1_000_001)
        assert A.shape == (96, 96)
        np.testing.assert_allclose(A.sum(axis=0), 1.0, rtol=1e-12)


class TestNoGrad:
    def graph(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8)))
        w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        h = T.tanh(T.depthwise_conv1d(x, k, Tensor(np.zeros(3))))
        return T.softmax(T.mul(T.matmul(h, w), Tensor(0.5)), axis=-1)

    def test_records_nothing_and_computes_the_same(self, rng):
        state = rng.bit_generator.state
        want = self.graph(rng)
        rng.bit_generator.state = state
        with T.no_grad():
            got = self.graph(rng)
        assert want._backward is not None and want.requires_grad
        assert np.array_equal(got.data, want.data)
        assert got._parents == () and got._backward is None
        assert not got.requires_grad

    def test_restored_after_nesting(self, rng):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert T.matmul(w, w)._backward is None
            assert T.matmul(w, w)._backward is None
        assert T._recording
        assert T.matmul(w, w)._backward is not None

    def test_restored_after_an_exception(self):
        with pytest.raises(TensorError):
            with T.no_grad():
                T.mse(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
        assert T._recording
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        assert T.matmul(w, w)._backward is not None


class TestAttention:
    """`attention` against the composed ops, over a [2, 3] grid of score
    matrices."""

    @staticmethod
    def inputs(rng, requires_grad=(True, True, True)):
        """q, k [2, 3, 5, 4] and v [2, 3, 5, 2] as transposed views, the
        layout `AttentionHead` passes."""
        shapes = [(2, 5, 3, 4), (2, 5, 3, 4), (2, 5, 3, 2)]
        return [T.transpose(Tensor(rng.normal(size=s), requires_grad=r), (0, 2, 1, 3))
                for s, r in zip(shapes, requires_grad)]

    @pytest.mark.parametrize("rows", [1, 2, 4, 6, 50])
    def test_matches_the_composed_ops(self, rng, rows):
        state = rng.bit_generator.state
        got_in = self.inputs(rng)
        rng.bit_generator.state = state
        want_in = self.inputs(rng)
        leaves = [[t._parents[0] for t in ins] for ins in (got_in, want_in)]
        weight = rng.normal(size=(2, 3, 5, 2))
        got = T.attention(*got_in, rows)
        want = composed_attention(*want_in)
        T.tsum(T.mul(got, Tensor(weight))).backward()
        T.tsum(T.mul(want, Tensor(weight))).backward()
        pairs = [(got.data, want.data)] + [(a.grad, b.grad) for a, b in zip(*leaves)]
        for a, b in pairs:
            if rows >= 6:
                assert np.array_equal(a, b)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("rows", [1, 2, 6])
    def test_gradients_match_finite_differences(self, rng, rows):
        target = rng.normal(size=(2, 3, 5, 2))
        check_grads(lambda q, k, v: T.mse(T.attention(q, k, v, rows), Tensor(target)),
                    [rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 5, 4)),
                     rng.normal(size=(2, 3, 5, 2))])

    @pytest.mark.parametrize("rows,shapes", [
        (1, [(1, 5, 5)] * 6),
        (2, [(2, 5, 5), (1, 5, 5)] * 2),
        (4, [(1, 3, 5, 5)] * 2),
        (6, [(2, 3, 5, 5)]),
    ], ids=["1", "2", "4", "6"])
    def test_keeps_a_weights_block_only_while_recording(self, rng, monkeypatch,
                                                        rows, shapes):
        """Each softmax output is a block of at most ``rows`` [C, C] weights
        that lives only while the op computes with it: once the forward pass
        returns nothing holds one, whether the op records or not, and the
        backward pass recomputes the same blocks, each of whose scores is
        gone before the softmax adjoint runs."""
        blocks, scores_alive = [], []
        softmax_op = T.softmax

        def softmax(a, axis=-1):
            out = softmax_op(a, axis=axis)
            blocks.append((out.shape, weakref.ref(out.data)))
            scores, closure = weakref.ref(a.data), out._backward
            if closure is not None:
                def backward(g):   # the recompute has dropped its scores by now
                    scores_alive.append(scores() is not None)
                    return closure(g)

                out._backward = backward
            return out

        monkeypatch.setattr(T, "softmax", softmax)
        inputs = self.inputs(rng)
        with T.no_grad():
            got = T.attention(*inputs, rows)
        assert got._backward is None and got._parents == ()
        out = T.attention(*inputs, rows)
        assert out._backward is not None
        assert [shape for shape, _ in blocks] == shapes * 2
        assert all(ref() is None for _, ref in blocks)
        assert np.array_equal(out.data, got.data)
        blocks.clear()
        out._backward(np.ones(out.shape))
        assert [shape for shape, _ in blocks] == shapes
        assert all(ref() is None for _, ref in blocks)
        assert scores_alive == [False] * len(shapes)

    @pytest.mark.parametrize("rows", [6, 50])
    def test_backward_is_bitwise_the_composed_ops(self, rng, rows):
        """With ``rows`` at least the matrix count, the op's own backward
        returns the composed ops' gradients of q, k and v, bit for bit."""
        q, k, v = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in [(2, 3, 5, 4), (2, 3, 5, 4), (2, 3, 5, 2)])
        g = rng.normal(size=(2, 3, 5, 2))
        out = T.attention(q, k, v, rows)
        want = composed_attention(q, k, v)
        T.tsum(T.mul(want, Tensor(g))).backward()
        assert np.array_equal(out.data, want.data)
        for got, leaf in zip(out._backward(g), (q, k, v)):
            assert np.array_equal(got, leaf.grad)

    def test_backward_under_no_grad(self, rng):
        """The recompute gets its softmax closure also when the backward
        pass runs inside `no_grad`."""
        weight = Tensor(rng.normal(size=(2, 3, 5, 2)))
        grads = []
        for mode in (contextlib.nullcontext, T.no_grad):
            inputs = self.inputs(np.random.default_rng(0))
            leaves = [t._parents[0] for t in inputs]
            loss = T.tsum(T.mul(T.attention(*inputs, 2), weight))
            with mode():
                loss.backward()
            grads.append([leaf.grad for leaf in leaves])
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_kept_bytes_grow_as_c_not_c_squared(self, rng):
        """What the recording op keeps past its forward pass (its output and
        closure) grows as C: doubling C from 64 to 128 doubles it, where
        [C, C] weights would quadruple it."""
        kept = []
        for C in (64, 128):
            q, k, v = (Tensor(rng.normal(size=(2, 2, C, 8)), requires_grad=True)
                       for _ in range(3))
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                out = T.attention(q, k, v, 1)
                kept.append(tracemalloc.get_traced_memory()[0] - start)
            finally:
                tracemalloc.stop()
            assert out._backward is not None
            del out
        assert kept[1] < 2.5 * kept[0]
        assert kept[1] < 4 * 8 * 128 * 8 * 1.5      # about the output's bytes

    @pytest.mark.parametrize("constant", [0, 1, 2])
    def test_an_input_that_requires_no_grad_gets_none(self, rng, constant):
        flags = [i != constant for i in range(3)]
        inputs = self.inputs(rng, flags)
        out = T.attention(*inputs, 2)
        grads = out._backward(np.ones(out.shape))
        assert [g is None for g in grads] == [not f for f in flags]
        assert all(g.shape == t.shape for g, t in zip(grads, inputs) if g is not None)
