import itertools

import numpy as np
import pytest
from pytest import approx

import adawavenet.tensor as T
from adawavenet import attention
from adawavenet.attention import AttentionHead
from adawavenet.tensor import Tensor

from conftest import check_grads, composed_attention, passthrough_attention

SIZES = {"d_model": 128, "heads": 4}   # the ModelConfig defaults


def passthrough_head(seq_len):
    """A head with its mixing path zeroed."""
    return passthrough_attention(
        AttentionHead(seq_len, **SIZES, rng=np.random.default_rng(0)))


def attention_weights(monkeypatch, head, x):
    """Run one forward and return the softmax output it computed."""
    captured = []

    def softmax(a, axis=-1):
        out = softmax_op(a, axis=axis)
        captured.append(out.data)
        return out

    softmax_op = T.softmax
    monkeypatch.setattr(T, "softmax", softmax)
    head.project_approximation(Tensor(x))
    (weights,) = captured
    return weights


def test_truncated_identity_matrices_are_mutually_inverse():
    head = AttentionHead(12, **SIZES, rng=np.random.default_rng(0))
    assert head.w_embed.data @ head.w_target.data == approx(np.eye(12))


def test_identity_init_is_passthrough(rng):
    head = passthrough_head(12)
    x = rng.normal(size=(1, 3, 12))
    out = head.project_approximation(Tensor(x))
    assert np.abs(out.data - x).max() < 1e-10


def test_identity_init_passthrough_batched(rng):
    head = passthrough_head(12)
    x = rng.normal(size=(4, 3, 12))
    out = head.project_approximation(Tensor(x))
    assert np.abs(out.data - x).max() < 1e-10


def test_output_shape_law(rng):
    head = AttentionHead(6, **SIZES, rng=rng)
    for batch in (1, 2):
        out = head.project_approximation(Tensor(rng.normal(size=(batch, 5, 6))))
        assert out.shape == (batch, 5, 6)


def test_attention_rows_are_distributions(rng, monkeypatch):
    head = AttentionHead(6, **SIZES, rng=rng)
    w = attention_weights(monkeypatch, head, rng.normal(size=(1, 5, 6)))
    assert w.shape == (1, head.heads, 5, 5)
    assert np.all(w >= 0)
    assert w.sum(axis=-1) == approx(np.ones(w.shape[:-1]))


def test_permutation_equivariance(rng):
    """No positional encoding, so permuting channels permutes the output."""
    head = AttentionHead(8, **SIZES, rng=rng)
    x = rng.normal(size=(1, 5, 8))
    base = head.project_approximation(Tensor(x)).data
    for perm in itertools.islice(itertools.permutations(range(5)), 0, 24, 7):
        p = np.asarray(perm)
        out = head.project_approximation(Tensor(x[:, p])).data
        assert np.abs(out - base[:, p]).max() < 1e-9


def test_single_token_attends_only_to_itself(rng, monkeypatch):
    head = AttentionHead(6, **SIZES, rng=rng)
    w = attention_weights(monkeypatch, head, rng.normal(size=(1, 1, 6)))
    assert w == approx(np.ones((1, head.heads, 1, 1)))


def test_gradients_reach_every_parameter(rng):
    head = AttentionHead(6, **SIZES, rng=rng)
    x = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
    loss = T.mse(head.project_approximation(x), Tensor(rng.normal(size=(1, 4, 6))))
    loss.backward()
    for name, p in head.parameters().items():
        assert p.grad is not None and np.any(p.grad != 0), name
    assert x.grad is not None and np.any(x.grad != 0)


def test_forward_is_deterministic(rng):
    head = AttentionHead(6, **SIZES, rng=np.random.default_rng(7))
    x = rng.normal(size=(1, 3, 6))
    a = head.project_approximation(Tensor(x)).data
    b = head.project_approximation(Tensor(x)).data
    assert np.array_equal(a, b)


def softmax_shapes(monkeypatch):
    """Spy on the softmax op; returns the list of its input shapes."""
    shapes = []
    softmax_op = T.softmax

    def softmax(a, axis=-1):
        shapes.append(a.shape)
        return softmax_op(a, axis=axis)

    monkeypatch.setattr(T, "softmax", softmax)
    return shapes


def loss_and_gradients(head, x, target):
    for p in head.parameters().values():
        p.zero_grad()
    xt = Tensor(x, requires_grad=True)
    loss = T.mse(head.project_approximation(xt), Tensor(target))
    loss.backward()
    return loss.data, xt.grad, {k: p.grad for k, p in head.parameters().items()}


def block_bytes_for(rows, channels):
    """The BLOCK_BYTES that puts ``rows`` score matrices in each block."""
    return rows * 8 * channels * channels


@pytest.mark.parametrize("rows,blocks", [
    (1, [(1, 4, 4)] * 20),
    (2, [(2, 4, 4)] * 10),
    (3, [(3, 4, 4), (1, 4, 4)] * 5),              # a window's heads cut apart
    (8, [(2, 4, 4, 4)] * 2 + [(1, 4, 4, 4)]),     # runs of whole windows
], ids=["1", "2", "3", "8"])
def test_scores_take_one_block_and_results_are_bitwise_unchanged(rng, monkeypatch,
                                                                 rows, blocks):
    head = AttentionHead(6, **SIZES, rng=rng)
    x, target = rng.normal(size=(5, 4, 6)), rng.normal(size=(5, 4, 6))
    shapes = softmax_shapes(monkeypatch)
    want = loss_and_gradients(head, x, target)
    assert shapes == [(5, head.heads, 4, 4)]        # one block for the batch
    shapes.clear()
    monkeypatch.setattr(attention, "BLOCK_BYTES", block_bytes_for(rows, 4))
    got = loss_and_gradients(head, x, target)
    assert shapes == blocks
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for name in want[2]:
        assert np.array_equal(got[2][name], want[2][name]), name


@pytest.mark.parametrize("batch,channels", [(16, 7), (5, 4)])
def test_head_is_bitwise_the_head_with_composed_ops(rng, monkeypatch, batch, channels):
    """Every gradient of the head, not only those of q, k and v: the op
    hands its gradients on in the memory layout the composed ops do, so the
    GEMMs below round alike."""
    head = AttentionHead(12, **SIZES, rng=rng)
    x, target = (rng.normal(size=(batch, channels, 12)) for _ in range(2))
    got = loss_and_gradients(head, x, target)
    monkeypatch.setattr(T, "attention", lambda q, k, v, rows: composed_attention(q, k, v))
    want = loss_and_gradients(head, x, target)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for name in want[2]:
        assert np.array_equal(got[2][name], want[2][name]), name


@pytest.mark.parametrize("batch", [1, 2])
def test_wide_batch_runs_one_head_of_one_window_per_block(rng, monkeypatch, batch):
    """At Electricity's 321 channels two score matrices exceed BLOCK_BYTES,
    so each block is one head of one window, while at 7 channels the whole
    batch is one block."""
    head = AttentionHead(12, **SIZES, rng=rng)
    shapes = softmax_shapes(monkeypatch)
    head.project_approximation(Tensor(rng.normal(size=(batch, 321, 12))))
    assert shapes == [(1, 321, 321)] * (batch * head.heads)
    shapes.clear()
    head.project_approximation(Tensor(rng.normal(size=(64, 7, 12))))
    assert shapes == [(64, head.heads, 7, 7)]


def test_blocked_gradients_match_finite_differences(rng, monkeypatch):
    head = AttentionHead(6, d_model=8, heads=2, rng=rng)
    monkeypatch.setattr(attention, "BLOCK_BYTES", block_bytes_for(1, 4))
    shapes = softmax_shapes(monkeypatch)
    target = rng.normal(size=(3, 4, 6))

    def loss(x, w_q, w_k, w_v):
        head.w_q, head.w_k, head.w_v = w_q, w_k, w_v
        return T.mse(head.project_approximation(x), Tensor(target))

    check_grads(loss, [rng.normal(size=(3, 4, 6)), head.w_q.data.copy(),
                       head.w_k.data.copy(), head.w_v.data.copy()])
    assert set(shapes) == {(1, 4, 4)}
