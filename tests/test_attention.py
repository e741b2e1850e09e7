import itertools

import numpy as np
import pytest
from pytest import approx

import adawavenet.tensor as T
from adawavenet.attention import AttentionHead, _trunc_identity
from adawavenet.tensor import Tensor, TensorError

SIZES = {"d_model": 128, "heads": 4}   # the ModelConfig defaults


def passthrough_head(seq_len):
    """A head with its mixing path zeroed, as set_passthrough_attention does."""
    head = AttentionHead(seq_len, seq_len, **SIZES, rng=np.random.default_rng(0))
    for p in (head.w_q, head.w_k, head.w_v, head.w_out):
        p.data[...] = 0.0
    return head


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
    a = _trunc_identity(12, 128)
    b = _trunc_identity(128, 12)
    assert a @ b == approx(np.eye(12))


def test_identity_init_is_passthrough(rng):
    head = passthrough_head(12)
    x = rng.normal(size=(3, 12))
    out = head.project_approximation(Tensor(x))
    assert np.abs(out.data - x).max() < 1e-10


def test_identity_init_passthrough_batched(rng):
    head = passthrough_head(12)
    x = rng.normal(size=(4, 3, 12))
    out = head.project_approximation(Tensor(x))
    assert np.abs(out.data - x).max() < 1e-10


def test_output_shape_law(rng):
    head = AttentionHead(6, 10, **SIZES, rng=rng)
    assert head.project_approximation(Tensor(rng.normal(size=(5, 6)))).shape == (5, 10)
    assert head.project_approximation(
        Tensor(rng.normal(size=(2, 5, 6)))).shape == (2, 5, 10)


def test_wrong_length_rejected(rng):
    head = AttentionHead(6, 6, **SIZES, rng=rng)
    with pytest.raises(TensorError):
        head.project_approximation(Tensor(rng.normal(size=(5, 7))))


def test_heads_must_divide_d_model():
    with pytest.raises(TensorError):
        AttentionHead(6, 6, d_model=10, heads=4, rng=np.random.default_rng(0))


def test_attention_rows_are_distributions(rng, monkeypatch):
    head = AttentionHead(6, 6, **SIZES, rng=rng)
    w = attention_weights(monkeypatch, head, rng.normal(size=(5, 6)))
    assert w.shape == (1, head.heads, 5, 5)
    assert np.all(w >= 0)
    assert w.sum(axis=-1) == approx(np.ones(w.shape[:-1]))


def test_permutation_equivariance(rng):
    """No positional encoding, so permuting channels permutes the output."""
    head = AttentionHead(8, 8, **SIZES, rng=rng)
    x = rng.normal(size=(5, 8))
    base = head.project_approximation(Tensor(x)).data
    for perm in itertools.islice(itertools.permutations(range(5)), 0, 24, 7):
        p = np.asarray(perm)
        out = head.project_approximation(Tensor(x[p])).data
        assert np.abs(out - base[p]).max() < 1e-9


def test_single_token_attends_only_to_itself(rng, monkeypatch):
    head = AttentionHead(6, 6, **SIZES, rng=rng)
    w = attention_weights(monkeypatch, head, rng.normal(size=(1, 6)))
    assert w == approx(np.ones((1, head.heads, 1, 1)))


def test_gradients_reach_every_parameter(rng):
    head = AttentionHead(6, 6, **SIZES, rng=rng)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    loss = T.mse(head.project_approximation(x), Tensor(rng.normal(size=(4, 6))))
    loss.backward()
    for name, p in head.parameters().items():
        assert p.grad is not None and np.any(p.grad != 0), name
    assert x.grad is not None and np.any(x.grad != 0)


def test_forward_is_deterministic(rng):
    head = AttentionHead(6, 6, **SIZES, rng=np.random.default_rng(7))
    x = rng.normal(size=(3, 6))
    a = head.project_approximation(Tensor(x)).data
    b = head.project_approximation(Tensor(x)).data
    assert np.array_equal(a, b)
