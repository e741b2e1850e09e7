import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, raises

from adawavenet.decompose import decompose
from adawavenet.tensor import Tensor, TensorError


def test_constant_series():
    d = decompose(Tensor([[5.0, 5.0, 5.0, 5.0]]), 3)
    assert d.trend.data == approx(np.full((1, 4), 5.0))
    assert d.seasonal.data == approx(np.zeros((1, 4)))


def test_window_one_is_degenerate():
    x = np.random.default_rng(0).normal(size=(2, 6))
    d = decompose(Tensor(x), 1)
    assert d.trend.data == approx(x)
    assert np.abs(d.seasonal.data).max() < 1e-15


def test_hand_computed_edge_replication():
    d = decompose(Tensor([[1.0, 2.0, 3.0, 4.0]]), 3)
    expected = np.array([[4 / 3, 2.0, 3.0, 11 / 3]])
    assert d.trend.data == approx(expected)
    assert d.seasonal.data == approx(np.array([[1, 2, 3, 4]]) - expected)


def test_even_window_rejected():
    with raises(TensorError):
        decompose(Tensor([[1.0, 2.0]]), 4)


def test_linear_ramp_trend_is_ramp_in_interior():
    ramp = np.arange(50.0)[None, :]
    d = decompose(Tensor(ramp), 7)
    assert np.abs(d.trend.data[0, 3:-3] - ramp[0, 3:-3]).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3).map(lambda c: c),
    st.integers(4, 40),
    st.sampled_from([1, 3, 5, 9, 25]),
    st.integers(0, 2**31 - 1),
)
def test_additivity_property(channels, length, window, seed):
    x = np.random.default_rng(seed).normal(size=(channels, length))
    d = decompose(Tensor(x), window)
    assert np.abs(d.seasonal.data + d.trend.data - x).max() < 1e-12
