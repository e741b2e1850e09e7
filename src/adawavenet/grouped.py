"""Trend head: k-means channel clustering plus one linear map per cluster.

The clustering runs once, before any gradient step, on per-channel trend
features (z-normalized mean trend window over a sample of training windows)
and stays frozen afterwards; only the linear heads train.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

MAX_LLOYD_ITERS = 100


class ClusteringError(ValueError):
    pass


def channel_features(trend_samples: np.ndarray) -> np.ndarray:
    """Per-channel feature vectors from [S, C, L] trend windows.

    The feature is the mean trend window across samples, z-normalized per
    channel so clustering groups by shape rather than scale.
    """
    feats = trend_samples.mean(axis=0)              # [C, L]
    mu = feats.mean(axis=1, keepdims=True)
    sd = feats.std(axis=1, keepdims=True)
    sd[sd == 0] = 1.0
    return (feats - mu) / sd


def _assign(points, centroids):
    # ties break toward the lowest centroid index (argmin is first-match)
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def _kmeanspp_seed(points, k, rng):
    n = points.shape[0]
    centroids = [points[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = ((points[:, None, :] - np.asarray(centroids)[None]) ** 2).sum(axis=2).min(axis=1)
        total = d2.sum()
        if total == 0:
            centroids.append(points[rng.integers(n)])
        else:
            centroids.append(points[rng.choice(n, p=d2 / total)])
    return np.asarray(centroids)


def kmeans(points: np.ndarray, k: int, seed: int = 0):
    """Lloyd iterations with k-means++ seeding; returns (assignments, centroids).

    Empty clusters are re-seeded from the point farthest from its centroid.
    """
    n = points.shape[0]
    if k < 1 or k > n:
        raise ClusteringError(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(points, k, rng)
    assignments = None
    for _ in range(MAX_LLOYD_ITERS):
        new_assign, d2 = _assign(points, centroids)
        point_d2 = d2[np.arange(n), new_assign]
        for j in range(k):
            if not np.any(new_assign == j):
                far = point_d2.argmax()
                centroids[j] = points[far]
                new_assign[far] = j
                point_d2[far] = 0.0
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return assignments, centroids


def fit_clustering(trend_samples: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster channels of [S, C, L] trend windows into k groups; returns
    each channel's cluster index."""
    if trend_samples.ndim != 3 or trend_samples.shape[0] < 1:
        raise ClusteringError("trend_samples must be [S, C, L] with S >= 1")
    return kmeans(channel_features(trend_samples), k, seed=seed)[0]


class GroupedLinear:
    def __init__(self, assignments: np.ndarray, k: int, in_len: int, out_len: int):
        self.assignments = assignments
        self.in_len = in_len
        self.weights = Tensor(np.tile(np.eye(in_len, out_len), (k, 1, 1)),
                              requires_grad=True)
        self.biases = Tensor(np.zeros((k, out_len)), requires_grad=True)

    def parameters(self):
        return {"weights": self.weights, "biases": self.biases}

    def project_trend(self, x_trend: Tensor) -> Tensor:
        """x_trend: [..., C, in_len] -> [..., C, out_len] via the cluster's head."""
        if x_trend.shape[-1] != self.in_len:
            raise T.TensorError(
                f"expected trend length {self.in_len}, got {x_trend.shape[-1]}")
        return T.grouped_linear_op(x_trend, self.weights, self.biases,
                                   self.assignments)
