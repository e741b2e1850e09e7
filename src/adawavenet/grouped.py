"""Trend head: k-means channel clustering plus one linear map per cluster.

The clustering runs once, before any gradient step, on one [C, L] trend
window: the trend of the mean of the leading training windows, with each
channel's row z-normalized so channels group by shape rather than scale.
It stays frozen afterwards; only the linear heads train.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

MAX_LLOYD_ITERS = 100


def _assign(points, centroids):
    # ties break toward the lowest centroid index (argmin is first-match)
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def _kmeanspp_seed(points, k, rng):
    n = points.shape[0]
    centroids = [points[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = _assign(points, np.asarray(centroids))[1].min(axis=1)
        total = d2.sum()
        if total == 0:
            centroids.append(points[rng.integers(n)])
        else:
            centroids.append(points[rng.choice(n, p=d2 / total)])
    return np.asarray(centroids)


def kmeans(points: np.ndarray, k: int, seed: int = 0):
    """Lloyd iterations with k-means++ seeding; returns (assignments, centroids).

    Each empty cluster is re-seeded with the point farthest from its
    centroid among those whose cluster keeps another member, so every label
    is used. k must lie in 1..n, as `build_model` ensures for its channels.
    """
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(points, k, rng)
    assignments = None
    for _ in range(MAX_LLOYD_ITERS):
        new_assign, d2 = _assign(points, centroids)
        point_d2 = d2[np.arange(n), new_assign]
        counts = np.bincount(new_assign, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = np.where(counts[new_assign] > 1, point_d2, -np.inf).argmax()
            counts[new_assign[far]] -= 1
            counts[j] = 1
            centroids[j] = points[far]
            new_assign[far] = j
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return assignments, centroids


def fit_clustering(trend: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster the channels of a [C, L] trend window into k groups by the
    shape of their z-normalized rows; returns each channel's cluster index.
    A constant row normalizes to zeros."""
    mu = trend.mean(axis=1, keepdims=True)
    sd = trend.std(axis=1, keepdims=True)
    sd[sd == 0] = 1.0
    return kmeans((trend - mu) / sd, k, seed=seed)[0]


class GroupedLinear:
    def __init__(self, assignments: np.ndarray, k: int, in_len: int, out_len: int):
        self.assignments = assignments
        self.weights = Tensor(np.tile(np.eye(in_len, out_len), (k, 1, 1)),
                              requires_grad=True)
        self.biases = Tensor(np.zeros((k, out_len)), requires_grad=True)

    def parameters(self):
        return {"weights": self.weights, "biases": self.biases}

    def project_trend(self, x_trend: Tensor) -> Tensor:
        """x_trend: [..., C, in_len] -> [..., C, out_len] via the cluster's head."""
        return T.grouped_linear_op(x_trend, self.weights, self.biases,
                                   self.assignments)
