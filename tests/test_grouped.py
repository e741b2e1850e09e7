import itertools

import numpy as np
import pytest
from pytest import approx

from adawavenet.grouped import GroupedLinear, fit_clustering, kmeans
from adawavenet.tensor import Tensor


def wcss(points, assignments, centroids):
    """Within-cluster sum of squares (the k-means objective)."""
    return float(((points - centroids[assignments]) ** 2).sum())


def brute_force_best_wcss(points, k):
    """Exact k-means optimum by enumerating every assignment of points to k
    labels (feasible only for tiny n). Centroids are cluster means."""
    n = points.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        if len(set(labels.tolist())) < k:
            continue
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


class TestChannelFeatures:
    """fit_clustering's features: each [C, L] row, z-normalized."""

    def test_znorm_rows(self, rng):
        trend = rng.normal(2.0, 3.0, size=(9, 16))
        rows = (trend - trend.mean(axis=1, keepdims=True)) / trend.std(axis=1, keepdims=True)
        assert np.array_equal(fit_clustering(trend, 3, seed=4), kmeans(rows, 3, seed=4)[0])

    def test_constant_channel_does_not_divide_by_zero(self):
        """Constant rows normalize to zeros and still get valid labels."""
        trend = np.array([[1.0], [-2.0], [7.5]]) * np.ones((3, 8))
        assignments = fit_clustering(trend, 3, seed=0)
        assert np.array_equal(assignments, kmeans(np.zeros((3, 8)), 3, seed=0)[0])
        assert sorted(assignments.tolist()) == [0, 1, 2]

    def test_scale_invariance(self, rng):
        trend = rng.normal(size=(8, 12))
        scaled = trend * rng.uniform(0.1, 10.0, size=(8, 1)) + rng.normal(size=(8, 1))
        assert np.array_equal(fit_clustering(scaled, 3, seed=1),
                              fit_clustering(trend, 3, seed=1))


class TestKMeans:
    def test_k_equals_n_is_singletons(self, rng):
        points = rng.normal(size=(5, 3))
        assign, centroids = kmeans(points, 5, seed=0)
        assert sorted(assign.tolist()) == [0, 1, 2, 3, 4]
        assert centroids[assign] == approx(points)

    def test_k_one_centroid_is_mean(self, rng):
        points = rng.normal(size=(8, 4))
        assign, centroids = kmeans(points, 1, seed=0)
        assert np.all(assign == 0)
        assert centroids[0] == approx(points.mean(axis=0))

    def test_two_obvious_blobs(self, rng):
        a = rng.normal(0.0, 0.05, size=(6, 2))
        b = rng.normal(10.0, 0.05, size=(6, 2))
        assign, _ = kmeans(np.vstack([a, b]), 2, seed=0)
        assert len(set(assign[:6].tolist())) == 1
        assert len(set(assign[6:].tolist())) == 1
        assert assign[0] != assign[6]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_on_separated_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        points = np.vstack([rng.normal(0.0, 0.3, size=(4, 2)),
                            rng.normal(8.0, 0.3, size=(3, 2))])
        assign, centroids = kmeans(points, 2, seed=seed)
        got = wcss(points, assign, centroids)
        best = brute_force_best_wcss(points, 2)
        # Lloyd is a local search, but with this separation it must land on
        # the enumerated global optimum
        assert got == approx(best, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_beats_brute_force_bound(self, seed):
        rng = np.random.default_rng(200 + seed)
        points = rng.normal(size=(7, 2))
        assign, centroids = kmeans(points, 2, seed=seed)
        assert wcss(points, assign, centroids) >= \
            brute_force_best_wcss(points, 2) - 1e-9

    def test_identical_points_all_one_cluster_label_set(self):
        points = np.ones((6, 3))
        assign, centroids = kmeans(points, 2, seed=0)
        assert np.all(np.isfinite(centroids))
        assert set(assign.tolist()) == {0, 1}

    @pytest.mark.parametrize("n,k", [(3, 3), (5, 4)])
    def test_identical_points_fill_every_cluster(self, n, k):
        """All distances are zero, so each re-seed must take a new point."""
        assign, _ = kmeans(np.zeros((n, 8)), k, seed=0)
        assert set(assign.tolist()) == set(range(k))

    def test_duplicate_points_fill_every_cluster(self):
        """Few distinct points, k up to n: re-seeding never empties a cluster
        to fill another."""
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 1))
            points = rng.integers(0, 3, size=(n, 2)).astype(float)
            assign, _ = kmeans(points, k, seed=seed)
            assert set(assign.tolist()) == set(range(k)), (seed, points, assign)

    def test_deterministic_given_seed(self, rng):
        points = rng.normal(size=(20, 4))
        a1, c1 = kmeans(points, 3, seed=9)
        a2, c2 = kmeans(points, 3, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


class TestFitClustering:
    def test_identical_shape_channels_share_cluster(self, rng):
        base = rng.normal(size=(1, 16))
        trend = np.concatenate([base, 5 * base, base + 2,
                                rng.normal(10, 0.1, size=(1, 16))])
        assignments = fit_clustering(trend, 2, seed=0)
        # first three channels are affine copies of the same shape
        assert assignments[0] == assignments[1]
        assert assignments[0] == assignments[2]

    def test_every_channel_labelled_and_both_clusters_used(self, rng):
        assignments = fit_clustering(rng.normal(size=(3, 8)), 2, seed=0)
        assert assignments.shape == (3,)
        assert set(assignments.tolist()) == {0, 1}


class TestGroupedLinear:
    def test_identity_init_is_passthrough(self, rng):
        gl = GroupedLinear(np.array([0, 1, 0]), 2, 12, 12)
        x = rng.normal(size=(3, 12))
        assert gl.project_trend(Tensor(x)).data == approx(x)

    def test_indexing_oracle(self, rng):
        """Each channel must be mapped by exactly its cluster's head."""
        assignments = np.array([2, 0, 1, 0])
        gl = GroupedLinear(assignments, 3, 5, 7)
        gl.weights.data[...] = rng.normal(size=gl.weights.data.shape)
        gl.biases.data[...] = rng.normal(size=gl.biases.data.shape)
        x = rng.normal(size=(2, 4, 5))
        out = gl.project_trend(Tensor(x)).data
        for b in range(2):
            for c in range(4):
                j = assignments[c]
                ref = x[b, c] @ gl.weights.data[j] + gl.biases.data[j]
                assert out[b, c] == approx(ref)

    def test_only_used_heads_get_gradients(self, rng):
        import adawavenet.tensor as T
        gl = GroupedLinear(np.array([0, 0, 2]), 3, 4, 4)
        loss = T.mse(gl.project_trend(Tensor(rng.normal(size=(3, 4)))),
                     Tensor(rng.normal(size=(3, 4))))
        loss.backward()
        assert np.any(gl.weights.grad[0] != 0)
        assert np.all(gl.weights.grad[1] == 0)
        assert np.any(gl.weights.grad[2] != 0)
