import numpy as np
import pytest
import scipy.sparse as sp

from l1pca.errors import PreconditionError, UndefinedMetricError
from l1pca.linalg import random_orthogonal, random_stiefel, seeded_rng
from l1pca.metrics import choose_K_by_variance, kmeans_accuracy, kmeans_cluster, tev


def _separable(seed=0, n_per=25, gap=6.0):
    rng = seeded_rng(seed)
    pts = rng.standard_normal((3, 2 * n_per)) * 0.2
    pts[0, :n_per] += gap / 2
    pts[0, n_per:] -= gap / 2
    labels = np.array([0] * n_per + [1] * n_per)
    return pts, labels


class TestTev:
    def test_leading_eigvectors_give_one(self):
        rng = seeded_rng(51)
        X = rng.standard_normal((6, 40))
        w, V = np.linalg.eigh(X @ X.T)
        Q = V[:, ::-1][:, :2]
        assert tev(X, Q) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert tev(np.diag([3.0, 1.0]), np.array([[0.0], [1.0]])) == pytest.approx(1.0 / 9.0, abs=1e-14)

    def test_bounded_by_one(self):
        rng = seeded_rng(52)
        X = rng.standard_normal((5, 30))
        for _ in range(200):
            Q = random_stiefel(5, 2, rng)
            assert tev(X, Q) <= 1.0 + 1e-12

    def test_rotation_invariant(self):
        rng = seeded_rng(53)
        X = rng.standard_normal((6, 25))
        Q = random_stiefel(6, 3, rng)
        R = random_orthogonal(3, rng)
        assert tev(X, Q @ R) == pytest.approx(tev(X, Q), abs=1e-12)

    def test_zero_data_rejected(self):
        with pytest.raises(UndefinedMetricError):
            tev(np.zeros((3, 4)), np.eye(3)[:, :1])


class TestChooseK:
    def test_fraction_examples(self):
        X = np.diag([3.0, 1.0])
        assert choose_K_by_variance(X, 0.8) == 1
        assert choose_K_by_variance(X, 0.95) == 2
        assert choose_K_by_variance(X, 1.0) == 2

    def test_rank_at_threshold_one(self):
        rng = seeded_rng(54)
        u = random_stiefel(5, 2, rng)
        X = u @ (rng.standard_normal((2, 9)))
        assert choose_K_by_variance(X, 1.0) == 2

    def test_large_side_cap(self):
        X = sp.eye(10000, format="csc") * 2.0
        assert choose_K_by_variance(X, 0.8) == 50

    def test_threshold_range(self):
        with pytest.raises(PreconditionError):
            choose_K_by_variance(np.eye(2), 0.0)


class TestScale:
    """tev and choose_K_by_variance are invariant to the floating-point scale of X."""

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_extreme_scale_matches_unit_scale(self, scale, sparse):
        rng = seeded_rng(58)
        X = rng.standard_normal((20, 40))
        Q = random_stiefel(20, 3, rng)
        Xs = sp.csc_matrix(X * scale) if sparse else X * scale
        assert tev(Xs, Q) == pytest.approx(tev(X, Q), rel=1e-12)
        assert choose_K_by_variance(Xs, 0.7) == choose_K_by_variance(X, 0.7)


class TestKmeans:
    def test_separable_perfect(self):
        pts, labels = _separable()
        Q = np.array([[1.0], [0.0], [0.0]])
        assert kmeans_accuracy(pts, Q, labels, k=2, restarts=5, seed=1) == 1.0

    def test_single_label_value(self):
        rng = seeded_rng(55)
        X = rng.standard_normal((3, 20))
        Q = random_stiefel(3, 2, rng)
        labels = np.zeros(20)
        assert kmeans_accuracy(X, Q, labels, k=1, restarts=3, seed=2) == 1.0

    def test_two_cluster_floor(self):
        rng = seeded_rng(56)
        X = rng.standard_normal((4, 40))
        Q = random_stiefel(4, 2, rng)
        labels = (rng.random(40) < 0.5).astype(int)
        assert kmeans_accuracy(X, Q, labels, k=2, restarts=4, seed=3) >= 0.5

    def test_deterministic(self):
        rng = seeded_rng(57)
        X = rng.standard_normal((5, 60))
        Q = random_stiefel(5, 2, rng)
        labels = (rng.random(60) < 0.4).astype(int)
        a1 = kmeans_accuracy(X, Q, labels, k=2, restarts=10, seed=9)
        a2 = kmeans_accuracy(X, Q, labels, k=2, restarts=10, seed=9)
        assert a1 == a2

    def test_degenerate_majority(self):
        X = np.ones((3, 10))
        Q = np.array([[1.0], [0.0], [0.0]])
        labels = np.array([0] * 7 + [1] * 3)
        with pytest.warns(RuntimeWarning):
            acc = kmeans_accuracy(X, Q, labels, k=2, restarts=2, seed=4)
        assert acc == pytest.approx(0.7)

    def test_cluster_objective_improves_with_restarts(self):
        pts, _ = _separable(seed=5)
        coords = pts.T[:, :1]
        _, wcss1, _ = kmeans_cluster(coords, 2, restarts=1, seed=0)
        _, wcss10, _ = kmeans_cluster(coords, 2, restarts=10, seed=0)
        assert wcss10 <= wcss1 + 1e-12
