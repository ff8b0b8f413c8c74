import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gram_eigenvalues_reference, variance_K_reference, with_duplicates
from l1pca import linalg, metrics
from l1pca.errors import DimensionMismatchError, InvalidInputError, PreconditionError, UndefinedMetricError
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

    def test_one_dimensional_Q_rejected(self):
        with pytest.raises(PreconditionError, match="2-d"):
            tev(np.eye(3), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_frame_row_mismatch(self, sparse):
        X = seeded_rng(54).standard_normal((4, 9))
        with pytest.raises(DimensionMismatchError, match="Q has 3 rows, X has 4"):
            tev(sp.csc_matrix(X) if sparse else X, np.eye(3)[:, :2])

    @pytest.mark.parametrize("d", [6, 300], ids=["dense-side", "lanczos-side"])
    def test_frame_without_columns_rejected(self, monkeypatch, d):
        # refused before any spectrum is taken, on both sides of linalg._DENSE_SIDE
        monkeypatch.setattr(metrics, "_top_eigenvalues", None)
        X = seeded_rng(66).standard_normal((d, d + 3))
        with pytest.raises(PreconditionError, match="at least one column"):
            tev(X, np.zeros((d, 0)))


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


    @pytest.mark.parametrize("sparse", [False, True])
    def test_norm_below_least_normal(self, sparse):
        # frob(X) below 2^-1023, where 2^-e is not a float; integer entries
        # times 2^-1040 are exact
        rng = seeded_rng(59)
        X = rng.integers(-9, 10, (6, 10)).astype(float)
        Q = random_stiefel(6, 2, rng)
        Xs = sp.csc_matrix(X) * 2.0**-1040 if sparse else X * 2.0**-1040
        assert tev(Xs, Q) == pytest.approx(tev(X, Q), rel=1e-12)
        assert choose_K_by_variance(Xs, 0.7) == choose_K_by_variance(X, 0.7)


class TestDuplicateEntries:
    """A sparse X that stores an entry more than once has the metrics of its dense sum."""

    @pytest.mark.parametrize("fmt", ["coo", "csr", "csc"])
    def test_split_entries_match_dense(self, fmt):
        rng = seeded_rng(67)
        X = rng.standard_normal((30, 40))
        Q = random_stiefel(30, 4, rng)
        Xd = with_duplicates(0.5 * X, 0.5 * X, fmt)
        assert choose_K_by_variance(Xd, 0.8) == choose_K_by_variance(X, 0.8) == 13
        assert tev(Xd, Q) == pytest.approx(tev(X, Q), rel=1e-12)

    @pytest.mark.parametrize("fmt", ["coo", "csr", "csc"])
    def test_cancelling_entries_are_zero_data(self, fmt):
        X = seeded_rng(68).standard_normal((6, 9))
        Xd = with_duplicates(X, -X, fmt)
        with pytest.raises(UndefinedMetricError):
            tev(Xd, np.eye(6)[:, :2])
        with pytest.raises(UndefinedMetricError):
            choose_K_by_variance(Xd, 0.8)


class TestSharedSpectrum:
    """One spectrum serves both metrics, with the values and errors of the public calls."""

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_spectrum_of_choose_K_serves_tev(self, scale, sparse):
        rng = seeded_rng(59)
        X = rng.standard_normal((12, 30)) * scale
        X = sp.csc_matrix(X) if sparse else X
        K, spectrum = metrics._choose_K(X, 0.7)
        Q = random_stiefel(12, K, rng)
        assert K == choose_K_by_variance(X, 0.7)
        assert metrics._tev_ratio(*spectrum, Q) == tev(X, Q)

    def test_large_side_takes_no_spectrum(self, monkeypatch):
        monkeypatch.setattr(metrics, "_top_eigenvalues", None)
        assert metrics._choose_K(sp.eye(6, format="csc"), 0.8, large_side=6, cap=3) == (3, None)

    def test_zero_data_messages(self):
        with pytest.raises(UndefinedMetricError, match="explained variation undefined for zero data"):
            tev(np.zeros((3, 4)), np.eye(3)[:, :1])
        for large_side in (10000, 3):
            with pytest.raises(UndefinedMetricError, match="cannot choose K for zero data"):
                choose_K_by_variance(np.zeros((3, 4)), 0.8, large_side=large_side)


@st.composite
def _low_rank(draw, max_side=120, min_side=1):
    """(X, rank): a seeded d x n Gaussian product of the drawn rank, 0 (zero X) included."""
    d = draw(st.integers(min_side, max_side))
    n = draw(st.integers(min_side, max_side))
    rank = draw(st.integers(0, min(d, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n)), rank


_SCALES = st.sampled_from([1.0, 1e160, 1e-170])


@pytest.fixture
def top_requests(monkeypatch):
    """The k of every metrics._top_eigenvalues request, in call order."""
    requests = []
    real = metrics._top_eigenvalues

    def recording(X, k, *memo):
        requests.append(k)
        return real(X, k, *memo)

    monkeypatch.setattr(metrics, "_top_eigenvalues", recording)
    return requests


def _five_topics():
    """(X, rng): a seeded sparse 400 x 800 X of five topic blocks over a noise bulk, and the
    generator that drew it, for draws after it."""
    rng = seeded_rng(67)
    X = np.where(rng.random((400, 800)) < 0.03, rng.random((400, 800)) * 0.2, 0.0)
    topic = np.arange(800) % 5
    for c in range(5):
        X[20 * c:20 * c + 20, topic == c] += rng.uniform(0.5, 1.5, (20, 160))
    return sp.csc_matrix(X), rng


def _counting_csc(X):
    """(X as a CSC subclass that counts the products with it on the left, the count in a list).

    Every Lanczos product of ``linalg._top_eigenvalues`` on a d x n X, d <= n, is X (X^T v):
    one product with X on the left each; X^T is a plain CSR matrix."""
    count = [0]

    class Counting(sp.csc_matrix):
        def __matmul__(self, other):
            count[0] += 1
            return super().__matmul__(other)

    return Counting(X), count


class TestPartialSpectrum:
    """linalg._top_eigenvalues against a dense eigendecomposition, on both sides of the dense-solve size."""

    @staticmethod
    def _check(X, k, scale, sparse):
        Xs = sp.csc_matrix(X * scale) if sparse else X * scale
        w, e = linalg._top_eigenvalues(Xs, k)
        m = min(X.shape)
        w2, e2 = linalg._top_eigenvalues(Xs, k)
        assert e2 == e and np.array_equal(w2, w)
        if not X.any():
            assert e == 0 and np.array_equal(w, np.zeros(min(k, m)))
            return
        assert len(w) == (k if m > linalg._DENSE_SIDE and k < linalg._LANCZOS_MAX_FRACTION * m else m)
        assert np.all(np.diff(w) <= 0.0) and w[-1] >= 0.0
        # X * scale / 2^e == X * ldexp(scale, -e) exactly: the prescale is a power of two
        ref = gram_eigenvalues_reference(X)[: len(w)] * math.ldexp(scale, -e) ** 2
        assert np.abs(w - ref).max() <= 1e-12 * ref[0]

    # every draw here has a Gram side of at most linalg._DENSE_SIDE, so is solved densely
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=_low_rank(), k=st.one_of(st.integers(1, 3), st.integers(1, 120)), scale=_SCALES, sparse=st.booleans())
    def test_matches_dense_eigendecomposition(self, data, k, scale, sparse):
        X, _ = data
        self._check(X, min(k, *X.shape), scale, sparse)

    # a Gram side of 257-300 with k at most 8 takes Lanczos
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=_low_rank(max_side=300, min_side=257), k=st.integers(1, 8), scale=_SCALES, sparse=st.booleans())
    def test_lanczos_side_matches_dense_eigendecomposition(self, data, k, scale, sparse):
        X, _ = data
        self._check(X, k, scale, sparse)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    @pytest.mark.parametrize(
        "shape, k", [((300, 320), 8), ((320, 300), 9), ((300, 320), 10), ((60, 40), 40), ((40, 70), 1), ((1, 5), 1)]
    )
    def test_both_sides_of_the_dense_size(self, shape, k, scale, sparse):
        rng = seeded_rng(60)
        self._check(rng.standard_normal(shape), k, scale, sparse)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_rank_deficient_beyond_rank(self, sparse):
        rng = seeded_rng(61)
        X = rng.standard_normal((300, 3)) @ rng.standard_normal((3, 320))
        self._check(X, 8, 1.0, sparse)
        self._check(np.zeros((300, 320)), 8, 1.0, sparse)

    def test_no_convergence_solves_densely(self, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        X = seeded_rng(65).standard_normal((300, 320))
        monkeypatch.setattr(linalg, "eigsh", fail)
        w, e = linalg._top_eigenvalues(sp.csc_matrix(X), 8)
        assert e == 0 and len(w) == 300
        ref = gram_eigenvalues_reference(X)
        assert np.abs(w - ref).max() <= 1e-12 * ref[0]

    def test_repeated_eigenvalue(self):
        X = sp.eye(300, format="csc") * 2.0
        w, e = linalg._top_eigenvalues(X, 8)
        assert e == 0 and np.allclose(w, 4.0, rtol=1e-14, atol=0.0)
        assert choose_K_by_variance(X, 0.8) == 240

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=_low_rank(), threshold=st.floats(0.01, 1.0), scale=_SCALES, sparse=st.booleans())
    def test_choose_K_matches_full_spectrum_rule(self, data, threshold, scale, sparse):
        X, rank = data
        if rank == 0:
            return
        Xs = sp.csc_matrix(X * scale) if sparse else X * scale
        assert choose_K_by_variance(Xs, threshold) == variance_K_reference(X, threshold)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_choose_K_grows_the_block(self, sparse):
        # K = 12: the requests grow 1, 3, 6, 12, all below 520 / 32
        rng = seeded_rng(62)
        X = rng.standard_normal((520, 3)) @ rng.standard_normal((3, 540)) * 5.0 + rng.standard_normal((520, 540))
        w = gram_eigenvalues_reference(X)
        cum = np.cumsum(w) / w.sum()
        threshold = float(cum[10] + cum[11]) / 2.0
        Xs = sp.csc_matrix(X) if sparse else X
        K, (Xp, wp) = metrics._choose_K(Xs, threshold)
        assert K == 12 == variance_K_reference(X, threshold)
        assert len(wp) == 12
        Q = random_stiefel(520, K, rng)
        ref = float(np.linalg.norm(X.T @ Q) ** 2 / w[:K].sum())
        assert metrics._tev_ratio(Xp, wp, Q) == pytest.approx(ref, rel=1e-12)
        assert tev(Xs, Q) == pytest.approx(ref, rel=1e-12)

    def test_tev_takes_one_spectrum(self, top_requests):
        # K = 12 reaches 300 / 32, where the spectrum is solved densely
        rng = seeded_rng(65)
        X = rng.standard_normal((300, 600))
        Q = random_stiefel(300, 12, rng)
        expected = float(np.linalg.norm(X.T @ Q) ** 2 / gram_eigenvalues_reference(X)[:12].sum())
        assert tev(X, Q) == pytest.approx(expected, rel=1e-12)
        assert top_requests == [12]

    def test_shortfall_skips_to_dense_solve(self, top_requests):
        # after the top eigenvalue, the shortfall alone needs more than 520 / 32 eigenvalues
        rng = seeded_rng(64)
        X = rng.standard_normal((520, 540))
        K, (_, w) = metrics._choose_K(X, 0.9)
        assert K == variance_K_reference(X, 0.9)
        assert top_requests[0] == 1 and len(top_requests) == 2 and len(w) == 520

    def test_requests_only_the_eigenvalues_needed(self, top_requests):
        # five topic blocks over a noise bulk: a request for more than five
        # eigenvalues cuts into the bulk, where Lanczos restarts again and again
        X, rng = _five_topics()
        assert metrics._choose_K(X, 0.8)[0] == 5 == variance_K_reference(X, 0.8)
        assert top_requests == [1, 5]
        Q = random_stiefel(400, 5, rng)
        expected = float(np.linalg.norm(X.T @ Q) ** 2 / gram_eigenvalues_reference(X)[:5].sum())
        top_requests.clear()
        assert tev(X, Q) == pytest.approx(expected, rel=1e-12)
        assert top_requests == [5]
        # a Gram side of at most linalg._DENSE_SIDE comes back whole from the first request
        top_requests.clear()
        K, (_, w) = metrics._choose_K(X[:200], 0.8)
        assert K == variance_K_reference(X[:200], 0.8)
        assert top_requests == [1] and len(w) == 200

    @pytest.mark.parametrize("data", ["five_topics", "bench_cluster"])
    def test_search_forms_the_first_pass_once(self, data, bench_workloads, top_requests):
        # requests 1 and 5 start Lanczos from the same vector: the second replays the first's
        # initial pass from the memo, so the search forms the products of its first request alone
        X = _five_topics()[0] if data == "five_topics" else bench_workloads.sparse_clusters(1)[0]
        Xc, count = _counting_csc(X)
        w1 = linalg._top_eigenvalues(Xc, 1)[0]
        first = count[0]
        w5 = linalg._top_eigenvalues(Xc, 5)[0]
        assert count[0] == 2 * first  # two requests without a memo, as each request stood alone
        count[0] = 0
        K, (_, w) = metrics._choose_K(Xc, 0.8)
        assert top_requests == [1, 5] and count[0] == first > 20
        assert K == 5 and w.tobytes() == w5.tobytes() and w[0] == w1[0]

    def test_memo_is_bounded_and_dropped(self, bench_workloads, monkeypatch):
        # at 0.9 the requests grow 1, 6, 45, then solve densely: the memo holds the first request's
        # initial pass (its start's product and ncv = 20 Lanczos steps) and nothing more, and none
        # of it outlives the call
        X = bench_workloads.sparse_clusters(1)[0]
        real = metrics._top_eigenvalues
        requests, sizes, held = [], [], []

        def recording(X, k, memo):
            w = real(X, k, memo)
            requests.append(k)
            sizes.append(len(memo))
            held.extend(weakref.ref(y) for y in memo.values())
            return w

        monkeypatch.setattr(metrics, "_top_eigenvalues", recording)
        w = metrics._choose_K(X, 0.9)[1][1]
        assert requests == [1, 6, 45, 90] and len(w) == 1500
        assert sizes == [21] * 4 and len(held) == 4 * 21
        assert all(ref() is None for ref in held)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_first_block_serves_tev_exactly(self, sparse):
        rng = seeded_rng(63)
        X = rng.standard_normal((300, 3)) @ rng.standard_normal((3, 320)) * 3.0 + rng.standard_normal((300, 320))
        Xs = sp.csc_matrix(X) if sparse else X
        K, spectrum = metrics._choose_K(Xs, 0.2)
        assert K <= 3 and len(spectrum[1]) == 1
        Q = random_stiefel(300, K, rng)
        assert metrics._tev_ratio(*spectrum, Q) == tev(Xs, Q)


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

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_frame_row_mismatch(self, sparse):
        X = seeded_rng(58).standard_normal((4, 12))
        labels = np.arange(12) % 2
        with pytest.raises(DimensionMismatchError, match="Q has 3 rows, X has 4"):
            kmeans_accuracy(sp.csc_matrix(X) if sparse else X, np.eye(3)[:, :2], labels, k=2, restarts=1)

    def test_degenerate_majority(self):
        X = np.ones((3, 10))
        Q = np.array([[1.0], [0.0], [0.0]])
        labels = np.array([0] * 7 + [1] * 3)
        with pytest.warns(RuntimeWarning):
            acc = kmeans_accuracy(X, Q, labels, k=2, restarts=2, seed=4)
        assert acc == pytest.approx(0.7)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_accuracy_does_not_depend_on_scale(self, sparse):
        # points are degenerate only when exactly equal: projected points within 1e-8 of each
        # other scored the majority label, so the accuracy depended on the scale of X
        pts, labels = _separable(seed=6)
        Q = random_stiefel(3, 2, seeded_rng(60))
        fmt = sp.csc_matrix if sparse else np.asarray
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc = [kmeans_accuracy(fmt(pts * scale), Q, labels, k=2, restarts=3, seed=5) for scale in (1.0, 2.0**-30)]
        assert acc[0] == acc[1] == 1.0

    def test_more_clusters_than_points_rejected(self):
        rng = seeded_rng(59)
        X = rng.standard_normal((3, 8))
        Q = random_stiefel(3, 2, rng)
        with pytest.raises(PreconditionError, match="cannot form 9 clusters from 8 points"):
            kmeans_accuracy(X, Q, np.arange(8) % 2, k=9, restarts=2)
        with pytest.raises(PreconditionError, match="cannot form 3 clusters from 2 points"):
            kmeans_cluster(np.zeros((2, 1)), 3)
        assert kmeans_cluster(np.arange(8.0)[:, None], 8, restarts=1)[1] == 0.0

    @pytest.mark.parametrize("scale", [2.0**540, 2.0**-540, 1e160, 1e300])
    def test_cluster_labels_do_not_depend_on_scale(self, scale):
        # squared distances overflowed past about 1e154, and the plus-plus draw raised
        # "Probabilities contain NaN"; Lloyd now runs on the points over a power of two
        pts = np.random.default_rng(0).standard_normal((50, 3))
        labels, wcss, _ = kmeans_cluster(pts, 3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_wcss, degenerate = kmeans_cluster(pts * scale, 3, seed=1)
        assert np.array_equal(got, labels) and not degenerate
        # the sum scales by scale^2 with one rounding, to a subnormal at 2^-1080
        assert got_wcss == (math.ldexp(wcss, -1080) if scale == 2.0**-540 else math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cluster_refuses_points_not_finite(self, bad):
        pts = np.random.default_rng(0).standard_normal((10, 2))
        pts[3, 1] = bad
        with pytest.raises(InvalidInputError, match="points"):
            kmeans_cluster(pts, 2)

    def test_cluster_objective_improves_with_restarts(self):
        pts, _ = _separable(seed=5)
        coords = pts.T[:, :1]
        _, wcss1, _ = kmeans_cluster(coords, 2, restarts=1, seed=0)
        _, wcss10, _ = kmeans_cluster(coords, 2, restarts=10, seed=0)
        assert wcss10 <= wcss1 + 1e-12

    def test_scipy_optimize_loaded_on_first_call(self):
        # importing the package and its CLI loads no scipy.optimize (about 0.15 s and 17 MB per process);
        # the first kmeans_accuracy call does, in a fresh interpreter
        X = np.arange(24.0).reshape(3, 8) % 5
        Q, labels = np.eye(3)[:, :2], np.arange(8) % 3
        script = (
            "import sys, numpy as np, l1pca, l1pca.cli\n"
            "before = 'scipy.optimize' in sys.modules\n"
            "X = np.arange(24.0).reshape(3, 8) % 5\n"
            "acc = l1pca.metrics.kmeans_accuracy(X, np.eye(3)[:, :2], np.arange(8) % 3, k=3, restarts=2, seed=1)\n"
            "print(before, 'scipy.optimize' in sys.modules, repr(acc))\n"
        )
        src = Path(metrics.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        acc = kmeans_accuracy(X, Q, labels, k=3, restarts=2, seed=1)
        assert out.stdout.split() == ["False", "True", repr(acc)]


def _kmeanspp_reference(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = points[int(rng.integers(n))]
            continue
        centers[j] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd_reference(points, k, rng, max_iter=100):
    """Plus-plus seeding and Lloyd's iteration as they ran before the distances were summed
    coordinate by coordinate: an n x K or n x k x K temporary per distance pass, and a
    boolean mask per cluster."""
    centers = _kmeanspp_reference(points, k, rng)
    labels = None
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(new_labels == j):
                far = int(d2.min(axis=1).argmax())
                centers[j] = points[far]
                d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    d2 = ((points - centers[labels]) ** 2).sum()
    return labels, float(d2)


def _lloyd_points(rng, n, K, kind):
    """n x K points: Gaussian at a random scale, rounded to integers (ties), or half of
    them copies of a few rows (duplicates)."""
    pts = rng.standard_normal((n, K)) * 10.0 ** rng.integers(-3, 4)
    if kind == "ties":
        pts = np.round(pts * 10.0 ** -np.floor(np.log10(np.abs(pts).max())))
    elif kind == "duplicates":
        pts[rng.integers(0, n, n // 2)] = pts[rng.integers(0, 3, n // 2)]
    return pts


class TestLloydAgainstReference:
    """_lloyd gives the n x k x K reference's labels and sum of squares, bit for bit."""

    @pytest.mark.parametrize("kind", ["gaussian", "ties", "duplicates"])
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 40, 129, 300])
    def test_bit_identical(self, K, kind):
        rng = np.random.default_rng([K, len(kind), 0x110D])
        for trial in range(12 if K < 40 else 3):
            n = int(rng.integers(2, 400))
            k = int(rng.integers(1, min(n, 9) + 1))
            pts = _lloyd_points(rng, n, K, kind)
            if len(np.unique(pts, axis=0)) < k:
                continue  # the reference then takes the mean of an empty cluster
            got = metrics._lloyd(pts, k, seeded_rng(trial, 0x6B))
            expected = _lloyd_reference(pts, k, seeded_rng(trial, 0x6B))
            assert np.array_equal(got[0], expected[0]) and got[1] == expected[1], (n, k, trial)

    def test_squared_distances_bit_identical(self):
        rng = np.random.default_rng(0x5D)
        for K in [*range(1, 20), 64, 127, 128, 129, 136, 200, 257]:
            pts = rng.standard_normal((50, K)) * 10.0 ** rng.integers(-3, 4, (50, K))
            centers = rng.standard_normal((4, K))
            expected = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(metrics._sq_dists(np.ascontiguousarray(pts.T), centers), expected.T), K
            # the plus-plus seeding's distances to one centre
            expected = ((pts - centers[0]) ** 2).sum(axis=1)
            assert np.array_equal(metrics._sq_dists(np.ascontiguousarray(pts.T), centers[:1])[0], expected), K

    def test_points_without_coordinates(self):
        # a frame with no columns projects every sample to the same empty point
        pts = np.zeros((5, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reference takes the mean of an empty cluster
            expected = _lloyd_reference(pts, 2, seeded_rng(0, 0x6B))
        got = metrics._lloyd(pts, 2, seeded_rng(0, 0x6B))
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1] == 0.0
        with pytest.warns(RuntimeWarning, match="all projected points identical"):
            assert kmeans_accuracy(np.ones((3, 6)), np.zeros((3, 0)), np.arange(6) % 2, k=2, restarts=1) == 0.5

    def test_cluster_left_empty_keeps_its_centre(self):
        # two distinct values, three clusters: the repair cannot fill the third, which
        # kept a NaN centre (the mean of no points) and ran all 100 iterations
        pts = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, wcss, degenerate = kmeans_cluster(pts, 3, restarts=1, seed=0)
        assert wcss == 0.0 and not degenerate
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1 and labels[0] != labels[3]


def _assignment_reference(pred, truth, k):
    """The scoring that ran for k <= 8 before Hungarian matching took every k.

    Every injective cluster-to-label map is enumerated, one cluster at a
    time, as (score so far, bitmask of labels used); with fewer label values
    than clusters each cluster takes its majority label instead.
    """
    values = np.unique(truth)
    m = len(values)
    C = np.zeros((k, m))
    for j in range(k):
        for i, v in enumerate(values):
            C[j, i] = np.sum((pred == j) & (truth == v))
    n = len(truth)
    if m < k:
        return float(C.max(axis=1).sum() / n)
    score = np.zeros(1)
    used = np.zeros(1, dtype=np.int64)
    for j in range(k):
        state, label = np.nonzero((used[:, None] >> np.arange(m)) & 1 == 0)
        score = score[state] + C[j, label]
        used = used[state] | (1 << label)
    return float(score.max() / n)


class TestAssignmentAccuracy:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_matches_exhaustive_search(self, k):
        rng = np.random.default_rng([k, 0xA55])
        for m in sorted({max(1, k - 1), k, k + 1}):
            # at k = 9 and m = 10 the search visits 10! maps per pair
            for _ in range(4 if k < 9 else 1):
                n = int(rng.integers(m, 60))
                pred = rng.integers(0, k, n)
                # every one of m label values occurs; values are not 0..m-1
                truth = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, n - m)])) * 2.5 - 1.0
                assert metrics._assignment_accuracy(pred, truth, k) == _assignment_reference(pred, truth, k)
