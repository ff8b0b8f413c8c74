"""Solution-quality metrics: explained variation and clustering accuracy."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import PreconditionError, UndefinedMetricError
from .linalg import as_dense, frob, require_finite, seeded_rng
from .model import require_stiefel


def _unit_scaled(X, norm: float):
    """X, or X divided by a power of two near its Frobenius norm ``norm``.

    The division is exact and leaves every ratio of quadratic forms in X
    unchanged; it is applied only when ``norm`` lies outside [2^-300, 2^300],
    where X X^T would overflow or lose entries to underflow.
    """
    if 2.0**-300 <= norm <= 2.0**300:
        return X
    return X * math.ldexp(1.0, -math.frexp(norm)[1])


def _cov_eigenvalues(X) -> np.ndarray:
    """Nonincreasing eigenvalues of X X^T, computed on the smaller Gram side."""
    Xd = as_dense(X)
    d, n = Xd.shape
    G = Xd @ Xd.T if d <= n else Xd.T @ Xd
    w = np.linalg.eigvalsh(G)
    return np.maximum(w[::-1], 0.0)


def tev(X, Q: np.ndarray) -> float:
    """Total explained variation of the frame Q against the data X.

    Ratio of ||X^T Q||_F^2 to the sum of the top-K eigenvalues of X X^T,
    i.e. variation captured by Q relative to the best any K orthonormal
    directions can capture.  Equals 1 at the leading eigenvector frame.
    """
    require_finite(X, "X")
    Q = require_stiefel(Q)
    norm = frob(X)
    if norm == 0.0:
        raise UndefinedMetricError("explained variation undefined for zero data")
    X = _unit_scaled(X, norm)
    K = Q.shape[1]
    num = float(frob(X.T @ Q) ** 2)
    den = float(_cov_eigenvalues(X)[:K].sum())
    return num / den


def choose_K_by_variance(X, threshold: float, large_side: int = 10000, cap: int = 50) -> int:
    """Smallest K whose top singular values explain the requested fraction.

    Falls back to the fixed cap when the smaller matrix side is so large
    that forming the full spectrum is impractical.
    """
    if not (0.0 < threshold <= 1.0):
        raise PreconditionError("threshold must lie in (0, 1]")
    require_finite(X, "X")
    norm = frob(X)
    if norm == 0.0:
        raise UndefinedMetricError("cannot choose K for zero data")
    if min(X.shape) >= large_side:
        return cap
    w = _cov_eigenvalues(_unit_scaled(X, norm))
    w = w[w > w[0] * 1e-12]
    total = float(w.sum())
    cum = np.cumsum(w)
    idx = int(np.argmax(cum >= threshold * total - 1e-12 * total))
    return idx + 1


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100) -> tuple[np.ndarray, float]:
    centers = _kmeanspp_init(points, k, rng)
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


def kmeans_cluster(points: np.ndarray, k: int, restarts: int = 10, seed: int = 0) -> tuple[np.ndarray, float, bool]:
    """Best-of-restarts Lloyd clustering with plus-plus seeding.

    Returns (labels, within-cluster sum of squares, degenerate flag); ties
    between restarts go to the earliest one, so results are deterministic
    for a fixed seed.
    """
    if k < 1 or points.shape[0] < 1:
        raise PreconditionError("need at least one cluster and one point")
    degenerate = bool(np.allclose(points, points[0]))
    best_labels = None
    best_wcss = np.inf
    for r in range(restarts):
        rng = seeded_rng(seed, 0x6B, r)
        labels, wcss = _lloyd(points, k, rng)
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return best_labels, best_wcss, degenerate


def _assignment_accuracy(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    values = np.unique(truth)
    m = len(values)
    C = np.zeros((k, m))
    for j in range(k):
        for i, v in enumerate(values):
            C[j, i] = np.sum((pred == j) & (truth == v))
    n = len(truth)
    if m < k:
        # fewer label values than clusters: per-cluster majority mapping
        return float(C.max(axis=1).sum() / n)
    if k <= 8:
        best = 0.0
        for perm in itertools.permutations(range(m), k):
            best = max(best, sum(C[j, perm[j]] for j in range(k)))
        return float(best / n)
    rows, cols = linear_sum_assignment(-C)
    return float(C[rows, cols].sum() / n)


def kmeans_accuracy(X, Q: np.ndarray, labels, k: int, restarts: int = 10, seed: int = 0) -> float:
    """Clustering accuracy of samples projected onto the frame Q.

    Projects each sample to its K frame coordinates, clusters with
    best-of-restarts Lloyd, then scores the best cluster-to-label
    assignment (exact permutation search up to k = 8, Hungarian matching
    above).  Degenerate inputs (all projected points identical) score the
    majority label and emit a warning.
    """
    Q = require_stiefel(Q)
    labels = np.asarray(labels)
    n = X.shape[1]
    if labels.shape != (n,):
        raise PreconditionError("labels must have one entry per sample")
    points = np.asarray((X.T @ Q), dtype=np.float64)
    pred, _, degenerate = kmeans_cluster(points, k, restarts=restarts, seed=seed)
    if degenerate:
        warnings.warn("all projected points identical; scoring majority label", RuntimeWarning, stacklevel=2)
        _, counts = np.unique(labels, return_counts=True)
        return float(counts.max() / n)
    return _assignment_accuracy(pred, labels, k)
