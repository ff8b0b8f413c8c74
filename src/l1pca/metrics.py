"""Solution-quality metrics: explained variation and clustering accuracy.

``tev`` and ``choose_K_by_variance`` need only the leading eigenvalues of
X X^T and its trace, frob(X)^2: ``tev`` the top K, and the cumulative rule
as many as it takes to reach its share of the trace.  Each request asks
``linalg._top_eigenvalues`` for what its caller needs and no more: ``tev``
the top K, and the cumulative rule the top eigenvalue first, then as many
as it has grown to, since Lanczos pays restart after restart for a request
that reaches into a tight noise bulk.  That function alone decides between
Lanczos and a dense solve of the whole spectrum, which a caller then uses
whole.  ``_tev_ratio`` and ``_choose_K`` work from ``_spectrum``'s result,
so a caller that needs the spectrum more than once (the ``cluster`` and
``compare`` commands) takes it once and passes it on.

Importing this module loads no ``scipy.optimize``: ``kmeans_accuracy`` (the
``cluster`` command) imports its ``linear_sum_assignment`` on its first
call in a process.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._args import count, fraction
from .errors import PreconditionError, UndefinedMetricError
from .linalg import _prescaled, _top_eigenvalues, _xt, frob, require_finite, seeded_rng
from .model import _check_dims, require_stiefel


def _spectrum(X, zero_message: str, k: int):
    """(X scaled, w) for finite, nonzero X: w is the k leading eigenvalues of
    its X X^T, nonincreasing, or the whole spectrum where
    ``linalg._top_eigenvalues`` solves densely.

    X is divided by a power of two near its Frobenius norm when that
    norm lies outside [2^-300, 2^300] (``linalg._prescaled``), where X X^T
    would overflow or lose entries to underflow; the division is exact and
    leaves every ratio of quadratic forms in X unchanged, and the exponent
    ``_top_eigenvalues`` then returns is 0.  Zero data raises
    UndefinedMetricError(zero_message).
    """
    require_finite(X, "X")
    norm = frob(X)
    if norm == 0.0:
        raise UndefinedMetricError(zero_message)
    X = _prescaled(X, norm)[0]
    return X, _top_eigenvalues(X, k)[0]


def _tev_ratio(X, w: np.ndarray, Q: np.ndarray) -> float:
    """tev from the spectrum (X scaled, w) of ``_spectrum``, holding at least the
    K leading eigenvalues or all of them, and a checked K-column frame Q."""
    return float(frob(_xt(X, Q)) ** 2) / float(w[: Q.shape[1]].sum())


_TEV_ZERO = "explained variation undefined for zero data"
_K_ZERO = "cannot choose K for zero data"


def tev(X, Q: np.ndarray) -> float:
    """Total explained variation of the frame Q against the data X.

    Ratio of ||X^T Q||_F^2 to the sum of the top-K eigenvalues of X X^T,
    i.e. variation captured by Q relative to the best any K orthonormal
    directions can capture.  Equals 1 at the leading eigenvector frame.
    A frame with no columns is a PreconditionError.
    """
    require_finite(X, "X")
    Q = require_stiefel(Q)
    _check_dims(X, Q)
    if Q.shape[1] == 0:
        raise PreconditionError("tev needs a frame with at least one column")
    return _tev_ratio(*_spectrum(X, _TEV_ZERO, Q.shape[1]), Q)


def _choose_K(X, threshold: float, large_side: int = 10000, cap: int = 50):
    """``choose_K_by_variance``, and the ``_spectrum`` it took (None at the cap).

    The total is the trace frob(X)^2.  The spectrum starts from the top
    eigenvalue and grows until a prefix reaches ``threshold`` of the total,
    with 1e-12 of it to spare for roundoff: each time to at least twice its
    length, and to at least as many eigenvalues as the shortfall needs, since
    none still missing exceeds the last one found.  Should the whole spectrum
    fall short, or the eigenvalues fall below 1e-12 of the largest, which is
    roundoff on a rank-deficient X, K counts the eigenvalues above that
    cutoff.  ``large_side`` and ``cap`` must be integers of at least 1.
    """
    threshold = fraction("threshold", threshold, "(0, 1]")
    cap = count("cap", cap, 1)
    if min(X.shape) < count("large_side", large_side, 1):
        X, w = _spectrum(X, _K_ZERO, 1)
        total = frob(X) ** 2
        target = threshold * total - 1e-12 * total
        while (cum := np.cumsum(w))[-1] < target:
            if len(w) == min(X.shape) or w[-1] <= w[0] * 1e-12:
                return int(np.count_nonzero(w > w[0] * 1e-12)), (X, w)
            w = _top_eigenvalues(X, len(w) + max(len(w), math.ceil((target - cum[-1]) / w[-1])))[0]
        return int(np.argmax(cum >= target)) + 1, (X, w)
    require_finite(X, "X")
    if frob(X) == 0.0:
        raise UndefinedMetricError(_K_ZERO)
    return cap, None


def choose_K_by_variance(X, threshold: float, large_side: int = 10000, cap: int = 50) -> int:
    """Smallest K whose top singular values explain the requested fraction.

    The fraction is of the trace frob(X)^2, so only the leading eigenvalues
    of X X^T are needed, asked of ``linalg._top_eigenvalues`` and grown
    until they suffice.  When the smaller matrix side reaches ``large_side``,
    K is the fixed ``cap`` instead: the rule may need a good share of the
    spectrum, and at that size that share is a dense solve of a Gram matrix
    with at least ``large_side``^2 entries.
    """
    return _choose_K(X, threshold, large_side, cap)[0]


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
    for a fixed seed.  ``k`` and ``restarts`` must be integers of at least 1,
    and more clusters than points is a PreconditionError.
    """
    k, restarts = count("k", k, 1), count("restarts", restarts, 1)
    if k > points.shape[0]:
        raise PreconditionError(f"cannot form {k} clusters from {points.shape[0]} points")
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
    # C[j, i] counts the samples in cluster j whose label equals values[i]
    # (a NaN label equals no value, so its sample is counted nowhere)
    at = np.searchsorted(values, truth)
    C = np.bincount(pred * m + at, weights=values[at] == truth, minlength=k * m).reshape(k, m)
    n = len(truth)
    if m < k:
        # fewer label values than clusters: per-cluster majority mapping
        return float(C.max(axis=1).sum() / n)
    # imported here, not at the top: importing scipy.optimize costs about 0.15 s and 17 MB per
    # process, and only cluster scoring needs it
    from scipy.optimize import linear_sum_assignment

    # the counts are integers, so the matching's optimum is exact
    rows, cols = linear_sum_assignment(-C)
    return float(C[rows, cols].sum() / n)


def kmeans_accuracy(X, Q: np.ndarray, labels, k: int, restarts: int = 10, seed: int = 0) -> float:
    """Clustering accuracy of samples projected onto the frame Q.

    Projects each sample to its K frame coordinates, clusters with
    best-of-restarts Lloyd, then scores the best cluster-to-label
    assignment by Hungarian matching.  Degenerate inputs (all projected
    points identical) score the majority label and emit a warning.
    """
    Q = require_stiefel(Q)
    labels = np.asarray(labels)
    n = X.shape[1]
    if labels.shape != (n,):
        raise PreconditionError("labels must have one entry per sample")
    points = np.asarray(_xt(X, Q), dtype=np.float64)
    pred, _, degenerate = kmeans_cluster(points, k, restarts=restarts, seed=seed)
    if degenerate:
        warnings.warn("all projected points identical; scoring majority label", RuntimeWarning, stacklevel=2)
        _, counts = np.unique(labels, return_counts=True)
        return float(counts.max() / n)
    return _assignment_accuracy(pred, labels, k)
