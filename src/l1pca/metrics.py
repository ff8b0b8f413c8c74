"""Solution-quality metrics: explained variation and clustering accuracy.

``tev`` and ``choose_K_by_variance`` need only the leading eigenvalues of
X X^T and its trace, frob(X)^2: ``tev`` the top K, and the cumulative rule
as many as it takes to reach its share of the trace.  Each request asks
``linalg._top_eigenvalues`` for what its caller needs and no more: ``tev``
the top K, and the cumulative rule the top eigenvalue first, then as many
as it has grown to, since Lanczos pays restart after restart for a request
that reaches into a tight noise bulk; the requests of one ``_choose_K``
call share one products memo, so none after the first forms again the
products of the initial Lanczos pass the first formed.  ``_top_eigenvalues``
alone decides between Lanczos and a dense solve of the whole spectrum,
which a caller then uses whole.  ``_tev_ratio`` and ``_choose_K`` work
from ``_spectrum``'s result, so a caller that needs the spectrum more than
once (the ``cluster`` and ``compare`` commands) takes it once and passes it
on.

``kmeans_cluster`` runs Lloyd's iteration on the points' coordinates as
rows (K x n), so each of its passes runs over n contiguous values.  The
k x n squared distances are summed one coordinate at a time, in the order
numpy's sum over the last axis of an n x k x K array adds them, and the
centres come from ``np.bincount`` sums (at K = 1, sums of contiguous
slices), in the order a mean over each cluster's rows adds them.  Labels
and within-cluster sums are bit for bit those of that plain arithmetic,
with no 3-D temporary and no mask per cluster.

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
from .linalg import _ldexp, _prescaled, _top_eigenvalues, _xt, frob, require_finite, seeded_rng
from .model import _check_dims, require_stiefel


def _spectrum(X, zero_message: str, k: int, memo: dict | None = None):
    """(X scaled, w) for finite, nonzero X: w is the k leading eigenvalues of
    its X X^T, nonincreasing, or the whole spectrum where
    ``linalg._top_eigenvalues`` solves densely, with the products ``memo``
    of a search that asks for more later.

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
    return X, _top_eigenvalues(X, k, memo)[0]


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
    Every request of the search shares one products memo, which the call
    drops when it returns.
    """
    threshold = fraction("threshold", threshold, "(0, 1]")
    cap = count("cap", cap, 1)
    if min(X.shape) < count("large_side", large_side, 1):
        memo = {}
        X, w = _spectrum(X, _K_ZERO, 1, memo)
        total = frob(X) ** 2
        target = threshold * total - 1e-12 * total
        while (cum := np.cumsum(w))[-1] < target:
            if len(w) == min(X.shape) or w[-1] <= w[0] * 1e-12:
                return int(np.count_nonzero(w > w[0] * 1e-12)), (X, w)
            w = _top_eigenvalues(X, len(w) + max(len(w), math.ceil((target - cum[-1]) / w[-1])), memo)[0]
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


def _sum_squares(coords: np.ndarray, centers: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """k x n sums over coordinates lo..hi-1 of (point - centre)^2, the points given as the
    columns of ``coords``: one k x n array of squares per coordinate, added in the order
    numpy's pairwise sum adds a contiguous row of them (left to right below 8 terms, in
    eight running sums up to 128, by halves above)."""
    def square(t):
        return (coords[t] - centers[:, t, None]) ** 2

    m = hi - lo
    if m < 8:
        out = square(lo)
        for t in range(lo + 1, hi):
            out += square(t)
        return out
    if m <= 128:
        acc = [square(t) for t in range(lo, lo + 8)]
        tail = hi - m % 8
        for t in range(lo + 8, tail):
            acc[(t - lo) % 8] += square(t)
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for t in range(tail, hi):
            out += square(t)
        return out
    half = m // 2 - m // 2 % 8
    return _sum_squares(coords, centers, lo, lo + half) + _sum_squares(coords, centers, lo + half, hi)


def _sq_dists(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """k x n squared distances from the k centres to the points ``coords.T``, bit for bit
    ``((coords.T[:, None] - centers[None]) ** 2).sum(axis=2).T`` without its n x k x K
    temporary; a k x n layout keeps every pass over n contiguous values."""
    if len(coords) == 0:  # points without coordinates: every distance is 0
        return np.zeros((len(centers), coords.shape[1]))
    return _sum_squares(coords, centers, 0, len(coords))


def _kmeanspp_init(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = coords.shape[1]
    centers = np.empty((k, coords.shape[0]))
    centers[0] = coords[:, int(rng.integers(n))]
    d2 = _sq_dists(coords, centers[:1])[0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = coords[:, int(rng.integers(n))]
            continue
        # the draw of rng.choice(n, p=d2 / total), from the same stream, without its checks
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        centers[j] = coords[:, int(cdf.searchsorted(rng.random(), side="right"))]
        d2 = np.minimum(d2, _sq_dists(coords, centers[j : j + 1])[0])
    return centers


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100) -> tuple[np.ndarray, float]:
    """(labels, within-cluster sum of squares) of Lloyd's iteration from a plus-plus seeding.

    A cluster left empty takes the point farthest from every centre; one still empty
    after that (fewer distinct points than clusters) keeps its centre.  A centre is
    the mean of its cluster's rows, summed in the order ``mean(axis=0)`` of those
    rows sums them, so the labels and sum are those of the plain n x k x K arithmetic.
    """
    coords = np.ascontiguousarray(points.T)
    centers = _kmeanspp_init(coords, k, rng)
    labels = None
    for _ in range(max_iter):
        d2 = _sq_dists(coords, centers)
        new_labels = d2.argmin(axis=0)
        counts = np.bincount(new_labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                centers[j] = points[int(d2.min(axis=0).argmax())]
                d2[j] = _sq_dists(coords, centers[j : j + 1])[0]
                new_labels = d2.argmin(axis=0)
                counts = np.bincount(new_labels, minlength=k)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if len(coords) > 1:  # mean(axis=0) of two or more columns adds the rows in turn, as bincount does
            sums = np.stack([np.bincount(labels, row, k) for row in coords], axis=1)
        else:  # of one column it adds them pairwise, as the sum of a contiguous slice does
            ends = np.cumsum(counts)
            grouped = points[np.argsort(labels, kind="stable")]
            sums = np.array([grouped[end - c : end].sum(axis=0) for end, c in zip(ends, counts)])
        np.divide(sums, counts[:, None], out=centers, where=counts[:, None] > 0)
    d2 = ((points - centers[labels]) ** 2).sum()
    return labels, float(d2)


def kmeans_cluster(points: np.ndarray, k: int, restarts: int = 10, seed: int = 0) -> tuple[np.ndarray, float, bool]:
    """Best-of-restarts Lloyd clustering with plus-plus seeding.

    Returns (labels, within-cluster sum of squares, whether all points are equal); ties
    between restarts go to the earliest one, so results are deterministic
    for a fixed seed.  ``k`` and ``restarts`` must be integers of at least 1,
    more clusters than points is a PreconditionError, and a point that is not
    finite an InvalidInputError.  Lloyd runs on the points divided by a power
    of two near their Frobenius norm when it lies outside [2^-300, 2^300]
    (``linalg._prescaled``), where squared distances would overflow or lose
    entries to underflow; the sum is scaled back by the square of that power.
    """
    k, restarts = count("k", k, 1), count("restarts", restarts, 1)
    if k > points.shape[0]:
        raise PreconditionError(f"cannot form {k} clusters from {points.shape[0]} points")
    require_finite(points, "points")
    degenerate = bool((points == points[0]).all())
    scaled, e = _prescaled(points, frob(points))
    best_labels = None
    best_wcss = np.inf
    for r in range(restarts):
        rng = seeded_rng(seed, 0x6B, r)
        labels, wcss = _lloyd(scaled, k, rng)
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return best_labels, _ldexp(best_wcss, 2 * e), degenerate


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
