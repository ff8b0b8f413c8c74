import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dsyevd

from l1pca.errors import DimensionMismatchError, InvalidInputError, PreconditionError
from l1pca.linalg import (
    _rank_cutoff,
    as_dense,
    frob,
    random_signs,
    random_stiefel,
    require_finite,
    seeded_rng,
    thin_svd,
)
from l1pca.model import ProblemInstance


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py as a module, for the benchmark's seeded data."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def rng():
    return seeded_rng(20240613)


def make_instance(n, d, K, seed=0, scale=1.0):
    g = seeded_rng(seed, n, d, K)
    return ProblemInstance(scale * g.standard_normal((d, n)), K)


def make_start(inst, seed=0):
    g = seeded_rng(seed, 0xABCD)
    return random_signs(inst.n, inst.K, g), random_stiefel(inst.d, inst.K, g)


def counting_products(X):
    """X as an ndarray subclass that counts the matrix products taken with it or its transpose.

    ``counter["X @"]`` counts those with X itself on the left; for non-square X
    these are the ``X P`` products.  ``counter["X.T @"]`` counts those with the
    transposed view ``X.T`` on the left, told apart from X by its strides.
    """
    counter = {"matmul": 0, "X @": 0, "X.T @": 0}

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                counter["matmul"] += 1
                counter["X @"] += isinstance(inputs[0], Counting) and inputs[0].shape == X.shape
                counter["X.T @"] += isinstance(inputs[0], Counting) and inputs[0].strides == X.strides[::-1]
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    return X.view(Counting), counter


def with_duplicates(first, second, fmt):
    """first + second as a sparse ``fmt`` matrix (coo, csr or csc) that stores
    every position twice, first's entry then second's: not in canonical format."""
    rows, cols = np.indices(first.shape).reshape(2, -1)
    r, c = np.tile(rows, 2), np.tile(cols, 2)
    v = np.concatenate([first.ravel(), second.ravel()])
    if fmt == "coo":
        return sp.coo_matrix((v, (r, c)), shape=first.shape)
    major, minor, cls = (r, c, sp.csr_matrix) if fmt == "csr" else (c, r, sp.csc_matrix)
    order = np.argsort(major, kind="stable")
    indptr = np.searchsorted(major[order], np.arange(first.shape[fmt == "csc"] + 1))
    return cls((v[order], minor[order], indptr), shape=first.shape)


def gram_eigenvalues_reference(X):
    """All eigenvalues of the dense smaller-side Gram matrix, nonincreasing: the spectrum before Lanczos."""
    A = X.toarray() if sp.issparse(X) else np.asarray(X)
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return np.linalg.eigvalsh(G)[::-1]


def variance_K_reference(X, threshold):
    """choose_K_by_variance as it stood before Lanczos: the cumulative rule over the whole spectrum."""
    w = np.maximum(gram_eigenvalues_reference(X), 0.0)
    w = w[w > w[0] * 1e-12]
    total = float(w.sum())
    return int(np.argmax(np.cumsum(w) >= threshold * total - 1e-12 * total)) + 1


def sign_select_reference(M, Pprev):
    """model.sign_select as it stood before np.sign: two nested np.where."""
    M = np.asarray(M, dtype=np.float64)
    Pprev = np.asarray(Pprev, dtype=np.float64)
    if M.shape != Pprev.shape:
        raise DimensionMismatchError("M and Pprev must have equal shapes")
    if M.size and not np.isfinite(M).all():
        raise InvalidInputError("sign_select input contains non-finite entries")
    return np.where(M > 0.0, 1.0, np.where(M < 0.0, -1.0, Pprev))


def polar_factor_reference(M, complete=True):
    """linalg.polar_factor as it stood before its full-rank path: always through thin_svd.

    With ``complete=False`` a rank-deficient M (smallest singular value at
    or below ``_rank_cutoff``) gives None.
    """
    A = as_dense(M)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] < 1:
        raise PreconditionError("polar_factor expects rows >= cols >= 1")
    s = thin_svd(A)
    if not complete and not s.sigma[-1] > _rank_cutoff(A.shape, s.sigma):
        return None
    return s.U @ s.V.T


def polar_factor_gram_reference(M, complete=True):
    """linalg.polar_factor with its Gram route: for a finite M with cond(M) <= 4,
    M (M^T M)^(-1/2), with M first divided by 2^e for e the exponent of ||M||_F
    and the inverse root taken from dsyevd; any other M, polar_factor_reference."""
    A = as_dense(M)
    if A.ndim == 2 and A.shape[0] >= A.shape[1] >= 1 and np.isfinite(A).all():
        As = np.ldexp(A, -math.frexp(frob(A))[1])
        w, V, info = dsyevd(As.T @ As)
        if info == 0 and w[-1] > 0.0 and 16.0 * w[0] >= w[-1]:
            return As @ ((V / np.sqrt(w)) @ V.T)
    return polar_factor_reference(M, complete)


def complete_orthonormal_reference(U, n_cols):
    """linalg.complete_orthonormal as it stood before its O(d k) residuals: the d x d projector per column."""
    d, k = U.shape
    out = np.zeros((d, n_cols))
    out[:, :k] = U
    for filled in range(k, n_cols):
        B = out[:, :filled]
        R = np.eye(d) - B @ B.T
        v = R[:, int(np.argmax(np.linalg.norm(R, axis=0)))]
        v = v - B @ (B.T @ v)
        out[:, filled] = v / np.linalg.norm(v)
    return out


def stiefel_residual_reference(Q):
    """linalg.stiefel_residual as it stood before the in-place diagonal: np.linalg.norm(Q^T Q - I)."""
    A = as_dense(Q)
    require_finite(A, "stiefel_residual input")
    k = A.shape[1]
    return float(np.linalg.norm(A.T @ A - np.eye(k)))
