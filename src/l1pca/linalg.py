"""Minimal dense/sparse linear algebra used by everything else.

Thin SVD and exact spectral norms from LAPACK (ARPACK for sparse input),
with a deterministic sign convention and rank completion on top; polar
factors for orthogonal Procrustes steps; orthonormality diagnostics.  All
routines are deterministic for fixed inputs; randomized helpers take an
explicit generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import ddot
from scipy.sparse.linalg import svds

from .errors import InvalidInputError, PreconditionError

_EPS = np.finfo(np.float64).eps
#: a sum of squares at least this large lost at most n * 2^-422 of itself to
#: squares that underflowed (each below 2^-1022)
_SQ_MIN = 2.0**-600


def seeded_rng(*parts: int) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of integers.

    Distinct key tuples give independent, reproducible streams, so callers
    can split one user seed into per-purpose streams.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(parts))))


def as_dense(M) -> np.ndarray:
    """Return a float64 ndarray view/copy of a dense or sparse matrix."""
    if sp.issparse(M):
        return np.asarray(M.todense(), dtype=np.float64)
    return np.asarray(M, dtype=np.float64)


def require_finite(M, name: str = "matrix") -> None:
    data = M.data if sp.issparse(M) else np.asarray(M)
    if data.size and not np.isfinite(data).all():
        raise InvalidInputError(f"{name} contains non-finite entries")


def frob(M) -> float:
    """Frobenius norm of a dense or sparse matrix, at any floating-point scale.

    The plain sum of squares is kept when it is finite and at least
    ``_SQ_MIN``; otherwise (overflow, or squares lost to underflow) the
    entries are divided by a power of two near the largest magnitude first,
    which is exact.  Non-finite entries give inf or nan, without a warning.
    """
    a = np.asarray(M.data if sp.issparse(M) else M, dtype=np.float64).ravel(order="K")
    if a.size == 0:
        return 0.0
    s = ddot(a, a)
    if _SQ_MIN <= s < math.inf:
        return math.sqrt(s)
    amax = float(np.abs(a).max())
    if amax == 0.0 or not math.isfinite(amax):
        return amax
    e = math.frexp(amax)[1]
    b = a * math.ldexp(1.0, -e)
    return math.ldexp(math.sqrt(ddot(b, b)), e)


def complete_orthonormal(U: np.ndarray, n_cols: int) -> np.ndarray:
    """Extend orthonormal columns to ``n_cols`` columns deterministically.

    New columns are built from canonical basis vectors: for each slot the
    basis vector with the largest residual against the current span is
    orthonormalized and appended (ties broken by lowest index).
    """
    d, k = U.shape
    if n_cols > d:
        raise PreconditionError("cannot have more orthonormal columns than rows")
    out = np.zeros((d, n_cols))
    out[:, :k] = U
    filled = k
    while filled < n_cols:
        B = out[:, :filled]
        R = np.eye(d) - B @ B.T
        res = np.linalg.norm(R, axis=0)
        t = int(np.argmax(res))
        v = R[:, t]
        v = v - B @ (B.T @ v)
        nv = np.linalg.norm(v)
        if nv <= 0.0:
            raise InvalidInputError("orthonormal completion failed")
        out[:, filled] = v / nv
        filled += 1
    return out


@dataclass
class ThinSvd:
    """Thin factorization M = U diag(sigma) V^T with orthonormal U, V columns."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


def thin_svd(M, rank: int | None = None) -> ThinSvd:
    """Thin SVD of a dense matrix via LAPACK, deterministic across calls.

    Works for any shape (the factorization is taken over the smaller
    dimension).  Columns of the taller factor whose singular value is at
    most ``max(rows, cols) * eps * sigma_max`` are replaced by a
    deterministic completion (``complete_orthonormal``) of the others.
    Each right-factor column is sign-normalized so its largest-magnitude
    entry is positive, with the left column flipped in tandem.

    Args:
        M: input matrix, rows x cols.
        rank: optional truncation; keeps the leading ``rank`` triples.

    Returns:
        ThinSvd with ``min(rows, cols)`` (or ``rank``) columns.
    """
    A = as_dense(M)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise PreconditionError("thin_svd expects a non-empty 2-d matrix")
    require_finite(A, "thin_svd input")
    rows, cols = A.shape
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    # replace the tall factor's columns for (numerically) zero singular
    # values by a deterministic completion of the kept ones
    kept = int(np.count_nonzero(sigma > max(rows, cols) * _EPS * sigma[0]))
    if kept < sigma.size:
        if rows >= cols:
            U = complete_orthonormal(U[:, :kept], cols)
        else:
            V = complete_orthonormal(V[:, :kept], rows)
    # sign convention: largest-magnitude entry of each V column positive
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    flip = np.where(lead < 0.0, -1.0, 1.0)
    U, V = U * flip, V * flip
    if rank is not None:
        r = min(rank, sigma.size)
        U, sigma, V = U[:, :r], sigma[:r], V[:, :r]
    return ThinSvd(U=U, sigma=sigma, V=V)


def polar_factor(M) -> np.ndarray:
    """Orthonormal polar factor U V^T of a rows >= cols matrix.

    This is the maximizer of <M, Q> over matrices Q with orthonormal
    columns.  Rank-deficient inputs still yield a valid orthonormal result
    through deterministic completion of the missing directions.
    """
    A = as_dense(M)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] < 1:
        raise PreconditionError("polar_factor expects rows >= cols >= 1")
    s = thin_svd(A)
    return s.U @ s.V.T


def spectral_norm(X) -> float:
    """Largest singular value ||X||_2 of a dense or sparse matrix, exact to roundoff.

    Dense input goes to LAPACK.  Sparse input goes to ARPACK (``svds`` with
    a fixed start) after dividing by a power of two near its largest
    entry, so the Lanczos recurrence neither overflows nor underflows at
    extreme scales; a sparse row or column vector returns its Frobenius
    norm, which equals its 2-norm.
    """
    require_finite(X, "spectral_norm input")
    if not sp.issparse(X):
        return float(np.linalg.norm(np.asarray(X, dtype=np.float64), 2))
    amax = float(np.abs(X.data).max()) if X.nnz else 0.0
    if amax == 0.0:
        return 0.0
    e = int(np.frexp(amax)[1])
    Xs = X * np.ldexp(1.0, -e)
    if min(X.shape) == 1:
        return float(np.ldexp(frob(Xs), e))
    top = svds(Xs, k=1, return_singular_vectors=False, random_state=0)
    return float(np.ldexp(top[0], e))


def stiefel_residual(Q) -> float:
    """Frobenius distance of Q^T Q from the identity; 0 iff columns orthonormal."""
    A = as_dense(Q)
    require_finite(A, "stiefel_residual input")
    k = A.shape[1]
    return float(np.linalg.norm(A.T @ A - np.eye(k)))


def random_stiefel(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a d x k matrix with orthonormal columns (Haar via polar factor)."""
    return polar_factor(rng.standard_normal((d, k)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    return random_stiefel(n, n, rng)


def random_signs(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x k matrix of +-1 entries."""
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def tangent_project(Q: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient direction onto the tangent space at Q (Q^T Q = I)."""
    S = Q.T @ G
    return G - Q @ ((S + S.T) / 2.0)
