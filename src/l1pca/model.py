"""Problem definitions and pointwise quantities for L1-PCA.

The problem is max ||X^T Q||_1 over d x K matrices Q with orthonormal
columns.  Its two-block form couples Q with an n x K sign matrix P through
the bilinear objective h(P, Q) = -<P, X^T Q>.  This module evaluates those
objectives, the extrapolation potential, the residual map for linear
objectives over orthonormal frames, and exact subgradient distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InvalidInputError, PreconditionError
from .linalg import as_dense, frob, require_finite, stiefel_residual

#: feasibility tolerance at construction time
CONSTRUCTION_TOL = 1e-8
#: looser feasibility tolerance on operation preconditions, leaving headroom
#: for drift accumulated over long runs
OPERATION_TOL = 1e-6


@dataclass
class ProblemInstance:
    """A data matrix X (d x n, samples as columns), target dimension K,
    and optional integer labels for clustering evaluation."""

    X: object
    K: int
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not sp.issparse(self.X):
            self.X = np.asarray(self.X, dtype=np.float64)
        require_finite(self.X, "X")
        d, n = self.X.shape
        if not (1 <= self.K <= min(n, d)):
            raise PreconditionError(f"K={self.K} must satisfy 1 <= K <= min(n, d)={min(n, d)}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (n,):
                raise DimensionMismatchError("labels must have one entry per sample")

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def require_stiefel(Q: np.ndarray, tol: float = OPERATION_TOL, name: str = "Q") -> np.ndarray:
    Q = np.asarray(Q, dtype=np.float64)
    require_finite(Q, name)
    if Q.shape[0] < Q.shape[1]:
        raise PreconditionError(f"{name} must have at least as many rows as columns")
    res = stiefel_residual(Q)
    if res > tol:
        raise PreconditionError(f"{name} is not feasible: orthonormality residual {res:.3e} > {tol:.1e}")
    return Q


def require_signs(P: np.ndarray, name: str = "P") -> np.ndarray:
    P = np.asarray(P, dtype=np.float64)
    require_finite(P, name)
    if P.size and not np.all(np.abs(P) == 1.0):
        raise PreconditionError(f"{name} must have all entries exactly +-1")
    return P


def _check_dims(X, Q: np.ndarray, P: np.ndarray | None = None) -> None:
    d, n = X.shape
    if Q.shape[0] != d:
        raise DimensionMismatchError(f"Q has {Q.shape[0]} rows, X has {d}")
    if P is not None and P.shape != (n, Q.shape[1]):
        raise DimensionMismatchError(f"P shape {P.shape} incompatible with X^T Q shape {(n, Q.shape[1])}")


def objective_l1(X, Q: np.ndarray) -> float:
    """Sum of absolute entries of X^T Q (the quantity being maximized)."""
    Q = np.asarray(Q, dtype=np.float64)
    _check_dims(X, Q)
    return float(np.abs(X.T @ Q).sum())


def objective_h(X, P: np.ndarray, Q: np.ndarray) -> float:
    """Two-block coupling value -<P, X^T Q>.

    Equals -objective_l1(X, Q) whenever P is an entrywise sign choice for
    X^T Q.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    _check_dims(X, Q, P)
    return -float(np.sum(P * (X.T @ Q)))


def potential_psi(X, P: np.ndarray, Q: np.ndarray, Qprev: np.ndarray, beta: float) -> float:
    """h(P, Q) plus the quadratic coupling (beta/2) ||Q - Qprev||_F^2."""
    if beta < 0:
        raise PreconditionError("beta must be nonnegative")
    Q = np.asarray(Q, dtype=np.float64)
    Qprev = np.asarray(Qprev, dtype=np.float64)
    if Q.shape != Qprev.shape:
        raise DimensionMismatchError("Q and Qprev must have equal shapes")
    return objective_h(X, P, Q) + 0.5 * beta * float(np.linalg.norm(Q - Qprev)) ** 2


def residual_R(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Residual map A - Q A^T Q.

    Vanishes exactly at the limiting critical points of the linear
    objective <A, Q> restricted to orthonormal frames.
    """
    A = as_dense(A)
    Q = np.asarray(Q, dtype=np.float64)
    if A.shape != Q.shape:
        raise DimensionMismatchError("A and Q must have equal shapes")
    return A - Q @ (A.T @ Q)


def subgrad_dist_linear(A: np.ndarray, Q: np.ndarray, feas_tol: float = OPERATION_TOL) -> float:
    """Exact distance from 0 to the subdifferential of <A, .> + frame indicator.

    Evaluates ||(I - Q Q^T / 2) R(Q)||_F, which always lies between
    ||R(Q)||_F / 2 and ||R(Q)||_F.
    """
    Q = require_stiefel(Q, tol=feas_tol)
    R = residual_R(A, Q)
    G = R - 0.5 * Q @ (Q.T @ R)
    return frob(G)


def subgrad_dist_h(X, P: np.ndarray, Q: np.ndarray, feas_tol: float = OPERATION_TOL) -> float:
    """Distance from 0 to the subdifferential of h at a feasible pair (P, Q).

    The sign block contributes zero: every point of the finite sign set is
    isolated, so its limiting normal cone is the whole ambient space.  What
    remains is the Q-block distance for the linear objective <-XP, .>.
    """
    P = require_signs(P)
    _check_dims(X, np.asarray(Q, dtype=np.float64), P)
    return subgrad_dist_linear(-(X @ P), Q, feas_tol=feas_tol)


def sign_select(M: np.ndarray, Pprev: np.ndarray) -> np.ndarray:
    """Entrywise sign of M, keeping the previous sign wherever M is zero.

    The tie rule makes solver runs deterministic and matches the fixed-point
    behaviour of the sign update at its limit points.
    """
    M = np.asarray(M, dtype=np.float64)
    Pprev = np.asarray(Pprev, dtype=np.float64)
    if M.shape != Pprev.shape:
        raise DimensionMismatchError("M and Pprev must have equal shapes")
    if M.size and not np.isfinite(M).all():
        raise InvalidInputError("sign_select input contains non-finite entries")
    return np.where(M > 0.0, 1.0, np.where(M < 0.0, -1.0, Pprev))
