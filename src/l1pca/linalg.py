"""Minimal dense/sparse linear algebra used by everything else.

Thin SVD from LAPACK, with a deterministic sign convention and rank
completion on top; polar factors for orthogonal Procrustes steps, taken
from LAPACK's eigenvectors of the K x K Gram matrix of a well-conditioned
input (cond <= 4) and from one SVD of any other, and (``_polar_and_inverse``)
for a well-conditioned input the K x K matrix T with
``polar(A) = (A / 2^e) T`` from the same eigenvectors, which lets the
solver carry X^T Q through a flip-free stretch without a product with X;
orthonormality diagnostics.  Two
kernels take eigenvalues of the smaller-side Gram matrix X X^T (or
X^T X), both after the power-of-two prescale of ``_prescaled``, the one
rule by which the library scales data of any floating-point scale, an
overflowing ||X||_F included, near unit norm (the solver also applies it
to X P before it forms X^T X P, and the polar step, the theorem-mode bound
check, ``metrics`` and ``verify``'s oracle, error-bound constant and
criticality report use it where a norm or a product would overflow):
``_gram`` forms it densely, and the dense
spectral norm is the root of its top eigenvalue; ``_top_eigenvalues``
serves the sparse spectral norm and the covariance spectrum in ``metrics``,
and is the one place that chooses between a dense solve of ``_gram`` and
Lanczos (ARPACK) on the operator v -> X (X^T v), which never densifies X
nor forms the Gram matrix.  Every Lanczos request starts from the same
seeded vector, so a search that asks for a growing number of eigenvalues
hands each request one products memo, and the operator products of the
first request's initial Lanczos pass are formed once.  All routines are
deterministic for fixed inputs; randomized helpers take an explicit
generator.

Every product X^T Q in the library follows ``_xt_for``'s rule, which hands
BLAS the operands in the layout it multiplies fastest: a dense C-contiguous
X gives ``(Q^T X)^T``, copied to C order; any other X (F-order or sparse)
gives ``X.T @ Q``.  ``_xt_for(X)`` decides the layout once and returns the
product for that X, which the solver binds once per solve; ``_xt`` checks
Q's rows and applies the same rule to one product.  On a C-order X, ``X.T``
is an F-order view, and BLAS then packs the tall n-row operand; ``Q^T X``
packs the short K-row one instead, which took 0.54-0.87 of the time at d=500, n=2000 and K from 5
to 250 (one BLAS thread).  The two forms agree to roundoff, and bit for bit
on the shapes the solve digests cover, but not in general (d > n, or K near
min(d, n), can move a last bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dsyevd
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from ._args import count, flag
from .errors import DimensionMismatchError, InvalidInputError, PreconditionError

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny  # 2^-1022, the least normal number
_F64 = np.dtype(np.float64)
#: a sum of squares at least this large lost at most n * 2^-422 of itself to
#: squares that underflowed (each below 2^-1022)
_SQ_MIN = 2.0**-600
#: Frobenius norms outside this range are prescaled before a Gram matrix is
#: formed: beyond it X X^T overflows or loses entries to underflow
_GRAM_SAFE = (2.0**-300, 2.0**300)
#: ``_top_eigenvalues`` solves a Gram side of at most this many rows densely,
#: whole, for less than Lanczos takes for a few eigenvalues (one BLAS thread:
#: ``choose_K_by_variance`` on 60 x 100 took 0.2 ms against 1.0-1.5 ms, ``tev``
#: on a Gaussian 200 x 500 at K = 3-5 2.2-2.8 ms against 5.4-7.3 ms)
_DENSE_SIDE = 256
#: ``_top_eigenvalues`` also solves densely once k reaches this fraction of
#: m = min(d, n), which also keeps k below m - 1, the most ARPACK can take.
#: On a 6%-dense 1500 x 3000 X, Lanczos for k = 8, 32 and 64 took 0.10, 0.16
#: and 0.33 s against 0.54 s for the dense solve (one BLAS thread), and a
#: search that grows k pays for every block before the last.
_LANCZOS_MAX_FRACTION = 1 / 32
#: ``_polar_and_inverse`` serves a step from the Gram matrix of its input A
#: when the least eigenvalue is at least this fraction of the largest
#: (cond(A) <= 4): that route's error grows as cond(A)^2.  Over 12159 served
#: random matrices up to 60 x 20 at scales 1, 1e160 and 1e-160, max|Q - Q_svd|
#: was 5.8e-15 and ||Q^T Q - I||_F 1.6e-14 (SVD: 1.2e-14; 1.8e-10 under
#: cond(A) <= 1e3).  A 200 x 10 step took 29-43 us against 54-76 us by SVD
#: (one BLAS thread).
_GRAM_POLAR_RATIO = 1 / 16


def seeded_rng(*parts: int) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of integers.

    Distinct key tuples give independent, reproducible streams, so callers
    can split one user seed into per-purpose streams.  Every part must be a
    non-negative integer (PreconditionError otherwise); numpy integers count, bools do not.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([count("seed", p, 0) for p in parts])))


def as_dense(M) -> np.ndarray:
    """Return a float64 ndarray view/copy of a dense or sparse matrix."""
    # the solver loop's arrays are plain float64 ndarrays: skip sp.issparse
    if type(M) is np.ndarray and M.dtype == _F64:
        return M
    if sp.issparse(M):
        return np.asarray(M.toarray(), dtype=np.float64)
    return np.asarray(M, dtype=np.float64)


def require_finite(M, name: str = "matrix") -> None:
    """InvalidInputError unless every entry of M is finite.  A sparse M whose
    ``.data`` is not its stored values (LIL, DOK, DIA) is read through a COO
    copy, which leaves out DIA padding.

    On the hot path it runs only when M's sum of squares, which a NaN or
    infinite entry makes non-finite, is not finite: ``polar_factor`` reads
    it off its ``frob``, ``stiefel_residual`` off one dot product
    (``_squares_finite``).  A finite M whose squares overflow passes here."""
    if type(M) is np.ndarray:
        data = M
    elif sp.issparse(M):
        data = (M if M.format in ("csr", "csc", "coo", "bsr") else M.tocoo()).data
    else:
        data = np.asarray(M)
    if data.size and not np.isfinite(data).all():
        raise InvalidInputError(f"{name} contains non-finite entries")


def _squares_finite(A: np.ndarray) -> bool:
    """Whether BLAS's sum of squares of A's entries is finite: True means every entry is, and a
    finite A gives False only when its squares overflow.  BLAS raises no numpy warning."""
    a = A.ravel(order="K")
    return a.size == 0 or math.isfinite(ddot(a, a))


def _xt_for(X):
    """The product Q -> X^T Q for a d x n X, its layout decided once:
    ``(Q^T X)^T`` in C order on a dense C-contiguous X, else ``X.T @ Q``.

    The product does not check Q's rows; ``_xt`` does.  The ``isinstance``
    test lets ndarray subclasses (views of X) take the dense path too.
    """
    if isinstance(X, np.ndarray) and X.flags.c_contiguous:
        return lambda Q: np.ascontiguousarray((Q.T @ X).T)
    XT = X.T
    return lambda Q: XT @ Q


def _xt(X, Q: np.ndarray) -> np.ndarray:
    """X^T Q for a d x n X and a d-row Q, by ``_xt_for``'s rule.

    A Q whose row count is not X's is a DimensionMismatchError.
    """
    if Q.shape[0] != X.shape[0]:
        raise DimensionMismatchError(f"Q has {Q.shape[0]} rows, X has {X.shape[0]}")
    return _xt_for(X)(Q)


def frob(M) -> float:
    """Frobenius norm of a dense or sparse matrix, at any floating-point scale.

    The plain sum of squares is kept when it is finite and at least
    ``_SQ_MIN``; otherwise (overflow, or squares lost to underflow) the
    entries are divided by a power of two near the largest magnitude first,
    which is exact.  Non-finite entries give inf or nan, and finite entries
    whose norm exceeds the float range give inf, without a warning.
    A sparse M not flagged canonical has its duplicates summed on a copy.
    """
    if sp.issparse(M):
        if not getattr(M, "has_canonical_format", False):
            M = M.tocoo(copy=True)
            M.sum_duplicates()
        M = M.data
    a = np.asarray(M, dtype=np.float64).ravel(order="K")
    if a.size == 0:
        return 0.0
    s = ddot(a, a)
    if _SQ_MIN <= s < math.inf:
        return math.sqrt(s)
    amax = float(np.abs(a).max())
    if amax == 0.0 or not math.isfinite(amax):
        return amax
    e = math.frexp(amax)[1]
    b = np.ldexp(a, -e)
    return _ldexp(math.sqrt(ddot(b, b)), e)


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, or inf where that exceeds the float range (``math.ldexp`` raises there)."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _prescaled(X, norm: float):
    """(X / 2^e, e): e = 0 when ``norm`` = frob(X) lies in ``_GRAM_SAFE`` or is 0,
    else e puts the scaled norm in [1/2, 1).  The division is exact (``_pow2_scaled``).

    This is the library's one power-of-two scale rule (Blue's scaled-norm
    device, ACM TOMS 4(1), 1978).  An infinite norm of finite entries, or a
    subnormal one, which ``frob`` rounded to fewer bits than e needs, takes
    e as the exponent of the largest entry plus that of the norm of X
    divided by 2 to that exponent; apart from ``frob``'s own rescale, no
    other code reads an exponent off X's largest entry.  Callers that scale
    every finite norm into [1/2, 1), window or not (``_polar_and_inverse``,
    the screen of ``verify.enumerate_oracle``), take frexp(norm) inline and
    call this where the norm overflows."""
    if norm == 0.0 or _GRAM_SAFE[0] <= norm <= _GRAM_SAFE[1]:
        return X, 0
    if norm == math.inf or norm < _TINY:
        big = math.frexp(float(abs(X).max()))[1]  # 0 for an infinite entry: X stays as it is
        e = big + math.frexp(frob(_pow2_scaled(X, big)))[1]
    else:
        e = math.frexp(norm)[1]
    return _pow2_scaled(X, e), e


def _pow2_scaled(X, e: int):
    """X / 2^e, exact for entries that stay in the normal range.

    Below 2^-1023, 2^-e is not a float; a scale up by a power of two is
    exact in any number of steps, so an e <= 0 takes two."""
    if e > 0:
        return X * math.ldexp(1.0, -e)
    h = -e // 2
    return X * math.ldexp(1.0, h) * math.ldexp(1.0, -e - h)


def _gram(X) -> tuple[np.ndarray, int]:
    """(G, e): the smaller-side Gram matrix G of X / 2^e, with e from ``_prescaled``.

    G is X X^T when X has no more rows than columns, else X^T X; both have
    the nonzero eigenvalues of X X^T, here scaled by 4^-e.  G is dense; a
    sparse X stays sparse, so only the min(d, n)^2 entries of G are stored
    densely.  X must be finite.
    """
    if not sp.issparse(X):
        X = as_dense(X)
    X, e = _prescaled(X, frob(X))
    d, n = X.shape
    return as_dense(X @ X.T if d <= n else X.T @ X), e


def _replaying(product, memo: dict, record: int):
    """``product`` served from ``memo``, which maps the exact bytes of v to product(v), where
    it holds v; of the products it forms, it records the first ``record`` in ``memo``."""

    def matvec(v):
        key = v.tobytes()
        y = memo.get(key)
        if y is None:
            y = product(v)
            if len(memo) < record:
                memo[key] = y
        return y

    return matvec


def _top_eigenvalues(X, k: int, memo: dict | None = None) -> tuple[np.ndarray, int]:
    """(w, e): the k largest eigenvalues w of the smaller-side Gram matrix of X / 2^e.

    w is nonincreasing and clipped at 0, and e comes from ``_prescaled``.
    Dense and sparse X take the same path: ARPACK's implicitly restarted
    Lanczos (``eigsh``, tol 0, i.e. to roundoff) on v -> X (X^T v), or
    X^T (X v) when X has more rows than columns, so X stays as stored.  The
    start is a seeded Gaussian vector, not ones, which can be orthogonal to
    the top eigenvector of a symmetric X; with the restart generator seeded
    too, w is deterministic.  This function alone chooses the solver: all
    m = min(d, n) eigenvalues come from LAPACK on ``_gram`` instead when m
    is at most ``_DENSE_SIDE``, when k reaches ``_LANCZOS_MAX_FRACTION`` of
    m, or when ARPACK does not converge, so len(w) == m marks a whole
    spectrum.  X must be finite; zero X gives min(k, m) zeros.

    ``memo``, a dict that the requests of one search on one X share, maps
    the exact bytes of v to the operator's product with v.  ARPACK's first
    ncv + 1 products (the start's, then ncv Lanczos steps) depend on X and
    the start alone, and ncv grows with k, so a later request replays the
    first request's initial pass: the first request records those products,
    no request records more, and a request that finds v there forms no
    product.  w is bit for bit that of a request without ``memo``.
    """
    d, n = X.shape
    m = min(d, n)
    norm = frob(X)
    if norm == 0.0:
        return np.zeros(min(k, m)), 0
    if m > _DENSE_SIDE and k < _LANCZOS_MAX_FRACTION * m:
        Xs, e = _prescaled(X, norm)
        A, B = (Xs, Xs.T) if d <= n else (Xs.T, Xs)
        ncv = min(max(2 * k + 1, 20), m)  # eigsh's default
        matvec = lambda v: A @ (B @ v)
        if memo is not None:
            matvec = _replaying(matvec, memo, 0 if memo else ncv + 1)
        op = LinearOperator((m, m), matvec=matvec, dtype=np.float64)
        try:
            w = eigsh(
                op, k=k, which="LA", v0=seeded_rng(0).standard_normal(m), ncv=ncv, tol=0,
                return_eigenvectors=False, rng=seeded_rng(1),
            )
        except ArpackNoConvergence:
            pass
        else:
            return np.maximum(np.sort(w)[::-1], 0.0), e
    G, e = _gram(X)
    return np.maximum(np.linalg.eigvalsh(G)[::-1], 0.0), e


def complete_orthonormal(U: np.ndarray, n_cols: int) -> np.ndarray:
    """Extend orthonormal columns to ``n_cols`` columns deterministically.

    New columns are built from canonical basis vectors: for each slot the
    basis vector with the largest residual against the current span is
    orthonormalized and appended (ties broken by lowest index).  With B the
    columns so far, e_t's residual is ``e_t - B B[t]^T`` and its squared
    norm ``1 - ||B[t]||^2``, so each slot takes O(d k) time and memory,
    never the d x d projector; the residual is then orthogonalized against
    B once more.
    """
    d, k = U.shape
    if n_cols > d:
        raise PreconditionError("cannot have more orthonormal columns than rows")
    out = np.zeros((d, n_cols))
    out[:, :k] = U
    for filled in range(k, n_cols):
        B = out[:, :filled]
        t = int(np.argmax(1.0 - np.einsum("ij,ij->i", B, B)))
        v = -(B @ B[t])
        v[t] += 1.0
        v = v - B @ (B.T @ v)
        nv = np.linalg.norm(v)
        if nv <= 0.0:
            raise InvalidInputError("orthonormal completion failed")
        out[:, filled] = v / nv
    return out


@dataclass
class ThinSvd:
    """Thin factorization M = U diag(sigma) V^T with orthonormal U, V columns."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


def _rank_cutoff(shape: tuple[int, int], sigma: np.ndarray) -> float:
    """Singular values at or below this are numerical zeros: max(rows, cols) * eps * sigma_max."""
    return max(shape) * _EPS * sigma[0]


def _complete(U: np.ndarray, sigma: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors (U, V) of a thin SVD with the taller one made whole.

    Its columns whose singular value lies at or below ``_rank_cutoff`` are
    replaced by a deterministic completion (``complete_orthonormal``) of
    the kept ones, so both factors keep orthonormal columns at any rank.
    """
    rows, cols = len(U), len(V)
    kept = int(np.count_nonzero(sigma > _rank_cutoff((rows, cols), sigma)))
    if kept < sigma.size:
        if rows >= cols:
            U = complete_orthonormal(U[:, :kept], cols)
        else:
            V = complete_orthonormal(V[:, :kept], rows)
    return U, V


def thin_svd(M, rank: int | None = None) -> ThinSvd:
    """Thin SVD of a dense matrix via LAPACK, deterministic across calls.

    Works for any shape (the factorization is taken over the smaller
    dimension).  The factors come from one LAPACK call; columns of the
    taller factor for numerically zero singular values are then replaced by
    a deterministic completion of the others (``_complete``).  Each
    right-factor column is sign-normalized so its largest-magnitude entry
    is positive, with the left column flipped in tandem.

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
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    U, V = _complete(U, sigma, Vt.T)
    # sign convention: largest-magnitude entry of each V column positive
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    flip = np.where(lead < 0.0, -1.0, 1.0)
    U, V = U * flip, V * flip
    if rank is not None:
        r = min(count("rank", rank, 0), sigma.size)
        U, sigma, V = U[:, :r], sigma[:r], V[:, :r]
    return ThinSvd(U=U, sigma=sigma, V=V)


def _polar_and_inverse(M, complete: bool = True) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """(Q, T, e): Q = ``polar_factor(M, complete)``, and T with Q = (M / 2^e) T
    when the Gram route served the step, else T = None and e = 0.

    A product of Q with anything linear, such as X^T Q, follows from the
    same product with M and the K x K matrix T.  M / 2^e, with e the
    exponent of frob(M), is exact and near unit scale; a finite M whose norm
    overflows takes e from ``_prescaled``, the library's one rule for that
    case (entries that turn subnormal may lose bits), and its SVD, if taken,
    factors M / 2^e.  When ``dsyevd``
    finds the smallest eigenvalue of its Gram matrix V S^2 V^T at least
    ``_GRAM_POLAR_RATIO`` of the largest, T = V S^-1 V^T gives Q.  Otherwise
    Q comes from one SVD of M, with U completed past ``_rank_cutoff``
    (``_complete``; Q = None with ``complete=False``).
    """
    A = as_dense(M)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] < 1:
        raise PreconditionError("polar_factor expects rows >= cols >= 1")
    norm = frob(A)
    if math.isfinite(norm):
        e = math.frexp(norm)[1]
        As = np.ldexp(A, -e)
    else:
        require_finite(A, "polar_factor input")
        A, e = _prescaled(A, norm)  # finite entries whose norm overflows: the SVD factors A / 2^e
        As = A
    w, V, info = dsyevd(As.T @ As)
    if info == 0 and w[0] >= w[-1] * _GRAM_POLAR_RATIO > 0.0:
        T = (V / np.sqrt(w)) @ V.T
        return As @ T, T, e
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    if sigma[-1] <= _rank_cutoff(A.shape, sigma):
        if not complete:
            return None, None, 0
        U = _complete(U, sigma, Vt.T)[0]
    return U @ Vt, None, 0


def polar_factor(M, complete: bool = True) -> np.ndarray | None:
    """Orthonormal polar factor U V^T of a rows >= cols matrix.

    This is the maximizer of <M, Q> over matrices Q with orthonormal
    columns, taken by ``_polar_and_inverse`` from the eigenvectors of the
    K x K Gram matrix when cond(M) <= 4, else from one SVD.  Rank-deficient
    and zero inputs take the SVD and still yield a valid orthonormal result:
    U's columns for numerically zero singular values are completed
    deterministically (``_complete``), as in ``thin_svd``.  With
    ``complete=False`` such an input gives None instead, so a caller that
    needs the unique factor of a full-rank M learns the rank from the same
    factorization; ``complete`` must be a bool (numpy's included).
    ``thin_svd``'s sign convention is not needed: it flips a U column and
    its V column together, which leaves U V^T unchanged.
    """
    return _polar_and_inverse(M, flag("polar_factor", "complete", complete))[0]


def spectral_norm(X) -> float:
    """Largest singular value ||X||_2 of a dense or sparse matrix, exact to roundoff.

    Dense input: the square root of the top eigenvalue of the smaller-side
    Gram matrix (``_gram``), taken alone by LAPACK's ``syevr``.  The largest
    eigenvalue of a symmetric matrix is perfectly conditioned (Weyl: it
    moves by at most the 2-norm of a perturbation), and forming G perturbs
    it by a few ulps of ||X||^2, so the root is exact to roundoff; the
    prescale keeps G finite and its entries normal at any scale.  Sparse
    input takes the root of the top eigenvalue from ``_top_eigenvalues``
    (Lanczos to roundoff on the unformed Gram operator, with the same
    prescale), which solves ``_gram`` densely instead when min(d, n) is at
    most ``_DENSE_SIDE`` (256).
    """
    require_finite(X, "spectral_norm input")
    if not sp.issparse(X):
        G, e = _gram(X)
        m = G.shape[0]
        if m == 0:
            return 0.0
        top = scipy.linalg.eigh(G, eigvals_only=True, subset_by_index=[m - 1, m - 1])[0]
        return _ldexp(math.sqrt(max(float(top), 0.0)), e)
    w, e = _top_eigenvalues(X, 1)
    return _ldexp(math.sqrt(w[0]), e) if w.size else 0.0


def stiefel_residual(Q) -> float:
    """Frobenius distance of Q^T Q from the identity; 0 iff columns orthonormal.

    Q must be a finite (InvalidInputError otherwise) 2-d matrix
    (PreconditionError otherwise).  The diagonal of G = Q^T Q loses 1 in
    place, and the root of the dot product of G's entries with themselves is
    the result: the arithmetic of ``np.linalg.norm(G - I)``, without forming
    I.  Finiteness is read off Q's sum of squares (``_squares_finite``), not
    off G: numpy warns when a product of a Q with infinite entries makes a
    NaN, and the check must refuse such a Q before any warning.  A finite Q
    whose sum of squares overflows is at least 2^1024 / sqrt(K) - sqrt(K) from
    orthonormal (K columns), and gives inf, without a warning.
    """
    A = as_dense(Q)
    if not _squares_finite(A):
        require_finite(A, "stiefel_residual input")
        if A.ndim == 2:  # finite, but Q^T Q would overflow
            return math.inf
    if A.ndim != 2:
        raise PreconditionError(f"stiefel_residual expects a 2-d matrix, got {A.ndim}-d input")
    g = (A.T @ A).ravel()
    g[:: A.shape[1] + 1] -= 1.0
    return math.sqrt(g.dot(g))


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
