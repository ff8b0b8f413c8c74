"""Numerical certification probes for the solver's structural guarantees.

Everything here checks a computable inequality or identity on concrete
points: criticality residuals and the step-size certificate for limit
points, the two-sided sandwich between the residual map and the exact
subgradient distance, construction and separation of the critical sets of
linear objectives over orthonormal frames, the local error bound with its
explicit constant, empirical Kurdyka-Lojasiewicz ratios, per-iteration
sufficient-decrease / relative-error audits, and a brute-force global
oracle for tiny instances.

Probe reports are plain dataclasses that share one serializer: the base
class ``_Report`` maps each field, in declaration order, to JSON-ready data,
turning nested reports into dicts and numpy bools into Python bools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from ._args import count, finite, fraction
from .data import FixedEffectSpec, gen_fixed_effect
from .errors import (
    InvalidInputError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .linalg import (
    ThinSvd,
    _ldexp,
    _pow2_scaled,
    _prescaled,
    _xt,
    as_dense,
    complete_orthonormal,
    frob,
    polar_factor,
    random_orthogonal,
    random_stiefel,
    require_finite,
    seeded_rng,
    stiefel_residual,
    tangent_project,
    thin_svd,
)
from .model import (
    ProblemInstance,
    _check_dims,
    objective_h,
    objective_l1,
    require_signs,
    require_stiefel,
    residual_R,
    sign_select,
    subgrad_dist_h,
    subgrad_dist_linear,
)
from .solvers import SolveResult, SolverConfig, draw_start, solve, svd_start, theorem_config

_EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# reports


def _json_ready(value):
    """A report field as JSON data: nested reports become dicts, numpy bools Python bools."""
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, np.bool_):
        return bool(value)
    return value


class _Report:
    """Base of the report dataclasses: ``to_dict`` gives the fields in order."""

    def to_dict(self) -> dict:
        return {f.name: _json_ready(getattr(self, f.name)) for f in fields(self)}


@dataclass
class ProbeReport(_Report):
    """Common JSON-serializable shape for probe outcomes."""

    name: str
    parameters: dict
    samples: int
    violations: int
    passed: bool
    worst_ratio: float | None = None
    min_ratio: float | None = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# criticality certificates


@dataclass
class CriticalityReport(_Report):
    """Residual norms and the step-size certificate at a candidate limit pair.

    ``gen_eq_residual`` measures the fixed-point inclusion the solver's
    limit satisfies for a constant sign-block step ``alpha_star``;
    ``l1_residual`` measures criticality for the original objective with the
    plain sign selection.  The certificate fires when ``alpha_star`` is
    below the smallest nonzero magnitude in X^T Q*, in which case the
    fixed-point inclusion implies criticality for the original problem.
    """

    h_residual: float
    gen_eq_residual: float
    alpha_condition_threshold: float
    alpha_star_used: float
    certified_critical_for_l1: bool
    l1_residual: float
    alpha_condition_vacuous: bool = False


def _alpha_condition(M: np.ndarray, alpha_star: float, zero_tol: float) -> tuple[bool, float]:
    """``check_alpha_condition`` from M = X^T Q* and checked arguments."""
    mags = np.abs(M)
    nz = mags > zero_tol
    if not nz.any():
        return False, 0.0
    threshold = float(mags[nz].min())
    return alpha_star < threshold, threshold


def check_alpha_condition(X, Qstar: np.ndarray, alpha_star: float, zero_tol: float = 0.0) -> tuple[bool, float]:
    """Step-size certificate: alpha_star below the smallest nonzero |(X^T Q*)_ij|.

    Entries with magnitude at most ``zero_tol`` are treated as zero.  When
    every entry is zero the condition is vacuous and the certificate is
    withheld (flag False, threshold 0).  ``alpha_star`` must be a finite
    positive number and ``zero_tol`` a finite nonnegative one.
    """
    alpha_star = finite("check_alpha_condition", "alpha_star", alpha_star, positive=True)
    if (zero_tol := finite("check_alpha_condition", "zero_tol", zero_tol)) < 0.0:
        raise PreconditionError(f"zero_tol must be nonnegative, got {zero_tol!r}")
    Q = require_stiefel(Qstar, name="Qstar")
    return _alpha_condition(_xt(X, Q), alpha_star, zero_tol)


def criticality_report(X, Pstar: np.ndarray, Qstar: np.ndarray, alpha_star: float, zero_tol: float = 1e-12) -> CriticalityReport:
    """Evaluate all criticality residuals at a candidate limit pair.

    Takes X P and X^T Q once each; the sign choices P_gen and P_l1 reuse
    X P when they equal P, as they do at a converged pair, so a limit point
    costs two large products.  ``alpha_star`` and ``zero_tol`` are checked
    as in ``check_alpha_condition``, before any product.  Where a product of
    a finite X overflows, the report is taken on X / 2^e, e from
    ``linalg._prescaled`` (the library's one scale rule), with ``alpha_star``
    and ``zero_tol`` divided by 2^e too: every residual and the threshold are
    homogeneous in X, so they come back times 2^e.
    """
    alpha_star = finite("criticality_report", "alpha_star", alpha_star, positive=True)
    if (zero_tol := finite("criticality_report", "zero_tol", zero_tol)) < 0.0:
        raise PreconditionError(f"zero_tol must be nonnegative, got {zero_tol!r}")
    P = require_signs(Pstar, "Pstar")
    Q = require_stiefel(Qstar, name="Qstar")
    _check_dims(X, Q, P)
    with np.errstate(over="ignore", invalid="ignore"):
        XP, M = X @ P, _xt(X, Q)
    e = 0
    if not (np.isfinite(XP).all() and np.isfinite(M).all()):
        X, e = _prescaled(X, frob(X))
        XP, M = X @ P, _xt(X, Q)
    alpha = _ldexp(alpha_star, -e)

    def times_X(S: np.ndarray) -> np.ndarray:
        # BLAS may round X S differently for another memory layout of the same S
        return XP if S.strides == P.strides and np.array_equal(S, P) else X @ S

    h_res = subgrad_dist_linear(-XP, Q)
    P_gen = sign_select(P + M / alpha, P)
    gen_eq = subgrad_dist_linear(-times_X(P_gen), Q)
    P_l1 = sign_select(M, P)
    l1_res = subgrad_dist_linear(-times_X(P_l1), Q)
    fired, threshold = _alpha_condition(M, alpha, _ldexp(zero_tol, -e))
    return CriticalityReport(
        h_residual=_ldexp(h_res, e),
        gen_eq_residual=_ldexp(gen_eq, e),
        alpha_condition_threshold=_ldexp(threshold, e),
        alpha_star_used=float(alpha_star),
        certified_critical_for_l1=fired,
        l1_residual=_ldexp(l1_res, e),
        alpha_condition_vacuous=threshold == 0.0,
    )


# ---------------------------------------------------------------------------
# brute-force oracle


class OracleResult(NamedTuple):
    value: float
    P: np.ndarray
    Q: np.ndarray


#: byte budget of one chunk's stacked candidates: the (chunk, n, K) sign
#: matrices and the (chunk, d, K) products X P each stay within it
_ORACLE_CHUNK_BYTES = 8 << 20


def _sign_matrices(m: np.ndarray, n: int, K: int) -> np.ndarray:
    """The (m.size, n, K) sign matrices of the int64 counters ``m`` (see ``enumerate_oracle``)."""
    P = np.ones((m.size, n, K))
    P[:, : n - 1, :] = (1 - 2 * ((m[:, None] >> np.arange((n - 1) * K, dtype=np.int64)) & 1)).reshape(m.size, n - 1, K)
    return P


def _screen(sq: np.ndarray, V: np.ndarray, cols: list[slice]) -> np.ndarray:
    """tr((M^T M)^(1/2)) of M = [v_c0, ..., v_c(K-1)], K >= 2, on the grid of every c_k in ``cols[k]``;
    ``sq`` holds the squared column norms of V."""
    K = len(cols)
    if K == 2:
        a, c = sq[cols[0], None], sq[None, cols[1]]
        b = V[:, cols[0]].T @ V[:, cols[1]]
        # (s1 + s2)^2 = a + c + 2 s1 s2 for the singular values s1, s2 of M
        return np.sqrt(a + c + 2.0 * np.sqrt(np.maximum(a * c - b * b, 0.0)))
    shape = [s.stop - s.start for s in cols]
    G = np.empty((*shape, K, K))
    for k in range(K):
        G[..., k, k] = sq[cols[k]].reshape([-1 if i == k else 1 for i in range(K)])
        for l in range(k):
            # eigvalsh reads the lower triangle only
            B = V[:, cols[l]].T @ V[:, cols[k]]
            G[..., k, l] = B.reshape([shape[i] if i in (l, k) else 1 for i in range(K)])
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G), 0.0)).sum(axis=-1)


def _near_maximal(A: np.ndarray, norm: float, K: int, chunk: int) -> np.ndarray:
    """The counters, ascending, whose screen lies within the margin of the best (see ``enumerate_oracle``);
    ``norm`` is frob(A), finite."""
    d, n = A.shape
    if norm == 0.0:
        # every X P is zero, and so is every value: the first counter is the first maximizer
        return np.zeros(1, dtype=np.int64)
    # into [1/2, 1) even inside _prescaled's window, where the screen's squares could overflow
    As = _pow2_scaled(A, math.frexp(norm)[1])
    J = 1 << (n - 1)

    def products(start: int, stop: int) -> np.ndarray:
        # at K = 1 the counters are the sign vectors' indices
        return As @ _sign_matrices(np.arange(start, stop), n, 1)[:, :, 0].T

    if K > 1:
        step = max(1, _ORACLE_CHUNK_BYTES // (8 * max(n, d)))
        V = np.empty((d, J))
        for start in range(0, J, step):
            V[:, start : start + step] = products(start, min(start + step, J))
        sq = np.einsum("ij,ij->j", V, V)
    h = max(1, round(chunk ** (1.0 / K)))
    while h**K > chunk:
        h -= 1
    # blocks of h^K <= chunk candidates; each keeps those within the margin of the best screen so far
    keep = 1.0 - 8.0 * K * math.sqrt((d + n + K + 10) * _EPS)
    best = 0.0
    kept_m, kept_s = [], []
    for index in np.ndindex(*[-(-J // h)] * K):
        block = [h * i for i in index]
        cols = [slice(s, min(s + h, J)) for s in block]
        if K == 1:
            Vs = products(block[0], cols[0].stop)
            scr = np.sqrt(np.einsum("ij,ij->j", Vs, Vs))
        else:
            scr = _screen(sq, V, cols)
        best = max(best, float(scr.max()))
        idx = np.nonzero(scr >= keep * best)
        # column k's index c holds bit i of the counter at bit i K + k
        m = np.zeros(idx[0].size, dtype=np.int64)
        for k in range(K):
            c = idx[k] + block[k]
            for i in range(n - 1):
                m |= ((c >> i) & 1) << (i * K + k)
        kept_m.append(m)
        kept_s.append(scr[idx])
    kept = np.concatenate(kept_m)[np.concatenate(kept_s) >= keep * best]
    kept.sort()
    return kept


def enumerate_oracle(X, K: int, hard_cap: int = 22) -> OracleResult:
    """Exact global maximum of the L1 objective by sign enumeration.

    For each n x K sign matrix P the inner subspace problem is an
    orthogonal Procrustes problem, whose optimal value is the nuclear norm
    of X P (Markopoulos-Karystinos-Pados).  Flipping a column of P leaves
    that value unchanged, so only the 2^((n-1)K) sign matrices whose last
    row is all +1 are scored.  ``hard_cap`` bounds the full count:
    more than 2^hard_cap sign matrices (nK bits) are refused.  K and
    ``hard_cap`` must be integers (numpy's too, bools not).

    Bit t of a counter toggles entry t of P in row-major order (bit 0 means
    +1), so the last row holds the most significant bits and the scored
    set is the counters below 2^((n-1)K).  The value is the sum of the
    singular values LAPACK gives for X P; ties go to the first maximizer
    in ascending counter order.  Since every column flip toggles a last-row
    bit, that is also the first maximizer over all 2^(nK) counters, up to
    roundoff between tied values.

    Scale.  Each entry of X P is at most sqrt(n) ||X||_F, and its nuclear
    norm at most K sqrt(n) ||X||_F.  Where that bound reaches 2^1023, X below
    stands for X / 2^f, f from ``linalg._prescaled`` (the library's one scale
    rule): the screen, the rescore and Q run on it, and the value is 2^f
    times its own, inf where it overflows, as it does whenever ||X||_F does
    (the maximum is at least sqrt(K) ||X||_F).  Any finite X works.

    Screen.  Column k of the sign matrix of counter m is one of the
    J = 2^(n-1) sign vectors with last entry +1, so the column products
    V = (X / 2^e) S, with e the binary exponent of ||X||_F and S those J
    vectors, serve every candidate: M = X P / 2^e is a choice of K columns
    of V, and its nuclear norm tr((M^T M)^(1/2)) depends only on their Gram
    entries.  The screen is ||v|| at K = 1,
    sqrt(a + c + 2 sqrt(max(ac - b^2, 0))) at K = 2 (a, c the squared
    column norms, b their product), and the summed roots of a stacked
    ``eigvalsh`` at K >= 3.  The power-of-two scale is exact and keeps
    ac - b^2 from underflowing or overflowing at any scale of X.  No J x J
    Gram matrix is formed (see Chunks).

    Margin.  With T = K max_j ||v_j||^2, the largest tr(M^T M) over the
    candidates, the maximum is at least sqrt(T): repeating the longest
    column scores that.  Each computed column of V is off by at most about
    n^1.5 u sqrt(T) (u = eps / 2; ||X / 2^e||_F^2 <= T / K, the mean of
    ||v_j||^2), each Gram entry by about (d + 2n) u T.  At K = 2 the
    determinant (at most T^2 / 4) then errs by about (d + 2n + 4) u T^2,
    its root by sqrt((d + 2n + 4) u) T, and the screen of a candidate near
    the maximum, the root of a sum near T or above, by about
    2 sqrt((d + 2n + 4) u T).  At K >= 3, ``eigvalsh`` is backward stable:
    each eigenvalue errs by about (d + 2n + K) u T and its root by the
    square root of that, K of them per screen.  So a near-maximal screen
    errs from the exact nuclear norm by E <= 2K sqrt((d + 2n + K + 4) u T),
    while the SVD value errs by O((d + K) u sqrt(T)) only.  Let b be the
    best-screened counter and c any counter whose SVD value is maximal;
    then screen(c) >= screen(b) - 2E - O(u sqrt(T)), and screen(b) >=
    sqrt(T) - E.  So every counter whose screen is at least (1 - r) times
    the best, with

        r = 8K sqrt((d + n + K + 10) eps),

    a margin r screen(b) of at least twice the bound on the gap, is
    rescored with the SVD above on X itself, not on X / 2^e, in ascending
    counter order, and the first maximizer is kept.  That is the full scan's
    maximizer with its own value, P and Q, bit for bit: each candidate's
    SVD is the same LAPACK call on the same product, whichever others share
    its stack.  Random data rescores K! candidates or a few more (the
    column orders of one maximizer); data with many exact ties rescores
    all of them, and zero X, whose every value is 0, counter 0 only.

    Chunks: the candidates are screened in blocks of K index ranges, each
    block keeping the counters at or above (1 - r) times the best screen so
    far (a superset of the final set), and rescored in chunks; the stacked
    arrays of either take at most ``_ORACLE_CHUNK_BYTES`` (8 MB), whatever
    d.  At K = 1 each block forms its own columns of V; at K >= 2, V is
    formed once, d x J with J <= 2^(hard_cap / 2 - 1).
    """
    K, hard_cap = count("K", K), count("hard_cap", hard_cap)
    d, n = X.shape
    if not (1 <= K <= min(n, d)):
        raise PreconditionError("K must satisfy 1 <= K <= min(n, d)")
    bits_total = n * K
    if bits_total > hard_cap:
        raise UnsupportedRegimeError(
            f"enumeration over 2^{bits_total} sign matrices refused (cap 2^{hard_cap})"
        )
    A = as_dense(X)
    require_finite(A, "X")
    norm, e = frob(A), 0
    if K * math.sqrt(n) * norm >= 2.0**1023:
        A, e = _prescaled(A, norm)
        norm = frob(A)
    chunk = max(1, _ORACLE_CHUNK_BYTES // (8 * K * max(n, d)))
    kept = _near_maximal(A, norm, K, chunk)
    # rescore: the full scan's SVD value on the near-maximal few
    best_val = -math.inf
    best_P = None
    for start in range(0, kept.size, chunk):
        P = _sign_matrices(kept[start : start + chunk], n, K)
        vals = np.linalg.svd(A @ P, compute_uv=False).sum(axis=-1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_P = P[i].copy()
    Q = polar_factor(A @ best_P)
    return OracleResult(value=_ldexp(best_val, e), P=best_P, Q=Q)


# ---------------------------------------------------------------------------
# critical sets of linear objectives over orthonormal frames


@dataclass
class CriticalSetSpec:
    """Data describing one connected family of critical points for <A, .>.

    The family is parametrized by per-block orthogonal matrices (one for
    each group of tied positive singular values of A) and a free orthonormal
    tail block; ``q`` holds the +-1 eigenvalue signs of the leading part.
    """

    A: np.ndarray
    q: np.ndarray
    multiplicities: tuple[int, ...]
    U_full: np.ndarray
    sigma_pos: np.ndarray
    V_full: np.ndarray
    rank: int
    tie_tol: float

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def K(self) -> int:
        return self.A.shape[1]

    def block_sign_counts(self, q: np.ndarray | None = None) -> tuple[int, ...]:
        qv = self.q if q is None else np.asarray(q, dtype=np.float64)
        counts = []
        start = 0
        for h in self.multiplicities:
            counts.append(int(np.sum(qv[start : start + h] > 0)))
            start += h
        return tuple(counts)


def _tie_blocks(A: np.ndarray, tie_tol: float, rank_tol: float | None) -> tuple[ThinSvd, int, tuple[int, ...]]:
    """Thin SVD of a nonzero A, its rank r, and the multiplicities of its tie blocks.

    The rank counts the singular values above ``rank_tol`` (in [0, 1);
    default max(d, K) eps) times the largest.  Walking down those r values,
    the first opens block one; each later value joins the current block when
    it is within relative ``tie_tol`` (in [0, 1)) of the block's first value,
    and opens a new block otherwise.
    """
    tie_tol = fraction("tie_tol", tie_tol, "[0, 1)")
    if rank_tol is not None:
        rank_tol = fraction("rank_tol", rank_tol, "[0, 1)")
    s = thin_svd(A)
    smax = float(s.sigma[0]) if s.sigma.size else 0.0
    if smax == 0.0:
        raise InvalidInputError("A must be nonzero")
    if rank_tol is None:
        rank_tol = max(A.shape) * _EPS
    r = int(np.sum(s.sigma > rank_tol * smax))
    mult = [0]
    block_head = s.sigma[0]
    for v in s.sigma[:r]:
        if mult[-1] and not v >= block_head * (1.0 - tie_tol):
            mult.append(0)
            block_head = v
        mult[-1] += 1
    return s, r, tuple(mult)


def critical_set_spec(A, q, tie_tol: float = 1e-9, rank_tol: float | None = None) -> CriticalSetSpec:
    """Build a critical-set description from A and a sign vector q.

    Singular values within relative ``tie_tol`` of each other are grouped
    into one multiplicity block; ``q`` must have one sign per positive
    singular value (rank entries).
    """
    Ad = as_dense(A)
    d, K = Ad.shape
    if d < K or K < 1:
        raise PreconditionError("A must be d x K with d >= K >= 1")
    s, r, mult = _tie_blocks(Ad, tie_tol, rank_tol)
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.shape != (r,):
        raise PreconditionError(f"q must have one sign per positive singular value (rank {r})")
    if not np.all(np.abs(qv) == 1.0):
        raise PreconditionError("q entries must be exactly +-1")
    U_full = complete_orthonormal(s.U[:, :r], d)
    return CriticalSetSpec(
        A=Ad,
        q=qv,
        multiplicities=mult,
        U_full=U_full,
        sigma_pos=s.sigma[:r].copy(),
        V_full=s.V,
        rank=r,
        tie_tol=tie_tol,
    )


def build_critical_point(spec: CriticalSetSpec, U_blocks: Sequence[np.ndarray], V: np.ndarray | None) -> np.ndarray:
    """Assemble one member of the critical family from its free parameters.

    ``U_blocks`` holds one orthogonal matrix per multiplicity block and
    ``V`` an orthonormal-columns tail of shape (d - rank, K - rank) (omit or
    pass an empty matrix when K equals the rank).  The result Q satisfies
    R(Q) = 0 and exact feasibility up to roundoff.
    """
    r, d, K = spec.rank, spec.d, spec.K
    if len(U_blocks) != len(spec.multiplicities):
        raise PreconditionError("one orthogonal block per multiplicity group required")
    blocks = []
    for h, B in zip(spec.multiplicities, U_blocks):
        B = np.asarray(B, dtype=np.float64)
        if B.shape != (h, h):
            raise PreconditionError(f"block shape {B.shape} does not match multiplicity {h}")
        if stiefel_residual(B) > 1e-8:
            raise PreconditionError("U_blocks must be orthogonal")
        blocks.append(B)
    if K - r > 0:
        if V is None:
            raise PreconditionError("V required when K exceeds the rank")
        V = np.asarray(V, dtype=np.float64)
        if V.shape != (d - r, K - r):
            raise PreconditionError(f"V must have shape {(d - r, K - r)}")
        if stiefel_residual(V) > 1e-8:
            raise PreconditionError("V must have orthonormal columns")
    U = scipy.linalg.block_diag(*blocks) if blocks else np.zeros((0, 0))
    core = (U * spec.q) @ U.T
    W = np.zeros((d, K))
    W[:r, :r] = core
    if K - r > 0:
        W[r:, r:] = V
    Q = spec.U_full @ W @ spec.V_full.T
    scale = max(1.0, frob(spec.A))
    if stiefel_residual(Q) > 1e-10 or frob(residual_R(spec.A, Q)) > 1e-10 * scale:
        raise InvalidInputError("assembled point failed its defining identities")
    return Q


def sample_critical_point(spec: CriticalSetSpec, rng: np.random.Generator) -> np.ndarray:
    """Random member of the critical family."""
    blocks = [random_orthogonal(h, rng) for h in spec.multiplicities]
    if spec.K - spec.rank > 0:
        V = random_stiefel(spec.d - spec.rank, spec.K - spec.rank, rng)
    else:
        V = np.zeros((spec.d - spec.rank, 0))
    return build_critical_point(spec, blocks, V)


#: byte budget of one block of critical_set_separation_probe's pairwise differences
_SEPARATION_BLOCK_BYTES = 4 << 20


def critical_set_separation_probe(
    A,
    q,
    qprime,
    samples: int = 100,
    seed: int = 0,
    tie_tol: float = 1e-9,
) -> float:
    """Minimum sampled distance between two distinct critical families.

    Requires the per-block positive-sign counts of q and qprime to differ
    (otherwise the two families coincide).  Returns the minimum pairwise
    Frobenius distance over ``samples`` (at least 1) members of each family;
    the families are at distance at least 2 whenever they are distinct.
    """
    samples = count("samples", samples, 1)
    spec_q = critical_set_spec(A, q, tie_tol=tie_tol)
    spec_p = critical_set_spec(A, qprime, tie_tol=tie_tol)
    if spec_q.block_sign_counts() == spec_p.block_sign_counts():
        raise PreconditionError("q and qprime generate the same critical family (equal per-block sign counts)")
    rng = seeded_rng(seed, 0xC417)
    left = np.stack([sample_critical_point(spec_q, rng) for _ in range(samples)])
    right = np.stack([sample_critical_point(spec_p, rng) for _ in range(samples)])
    # the pairwise differences of a block of left samples at a time, within
    # _SEPARATION_BLOCK_BYTES; each pair's sum is the same as over all pairs at once
    rows = max(1, _SEPARATION_BLOCK_BYTES // right.nbytes)
    block_minima = [
        np.sqrt(((left[i : i + rows, None, :, :] - right[None, :, :, :]) ** 2).sum(axis=(2, 3))).min()
        for i in range(0, samples, rows)
    ]
    return float(np.min(block_minima))


# ---------------------------------------------------------------------------
# error-bound constant and probe


class KappaConstants(NamedTuple):
    kappa: float
    eta_g: float
    p: int
    delta_min: float


def kappa_constant(A, tie_tol: float = 1e-9, rank_tol: float | None = None) -> KappaConstants:
    """Error-bound constant for <A, .> over orthonormal frames.

    With positive singular values grouped into ``p`` distinct levels and
    relative gaps delta_ij between levels, the distance to the critical
    family is bounded by kappa ||R(Q)||_F near the family, with

        kappa = (1/a_r) * sqrt(13 + 6 (6p - 5) / min delta_ij^2),

    where a_r is the smallest positive singular value.  With a single level
    the gap term is an empty minimum and is dropped.  Also returns the
    induced gradient-inequality factor eta_g = (2 kappa^2 ||A||)^(-1/2),
    evaluated as 1 / (kappa sqrt(2 ||A||)): kappa^2 overflows for a tiny A
    (kappa near 1e160 at ||A|| near 1e-160) and loses digits to underflow
    for a huge one.  Where ||A||_F reaches 2^1023, so that 2 ||A|| or ||A||_F
    itself may overflow, the tie blocks are those of A / 2^e, e from
    ``linalg._prescaled`` (the library's one scale rule), and kappa and
    eta_g are scaled back by 2^-e and 2^(e/2).
    """
    A = as_dense(A)
    norm, e = frob(A), 0
    if norm >= 2.0**1023:
        A, e = _prescaled(A, norm)
    s, r, mult = _tie_blocks(A, tie_tol, rank_tol)
    pos = s.sigma[:r]
    a_r = float(pos[-1])
    reps = np.array([block.mean() for block in np.split(pos, np.cumsum(mult)[:-1])])
    p = len(mult)
    if p == 1:
        delta_min = math.inf
        kappa = math.sqrt(13.0) / a_r
    else:
        # delta_ij for every ordered pair i != j of levels
        deltas = np.abs(reps[:, None] / reps - reps / reps[:, None])
        delta_min = float(deltas[~np.eye(p, dtype=bool)].min())
        kappa = math.sqrt(13.0 + 6.0 * (6.0 * p - 5.0) / (delta_min**2)) / a_r
    smax = float(s.sigma[0])
    eta_g = 1.0 / (kappa * math.sqrt(2.0 * smax))
    if e:
        kappa, eta_g = _ldexp(kappa, -e), _ldexp(eta_g * math.sqrt(1 + e % 2), e // 2)
    return KappaConstants(kappa=kappa, eta_g=eta_g, p=p, delta_min=delta_min)


def error_bound_probe(
    A,
    q,
    samples: int = 1000,
    radius: float = 0.9,
    seed: int = 0,
    tie_tol: float = 1e-9,
) -> ProbeReport:
    """Sampled check of dist(Q, critical family) <= kappa ||R(Q)||_F.

    Restricted to the regimes where the family is a single point so the
    distance is exactly computable: K = 1, or square full-rank A with all
    singular values distinct.  Samples feasible Q within ``radius`` < 1 of
    the family's point (``_sample_near``) and reports the worst
    distance/residual ratio over ``samples`` (at least 1) draws.  A draw
    within 1e-12 of the point, or whose residual lies below 1e-12 ||A||_2, is
    skipped: ||R(Q)|| scales with A, and the ratio then carries no signal.
    """
    samples = count("samples", samples, 1)
    radius = fraction("radius", radius)
    spec = critical_set_spec(A, q, tie_tol=tie_tol)
    kc = kappa_constant(A, tie_tol=tie_tol)
    d, K, r = spec.d, spec.K, spec.rank
    if K == 1:
        target = build_critical_point(spec, [np.eye(1)], np.zeros((d - 1, 0)))
    elif d == K == r and kc.p == r:
        target = build_critical_point(spec, [np.eye(1)] * r, np.zeros((0, 0)))
    else:
        raise UnsupportedRegimeError(
            "exact family distance only available for K = 1 or square full-rank A with distinct singular values"
        )
    rng = seeded_rng(seed, 0xEB)
    worst = 0.0
    used = 0
    violations = 0
    for _ in range(samples):
        Q = _sample_near(target, radius, rng)
        if Q is None:
            continue
        dist = frob(Q - target)
        if dist < 1e-12:
            continue
        Rn = frob(residual_R(spec.A, Q))
        if Rn < 1e-12 * spec.sigma_pos[0]:
            continue
        ratio = dist / Rn
        used += 1
        worst = max(worst, ratio)
        if ratio > kc.kappa * (1.0 + 1e-12):
            violations += 1
    return ProbeReport(
        name="error_bound",
        parameters={"d": d, "K": K, "radius": radius, "seed": seed, "kappa": kc.kappa, "p": kc.p},
        samples=used,
        violations=violations,
        passed=violations == 0 and used > 0,
        worst_ratio=worst,
        details={"kappa": kc.kappa, "eta_g": kc.eta_g},
    )


# ---------------------------------------------------------------------------
# empirical KL ratios


def exact_l1_subgrad_dist(
    X,
    Q: np.ndarray,
    zero_tol: float = 0.0,
    max_zero_enum: int = 12,
) -> tuple[float, bool]:
    """dist(0, subdifferential of the L1 objective) at a feasible Q.

    The subdifferential is a finite union over sign selections at the zero
    entries of X^T Q; all selections are enumerated when there are at most
    ``max_zero_enum`` zeros, otherwise the +1 selection is used and the
    fallback flag is set.
    """
    Q = require_stiefel(Q)
    M = _xt(X, Q)
    xi = np.where(M > zero_tol, 1.0, -1.0)
    zeros = np.nonzero(np.abs(M) <= zero_tol)
    z = zeros[0].size
    if z == 0:
        return subgrad_dist_linear(-(X @ xi), Q), False
    if z > max_zero_enum:
        xi[zeros] = 1.0
        return subgrad_dist_linear(-(X @ xi), Q), True
    # row m gives zero entry t (row-major order) the sign -1 where bit t of m is set
    patterns = 1.0 - 2.0 * ((np.arange(1 << z)[:, None] >> np.arange(z)) & 1)
    best = math.inf
    for signs in patterns:
        xi[zeros] = signs
        best = min(best, subgrad_dist_linear(-(X @ xi), Q))
    return best, False


@dataclass
class KlRadiusResult(_Report):
    radius: float
    min_ratio: float
    samples_used: int
    samples_skipped: int
    fallback_samples: int
    all_flat: bool


@dataclass
class KlProbeReport(_Report):
    name: str
    parameters: dict
    per_radius: list[KlRadiusResult]
    passed: bool
    stability_factor: float


def _sample_near(Q0: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray | None:
    """A feasible Q within ``radius`` of Q0, or None when the random tangent direction is 0.

    Q is the polar retraction of Q0 + t T with T a random unit tangent
    direction at Q0 and t uniform in [0.05, 1) times ``radius``.  The
    retraction moves Q0 by at most t (dist^2 = sum of 2 - 2 / sqrt(1 + s_i)
    over the eigenvalues s_i of t^2 T^T T, which is at most t^2), so the
    first try lands within ``radius``; the halvings guard roundoff.
    """
    d, K = Q0.shape
    T = tangent_project(Q0, rng.standard_normal((d, K)))
    nt = frob(T)
    if nt == 0.0:
        return None
    t = radius * rng.uniform(0.05, 1.0)
    for _ in range(6):
        Q = polar_factor(Q0 + T * (t / nt))
        if frob(Q - Q0) <= radius:
            return Q
        t *= 0.5
    return None


#: probe -> (report name, the critical point it names, its seed stream)
_KL_PROBES = {
    "kl_ratio_probe": ("kl_ratio_l1", "Qstar", 0x4C),
    "kl_ratio_probe_h": ("kl_ratio_two_block", "(Pstar, Qstar)", 0x4D),
}


def _kl_sweep(probe: str, residual: float, star: float, Qstar: np.ndarray, radii: Sequence[float], samples: int,
              seed: int, crit_tol: float, stability_cap: float, value: Callable[[np.ndarray], float],
              dist: Callable[[np.ndarray], tuple[float, bool]]) -> KlProbeReport:
    """The report of ``probe`` (a key of ``_KL_PROBES``) at a critical Qstar with subgradient
    distance ``residual`` (at most ``crit_tol``) and value ``star``.

    Per radius, the minimum of dist / sqrt(gap), gap = |value(Q) - star|,
    over points sampled near Qstar.  A sample is skipped when it cannot be
    drawn or its gap is at most 1e-12 max(1, |star|); ``dist`` runs only on
    the samples kept and returns the distance with its fallback flag.
    """
    name, point, stream = _KL_PROBES[probe]
    rng = seeded_rng(seed, stream)
    samples = count("samples", samples, 1)
    radii = [finite(probe, "radius", radius, positive=True) for radius in radii]
    crit_tol, stability_cap = finite(probe, "crit_tol", crit_tol), finite(probe, "stability_cap", stability_cap)
    if residual > crit_tol:
        raise PreconditionError(f"{point} is not critical (residual {residual:.3e} > {crit_tol:.1e})")
    value_guard = 1e-12 * max(1.0, abs(star))
    per_radius: list[KlRadiusResult] = []
    for radius in radii:
        used = skipped = fallback = 0
        min_ratio = math.inf
        for _ in range(samples):
            Q = _sample_near(Qstar, radius, rng)
            if Q is None:
                skipped += 1
                continue
            g = abs(value(Q) - star)
            if g <= value_guard:
                skipped += 1
                continue
            dist_q, fb = dist(Q)
            fallback += int(fb)
            used += 1
            min_ratio = min(min_ratio, dist_q / math.sqrt(g))
        per_radius.append(
            KlRadiusResult(
                radius=radius,
                min_ratio=min_ratio,
                samples_used=used,
                samples_skipped=skipped,
                fallback_samples=fallback,
                all_flat=used == 0,
            )
        )
    ratios = [r.min_ratio for r in per_radius if math.isfinite(r.min_ratio)]
    factor = max(ratios) / min(ratios) if len(ratios) >= 2 else 1.0
    return KlProbeReport(
        name=name,
        parameters={"radii": radii, "samples": samples, "seed": seed},
        per_radius=per_radius,
        passed=all(r.min_ratio > 0 for r in per_radius) and factor < stability_cap,
        stability_factor=factor,
    )


def kl_ratio_probe(
    X,
    Qstar: np.ndarray,
    radii: Sequence[float],
    samples: int = 200,
    seed: int = 0,
    max_zero_enum: int = 12,
    crit_tol: float = 1e-8,
    stability_cap: float = 10.0,
) -> KlProbeReport:
    """Empirical gradient-inequality ratios around a critical point.

    Samples feasible Q at each radius and reports the minimum of
    dist(0, subdifferential) / |value gap|^(1/2); a square-root-style
    growth makes these ratios positive and stable across radii.  Samples
    whose objective value ties the critical value are skipped; if all are
    skipped the radius reports an infinite sentinel and is flagged flat.
    """
    Qstar = require_stiefel(Qstar, name="Qstar")
    max_zero_enum = count("max_zero_enum", max_zero_enum, 0)
    residual = exact_l1_subgrad_dist(X, Qstar, max_zero_enum=max_zero_enum)[0]
    return _kl_sweep("kl_ratio_probe", residual, -objective_l1(X, Qstar), Qstar, radii, samples, seed, crit_tol,
                     stability_cap, value=lambda Q: -objective_l1(X, Q),
                     dist=lambda Q: exact_l1_subgrad_dist(X, Q, max_zero_enum=max_zero_enum))


def kl_ratio_probe_h(
    X,
    Pstar: np.ndarray,
    Qstar: np.ndarray,
    radii: Sequence[float],
    samples: int = 200,
    seed: int = 0,
    crit_tol: float = 1e-8,
    stability_cap: float = 10.0,
) -> KlProbeReport:
    """Same probe for the two-block objective with the sign block pinned.

    Points within unit distance of the limit share its sign block, so the
    sampled value gap and subgradient distance are taken at (Pstar, Q).
    """
    P = require_signs(Pstar, "Pstar")
    Qstar = require_stiefel(Qstar, name="Qstar")
    neg_XP = -(X @ P)
    return _kl_sweep("kl_ratio_probe_h", subgrad_dist_h(X, P, Qstar), objective_h(X, P, Qstar), Qstar, radii, samples,
                     seed, crit_tol, stability_cap, value=lambda Q: objective_h(X, P, Q),
                     dist=lambda Q: (subgrad_dist_linear(neg_XP, Q), False))


# ---------------------------------------------------------------------------
# decrease / relative-error audit


@dataclass
class AuditReport(_Report):
    name: str
    parameters: dict
    iterations: int
    violations_decrease: int
    violations_relative_error: int
    worst_decrease_slack: float
    worst_relative_error_slack: float
    passed: bool


def audit_constants(result: SolveResult) -> tuple[float, float]:
    """Sufficient-decrease and relative-error constants for an audited run.

    The decrease constant is min(alpha_star (1 - g) / 2, beta_star / 4)
    with g the run's extrapolation bound (zero for non-extrapolated runs;
    using the run's own bound instead of the generic admissible one only
    strengthens the audited inequality).  The error constant is
    sqrt(max(3 alpha_sup^2, (beta_sup - beta_star)^2 + beta_star^2
    + 3 ||X||^2)) with ||X|| replaced by the run's ``norm_upper``: the
    declared bound, or the exact 2-norm times (1 + spectral_rel_tol).  It is
    evaluated as
    max(sqrt(3) alpha_sup, hypot(beta_sup - beta_star, beta_star,
    sqrt(3) norm_upper)), which squares nothing and so cannot overflow.
    """
    info = result.audit_info
    if info is None:
        raise UnsupportedRegimeError("audit requires a run made in theorem_mode")
    gammas = info["gammas"]
    g = 0.0 if all(v == 0.0 for v in gammas) else float(info["gamma_sup"])
    kappa1 = min(info["alpha_star"] * (1.0 - g) / 2.0, info["beta_star"] / 4.0)
    root3 = math.sqrt(3.0)
    kappa2 = max(
        root3 * info["alpha_sup"],
        math.hypot(info["beta_sup"] - info["beta_star"], info["beta_star"], root3 * info["norm_upper"]),
    )
    return kappa1, kappa2


def decrease_and_error_audit(result: SolveResult, slack_tol: float = 1e-10) -> AuditReport:
    """Per-iteration audit of the potential decrease and subgradient bound.

    Checks, for every iteration of a theorem-mode run, that the potential
    dropped by at least kappa1 ||Delta C||^2 and that the canonical
    subgradient element recorded during the run has norm at most
    kappa2 ||Delta C||.  A violation is a breach beyond ``slack_tol``.
    """
    slack_tol = finite("decrease_and_error_audit", "slack_tol", slack_tol)
    kappa1, kappa2 = audit_constants(result)
    info = result.audit_info
    tr = result.trace
    sub = info["subgrad_norms"]
    viol_dec = 0
    viol_err = 0
    worst_dec = -math.inf
    worst_err = -math.inf
    for i in range(1, len(tr)):
        dC = tr.delta_C_norm[i]
        slack = (tr.psi_value[i] - tr.psi_value[i - 1]) + kappa1 * dC * dC
        worst_dec = max(worst_dec, slack)
        if slack > slack_tol:
            viol_dec += 1
        err_slack = sub[i - 1] - kappa2 * dC
        worst_err = max(worst_err, err_slack)
        if err_slack > slack_tol:
            viol_err += 1
    return AuditReport(
        name="decrease_and_error",
        parameters={
            "kappa1": kappa1,
            "kappa2": kappa2,
            "slack_tol": slack_tol,
            "norm_upper": info["norm_upper"],
        },
        iterations=len(tr) - 1,
        violations_decrease=viol_dec,
        violations_relative_error=viol_err,
        worst_decrease_slack=worst_dec if len(tr) > 1 else 0.0,
        worst_relative_error_slack=worst_err if len(tr) > 1 else 0.0,
        passed=viol_dec == 0 and viol_err == 0,
    )


def convergence_fit(trace, tail_fraction: float = 0.6, min_points: int = 4) -> tuple[float, float, int]:
    """Least-squares slope and R^2 of log10 value gaps over the run's tail.

    The gap at record k is h_k minus the final value; records at or below
    the floating-point floor are excluded (they carry rounding noise, not
    convergence information).  The tail, the last ``tail_fraction`` (in (0, 1]) of the
    records, widens to the whole run when it holds fewer than ``min_points`` (>= 1) gaps.
    Returns (slope, r_squared, points_used).
    """
    tail_fraction = fraction("tail_fraction", tail_fraction, "(0, 1]")
    min_points = count("min_points", min_points, 1)
    h = np.asarray(trace.h_value, dtype=np.float64)
    T = len(h) - 1
    if T < 2:
        return math.nan, 0.0, 0
    gaps = h[:T] - h[T]
    ks = np.arange(T, dtype=np.float64)
    floor = 1e-13 * max(1.0, float(np.max(np.abs(h))))
    start = math.ceil((1.0 - tail_fraction) * (T - 1))
    sel = (ks >= start) & (gaps > floor)
    if int(sel.sum()) < min_points:
        sel = gaps > floor
    npts = int(sel.sum())
    if npts < 2:
        return math.nan, 0.0, npts
    x = ks[sel]
    y = np.log10(gaps[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return float(slope), float(r2), npts


# ---------------------------------------------------------------------------
# composite suites (shared by the CLI and the acceptance tests)


def sandwich_probe(samples: int = 1000, seed: int = 0, dims: Sequence[tuple[int, int]] | None = None) -> ProbeReport:
    """Random check, over ``samples`` (at least 1) draws, that the exact subgradient
    distance is sandwiched between half the residual norm and the residual norm."""
    samples = count("samples", samples, 1)
    if dims is None:
        dims = [(2, 1), (2, 2), (5, 1), (5, 2), (5, 5), (20, 1), (20, 2), (20, 5)]
    rng = seeded_rng(seed, 0x5A)
    violations = 0
    hi = 0.0
    lo = math.inf
    used = 0
    for i in range(samples):
        d, K = dims[i % len(dims)]
        A = rng.standard_normal((d, K))
        Q = random_stiefel(d, K, rng)
        Rn = frob(residual_R(A, Q))
        if Rn == 0.0:
            continue
        dist = subgrad_dist_linear(A, Q)
        ratio = dist / Rn
        used += 1
        hi = max(hi, ratio)
        lo = min(lo, ratio)
        if dist > Rn * (1.0 + 1e-12) or dist < 0.5 * Rn * (1.0 - 1e-12):
            violations += 1
    return ProbeReport(
        name="sandwich",
        parameters={"samples": samples, "seed": seed, "dims": [list(t) for t in dims]},
        samples=used,
        violations=violations,
        passed=violations == 0 and used > 0,
        worst_ratio=hi,
        min_ratio=lo,
    )


def separation_suite(n_specs: int = 10, samples: int = 100, seed: int = 0) -> ProbeReport:
    """Random-spec sweep of the critical-family separation probe."""
    rng = seeded_rng(seed, 0x5E9)
    min_overall = math.inf
    violations = 0
    per_spec = []
    for i in range(n_specs):
        d = int(rng.integers(2, 7))
        K = int(rng.integers(1, min(d, 3) + 1))
        r = int(rng.integers(1, K + 1))
        vals = np.sort(rng.uniform(0.5, 3.0, size=r))[::-1].copy()
        if i % 2 == 1 and r >= 2:
            vals[1] = vals[0]  # force a tied pair to exercise multiplicity blocks
        A = (random_stiefel(d, r, rng) * vals) @ random_stiefel(K, r, rng).T
        q = np.ones(r)
        qprime = q.copy()
        qprime[0] = -1.0
        dist = critical_set_separation_probe(A, q, qprime, samples=samples, seed=int(rng.integers(2**31)))
        per_spec.append({"d": d, "K": K, "rank": r, "min_distance": dist})
        min_overall = min(min_overall, dist)
        if dist < 2.0 - 1e-9:
            violations += 1
    return ProbeReport(
        name="critical_set_separation",
        parameters={"n_specs": n_specs, "samples": samples, "seed": seed},
        samples=n_specs * samples,
        violations=violations,
        passed=violations == 0,
        min_ratio=min_overall,
        details={"per_spec": per_spec},
    )


#: the length of error_bound_suite's K = 1 vector
_ERROR_BOUND_D = 6


def error_bound_suite(samples: int = 1000, seed: int = 0) -> dict:
    """Both exactly-computable regimes of the error-bound probe."""
    rng = seeded_rng(seed, 0xEB0)
    a_vec = rng.standard_normal((_ERROR_BOUND_D, 1)) * 2.0
    rep_k1 = error_bound_probe(a_vec, np.array([1.0]), samples=samples, seed=seed)
    k = 4
    vals = np.array([3.0, 2.2, 1.5, 0.8])
    A_sq = (random_orthogonal(k, rng) * vals) @ random_orthogonal(k, rng).T
    q = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    rep_sq = error_bound_probe(A_sq, q, samples=samples, seed=seed + 1)
    return {
        "name": "error_bound_suite",
        "regimes": {"k1": rep_k1.to_dict(), "square_distinct": rep_sq.to_dict()},
        "passed": rep_k1.passed and rep_sq.passed,
    }


#: the neighbourhood radii kl_suite may probe at each optimum
_KL_RADII = (0.3, 0.1, 0.03, 0.01)


def _sign_stable_radius(X: np.ndarray, Q: np.ndarray) -> float:
    """min over i, j of |(X^T Q)_ij| / ||x_i|| over the nonzero columns x_i of X.

    A Q' within this Frobenius distance of Q moves each (X^T Q)_ij by less
    than |(X^T Q)_ij|, so no entry changes sign: ||X^T Q'||_1 there is the
    one smooth piece <X sign(X^T Q), Q'>.
    """
    norms = np.linalg.norm(X, axis=0)
    keep = norms > 0.0
    return float(np.min(np.abs(X[:, keep].T @ Q) / norms[keep, None], initial=math.inf))


def kl_suite(instances: int = 10, samples: int = 200, seed: int = 0) -> dict:
    """KL ratio probes at oracle-certified optima of tiny random instances.

    Each optimum is probed only at the radii of ``_KL_RADII`` below its
    sign-stable radius (``_sign_stable_radius``, recorded as
    ``sign_stable_radius``), inside which the objective is the single
    smooth piece the KL bound at the optimum concerns.  An instance left
    with no radius fails.
    """
    rng = seeded_rng(seed, 0x61)
    reports = []
    passed = True
    for _ in range(instances):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        K = int(rng.integers(1, min(2, n, d) + 1))
        X = rng.standard_normal((d, n))
        orc = enumerate_oracle(X, K)
        r_star = _sign_stable_radius(X, orc.Q)
        radii = [r for r in _KL_RADII if r < r_star]
        rep = kl_ratio_probe(X, orc.Q, radii, samples=samples, seed=int(rng.integers(2**31)))
        reports.append({"n": n, "d": d, "K": K, "sign_stable_radius": r_star, "report": rep.to_dict()})
        passed = passed and bool(radii) and rep.passed
    return {"name": "kl_suite", "instances": instances, "reports": reports, "passed": passed}


#: oracle_suite's solver tol and gates: an instance matches when its best
#: value over the restarts lies within _ORACLE_MATCH_TOL of the oracle's, and
#: the suite passes when at least _ORACLE_MIN_MATCH_RATE of the instances
#: match, no limit beats the oracle and every limit's subgradient distance
#: is at most _ORACLE_SUBGRAD_TOL
_ORACLE_TOL = 1e-10
_ORACLE_MATCH_TOL = 1e-8
_ORACLE_SUBGRAD_TOL = 1e-6
_ORACLE_MIN_MATCH_RATE = 0.8


def oracle_suite(
    instances: int = 50,
    restarts: int = 20,
    seed: int = 0,
    n: int | None = None,
    d: int | None = None,
    K: int | None = None,
) -> ProbeReport:
    """Best-of-restarts solver value against the enumeration oracle.

    Instance sizes are drawn tiny at random unless fixed explicitly.  Also
    asserts oracle dominance (no solver limit beats the global value) and
    criticality of every limit.  ``instances``, ``restarts`` and each fixed
    size must be integers of at least 1 (numpy's too, bools not).
    """
    instances, restarts = count("instances", instances, 1), count("restarts", restarts, 1)
    n, d, K = (None if v is None else count(name, v, 1) for name, v in (("n", n), ("d", d), ("K", K)))
    rng = seeded_rng(seed, 0x0AC1)
    matches = 0
    worst_sub = 0.0
    dominance_violations = 0
    for _ in range(instances):
        n_i = n if n is not None else int(rng.integers(2, 4))
        d_i = d if d is not None else int(rng.integers(2, 5))
        K_i = K if K is not None else int(rng.integers(1, min(2, n_i, d_i) + 1))
        X = rng.standard_normal((d_i, n_i))
        inst = ProblemInstance(X, K_i)
        orc = enumerate_oracle(X, K_i)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.5, tol=_ORACLE_TOL, max_iter=3000)
        best = -math.inf
        for r in range(restarts):
            if r == 0:
                P0, Q0 = svd_start(inst)
            else:
                P0, Q0 = draw_start(inst, seed=int(rng.integers(2**31)))
            res = solve(inst, cfg, P0, Q0)
            sub = subgrad_dist_h(X, res.P_final, res.Q_final)
            worst_sub = max(worst_sub, sub)
            best = max(best, res.final_objective)
            if res.final_objective > orc.value + 1e-9:
                dominance_violations += 1
        if best >= orc.value - _ORACLE_MATCH_TOL:
            matches += 1
    rate = matches / instances
    passed = rate >= _ORACLE_MIN_MATCH_RATE and worst_sub <= _ORACLE_SUBGRAD_TOL and dominance_violations == 0
    return ProbeReport(
        name="oracle_equivalence",
        parameters={"instances": instances, "restarts": restarts, "seed": seed},
        samples=instances,
        violations=dominance_violations,
        passed=passed,
        worst_ratio=worst_sub,
        details={"match_rate": rate, "worst_subgrad_dist": worst_sub},
    )


#: the theorem-mode tol and iteration cap of audit_suite's runs
_AUDIT_TOL = 1e-7
_AUDIT_MAX_ITER = 500


def audit_suite(
    instances: int = 3,
    n: int = 200,
    d: int = 80,
    K: int = 5,
    sigma: float = 0.5,
    seed: int = 0,
    method: str = "pame",
) -> dict:
    """Theorem-mode runs on synthetic instances plus their audits."""
    runs = []
    passed = True
    for i in range(instances):
        X, _, _ = gen_fixed_effect(FixedEffectSpec(n=n, d=d, K=K, sigma=sigma, seed=seed + i))
        inst = ProblemInstance(X, K)
        cfg = theorem_config(X, method=method, tol=_AUDIT_TOL, max_iter=_AUDIT_MAX_ITER)
        P0, Q0 = draw_start(inst, seed=seed + 1000 + i)
        res = solve(inst, cfg, P0, Q0)
        audit = decrease_and_error_audit(res)
        slope, r2, pts = convergence_fit(res.trace)
        runs.append(
            {
                "seed": seed + i,
                "iterations": res.iterations,
                "converged": res.converged,
                "audit": audit.to_dict(),
                "fit": {"slope": slope, "r_squared": r2, "points": pts},
            }
        )
        passed = passed and audit.passed
    return {
        "name": "audit_suite",
        "parameters": {"instances": instances, "n": n, "d": d, "K": K, "sigma": sigma, "seed": seed, "method": method},
        "runs": runs,
        "passed": passed,
    }
