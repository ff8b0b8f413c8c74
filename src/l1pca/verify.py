"""Numerical certification probes for the solver's structural guarantees.

Everything here checks a computable inequality or identity on concrete
points: criticality residuals and the step-size certificate for limit
points, the two-sided sandwich between the residual map and the exact
subgradient distance, construction and separation of the critical sets of
linear objectives over orthonormal frames, the local error bound with its
explicit constant, empirical Kurdyka-Lojasiewicz ratios, per-iteration
sufficient-decrease / relative-error audits, and a brute-force global
oracle for tiny instances.

Probe reports are plain dataclasses serializable to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    InvalidInputError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .linalg import (
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
    objective_h,
    objective_l1,
    require_signs,
    require_stiefel,
    residual_R,
    sign_select,
    subgrad_dist_h,
    subgrad_dist_linear,
)
from .solvers import SolveResult, SolverConfig, draw_start, solve, svd_start

_EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# reports


@dataclass
class ProbeReport:
    """Common JSON-serializable shape for probe outcomes."""

    name: str
    parameters: dict
    samples: int
    violations: int
    passed: bool
    worst_ratio: float | None = None
    min_ratio: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "samples": self.samples,
            "violations": self.violations,
            "passed": bool(self.passed),
            "worst_ratio": self.worst_ratio,
            "min_ratio": self.min_ratio,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# criticality certificates


@dataclass
class CriticalityReport:
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

    def to_dict(self) -> dict:
        return {
            "h_residual": self.h_residual,
            "gen_eq_residual": self.gen_eq_residual,
            "alpha_condition_threshold": self.alpha_condition_threshold,
            "alpha_star_used": self.alpha_star_used,
            "certified_critical_for_l1": bool(self.certified_critical_for_l1),
            "l1_residual": self.l1_residual,
            "alpha_condition_vacuous": bool(self.alpha_condition_vacuous),
        }


def check_alpha_condition(X, Qstar: np.ndarray, alpha_star: float, zero_tol: float = 0.0) -> tuple[bool, float]:
    """Step-size certificate: alpha_star below the smallest nonzero |(X^T Q*)_ij|.

    Entries with magnitude at most ``zero_tol`` are treated as zero.  When
    every entry is zero the condition is vacuous and the certificate is
    withheld (flag False, threshold 0).
    """
    if alpha_star <= 0:
        raise PreconditionError("alpha_star must be positive")
    if zero_tol < 0:
        raise PreconditionError("zero_tol must be nonnegative")
    Q = require_stiefel(Qstar, name="Qstar")
    mags = np.abs(X.T @ Q)
    nz = mags > zero_tol
    if not nz.any():
        return False, 0.0
    threshold = float(mags[nz].min())
    return alpha_star < threshold, threshold


def criticality_report(X, Pstar: np.ndarray, Qstar: np.ndarray, alpha_star: float, zero_tol: float = 1e-12) -> CriticalityReport:
    """Evaluate all criticality residuals at a candidate limit pair."""
    P = require_signs(Pstar, "Pstar")
    Q = require_stiefel(Qstar, name="Qstar")
    h_res = subgrad_dist_h(X, P, Q)
    M = X.T @ Q
    P_gen = sign_select(P + M / alpha_star, P)
    gen_eq = subgrad_dist_linear(-(X @ P_gen), Q)
    P_l1 = sign_select(M, P)
    l1_res = subgrad_dist_linear(-(X @ P_l1), Q)
    fired, threshold = check_alpha_condition(X, Q, alpha_star, zero_tol)
    return CriticalityReport(
        h_residual=h_res,
        gen_eq_residual=gen_eq,
        alpha_condition_threshold=threshold,
        alpha_star_used=float(alpha_star),
        certified_critical_for_l1=fired,
        l1_residual=l1_res,
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


def enumerate_oracle(X, K: int, hard_cap: int = 22) -> OracleResult:
    """Exact global maximum of the L1 objective by sign enumeration.

    For each n x K sign matrix P the inner subspace problem is an
    orthogonal Procrustes problem, whose optimal value is the nuclear norm
    of X P (Markopoulos-Karystinos-Pados).  Flipping a column of P leaves
    that value unchanged, so only the 2^((n-1)K) sign matrices whose last
    row is all +1 are scored.  ``hard_cap`` bounds the full count:
    more than 2^hard_cap sign matrices (nK bits) are refused.

    Bit t of a counter toggles entry t of P in row-major order (bit 0 means
    +1), so the last row holds the most significant bits and the scored
    set is the counters below 2^((n-1)K).  Ties go to the first maximizer
    in ascending counter order; since every column flip toggles a last-row
    bit, that is also the first maximizer over all 2^(nK) counters, up to
    roundoff between tied values.

    Candidates are scored in chunks, with one stacked SVD of X P per chunk;
    a chunk's stacked sign matrices and products each take at most
    ``_ORACLE_CHUNK_BYTES`` (8 MB), whatever d.
    """
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
    free_bits = bits_total - K
    count = 1 << free_bits
    chunk = max(1, _ORACLE_CHUNK_BYTES // (8 * K * max(n, d)))
    shifts = np.arange(free_bits, dtype=np.int64)
    best_val = -math.inf
    best_P = None
    for start in range(0, count, chunk):
        m = np.arange(start, min(start + chunk, count), dtype=np.int64)
        P = np.ones((m.size, n, K))
        P[:, : n - 1, :] = (1 - 2 * ((m[:, None] >> shifts) & 1)).reshape(m.size, n - 1, K)
        vals = np.linalg.svd(A @ P, compute_uv=False).sum(axis=-1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_P = P[i].copy()
    Q = polar_factor(A @ best_P)
    return OracleResult(value=best_val, P=best_P, Q=Q)


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
    s = thin_svd(Ad)
    smax = float(s.sigma[0]) if s.sigma.size else 0.0
    if smax == 0.0:
        raise InvalidInputError("A must be nonzero")
    if rank_tol is None:
        rank_tol = max(d, K) * _EPS
    r = int(np.sum(s.sigma > rank_tol * smax))
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.shape != (r,):
        raise PreconditionError(f"q must have one sign per positive singular value (rank {r})")
    if not np.all(np.abs(qv) == 1.0):
        raise PreconditionError("q entries must be exactly +-1")
    mult = []
    block_head = s.sigma[0]
    count = 0
    for i in range(r):
        if s.sigma[i] >= block_head * (1.0 - tie_tol):
            count += 1
        else:
            mult.append(count)
            block_head = s.sigma[i]
            count = 1
    mult.append(count)
    U_full = complete_orthonormal(s.U[:, :r], d)
    return CriticalSetSpec(
        A=Ad,
        q=qv,
        multiplicities=tuple(mult),
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
    Frobenius distance over ``samples`` members of each family; the
    families are at distance at least 2 whenever they are distinct.
    """
    spec_q = critical_set_spec(A, q, tie_tol=tie_tol)
    spec_p = critical_set_spec(A, qprime, tie_tol=tie_tol)
    if spec_q.block_sign_counts() == spec_p.block_sign_counts():
        raise PreconditionError("q and qprime generate the same critical family (equal per-block sign counts)")
    rng = seeded_rng(seed, 0xC417)
    left = np.stack([sample_critical_point(spec_q, rng) for _ in range(samples)])
    right = np.stack([sample_critical_point(spec_p, rng) for _ in range(samples)])
    diff = left[:, None, :, :] - right[None, :, :, :]
    dists = np.sqrt((diff**2).sum(axis=(2, 3)))
    return float(dists.min())


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
    induced gradient-inequality factor eta_g = (2 kappa^2 ||A||)^(-1/2).
    """
    Ad = as_dense(A)
    s = thin_svd(Ad)
    smax = float(s.sigma[0]) if s.sigma.size else 0.0
    if smax == 0.0:
        raise InvalidInputError("A must be nonzero")
    if rank_tol is None:
        rank_tol = max(Ad.shape) * _EPS
    pos = s.sigma[s.sigma > rank_tol * smax]
    reps = []
    block_head = pos[0]
    block_vals = [pos[0]]
    for v in pos[1:]:
        if v >= block_head * (1.0 - tie_tol):
            block_vals.append(v)
        else:
            reps.append(float(np.mean(block_vals)))
            block_head = v
            block_vals = [v]
    reps.append(float(np.mean(block_vals)))
    p = len(reps)
    a_r = float(pos[-1])
    if p == 1:
        delta_min = math.inf
        kappa = math.sqrt(13.0) / a_r
    else:
        deltas = [
            abs(reps[i] / reps[j] - reps[j] / reps[i])
            for i in range(p)
            for j in range(p)
            if i != j
        ]
        delta_min = min(deltas)
        kappa = math.sqrt(13.0 + 6.0 * (6.0 * p - 5.0) / (delta_min**2)) / a_r
    eta_g = 1.0 / math.sqrt(2.0 * kappa**2 * smax)
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
    singular values distinct.  Samples feasible Q within the unit-distance
    neighbourhood and reports the worst distance/residual ratio.
    """
    if not (0.0 < radius < 1.0):
        raise PreconditionError("radius must lie in (0, 1)")
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
        T = tangent_project(target, rng.standard_normal((d, K)))
        nt = frob(T)
        if nt == 0.0:
            continue
        t = radius * rng.uniform(0.05, 1.0)
        Q = polar_factor(target + T * (t / nt))
        dist = frob(Q - target)
        tries = 0
        while dist >= 1.0 and tries < 10:
            t *= 0.5
            Q = polar_factor(target + T * (t / nt))
            dist = frob(Q - target)
            tries += 1
        if dist >= 1.0 or dist < 1e-12:
            continue
        Rn = frob(residual_R(spec.A, Q))
        if Rn < 1e-12:
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
    M = X.T @ Q
    xi = np.where(M > zero_tol, 1.0, -1.0)
    zero_idx = np.argwhere(np.abs(M) <= zero_tol)
    if len(zero_idx) == 0:
        return subgrad_dist_linear(-(X @ xi), Q), False
    if len(zero_idx) > max_zero_enum:
        xi[tuple(zero_idx.T)] = 1.0
        return subgrad_dist_linear(-(X @ xi), Q), True
    best = math.inf
    for m in range(1 << len(zero_idx)):
        trial = xi.copy()
        for t, (i, j) in enumerate(zero_idx):
            trial[i, j] = 1.0 if (m >> t) & 1 == 0 else -1.0
        best = min(best, subgrad_dist_linear(-(X @ trial), Q))
    return best, False


@dataclass
class KlRadiusResult:
    radius: float
    min_ratio: float
    samples_used: int
    samples_skipped: int
    fallback_samples: int
    all_flat: bool

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "min_ratio": self.min_ratio,
            "samples_used": self.samples_used,
            "samples_skipped": self.samples_skipped,
            "fallback_samples": self.fallback_samples,
            "all_flat": bool(self.all_flat),
        }


@dataclass
class KlProbeReport:
    name: str
    parameters: dict
    per_radius: list[KlRadiusResult]
    passed: bool
    stability_factor: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "per_radius": [r.to_dict() for r in self.per_radius],
            "passed": bool(self.passed),
            "stability_factor": self.stability_factor,
        }


def _sample_near(Q0: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray | None:
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


def _kl_report(name, params, per_radius, stability_cap) -> KlProbeReport:
    finite = [r.min_ratio for r in per_radius if math.isfinite(r.min_ratio)]
    positive = all(r.min_ratio > 0 for r in per_radius)
    if len(finite) >= 2:
        factor = max(finite) / min(finite)
    else:
        factor = 1.0
    passed = positive and factor < stability_cap
    return KlProbeReport(
        name=name,
        parameters=params,
        per_radius=per_radius,
        passed=passed,
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
    dist0, _ = exact_l1_subgrad_dist(X, Qstar, max_zero_enum=max_zero_enum)
    if dist0 > crit_tol:
        raise PreconditionError(f"Qstar is not critical (residual {dist0:.3e} > {crit_tol:.1e})")
    ell_star = -objective_l1(X, Qstar)
    rng = seeded_rng(seed, 0x4C)
    value_guard = 1e-12 * max(1.0, abs(ell_star))
    per_radius: list[KlRadiusResult] = []
    for radius in radii:
        used = skipped = fallback = 0
        min_ratio = math.inf
        for _ in range(samples):
            Q = _sample_near(Qstar, radius, rng)
            if Q is None:
                skipped += 1
                continue
            gap = abs(-objective_l1(X, Q) - ell_star)
            if gap <= value_guard:
                skipped += 1
                continue
            dist, fb = exact_l1_subgrad_dist(X, Q, max_zero_enum=max_zero_enum)
            fallback += int(fb)
            used += 1
            min_ratio = min(min_ratio, dist / math.sqrt(gap))
        per_radius.append(
            KlRadiusResult(
                radius=float(radius),
                min_ratio=min_ratio,
                samples_used=used,
                samples_skipped=skipped,
                fallback_samples=fallback,
                all_flat=used == 0,
            )
        )
    params = {"radii": list(map(float, radii)), "samples": samples, "seed": seed}
    return _kl_report("kl_ratio_l1", params, per_radius, stability_cap)


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
    res0 = subgrad_dist_h(X, P, Qstar)
    if res0 > crit_tol:
        raise PreconditionError(f"(Pstar, Qstar) is not critical (residual {res0:.3e} > {crit_tol:.1e})")
    h_star = objective_h(X, P, Qstar)
    XP = X @ P
    rng = seeded_rng(seed, 0x4D)
    value_guard = 1e-12 * max(1.0, abs(h_star))
    per_radius: list[KlRadiusResult] = []
    for radius in radii:
        used = skipped = 0
        min_ratio = math.inf
        for _ in range(samples):
            Q = _sample_near(Qstar, radius, rng)
            if Q is None:
                skipped += 1
                continue
            gap = abs(objective_h(X, P, Q) - h_star)
            if gap <= value_guard:
                skipped += 1
                continue
            dist = subgrad_dist_linear(-XP, Q)
            used += 1
            min_ratio = min(min_ratio, dist / math.sqrt(gap))
        per_radius.append(
            KlRadiusResult(
                radius=float(radius),
                min_ratio=min_ratio,
                samples_used=used,
                samples_skipped=skipped,
                fallback_samples=0,
                all_flat=used == 0,
            )
        )
    params = {"radii": list(map(float, radii)), "samples": samples, "seed": seed}
    return _kl_report("kl_ratio_two_block", params, per_radius, stability_cap)


# ---------------------------------------------------------------------------
# decrease / relative-error audit


@dataclass
class AuditReport:
    name: str
    parameters: dict
    iterations: int
    violations_decrease: int
    violations_relative_error: int
    worst_decrease_slack: float
    worst_relative_error_slack: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "iterations": self.iterations,
            "violations_decrease": self.violations_decrease,
            "violations_relative_error": self.violations_relative_error,
            "worst_decrease_slack": self.worst_decrease_slack,
            "worst_relative_error_slack": self.worst_relative_error_slack,
            "passed": bool(self.passed),
        }


def audit_constants(result: SolveResult) -> tuple[float, float]:
    """Sufficient-decrease and relative-error constants for an audited run.

    The decrease constant is min(alpha_star (1 - g) / 2, beta_star / 4)
    with g the run's extrapolation bound (zero for non-extrapolated runs;
    using the run's own bound instead of the generic admissible one only
    strengthens the audited inequality).  The error constant is
    sqrt(max(3 alpha_sup^2, (beta_sup - beta_star)^2 + beta_star^2
    + 3 ||X||^2)) with ||X|| replaced by the run's ``norm_upper``, the exact
    2-norm times (1 + spectral_rel_tol).  It is evaluated as
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
    info = result.audit_info
    if info is None:
        raise UnsupportedRegimeError("audit requires a run made in theorem_mode")
    kappa1, kappa2 = audit_constants(result)
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
    convergence information).  Returns (slope, r_squared, points_used).
    """
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
    """Random check that the exact subgradient distance is sandwiched
    between half the residual norm and the residual norm."""
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


def error_bound_suite(samples: int = 1000, seed: int = 0, d: int = 6) -> dict:
    """Both exactly-computable regimes of the error-bound probe."""
    rng = seeded_rng(seed, 0xEB0)
    a_vec = rng.standard_normal((d, 1)) * 2.0
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


def kl_suite(
    instances: int = 10,
    radii: Sequence[float] = (0.3, 0.1, 0.03, 0.01),
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """KL ratio probes at oracle-certified optima of tiny random instances."""
    rng = seeded_rng(seed, 0x61)
    reports = []
    passed = True
    for _ in range(instances):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        K = int(rng.integers(1, min(2, n, d) + 1))
        X = rng.standard_normal((d, n))
        orc = enumerate_oracle(X, K)
        rep = kl_ratio_probe(X, orc.Q, radii, samples=samples, seed=int(rng.integers(2**31)))
        reports.append({"n": n, "d": d, "K": K, "report": rep.to_dict()})
        passed = passed and rep.passed
    return {"name": "kl_suite", "instances": instances, "reports": reports, "passed": passed}


def oracle_suite(
    instances: int = 50,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    match_tol: float = 1e-8,
    subgrad_tol: float = 1e-6,
    min_match_rate: float = 0.8,
    n: int | None = None,
    d: int | None = None,
    K: int | None = None,
) -> ProbeReport:
    """Best-of-restarts solver value against the enumeration oracle.

    Instance sizes are drawn tiny at random unless fixed explicitly.  Also
    asserts oracle dominance (no solver limit beats the global value) and
    criticality of every limit.
    """
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
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.5, tol=tol, max_iter=3000)
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
        if best >= orc.value - match_tol:
            matches += 1
    rate = matches / instances
    passed = rate >= min_match_rate and worst_sub <= subgrad_tol and dominance_violations == 0
    return ProbeReport(
        name="oracle_equivalence",
        parameters={"instances": instances, "restarts": restarts, "seed": seed},
        samples=instances,
        violations=dominance_violations,
        passed=passed,
        worst_ratio=worst_sub,
        details={"match_rate": rate, "worst_subgrad_dist": worst_sub},
    )


def audit_suite(
    instances: int = 3,
    n: int = 200,
    d: int = 80,
    K: int = 5,
    sigma: float = 0.5,
    seed: int = 0,
    method: str = "pame",
    tol: float = 1e-7,
    max_iter: int = 500,
) -> dict:
    """Theorem-mode runs on synthetic instances plus their audits."""
    from .data import FixedEffectSpec, gen_fixed_effect
    from .solvers import theorem_config

    runs = []
    passed = True
    for i in range(instances):
        X, _, _ = gen_fixed_effect(FixedEffectSpec(n=n, d=d, K=K, sigma=sigma, seed=seed + i))
        inst = ProblemInstance(X, K)
        cfg = theorem_config(X, method=method, tol=tol, max_iter=max_iter)
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
