"""Iterative solvers for L1-PCA and its two-block sign/subspace form.

Six methods share one update toolkit (entrywise sign selection for the sign
block, a polar-factor Procrustes step for the subspace block), one
termination rule (Frobenius displacement of the combined state below a
tolerance), and one trace format:

* ``pame``   proximal alternating minimization with the sign-block update
             anchored at a point extrapolated from the subspace history.
* ``pam``    the same scheme with extrapolation switched off.
* ``fpm``    fixed-point iterations P <- sign(X^T Q), Q <- polar(X P); no
             step sizes.
* ``pdcae``  difference-of-convex style projection of an extrapolated point,
             with a Nesterov-type extrapolation sequence restarted on a
             fixed interval.
* ``ipalm``  inertial proximal alternating linearized minimization; both
             blocks extrapolate with weight (k-1)/(k+2).
* ``gipalm`` Gauss-Seidel inertial variant with constant weights 1/2 (sign
             block) and 1/4 (subspace block).

The sign and subspace subproblems are exactly solvable for this bilinear
objective, so the linearized and exact proximal updates coincide; the
inertial variants implemented here are documented interpretations built on
that shared toolkit.

``theorem_mode`` enforces the step-size and extrapolation bounds under
which the extrapolated scheme is provably convergent (bounded alpha, beta
at least 3/2 of the potential weight, extrapolation below
min(1, alpha_star * beta_star / (2 ||X||^2))) and records the per-iteration
subgradient norms needed by the decrease/relative-error audits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DegenerateUpdateError, DivergedError, PreconditionError
from .linalg import frob, polar_factor, random_signs, random_stiefel, seeded_rng, spectral_norm, stiefel_residual
from .model import (
    CONSTRUCTION_TOL,
    ProblemInstance,
    objective_h,
    objective_l1,
    require_signs,
    require_stiefel,
    sign_select,
    subgrad_dist_linear,
)

METHODS = ("pame", "pam", "fpm", "pdcae", "ipalm", "gipalm")

Schedule = float | Callable[[int], float]


@dataclass
class SolverConfig:
    """Step sizes, extrapolation, and termination settings for one run.

    ``alpha``, ``beta``, ``gamma`` may be constants or callables of the
    iteration index.  The starred/sup bounds are only needed for
    non-constant schedules or to override the defaults used in
    ``theorem_mode`` (for a constant beta the potential weight ``beta_star``
    defaults to 2/3 of it, making the lower step-size condition tight).
    """

    method: str = "pame"
    alpha: Schedule = 1e-4
    beta: Schedule = 1.0
    gamma: Schedule = 0.0
    tol: float = 1e-8
    max_iter: int = 1000
    seed: int = 0
    theorem_mode: bool = False
    alpha_star: float | None = None
    alpha_sup: float | None = None
    beta_star: float | None = None
    beta_sup: float | None = None
    gamma_sup: float | None = None
    spectral_rel_tol: float = 1e-6
    method_params: dict = field(default_factory=dict)


@dataclass
class IterateTrace:
    """Per-iteration diagnostics.

    Record 0 describes the starting point; record k >= 1 the state after
    iteration k.  ``delta_C_norm`` is the Frobenius displacement of the
    combined state (P, Q, Qprev).  All fields except ``wall_time`` are
    deterministic for fixed inputs.
    """

    k: list[int] = field(default_factory=list)
    h_value: list[float] = field(default_factory=list)
    psi_value: list[float] = field(default_factory=list)
    delta_P_norm: list[float] = field(default_factory=list)
    delta_Q_norm: list[float] = field(default_factory=list)
    delta_C_norm: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)

    def append(self, k, h, psi, dP, dQ, dC, wall):
        self.k.append(int(k))
        self.h_value.append(float(h))
        self.psi_value.append(float(psi))
        self.delta_P_norm.append(float(dP))
        self.delta_Q_norm.append(float(dQ))
        self.delta_C_norm.append(float(dC))
        self.wall_time.append(float(wall))

    def __len__(self) -> int:
        return len(self.k)


@dataclass
class SolveResult:
    method: str
    P_final: np.ndarray
    Q_final: np.ndarray
    trace: IterateTrace
    iterations: int
    converged: bool
    termination_reason: str
    final_objective: float
    audit_info: dict | None = None


@dataclass
class SolveOutcome:
    """One entry of a comparison batch: a result or a recorded error."""

    method: str
    result: SolveResult | None = None
    error: str | None = None


@dataclass
class _Plan:
    method: str
    alpha_fn: Callable[[int], float]
    beta_fn: Callable[[int], float]
    gamma_fn: Callable[[int], float]
    gamma_q_fn: Callable[[int], float]
    alpha_star: float
    alpha_sup: float
    beta_star: float
    beta_sup: float
    gamma_sup: float
    norm_upper: float | None
    theorem_mode: bool


def _as_fn(s: Schedule) -> Callable[[int], float]:
    if callable(s):
        return s
    v = float(s)
    return lambda k: v


def _nesterov_restart_gamma(interval: int) -> Callable[[int], float]:
    def gamma(k: int) -> float:
        j = k % interval
        t = 1.0
        for _ in range(j):
            t = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        return (t - 1.0) / t_next

    return gamma


def _ipalm_gamma(k: int) -> float:
    return max(0.0, (k - 1.0) / (k + 2.0))


def _declared_or_constant(declared, schedule, what, strict):
    """Bound for a schedule: the declared value, or the constant itself.

    Outside theorem mode a missing bound for a callable schedule falls back
    to the value at k = 0 (informational only).
    """
    if declared is not None:
        return float(declared)
    if not callable(schedule):
        return float(schedule)
    if strict:
        raise PreconditionError(f"theorem_mode requires a declared {what} for non-constant schedules")
    return float(schedule(0))


def resolve_config(cfg: SolverConfig, X) -> _Plan:
    """Validate a config against the data matrix and bind its schedules."""
    if cfg.method not in METHODS:
        raise PreconditionError(f"unknown method {cfg.method!r}; expected one of {METHODS}")
    if cfg.tol <= 0 or cfg.max_iter < 1:
        raise PreconditionError("tol must be positive and max_iter at least 1")

    alpha_fn = _as_fn(cfg.alpha)
    beta_fn = _as_fn(cfg.beta)

    gamma_q_fn = _as_fn(0.0)
    if cfg.method == "pame":
        gamma_fn = _as_fn(cfg.gamma)
    elif cfg.method in ("pam", "fpm"):
        gamma_fn = _as_fn(0.0)
    elif cfg.method == "pdcae":
        if cfg.method_params.get("use_config_gamma", False):
            gamma_fn = _as_fn(cfg.gamma)
        else:
            interval = int(cfg.method_params.get("restart_interval", 10))
            if interval < 1:
                raise PreconditionError("restart_interval must be >= 1")
            gamma_fn = _nesterov_restart_gamma(interval)
    elif cfg.method == "ipalm":
        gamma_fn = _ipalm_gamma
        gamma_q_fn = _ipalm_gamma
    else:  # gipalm
        gp = float(cfg.method_params.get("gamma_p", 0.5))
        gq = float(cfg.method_params.get("gamma_q", 0.25))
        gamma_fn = _as_fn(gp)
        gamma_q_fn = _as_fn(gq)

    strict = cfg.theorem_mode
    if cfg.method == "fpm":
        alpha_star = alpha_sup = 0.0
        beta_star = beta_sup = 0.0
        beta_inf = 0.0
    else:
        alpha_star = _declared_or_constant(cfg.alpha_star, cfg.alpha, "alpha_star", strict)
        alpha_sup = _declared_or_constant(cfg.alpha_sup, cfg.alpha, "alpha_sup", strict)
        beta_inf = _declared_or_constant(None, cfg.beta, "beta lower bound", False)
        beta_sup = _declared_or_constant(cfg.beta_sup, cfg.beta, "beta_sup", strict)
        if cfg.beta_star is not None:
            beta_star = float(cfg.beta_star)
        elif not callable(cfg.beta):
            beta_star = (2.0 / 3.0) * float(cfg.beta)
        elif strict:
            raise PreconditionError("theorem_mode requires a declared beta_star for non-constant schedules")
        else:
            beta_star = (2.0 / 3.0) * beta_inf

    if cfg.method == "pame":
        gamma_sup = _declared_or_constant(cfg.gamma_sup, cfg.gamma, "gamma_sup", strict)
    elif cfg.method == "gipalm":
        gamma_sup = max(gamma_fn(0), gamma_q_fn(0))
    elif cfg.method in ("ipalm", "pdcae"):
        gamma_sup = 1.0
    else:
        gamma_sup = 0.0

    norm_upper = None
    if cfg.theorem_mode:
        if cfg.method not in ("pame", "pam"):
            raise PreconditionError("theorem_mode applies to the pame/pam scheme only")
        if alpha_star <= 0:
            raise PreconditionError("theorem_mode requires alpha_star > 0")
        if not callable(cfg.beta) and beta_inf * (1.0 + 1e-12) < 1.5 * beta_star:
            raise PreconditionError(
                f"theorem_mode: beta condition violated: beta={beta_inf:g} < 1.5 * beta_star={1.5 * beta_star:g}"
            )
        if not (0.0 < cfg.spectral_rel_tol < 1.0):
            raise PreconditionError("spectral_rel_tol must lie in (0, 1)")
        norm_upper = spectral_norm(X) * (1.0 + cfg.spectral_rel_tol)
        if norm_upper == 0.0:
            gamma_star = 1.0
        else:
            gamma_star = min(1.0, (alpha_star / norm_upper) * (beta_star / norm_upper) / 2.0)
        if gamma_sup >= gamma_star:
            raise PreconditionError(
                "theorem_mode: extrapolation bound violated: "
                f"gamma_sup={gamma_sup:g} >= gamma_star={gamma_star:g} "
                "(= min(1, alpha_star * beta_star / (2 ||X||^2)))"
            )

    return _Plan(
        method=cfg.method,
        alpha_fn=alpha_fn,
        beta_fn=beta_fn,
        gamma_fn=gamma_fn,
        gamma_q_fn=gamma_q_fn,
        alpha_star=alpha_star,
        alpha_sup=alpha_sup,
        beta_star=beta_star,
        beta_sup=beta_sup,
        gamma_sup=gamma_sup,
        norm_upper=norm_upper,
        theorem_mode=cfg.theorem_mode,
    )


def draw_start(inst: ProblemInstance, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random feasible starting pair (P0, Q0) from a seed."""
    rng = seeded_rng(seed, 0x51A7)
    Q0 = random_stiefel(inst.d, inst.K, rng)
    P0 = random_signs(inst.n, inst.K, rng)
    return P0, Q0


def svd_start(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic start: leading left singular directions of X."""
    from .linalg import thin_svd

    Q0 = thin_svd(inst.X, rank=inst.K).U
    if Q0.shape[1] < inst.K:  # pragma: no cover - K <= min(n, d) by construction
        raise PreconditionError("cannot build svd start with K columns")
    P0 = sign_select(inst.X.T @ Q0, np.ones((inst.n, inst.K)))
    return P0, Q0


def solve(
    inst: ProblemInstance,
    cfg: SolverConfig,
    P0: np.ndarray,
    Q0: np.ndarray,
    callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> SolveResult:
    """Run the configured method from a feasible starting pair.

    Every iterate keeps Q with orthonormal columns (to 1e-8) and P with
    entries exactly +-1.  Terminates when the combined displacement
    ||C^{k+1} - C^k||_F drops below ``cfg.tol`` or after ``max_iter``
    iterations.  Raises DivergedError (with the partial trace attached) if
    any tracked value goes non-finite.
    """
    X = inst.X
    plan = resolve_config(cfg, X)
    P = require_signs(np.array(P0, dtype=np.float64, copy=True), "P0")
    Q = require_stiefel(np.array(Q0, dtype=np.float64, copy=True), tol=CONSTRUCTION_TOL, name="Q0")
    if P.shape != (inst.n, inst.K) or Q.shape != (inst.d, inst.K):
        raise PreconditionError("P0/Q0 shapes do not match the instance")

    Q_prev = Q.copy()  # the pre-first-iteration state reuses Q0
    P_prev = P.copy()
    trace = IterateTrace()
    t0 = time.perf_counter()
    h0 = objective_h(X, P, Q)
    trace.append(0, h0, h0, 0.0, 0.0, 0.0, 0.0)

    record_subgrad = plan.theorem_mode
    subgrad_norms: list[float] = []
    alphas: list[float] = []
    betas: list[float] = []
    gammas: list[float] = []

    q_limit = 2.0 * np.sqrt(inst.K)
    converged = False
    reason = "max_iter"
    iterations = cfg.max_iter

    for k in range(cfg.max_iter):
        a_k = plan.alpha_fn(k)
        b_k = plan.beta_fn(k)
        g_k = plan.gamma_fn(k)
        if plan.theorem_mode:
            # schedules may be callables; enforce the declared bounds per step
            if a_k < plan.alpha_star * (1.0 - 1e-12) or a_k > plan.alpha_sup * (1.0 + 1e-12):
                raise PreconditionError(f"theorem_mode: alpha_{k}={a_k:g} outside its declared bounds")
            if b_k * (1.0 + 1e-12) < 1.5 * plan.beta_star or b_k > plan.beta_sup * (1.0 + 1e-12):
                raise PreconditionError(f"theorem_mode: beta_{k}={b_k:g} outside its declared bounds")
            if g_k > plan.gamma_sup:
                raise PreconditionError(f"theorem_mode: gamma_{k}={g_k:g} exceeds its declared bound")

        if plan.method in ("pame", "pam"):
            E = Q if g_k == 0.0 else Q + g_k * (Q - Q_prev)
            P_new = sign_select(P + (X.T @ E) / a_k, P)
            XP = X @ P_new
            Q_new = polar_factor(Q + XP / b_k)
        elif plan.method == "fpm":
            E = Q
            P_new = sign_select(X.T @ Q, P)
            XP = X @ P_new
            if frob(XP) == 0.0:
                raise DegenerateUpdateError("fixed-point update degenerate: X P = 0")
            Q_new = polar_factor(XP)
        elif plan.method == "pdcae":
            E = Q if g_k == 0.0 else Q + g_k * (Q - Q_prev)
            P_new = sign_select(X.T @ Q, P)
            XP = X @ P_new
            Q_new = polar_factor(E + XP / b_k)
        else:  # ipalm / gipalm
            gq_k = plan.gamma_q_fn(k)
            P_bar = P if g_k == 0.0 else P + g_k * (P - P_prev)
            Q_bar = Q if gq_k == 0.0 else Q + gq_k * (Q - Q_prev)
            P_new = sign_select(P_bar + (X.T @ Q_bar) / a_k, P)
            XP = X @ P_new
            Q_new = polar_factor(Q_bar + XP / b_k)
            E = Q_bar

        dP = frob(P_new - P)
        dQ = frob(Q_new - Q)
        dQp = frob(Q - Q_prev)
        dC = float(np.sqrt(dP * dP + dQ * dQ + dQp * dQp))

        feas = stiefel_residual(Q_new)
        if not np.isfinite(feas) or feas > CONSTRUCTION_TOL:
            raise DivergedError(f"orthonormality lost at iteration {k} (residual {feas:.3e})", trace=trace)
        h_new = objective_h(X, P_new, Q_new)
        psi_new = h_new + 0.5 * plan.beta_star * dQ * dQ
        if not np.isfinite(h_new) or frob(Q_new) > q_limit + 1e-9:
            raise DivergedError(f"non-finite or runaway iterate at iteration {k}", trace=trace)

        if record_subgrad:
            elem_p = (X.T @ (E - Q_new)) - a_k * (P_new - P)
            q_dist = subgrad_dist_linear(-XP + plan.beta_star * (Q_new - Q), Q_new)
            coupling = plan.beta_star * dQ
            subgrad_norms.append(math.hypot(frob(elem_p), q_dist, coupling))
            alphas.append(a_k)
            betas.append(b_k)
            gammas.append(g_k)

        trace.append(k + 1, h_new, psi_new, dP, dQ, dC, time.perf_counter() - t0)
        P_prev, P = P, P_new
        Q_prev, Q = Q, Q_new
        if callback is not None:
            callback(k, P, Q)
        if dC < cfg.tol:
            converged = True
            reason = "tol"
            iterations = k + 1
            break

    audit_info = None
    if record_subgrad:
        audit_info = {
            "alpha_star": plan.alpha_star,
            "alpha_sup": plan.alpha_sup,
            "beta_star": plan.beta_star,
            "beta_sup": plan.beta_sup,
            "gamma_sup": plan.gamma_sup,
            "norm_upper": plan.norm_upper,
            "subgrad_norms": subgrad_norms,
            "alphas": alphas,
            "betas": betas,
            "gammas": gammas,
        }
    return SolveResult(
        method=plan.method,
        P_final=P,
        Q_final=Q,
        trace=trace,
        iterations=iterations,
        converged=converged,
        termination_reason=reason,
        final_objective=objective_l1(X, Q),
        audit_info=audit_info,
    )


def _method_solver(method: str):
    def run(inst, cfg, P0, Q0, callback=None):
        return solve(inst, replace(cfg, method=method), P0, Q0, callback=callback)

    run.__name__ = f"{method}_solve"
    run.__doc__ = f"Run the {method} scheme from (P0, Q0); see solve() for the contract."
    return run


pame_solve = _method_solver("pame")
pam_solve = _method_solver("pam")
fpm_solve = _method_solver("fpm")
pdcae_solve = _method_solver("pdcae")
ipalm_solve = _method_solver("ipalm")
gipalm_solve = _method_solver("gipalm")


def run_comparison(
    inst: ProblemInstance,
    configs: list[SolverConfig],
    seed: int | None = None,
    P0: np.ndarray | None = None,
    Q0: np.ndarray | None = None,
) -> list[SolveOutcome]:
    """Run several configs from one shared starting pair.

    Per-solver failures are recorded in the outcome list instead of
    aborting the batch.
    """
    if P0 is None or Q0 is None:
        if seed is None:
            seed = configs[0].seed if configs else 0
        P0, Q0 = draw_start(inst, seed)
    outcomes: list[SolveOutcome] = []
    for cfg in configs:
        try:
            outcomes.append(SolveOutcome(method=cfg.method, result=solve(inst, cfg, P0, Q0)))
        except Exception as exc:  # noqa: BLE001 - batch isolation is the contract
            outcomes.append(SolveOutcome(method=cfg.method, error=f"{type(exc).__name__}: {exc}"))
    return outcomes


def theorem_config(
    X,
    method: str = "pame",
    tol: float = 1e-7,
    max_iter: int = 500,
    gamma_frac: float = 0.5,
    beta_scale: float = 5.0,
    spectral_rel_tol: float = 1e-6,
) -> SolverConfig:
    """Convenient theorem-mode config scaled to ||X||.

    Uses alpha = s and beta = beta_scale * s with s = ||X||_2, so the
    extrapolation bound min(1, alpha*beta_star/(2||X||^2)), taken with the
    upper bound ``s * (1 + spectral_rel_tol)``, stays well above zero;
    gamma is set to ``gamma_frac`` of that bound for pame and to zero for
    pam.
    """
    if not (0.0 < spectral_rel_tol < 1.0):
        raise PreconditionError("spectral_rel_tol must lie in (0, 1)")
    s = spectral_norm(X)
    if s == 0.0:
        s = 1.0
    alpha = s
    beta = beta_scale * s
    beta_star = (2.0 / 3.0) * beta
    upper = s * (1.0 + spectral_rel_tol)
    gamma_star = min(1.0, (alpha / upper) * (beta_star / upper) / 2.0)
    gamma = gamma_frac * gamma_star if method == "pame" else 0.0
    return SolverConfig(
        method=method,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        tol=tol,
        max_iter=max_iter,
        theorem_mode=True,
        spectral_rel_tol=spectral_rel_tol,
    )
