"""Iterative solvers for L1-PCA and its two-block sign/subspace form.

All six methods run one update, the two-block proximal alternating step of
PALM/iPALM (Bolte-Sabach-Teboulle 2014; Pock-Sabach 2016): a sign selection
for P, then a polar-factor Procrustes step for Q.  With
``ext(A, A_prev, w) = A + w (A - A_prev)`` and weights ``(gp, gs, gq)``::

    E     = ext(Q, Q_prev, gs)                           # the Q the sign step sees
    P_new = sign(ext(P, P_prev, gp) + X^T E / alpha_k)   or  sign(X^T E)
    Q_new = polar(ext(Q, Q_prev, gq) + X P_new / beta_k) or  polar(X P_new)

The second forms drop a block's proximal anchor.  ``_RULES`` holds each
method's anchors and weights:

* ``pame``   both anchors, gs = ``gamma`` (the paper's scheme).
* ``pam``    pame without extrapolation.
* ``fpm``    no anchors: P <- sign(X^T Q), Q <- polar(X P).
* ``pdcae``  Q anchor only; gq is a Nesterov sequence restarted every
             ``method_params["restart_interval"]`` (10) iterations, or
             ``gamma`` with ``method_params["use_config_gamma"]``.
* ``ipalm``  both anchors, gp = gs = gq = (k-1)/(k+2).
* ``gipalm`` both anchors, gp = ``gamma_p`` (1/2), gs = gq = ``gamma_q``
             (1/4), both in ``method_params``.

The subproblems are exactly solvable for this bilinear objective, so the
linearized and exact proximal updates coincide.  All methods stop when the
combined state moves less than ``tol`` (Frobenius) and share one trace.

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
from typing import Callable, NamedTuple

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


class _Rule(NamedTuple):
    """A method's proximal anchors and ``weights(cfg)``: the (gp, gs, gq) schedules."""

    prox_p: bool
    prox_q: bool
    weights: Callable[[SolverConfig], tuple[Schedule, Schedule, Schedule]]


@dataclass
class _Plan:
    rule: _Rule
    alpha_fn: Callable[[int], float]
    beta_fn: Callable[[int], float]
    weight_fns: tuple[Callable[[int], float], Callable[[int], float], Callable[[int], float]]
    beta_star: float
    #: theorem mode only: the declared bounds and ``norm_upper`` >= ||X||
    bounds: dict | None


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


def _pdcae_weights(cfg: SolverConfig):
    if cfg.method_params.get("use_config_gamma", False):
        return 0.0, 0.0, cfg.gamma
    interval = int(cfg.method_params.get("restart_interval", 10))
    if interval < 1:
        raise PreconditionError("restart_interval must be >= 1")
    return 0.0, 0.0, _nesterov_restart_gamma(interval)


def _gipalm_weights(cfg: SolverConfig):
    gq = float(cfg.method_params.get("gamma_q", 0.25))
    return float(cfg.method_params.get("gamma_p", 0.5)), gq, gq


_RULES = {
    "pame": _Rule(True, True, lambda cfg: (0.0, cfg.gamma, 0.0)),
    "pam": _Rule(True, True, lambda cfg: (0.0, 0.0, 0.0)),
    "fpm": _Rule(False, False, lambda cfg: (0.0, 0.0, 0.0)),
    "pdcae": _Rule(False, True, _pdcae_weights),
    "ipalm": _Rule(True, True, lambda cfg: (_ipalm_gamma,) * 3),
    "gipalm": _Rule(True, True, _gipalm_weights),
}

METHODS = tuple(_RULES)


def _ext(A: np.ndarray, A_prev: np.ndarray, w: float) -> np.ndarray:
    """The extrapolated point A + w (A - A_prev); A itself when w is 0."""
    return A if w == 0.0 else A + w * (A - A_prev)


def _gamma_star(alpha_star: float, beta_star: float, norm_upper: float) -> float:
    """The extrapolation bound min(1, alpha_star beta_star / (2 ||X||^2)), ||X|| <= norm_upper."""
    if norm_upper == 0.0:
        return 1.0
    return min(1.0, (alpha_star / norm_upper) * (beta_star / norm_upper) / 2.0)


def _bound(declared, schedule, what):
    """A theorem-mode bound: the declared value, or the constant schedule itself."""
    if declared is not None:
        return float(declared)
    if callable(schedule):
        raise PreconditionError(f"theorem_mode requires a declared {what} for non-constant schedules")
    return float(schedule)


def _theorem_bounds(cfg: SolverConfig, X, beta_star: float) -> dict:
    """Check a pame/pam config against the convergence theorem; return its bounds."""
    alpha_star = _bound(cfg.alpha_star, cfg.alpha, "alpha_star")
    if alpha_star <= 0:
        raise PreconditionError("theorem_mode requires alpha_star > 0")
    if not callable(cfg.beta) and float(cfg.beta) * (1.0 + 1e-12) < 1.5 * beta_star:
        raise PreconditionError(
            f"theorem_mode: beta condition violated: beta={float(cfg.beta):g} < 1.5 * beta_star={1.5 * beta_star:g}"
        )
    if not (0.0 < cfg.spectral_rel_tol < 1.0):
        raise PreconditionError("spectral_rel_tol must lie in (0, 1)")
    # pam is pame with gamma fixed at 0, whatever gamma and gamma_sup say
    gamma_sup = _bound(cfg.gamma_sup, cfg.gamma, "gamma_sup") if cfg.method == "pame" else 0.0
    norm_upper = spectral_norm(X) * (1.0 + cfg.spectral_rel_tol)
    gamma_star = _gamma_star(alpha_star, beta_star, norm_upper)
    if gamma_sup >= gamma_star:
        raise PreconditionError(
            "theorem_mode: extrapolation bound violated: "
            f"gamma_sup={gamma_sup:g} >= gamma_star={gamma_star:g} "
            "(= min(1, alpha_star * beta_star / (2 ||X||^2)))"
        )
    return {
        "alpha_star": alpha_star,
        "alpha_sup": _bound(cfg.alpha_sup, cfg.alpha, "alpha_sup"),
        "beta_star": beta_star,
        "beta_sup": _bound(cfg.beta_sup, cfg.beta, "beta_sup"),
        "gamma_sup": gamma_sup,
        "norm_upper": norm_upper,
    }


def resolve_config(cfg: SolverConfig, X) -> _Plan:
    """Validate a config against the data matrix and bind its schedules."""
    rule = _RULES.get(cfg.method)
    if rule is None:
        raise PreconditionError(f"unknown method {cfg.method!r}; expected one of {METHODS}")
    if cfg.tol <= 0 or cfg.max_iter < 1:
        raise PreconditionError("tol must be positive and max_iter at least 1")
    if cfg.theorem_mode and cfg.method not in ("pame", "pam"):
        raise PreconditionError("theorem_mode applies to the pame/pam scheme only")
    for used, name, step in ((rule.prox_p, "alpha", cfg.alpha), (rule.prox_q, "beta", cfg.beta)):
        if used and not callable(step) and not 0.0 < float(step) < math.inf:
            raise PreconditionError(f"{cfg.method} needs a finite positive {name}, got {step!r}")
    weight_fns = tuple(_as_fn(w) for w in rule.weights(cfg))
    beta_fn = _as_fn(cfg.beta)

    beta_star = 0.0  # the potential's Q weight; 2/3 of beta makes the theorem's beta condition tight
    if rule.prox_q:
        if cfg.beta_star is not None:
            beta_star = float(cfg.beta_star)
        elif cfg.theorem_mode and callable(cfg.beta):
            raise PreconditionError("theorem_mode requires a declared beta_star for non-constant schedules")
        else:
            beta_star = (2.0 / 3.0) * beta_fn(0)

    return _Plan(
        rule=rule,
        alpha_fn=_as_fn(cfg.alpha),
        beta_fn=beta_fn,
        weight_fns=weight_fns,
        beta_star=beta_star,
        bounds=_theorem_bounds(cfg, X, beta_star) if cfg.theorem_mode else None,
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
    any tracked value goes non-finite, and DegenerateUpdateError if a
    method without a subspace anchor meets X P = 0.
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

    rule, bounds = plan.rule, plan.bounds
    gp_fn, gs_fn, gq_fn = plan.weight_fns
    audit: dict[str, list[float]] = {"subgrad_norms": [], "alphas": [], "betas": [], "gammas": []}

    for k in range(cfg.max_iter):
        a_k = plan.alpha_fn(k)
        b_k = plan.beta_fn(k)
        gs_k = gs_fn(k)
        if bounds is not None:
            # schedules may be callables; enforce the declared bounds per step
            if a_k < bounds["alpha_star"] * (1.0 - 1e-12) or a_k > bounds["alpha_sup"] * (1.0 + 1e-12):
                raise PreconditionError(f"theorem_mode: alpha_{k}={a_k:g} outside its declared bounds")
            if b_k * (1.0 + 1e-12) < 1.5 * plan.beta_star or b_k > bounds["beta_sup"] * (1.0 + 1e-12):
                raise PreconditionError(f"theorem_mode: beta_{k}={b_k:g} outside its declared bounds")
            if gs_k > bounds["gamma_sup"]:
                raise PreconditionError(f"theorem_mode: gamma_{k}={gs_k:g} exceeds its declared bound")

        E = _ext(Q, Q_prev, gs_k)
        XtE = X.T @ E
        P_new = sign_select(_ext(P, P_prev, gp_fn(k)) + XtE / a_k if rule.prox_p else XtE, P)
        XP = X @ P_new
        if rule.prox_q:
            Q_new = polar_factor(_ext(Q, Q_prev, gq_fn(k)) + XP / b_k)
        elif frob(XP) == 0.0:
            raise DegenerateUpdateError("fixed-point update degenerate: X P = 0")
        else:
            Q_new = polar_factor(XP)

        dP = frob(P_new - P)
        dQ = frob(Q_new - Q)
        dQp = frob(Q - Q_prev)
        dC = float(np.sqrt(dP * dP + dQ * dQ + dQp * dQp))

        feas = stiefel_residual(Q_new)
        if not np.isfinite(feas) or feas > CONSTRUCTION_TOL:
            raise DivergedError(f"orthonormality lost at iteration {k} (residual {feas:.3e})", trace=trace)
        h_new = objective_h(X, P_new, Q_new)
        psi_new = h_new + 0.5 * plan.beta_star * dQ * dQ
        if not np.isfinite(h_new):
            raise DivergedError(f"non-finite objective at iteration {k}", trace=trace)

        if bounds is not None:
            elem_p = (X.T @ (E - Q_new)) - a_k * (P_new - P)
            q_dist = subgrad_dist_linear(-XP + plan.beta_star * (Q_new - Q), Q_new)
            coupling = plan.beta_star * dQ
            audit["subgrad_norms"].append(math.hypot(frob(elem_p), q_dist, coupling))
            audit["alphas"].append(a_k)
            audit["betas"].append(b_k)
            audit["gammas"].append(gs_k)

        trace.append(k + 1, h_new, psi_new, dP, dQ, dC, time.perf_counter() - t0)
        P_prev, P = P, P_new
        Q_prev, Q = Q, Q_new
        if callback is not None:
            callback(k, P, Q)
        if dC < cfg.tol:
            break

    converged = dC < cfg.tol
    return SolveResult(
        method=cfg.method,
        P_final=P,
        Q_final=Q,
        trace=trace,
        iterations=k + 1,
        converged=converged,
        termination_reason="tol" if converged else "max_iter",
        final_objective=objective_l1(X, Q),
        audit_info=None if bounds is None else {**bounds, **audit},
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
    gamma_star = _gamma_star(alpha, (2.0 / 3.0) * beta, s * (1.0 + spectral_rel_tol))
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
