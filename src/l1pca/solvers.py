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
linearized and exact proximal updates coincide.  All methods share one
trace and stop when the combined state moves less than ``tol``
(Frobenius), or at an exact fixed point: once an iteration flips no sign,
the rest of the run is a Procrustes iteration whose limit ``polar(X P)``
is known in closed form (Kwak 2008 stops L1-PCA's fixed-point iteration
on the same event).  So after a flip-free iteration ``solve`` takes
``Q* = polar(X P)`` once, if ``X P`` has full numerical rank, and stops
there when ``P = sign(X^T Q*)`` with no zero entry; (P, Q*) is then a
fixed point of all six rules and an L1-critical point.  The test depends
on P alone, so it is due again only after a flip.  Theorem mode takes no
such test: the jump to Q* is not a step of the audited scheme.

``solve`` carries ``X^T Q`` (and its previous value) through the loop.
``X^T`` is linear, so ``X^T E = ext(X^T Q, X^T Q_prev, gs)``, which is
``X^T Q`` itself when gs is 0; the objective h = -<P, X^T Q>, the
theorem-mode subgradient element and the final objective are read off the
same carried product.  An iteration that flips a sign forms ``X P_new``
and ``X^T Q_new``.  One that flips none keeps its ``X P``: P_new holds P's
values in the same layout, so the product would give the same bits.  A
flip-free iteration that follows another takes ``X^T Q_new`` from its own
polar step instead, when that step is the plain Procrustes step of the
paper's linear-rate tail, ``A = Q + X P / beta``, and came from the K x K
Gram matrix.  That takes a rule with a Q anchor at an iteration whose Q
weight gq is 0: pame and pam always, pdcae and ipalm where their weight is
0, gipalm and fpm never.  For a full-rank A, ``A^T A = V S^2 V^T`` and
``polar(A) = A T`` with the K x K matrix ``T = V S^-1 V^T``, so::

    X^T Q_new = (X^T Q + X^T (X P) / beta) T

``X^T (X P)`` is formed once while P holds, and ``linalg._polar_and_inverse``
gives T from the eigenvectors of A^T A that give Q_new when A is well
conditioned (cond(A) <= 4); powers of two keep both near unit scale.  The
recurrence reads no ``X^T Q_prev``, which an extrapolated step would mix
into it and amplify.  So a flip-free stretch of such steps forms two
products with X in its first 65 iterations, ``X^T Q_new`` on the first and
``X^T (X P)`` on the second, and then one ``X^T Q_new`` per 65: rounding in
the carried product adds up along a stretch, and ``_CARRY_SPAN`` (64)
bounds it.  Its h and final objective agree with a direct product to
roundoff.  Any other step (extrapolated, anchorless, or served by the SVD:
cond(A) > 4 or a rank-deficient A), and a carried product that leaves the
floating-point range, take ``X^T Q_new`` from X.  The start takes one
``X^T Q0``, and each fixed-point test that finds ``X P`` of full rank one
``X^T Q*``, which the stop decision and the final objective of a
``fixed_point`` run read.  All six rules take the same fixed-point test.
So ``fpm`` takes ``polar(X P)`` again on a flip-free step, and its test takes
``polar(X P, complete=False)`` and ``X^T Q*`` again, although its Q already
is that factor: about 0.5 ms per desk-scale solve, the price of one path.
Every ``X^T Q`` follows ``linalg._xt_for``'s layout rule, which ``solve``
binds to its X once per call: on a dense C-order X it is formed as
``(Q^T X)^T``, which BLAS runs faster than ``X.T @ Q``; an F-order or sparse
X keeps ``X.T @ Q``.  Each array on the loop's path is checked once, by
arithmetic the step does anyway: a step input's finiteness by its norm in
``polar_factor``, a new frame's by its ``stiefel_residual``.

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

from ._args import count, finite, flag, fraction
from .errors import DegenerateUpdateError, DivergedError, InvalidInputError, PreconditionError
from .linalg import (
    _ldexp,
    _polar_and_inverse,
    _prescaled,
    _xt,
    _xt_for,
    frob,
    polar_factor,
    random_signs,
    random_stiefel,
    seeded_rng,
    spectral_norm,
    stiefel_residual,
)
from .model import (
    CONSTRUCTION_TOL,
    ProblemInstance,
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
    Every method accepts each ``method_params`` key some method reads, so
    one config serves all six; any other key is a PreconditionError.

    ``norm_upper`` is a declared upper bound on ``||X||_2`` for theorem
    mode, in the same family as the starred/sup bounds; when it is None the
    run takes the exact norm, ``spectral_norm(X) * (1 + spectral_rel_tol)``.
    ``theorem_config`` declares the one it took, so a config built for one
    X belongs to that X: a declared value below ``||X||_F / sqrt(min(d, n))``
    (a free lower bound on ``||X||_2``) is refused.
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
    norm_upper: float | None = None
    method_params: dict = field(default_factory=dict)


@dataclass
class IterateTrace:
    """Per-iteration diagnostics.

    Record 0 describes the starting point; record k >= 1 the state after
    iteration k.  ``delta_C_norm`` is the Frobenius displacement of the
    combined state (P, Q, Qprev), and ``sign_flips`` the number of entries
    of P that changed sign (0 in record 0).  All fields except
    ``wall_time`` are deterministic for fixed inputs.
    """

    k: list[int] = field(default_factory=list)
    h_value: list[float] = field(default_factory=list)
    psi_value: list[float] = field(default_factory=list)
    delta_P_norm: list[float] = field(default_factory=list)
    delta_Q_norm: list[float] = field(default_factory=list)
    delta_C_norm: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)
    sign_flips: list[int] = field(default_factory=list)

    def append(self, k, h, psi, dP, dQ, dC, wall, flips):
        self.k.append(int(k))
        self.h_value.append(float(h))
        self.psi_value.append(float(psi))
        self.delta_P_norm.append(float(dP))
        self.delta_Q_norm.append(float(dQ))
        self.delta_C_norm.append(float(dC))
        self.wall_time.append(float(wall))
        self.sign_flips.append(int(flips))

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


Fn = Callable[[int], float]


class _Rule(NamedTuple):
    """A method's proximal anchors and ``weights(cfg)``: the (gp, gs, gq) schedules."""

    prox_p: bool
    prox_q: bool
    weights: Callable[[SolverConfig], tuple[Fn, Fn, Fn]]


@dataclass
class _Plan:
    """A config's numbers, each converted and checked once by ``resolve_config``."""

    rule: _Rule
    alpha_fn: Fn
    beta_fn: Fn
    weight_fns: tuple[Fn, Fn, Fn]
    beta_star: float
    #: theorem mode only: the declared bounds and ``norm_upper`` >= ||X||
    bounds: dict | None
    tol: float


def _constant(v: float) -> Fn:
    return lambda k: v


#: the schedule of a weight a rule leaves out, and of a step size no anchor reads
_zero = _constant(0.0)


def _schedule(method: str, name: str, s: Schedule, positive: bool = False) -> Fn:
    """A schedule the method reads, whose every value must be finite, and > 0 if ``positive``.

    A constant is checked here, once; a callable is checked at each step,
    so a bad value stops the run at the iteration that produced it.
    """
    if callable(s):
        return lambda k: finite(method, name, s(k), positive, k)
    return _constant(finite(method, name, s, positive))


def _bounded(fn: Fn, s: Schedule, name: str, bad: Callable[[float], bool], verdict="outside its declared bounds"):
    """The schedule ``fn`` of the theorem-mode setting ``s``, which refuses a value where ``bad``.

    A constant is checked here, once, as iteration 0's value; a callable at
    the step that produced the value.
    """

    def checked(k: int) -> float:
        if bad(v := fn(k)):
            raise PreconditionError(f"theorem_mode: {name}_{k}={v:g} {verdict}")
        return v

    return checked if callable(s) else _constant(checked(0))


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
    """pdcae's weights: ``use_config_gamma`` must be a bool (numpy's too), and
    ``restart_interval``, read only without it, a finite number, as every number
    a method reads, and an integer of at least 1."""
    if flag("pdcae", "use_config_gamma", cfg.method_params.get("use_config_gamma", False)):
        return _zero, _zero, _schedule("pdcae", "gamma", cfg.gamma)
    interval = cfg.method_params.get("restart_interval", 10)
    finite("pdcae", "restart_interval", interval)
    return _zero, _zero, _nesterov_restart_gamma(count("restart_interval", interval, 1))


def _gipalm_weights(cfg: SolverConfig):
    gq = _constant(finite("gipalm", "gamma_q", cfg.method_params.get("gamma_q", 0.25)))
    return _constant(finite("gipalm", "gamma_p", cfg.method_params.get("gamma_p", 0.5))), gq, gq


_RULES = {
    "pame": _Rule(True, True, lambda cfg: (_zero, _schedule("pame", "gamma", cfg.gamma), _zero)),
    "pam": _Rule(True, True, lambda cfg: (_zero,) * 3),
    "fpm": _Rule(False, False, lambda cfg: (_zero,) * 3),
    "pdcae": _Rule(False, True, _pdcae_weights),
    "ipalm": _Rule(True, True, lambda cfg: (_ipalm_gamma,) * 3),
    "gipalm": _Rule(True, True, _gipalm_weights),
}

METHODS = tuple(_RULES)
#: every ``method_params`` key a method reads: pdcae the first two, gipalm the rest
_METHOD_PARAMS = ("restart_interval", "use_config_gamma", "gamma_p", "gamma_q")


def _ext(A: np.ndarray, A_prev: np.ndarray, w: float) -> np.ndarray:
    """The extrapolated point A + w (A - A_prev); A itself when w is 0."""
    return A if w == 0.0 else A + w * (A - A_prev)


#: flip-free iterations in a row that take X^T Q_new from the polar step
#: before one takes it from X again: rounding in the carried product adds up
#: along a stretch.  Over 252 runs (the six rules at beta 1 and 100 times the
#: scale and theorem-mode pame and pam, up to 3000 iterations, on 30 x 60 X
#: with singular values 1 to 1e-10 and 1 to 1e-3 and a Gaussian, K = 5 and
#: 30, at scales 1, 1e160 and 1e-160), the worst h moved from a direct
#: product by 1.2e-15 relative.  With no span, theorem-mode pame and pam on
#: the Gaussian at K = 30 moved by 1.2e-7 within 3000 iterations.
_CARRY_SPAN = 64


def _xt_polar(XtXP: np.ndarray, f: int, XtQ: np.ndarray, b: float, T: np.ndarray, e: int):
    """X^T polar(A) = (X^T A) T for the un-extrapolated Procrustes input A = Q + X P / b.

    ``XtXP`` is X^T (X P) / 2^f and ``(T, e)`` come from ``_polar_and_inverse(A)``,
    so X^T A / 2^e = XtQ / 2^e + XtXP 2^(f - e) / b; the powers of two
    keep every term near the scale of X^T Q.  A factor out of range is inf
    (``np.ldexp`` does not raise), and so is the result.
    """
    return (XtXP * np.ldexp(1.0 / b, f - e) + XtQ * np.ldexp(1.0, -e)) @ T


def _gamma_star(alpha_star: float, beta_star: float, norm_upper: float) -> float:
    """The extrapolation bound min(1, alpha_star beta_star / (2 ||X||^2)), ||X|| <= norm_upper."""
    if norm_upper == 0.0:
        return 1.0
    return min(1.0, (alpha_star / norm_upper) * (beta_star / norm_upper) / 2.0)


def _bound(cfg: SolverConfig, declared, schedule: Schedule, fn: Fn, what: str) -> float:
    """A bound's declared value, which must be finite, or else ``fn(0)``: its default, from the
    schedule of the setting ``schedule``, which theorem mode takes only from a constant."""
    if declared is not None:
        return finite(cfg.method, what, declared)
    if cfg.theorem_mode and callable(schedule):
        raise PreconditionError(f"theorem_mode requires a declared {what} for non-constant schedules")
    return fn(0)


def _norm_upper(cfg: SolverConfig, X) -> float:
    """The declared bound on ||X||_2 after a check against ||X||_F / sqrt(min(d, n)), or the exact
    norm times 1 + ``spectral_rel_tol``, which only then is read.  Where ||X||_F overflows, the
    check compares both sides divided by 2^e, e from ``linalg._prescaled`` (the library's one scale
    rule), so a correct bound is not refused for an infinite floor."""
    if cfg.norm_upper is None:
        return spectral_norm(X) * (1.0 + fraction("spectral_rel_tol", cfg.spectral_rel_tol))
    norm_upper = finite(cfg.method, "norm_upper", cfg.norm_upper)
    norm, e = frob(X), 0
    if norm == math.inf:
        Xs, e = _prescaled(X, norm)  # an infinite entry keeps e = 0: the floor stays inf
        norm = frob(Xs)
    floor = norm / math.sqrt(min(X.shape))
    # the relative slack absorbs roundoff where ||X||_2 = ||X||_F / sqrt(min(d, n))
    if norm_upper < 0.0 or _ldexp(norm_upper, -e) < floor * (1.0 - 1e-8):
        raise PreconditionError(
            f"theorem_mode: declared norm_upper={norm_upper:g} is not a finite upper bound on ||X||_2 "
            f"(||X||_F / sqrt(min(d, n)) = {_ldexp(floor, e):g})"
        )
    return norm_upper


def _theorem_bounds(cfg: SolverConfig, X, alpha_fn: Fn, beta_fn: Fn, gs_fn: Fn, beta_star: float) -> dict:
    """Check a pame/pam config against the convergence theorem; return its bounds."""
    alpha_star = _bound(cfg, cfg.alpha_star, cfg.alpha, alpha_fn, "alpha_star")
    if alpha_star <= 0:
        raise PreconditionError("theorem_mode requires alpha_star > 0")
    if not callable(cfg.beta) and beta_fn(0) * (1.0 + 1e-12) < 1.5 * beta_star:
        raise PreconditionError(
            f"theorem_mode: beta condition violated: beta={beta_fn(0):g} < 1.5 * beta_star={1.5 * beta_star:g}"
        )
    # pam is pame with gamma fixed at 0, whatever gamma and gamma_sup say
    gamma_sup = _bound(cfg, cfg.gamma_sup, cfg.gamma, gs_fn, "gamma_sup") if cfg.method == "pame" else 0.0
    norm_upper = _norm_upper(cfg, X)
    gamma_star = _gamma_star(alpha_star, beta_star, norm_upper)
    if gamma_sup >= gamma_star:
        raise PreconditionError(
            "theorem_mode: extrapolation bound violated: "
            f"gamma_sup={gamma_sup:g} >= gamma_star={gamma_star:g} "
            "(= min(1, alpha_star * beta_star / (2 ||X||^2)))"
        )
    return {
        "alpha_star": alpha_star,
        "alpha_sup": _bound(cfg, cfg.alpha_sup, cfg.alpha, alpha_fn, "alpha_sup"),
        "beta_star": beta_star,
        "beta_sup": _bound(cfg, cfg.beta_sup, cfg.beta, beta_fn, "beta_sup"),
        "gamma_sup": gamma_sup,
        "norm_upper": norm_upper,
    }


def resolve_config(cfg: SolverConfig, X) -> _Plan:
    """Validate a config against the data matrix and bind its schedules.

    Every number of ``cfg`` the run reads is converted and checked here,
    once; a setting the method does not read is never converted or called.
    ``method`` must be a string, ``method_params`` a dict and
    ``theorem_mode`` a bool (numpy's included).
    """
    rule = _RULES.get(cfg.method) if isinstance(cfg.method, str) else None
    if rule is None:
        raise PreconditionError(f"unknown method {cfg.method!r}; expected one of {METHODS}")
    if not isinstance(cfg.method_params, dict):
        raise PreconditionError(f"method_params must be a dict, got {cfg.method_params!r}")
    flag(cfg.method, "theorem_mode", cfg.theorem_mode)
    unknown = [key for key in cfg.method_params if key not in _METHOD_PARAMS]
    if unknown:
        raise PreconditionError(f"unknown method_params keys {unknown}; known keys are {_METHOD_PARAMS}")
    tol = finite(cfg.method, "tol", cfg.tol, positive=True)
    count("max_iter", cfg.max_iter, 1)
    if cfg.theorem_mode and cfg.method not in ("pame", "pam"):
        raise PreconditionError("theorem_mode applies to the pame/pam scheme only")
    alpha_fn = _schedule(cfg.method, "alpha", cfg.alpha, positive=True) if rule.prox_p else _zero
    beta_fn = _schedule(cfg.method, "beta", cfg.beta, positive=True) if rule.prox_q else _zero
    gp_fn, gs_fn, gq_fn = rule.weights(cfg)

    beta_star = 0.0  # the potential's Q weight; 2/3 of beta makes the theorem's beta condition tight
    if rule.prox_q:
        beta_star = _bound(cfg, cfg.beta_star, cfg.beta, lambda k: (2.0 / 3.0) * beta_fn(k), "beta_star")

    bounds = None
    if cfg.theorem_mode:
        bounds = _theorem_bounds(cfg, X, alpha_fn, beta_fn, gs_fn, beta_star)
        # each step's alpha, beta and gamma must keep within the bounds, up to 1e-12 relative for alpha and beta
        a_lo, b_hi = bounds["alpha_star"] * (1.0 - 1e-12), bounds["beta_sup"] * (1.0 + 1e-12)
        alpha_fn = _bounded(alpha_fn, cfg.alpha, "alpha", lambda a: a < a_lo or a > bounds["alpha_sup"] * (1.0 + 1e-12))
        beta_fn = _bounded(beta_fn, cfg.beta, "beta", lambda b: b * (1.0 + 1e-12) < 1.5 * beta_star or b > b_hi)
        gamma = cfg.gamma if cfg.method == "pame" else 0.0  # pam's gamma is 0, whatever cfg.gamma says
        gs_fn = _bounded(gs_fn, gamma, "gamma", lambda g: g > bounds["gamma_sup"], "exceeds its declared bound")
    return _Plan(rule, alpha_fn, beta_fn, (gp_fn, gs_fn, gq_fn), beta_star, bounds, tol)


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
    P0 = sign_select(_xt(inst.X, Q0), np.ones((inst.n, inst.K)))
    return P0, Q0


# a step that overflows surfaces through the loop's own finiteness checks as
# DivergedError, not as a numpy warning
@np.errstate(over="ignore", invalid="ignore")
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
    ||C^{k+1} - C^k||_F drops below ``cfg.tol`` (``termination_reason``
    "tol"), at an exact fixed point (P, polar(X P)) found after a flip-free
    iteration ("fixed_point", with ``Q_final`` that polar factor, which the
    callback never sees), or after ``max_iter`` iterations ("max_iter",
    ``converged=False``).  Raises DivergedError (with the partial trace
    attached) if any tracked value goes non-finite, including a step that
    overflows, and DegenerateUpdateError if a method without a subspace
    anchor meets X P = 0.  The loop, callback included, runs with numpy's
    overflow and invalid-value warnings off.
    """
    X = inst.X
    plan = resolve_config(cfg, X)
    P = require_signs(np.array(P0, dtype=np.float64, copy=True), "P0")
    Q = require_stiefel(np.array(Q0, dtype=np.float64, copy=True), tol=CONSTRUCTION_TOL, name="Q0")
    if P.shape != (inst.n, inst.K) or Q.shape != (inst.d, inst.K):
        raise PreconditionError("P0/Q0 shapes do not match the instance")

    xt = _xt_for(X)  # Q -> X^T Q; every Q below has X's row count
    Q_prev = Q.copy()  # the pre-first-iteration state reuses Q0
    P_prev = P.copy()
    XtQ = xt(Q)
    XtQ_prev = XtQ
    trace = IterateTrace()
    t0 = time.perf_counter()
    h0 = -float((P * XtQ).sum())
    trace.append(0, h0, h0, 0.0, 0.0, 0.0, 0.0, 0)
    dQ = 0.0  # ||Q - Q_prev|| before the first iteration

    rule, bounds = plan.rule, plan.bounds
    gp_fn, gs_fn, gq_fn = plan.weight_fns
    audit: dict[str, list[float]] = {"subgrad_norms": [], "alphas": [], "betas": [], "gammas": []}
    reason = "max_iter"
    # the fixed-point test depends on P alone, so it is due again only after a flip
    test_due = True
    # carried: how many iterations in a row have taken X^T Q_new from the polar
    # step, 0 when the last took it from X without a flip, else -1;
    # XtXP = X^T (X P) / 2^f while P holds
    carried, XtXP = -1, None

    for k in range(cfg.max_iter):
        a_k = plan.alpha_fn(k)
        b_k = plan.beta_fn(k)
        gs_k = gs_fn(k)
        XtE = _ext(XtQ, XtQ_prev, gs_k)  # X^T ext(Q, Q_prev, gs_k)
        gq_k = gq_fn(k)
        try:
            P_new = sign_select(_ext(P, P_prev, gp_fn(k)) + XtE / a_k if rule.prox_p else XtE, P)
            flips = int(np.count_nonzero(P_new != P))
            if flips or k == 0:
                # otherwise P_new holds P's values in P's layout, and X @ P_new
                # would give the bits of the X P already held
                XP = X @ P_new
                XtXP = None
            if rule.prox_q:
                A = _ext(Q, Q_prev, gq_k) + XP / b_k
            elif frob(XP) == 0.0:
                raise DegenerateUpdateError("fixed-point update degenerate: X P = 0")
            else:
                A = XP
            # a flip-free iteration after another takes X^T Q_new from the
            # polar step's own T, up to _CARRY_SPAN in a row, when the step
            # is the plain Procrustes one: a Q anchor with no extrapolation
            T = None
            if not flips and 0 <= carried < _CARRY_SPAN and rule.prox_q and gq_k == 0.0:
                Q_new, T, e = _polar_and_inverse(A)
            else:
                Q_new = polar_factor(A)
        except InvalidInputError as exc:
            # X, P and Q are finite, so a non-finite step input is an overflow
            raise DivergedError(f"overflow at iteration {k}: {exc}", trace=trace) from exc

        # frob(P_new - P) exactly: its entries are 0 or +-2, and a correctly rounded
        # sqrt commutes with the factor 4
        dP = 2.0 * math.sqrt(flips)
        step_Q = Q_new - Q
        dQp, dQ = dQ, frob(step_Q)  # Q - Q_prev is the last iteration's Q_new - Q
        dC = math.sqrt(dP * dP + dQ * dQ + dQp * dQp)

        feas = stiefel_residual(Q_new)
        if not math.isfinite(feas) or feas > CONSTRUCTION_TOL:
            raise DivergedError(f"orthonormality lost at iteration {k} (residual {feas:.3e})", trace=trace)
        if T is not None:
            if XtXP is None:
                XPs, f = _prescaled(XP, frob(XP))
                XtXP = xt(XPs)
            XtQ_new = _xt_polar(XtXP, f, XtQ, b_k, T, e)
            h_new = -float((P_new * XtQ_new).sum())
        if T is None or not math.isfinite(h_new):
            # from X: no T, or a carried product that left the floating-point range
            XtQ_new = xt(Q_new)
            h_new = -float((P_new * XtQ_new).sum())
            carried = 0 if not flips else -1
        else:
            carried += 1
        psi_new = h_new + 0.5 * plan.beta_star * dQ * dQ
        if not math.isfinite(h_new):
            raise DivergedError(f"non-finite objective at iteration {k}", trace=trace)

        if bounds is not None:
            elem_p = (XtE - XtQ_new) - a_k * (P_new - P)
            q_dist = subgrad_dist_linear(-XP + plan.beta_star * step_Q, Q_new)
            coupling = plan.beta_star * dQ
            audit["subgrad_norms"].append(math.hypot(frob(elem_p), q_dist, coupling))
            audit["alphas"].append(a_k)
            audit["betas"].append(b_k)
            audit["gammas"].append(gs_k)

        trace.append(k + 1, h_new, psi_new, dP, dQ, dC, time.perf_counter() - t0, flips)
        P_prev, P = P, P_new
        Q_prev, Q = Q, Q_new
        XtQ_prev, XtQ = XtQ, XtQ_new
        if callback is not None:
            callback(k, P, Q)
        if dC < plan.tol:
            reason = "tol"
            break
        if flips:
            test_due = True
        elif test_due and bounds is None:
            # Q* = polar(X P) is unique when X P has full rank, and every rule
            # maps (P, Q*) to itself when P = sign(X^T Q*) with no zero entry;
            # theorem mode audits every step, so it takes no such jump
            test_due = False
            Q_star = polar_factor(XP, complete=False)
            XtQ_star = None if Q_star is None else xt(Q_star)
            if XtQ_star is not None and (XtQ_star * P > 0.0).all():
                Q, XtQ, reason = Q_star, XtQ_star, "fixed_point"
                break

    return SolveResult(
        method=cfg.method,
        P_final=P,
        Q_final=Q,
        trace=trace,
        iterations=k + 1,
        converged=reason != "max_iter",
        termination_reason=reason,
        final_objective=float(np.abs(XtQ).sum()),
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
    pam.  The config declares that upper bound as ``norm_upper`` (0 for
    zero X), so ``solve`` takes no second norm; use it on this X only.
    A ``spectral_rel_tol`` outside (0, 1), and a ``beta_scale`` or (for
    pame) ``gamma_frac`` that is not a finite number, is a PreconditionError;
    so is a beta that overflows.
    """
    spectral_rel_tol = fraction("spectral_rel_tol", spectral_rel_tol)
    beta_scale = finite("theorem_config", "beta_scale", beta_scale)
    s = spectral_norm(X)
    norm_upper = s * (1.0 + spectral_rel_tol)
    if s == 0.0:
        s = 1.0
    alpha = s
    beta = beta_scale * s
    if not math.isfinite(beta):
        raise PreconditionError(f"theorem_config: beta = beta_scale * ||X||_2 overflows ({beta_scale!r} * {s!r})")
    gamma_star = _gamma_star(alpha, (2.0 / 3.0) * beta, s * (1.0 + spectral_rel_tol))
    gamma = finite("theorem_config", "gamma_frac", gamma_frac) * gamma_star if method == "pame" else 0.0
    return SolverConfig(
        method=method,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        tol=tol,
        max_iter=max_iter,
        theorem_mode=True,
        spectral_rel_tol=spectral_rel_tol,
        norm_upper=norm_upper,
    )
