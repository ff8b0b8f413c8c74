"""Print one SHA-256 digest per run of a fixed grid, as JSON, for an l1pca source tree.

Usage::

    python tools/solve_digests.py SRC_DIR > digests.json
    python tools/solve_digests.py --fields SRC_DIR > fields.json
    python tools/solve_digests.py --compare PARENT_FIELDS.json CHANGE_FIELDS.json

SRC_DIR is the directory holding the ``l1pca`` package (``src`` in a
checkout).  Run it on two checkouts and ``diff`` the outputs: a change that
claims byte-identical results must print the same file.  Each digest covers
a run's every output byte and its memory layout, or the class and message
of the error it raised:

* ``solve``: 4 shapes, dense and CSC X, 3 starts; the six methods at gamma
  0, 0.5 and 0.8, the pdcae and gipalm variants, callable schedules for all
  six, pdcae with an ``alpha`` callable that raises (pdcae reads no alpha),
  and theorem-mode pame and pam with constant, declared and callable
  bounds.  Then the benchmark's two shapes (200x500 K=10 and 500x2000
  K=20, ``gen_fixed_effect`` data seed 0), where BLAS blocks the products:
  X in C and in F order, start 1, pame and fpm with the paper flags and
  ``theorem_config`` pame.  Then ``theorem_config`` pame and pam on a
  20x40 Gaussian (numpy seed 0), K=3, start 1, at scales 1, 1e160 and
  1e-160; at scale 1, pame's run is one 64-iteration stretch with no sign
  flip.  A digest holds ``P_final`` and ``Q_final``,
  every trace field but ``wall_time``, the iteration count, ``converged``,
  the termination reason, ``final_objective`` and ``audit_info``.  Each
  run also digests ``criticality_report`` at its final pair, with the
  run's ``alpha`` (at iteration 0 for a callable) as ``alpha_star``.
* ``zero``: every method and ``theorem_config`` on zero data.
* ``refused``: configurations that ``solve`` refuses, and the arguments
  that ``theorem_config`` and ``criticality_report`` refuse, with their
  messages.  Then ``refused/args``: every scalar argument of the public
  surface (``argument_table``) called with each value of ``MALFORMED``,
  digesting the class and message of the error, or None for a call that
  returns.  The table also drives the Tier-1 test ``tests/test_arguments.py``.
* ``kernel``: ``polar_factor`` and ``thin_svd`` of drawn rank 0 up to full,
  with repeated columns, in C and F order, at three scales and at 2^1022.
* ``oracle``: ``enumerate_oracle``'s value (a hex float), P and Q on 7
  small shapes (n 1-12, K 1-3) with Gaussian data, a duplicate column,
  equal rows and small integers (exact ties) at scales 1e-150, 1 and
  1e150 and at 2^1022, and zero data; then 2^20 candidates at 5x11, K=2,
  and at 5x6, K=4, with ``hard_cap=24``, and that run's refusal at the
  default cap.
* ``error_bound_suite`` (seeds 0-5), ``gen_fixed_effect`` (240 specs),
  and ``tev`` and ``choose_K_by_variance`` (80 matrices: scales 1, 1e160
  and 1e-170 and 2^1022, dense and CSC).
* ``spectral_norm`` of a 2%-dense CSC X at Gram sides 20, 100 and 300, at
  scale 1 and at 2^1022.
* ``top``: ``kappa_constant`` of a 20x3 Gaussian, ``criticality_report`` at
  the final pair of a 20x40 Gaussian's ``SolverConfig()`` solve (K=3,
  start 1), and theorem-mode pame on that X (20 iterations) declaring
  ``norm_upper`` as the largest float and as 2^1020, the second refused at
  2^1022; each on the data at scale 1 and at 2^1022.
* ``read``: ``read_sparse_labeled``'s X arrays and labels, or its
  ``ParseError`` with its line, on 5 generated files of about 1.3 MB
  (several blocks of the reader's) at scales 1e-300 to 1e300, with stored
  zeros and labels of both signs: as written, and with each line of
  ``READ_SPLICES`` spliced in before the first line, before the first line
  that starts past byte 2^19 (the reader's first block cut), before the
  middle one and after the last; with every LF turned into CRLF, and
  into a space and CRLF; and with every value's sign flipped, and with a
  plus before every label and value that has no sign, each also with a
  space and CRLF ending every line.

"At 2^1022" means X times the power of two that puts its largest entry
in [2^1022, 2^1023) (``top``): the entries stay finite, and ||X||_F
overflows unless X has very few entries near its largest.

The grid prints 3930 digests and takes about 20 s at one BLAS thread on a
2-vCPU machine.  BLAS may block a product differently with a different
thread count, so compare two trees at the same ``OPENBLAS_NUM_THREADS``.

``--fields`` prints, for each run of the solve, metric and spectral-norm
grids only (no ``criticality_report``), the fields that gate a change which
may move results (ROADMAP's per-field gates), or the error's class and
message: for a solve ``iterations``, ``termination_reason``, ``converged``,
the SHA-256 of ``P_final``'s and of ``Q_final``'s bytes and
``final_objective`` as a hex float; ``choose_K_by_variance`` as an int,
and ``tev`` and ``spectral_norm`` as hex floats.

``--compare`` reads two ``--fields`` files and exits 1 unless they hold the
same runs and every run agrees: a solve's ``final_objective`` within
``OBJECTIVE_REL_TOL`` relative, and every other field (of a solve, a metric
or an error) identical.  It prints each run that disagrees, then one summary
line that counts the runs that differ, and by name those in which each of
``P_final``, ``Q_final``, ``iterations``, ``termination_reason``,
``converged`` and ``final_objective``, a solve error, or a metric value moved.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

#: (d, n, K) of the solve grid; the last has K = min(d, n)
SHAPES = ((5, 6, 2), (20, 40, 3), (40, 20, 4), (8, 8, 8))
STARTS = (1, 2, 3)
GAMMAS = (0.0, 0.5, 0.8)
#: (d, n, K) of the benchmark's desk-compare and large-theorem data
BENCH_SHAPES = ((200, 500, 10), (500, 2000, 20))
#: scales of the theorem-mode runs on the 20x40 Gaussian
STRETCH_SCALES = (1.0, 1e160, 1e-160)
#: the exponent ``top`` gives the largest entry: 2^1022 <= max |X| < 2^1023
TOP_EXPONENT = 1023
#: how far ``--compare`` lets a solve's final_objective move, relative
OBJECTIVE_REL_TOL = 1e-12
#: a solve's ``--fields``, which ``--compare`` counts by name when they move
SOLVE_FIELDS = ("P_final", "Q_final", "iterations", "termination_reason", "converged", "final_objective")


def top(X):
    """X times the power of two that puts its largest entry in [2^1022, 2^1023), exactly;
    zero X as it is.  A sparse X keeps its format."""
    amax = float(abs(X).max())
    if amax == 0.0:
        return X
    e = TOP_EXPONENT - math.frexp(amax)[1]
    if sp.issparse(X):
        X = X.copy()
        X.data = np.ldexp(X.data, e)
        return X
    return np.ldexp(X, e)


def _canon(value):
    """A JSON-ready form of ``value`` that keeps every bit and the array layout."""
    if isinstance(value, np.ndarray):
        return {
            "shape": list(value.shape),
            "dtype": str(value.dtype),
            "C": bool(value.flags.c_contiguous),
            "F": bool(value.flags.f_contiguous),
            "bytes": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
        }
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(fn) -> str:
    """SHA-256 of what ``fn()`` returns, or of the class and message of what it raises."""
    try:
        out = {"ok": _canon(fn())}
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        out = {"error": type(exc).__name__, "message": str(exc)}
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def _result(res) -> dict:
    tr = res.trace
    return {
        "method": res.method,
        "P_final": res.P_final,
        "Q_final": res.Q_final,
        "trace": [tr.k, tr.h_value, tr.psi_value, tr.delta_P_norm, tr.delta_Q_norm, tr.delta_C_norm],
        "iterations": res.iterations,
        "converged": res.converged,
        "termination_reason": res.termination_reason,
        "final_objective": res.final_objective,
        "audit_info": res.audit_info,
    }


def _value(fn):
    """What ``fn()`` returns in ``_canon`` form (a float as hex), or the class and message of what it raises."""
    try:
        return _canon(fn())
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        return {"error": type(exc).__name__, "message": str(exc)}


def _fields(run) -> dict:
    """The gated fields of the solve that ``run()`` makes, or the class and message of its error."""

    def gated():
        res = run()
        return {
            "iterations": res.iterations,
            "termination_reason": res.termination_reason,
            "converged": res.converged,
            "P_final": _canon(res.P_final)["bytes"],
            "Q_final": _canon(res.Q_final)["bytes"],
            "final_objective": res.final_objective,
        }

    return _value(gated)


def _full_digest(run) -> str:
    return _digest(lambda: _result(run()))


def _data(d: int, n: int) -> np.ndarray:
    """A d x n Gaussian with its small entries zeroed, so sign ties occur."""
    X = np.random.default_rng([d, n]).standard_normal((d, n))
    X[np.abs(X) < 0.3] = 0.0
    return X


def _configs(X, l1pca) -> dict:
    """Name -> SolverConfig of every run on the data X."""
    SolverConfig, METHODS = l1pca.solvers.SolverConfig, l1pca.solvers.METHODS
    theorem_config = l1pca.solvers.theorem_config
    s = l1pca.linalg.spectral_norm(X)
    cfgs = {f"{m}/gamma{g}": SolverConfig(method=m, gamma=g) for m in METHODS for g in GAMMAS}
    cfgs["pdcae/config_gamma"] = SolverConfig(method="pdcae", gamma=0.5, method_params={"use_config_gamma": True})
    cfgs["pdcae/restart3"] = SolverConfig(method="pdcae", method_params={"restart_interval": 3})
    cfgs["gipalm/weights"] = SolverConfig(method="gipalm", method_params={"gamma_p": 0.3, "gamma_q": 0.6})
    cfgs["pdcae/unread_alpha"] = SolverConfig(method="pdcae", alpha=lambda k: 1 / 0)
    for m in METHODS:
        cfgs[f"{m}/callables"] = SolverConfig(
            method=m,
            alpha=lambda k: 1e-4 * (1.0 + 1.0 / (k + 1)),
            beta=lambda k: 1.0 + 0.5 / (k + 1),
            gamma=lambda k: 0.3 + 0.2 / (k + 1),
            method_params={"use_config_gamma": True},
        )
    for m in ("pame", "pam"):
        cfgs[f"theorem/{m}/constant"] = theorem_config(X, method=m)
        cfgs[f"theorem/{m}/declared"] = SolverConfig(
            method=m, alpha=s, beta=5.0 * s, gamma=0.3, tol=1e-7, max_iter=500, theorem_mode=True,
            alpha_star=0.5 * s, alpha_sup=2.0 * s, beta_sup=10.0 * s, gamma_sup=0.4,
        )
        cfgs[f"theorem/{m}/callable"] = SolverConfig(
            method=m,
            alpha=lambda k: s * (1.0 + 0.5 / (k + 1)),
            beta=lambda k: 5.0 * s * (1.0 + 1.0 / (k + 1)),
            gamma=lambda k: 0.3 / (k + 1),
            tol=1e-7, max_iter=500, theorem_mode=True,
            alpha_star=s, alpha_sup=1.5 * s, beta_star=(10.0 / 3.0) * s, beta_sup=10.0 * s, gamma_sup=0.4,
        )
    return cfgs


def _bench_configs(X, l1pca) -> dict:
    """Name -> SolverConfig of every run on a benchmark shape's data X."""
    SolverConfig = l1pca.solvers.SolverConfig
    paper = dict(alpha=1e-4, beta=1.0, gamma=0.8, tol=1e-8, max_iter=2000)
    return {
        "pame/paper": SolverConfig(method="pame", **paper),
        "fpm/paper": SolverConfig(method="fpm", **paper),
        "theorem/pame": l1pca.solvers.theorem_config(X),
    }


def solve_runs(l1pca, out: dict, summary=_full_digest, certify: bool = True) -> None:
    """The solve grid; ``summary(run)`` turns a solve thunk into the value stored for its key.

    With ``certify``, each run's ``criticality_report`` digest is stored under
    the run's key plus ``/criticality_report``.
    """
    solvers, ProblemInstance = l1pca.solvers, l1pca.model.ProblemInstance

    def record(key, inst, cfg, P0, Q0):
        run = functools.cache(lambda: solvers.solve(inst, cfg, P0, Q0))
        out[key] = summary(run)
        if certify:
            def report():
                # taken inside the digest, so an alpha callable that raises digests its error
                alpha = cfg.alpha(0) if callable(cfg.alpha) else cfg.alpha
                return vars(l1pca.verify.criticality_report(inst.X, run().P_final, run().Q_final, alpha_star=alpha))

            out[f"{key}/criticality_report"] = _digest(report)

    for d, n, K in SHAPES:
        X = _data(d, n)
        for fmt, Xf in (("dense", X), ("csc", sp.csc_matrix(X))):
            inst = ProblemInstance(Xf, K)
            cfgs = _configs(Xf, l1pca)
            for seed in STARTS:
                P0, Q0 = solvers.draw_start(inst, seed)
                for name, cfg in cfgs.items():
                    record(f"solve/{d}x{n}x{K}/{fmt}/start{seed}/{name}", inst, cfg, P0, Q0)
    for d, n, K in BENCH_SHAPES:
        X = l1pca.data.gen_fixed_effect(l1pca.data.FixedEffectSpec(n=n, d=d, K=K, sigma=0.5, seed=0))[0]
        for order in ("C", "F"):
            inst = ProblemInstance(np.asarray(X, order=order), K)
            P0, Q0 = solvers.draw_start(inst, 1)
            for name, cfg in _bench_configs(inst.X, l1pca).items():
                record(f"solve/{d}x{n}x{K}/{order}/start1/{name}", inst, cfg, P0, Q0)
    X = np.random.default_rng(0).standard_normal((20, 40))
    for scale in STRETCH_SCALES:
        inst = ProblemInstance(X * scale, 3)
        P0, Q0 = solvers.draw_start(inst, 1)
        for m in ("pame", "pam"):
            cfg = solvers.theorem_config(inst.X, method=m)
            record(f"solve/gauss20x40x3/{scale:g}/start1/theorem/{m}", inst, cfg, P0, Q0)


def zero_runs(l1pca, out: dict) -> None:
    solvers = l1pca.solvers
    for fmt, X in (("dense", np.zeros((6, 5))), ("csc", sp.csc_matrix((6, 5)))):
        inst = l1pca.model.ProblemInstance(X, 2)
        P0, Q0 = solvers.draw_start(inst, 1)
        cfgs = {m: solvers.SolverConfig(method=m, gamma=0.5) for m in solvers.METHODS}
        cfgs.update({f"theorem/{m}": solvers.theorem_config(X, method=m) for m in ("pame", "pam")})
        for name, cfg in cfgs.items():
            out[f"zero/{fmt}/{name}"] = _digest(lambda: _result(solvers.solve(inst, cfg, P0, Q0)))


def refused_runs(l1pca, out: dict) -> None:
    solvers = l1pca.solvers
    C = solvers.SolverConfig
    X = _data(20, 40)
    s = l1pca.linalg.spectral_norm(X)
    inst = l1pca.model.ProblemInstance(X, 3)
    P0, Q0 = solvers.draw_start(inst, 1)
    thm = dict(theorem_mode=True, alpha=s, beta=5.0 * s, max_iter=20)
    cfgs = {
        "unknown_method": C(method="nope"),
        "tol_zero": C(tol=0.0),
        "max_iter_zero": C(max_iter=0),
        "theorem_fpm": C(method="fpm", theorem_mode=True),
        "alpha_negative": C(alpha=-1.0),
        "beta_zero": C(method="pam", beta=0.0),
        "beta_infinite": C(beta=float("inf")),
        "alpha_callable_negative": C(alpha=lambda k: 1e-4 if k < 2 else -1.0),
        "restart_interval_zero": C(method="pdcae", method_params={"restart_interval": 0}),
        "theorem_alpha_callable_undeclared": C(**{**thm, "alpha": lambda k: s}),
        "theorem_beta_callable_no_beta_star": C(**{**thm, "beta": lambda k: 5.0 * s, "beta_sup": 6.0 * s}),
        "theorem_alpha_star_zero": C(**thm, alpha_star=0.0),
        "theorem_beta_condition": C(**thm, beta_star=4.0 * s),
        "theorem_spectral_rel_tol": C(**thm, spectral_rel_tol=2.0),
        "theorem_gamma_sup": C(**thm, gamma=0.5, gamma_sup=1.0),
        "theorem_alpha_leaves_bounds": C(
            **{**thm, "alpha": lambda k: s if k < 3 else 3.0 * s}, alpha_star=s, alpha_sup=2.0 * s),
        "theorem_beta_above_sup": C(
            **{**thm, "beta": lambda k: 5.0 * s * (k + 1)}, beta_star=s, beta_sup=6.0 * s),
        "theorem_gamma_above_sup": C(**thm, gamma=lambda k: 0.2 * k, gamma_sup=0.3),
        "theorem_alpha_below_alpha_star": C(**thm, alpha_star=2.0 * s),
        "theorem_alpha_sup_nan": C(**thm, alpha_sup=float("nan")),
        "theorem_beta_star_nan": C(**thm, beta_star=float("nan")),
        "theorem_gamma_sup_nan": C(**thm, gamma_sup=float("nan")),
        "theorem_beta_sup_infinite": C(**thm, beta_sup=float("inf")),
        "tol_not_a_number": C(tol="x"),
        "max_iter_fractional": C(max_iter=2.5),
        "theorem_norm_upper_not_a_number": C(**thm, norm_upper="x"),
        "method_not_a_string": C(method=["pame"]),
        "method_params_not_a_dict": C(method_params=None),
        "theorem_mode_not_a_bool": C(theorem_mode="no"),
    }
    for name, cfg in cfgs.items():
        out[f"refused/{name}"] = _digest(lambda: _result(solvers.solve(inst, cfg, P0, Q0)))
    for arg in ("spectral_rel_tol", "gamma_frac", "beta_scale"):
        out[f"refused/theorem_config/{arg}_not_a_number"] = _digest(
            lambda: _result(solvers.solve(inst, solvers.theorem_config(X, **{arg: "x"}), P0, Q0)))
    report = l1pca.verify.criticality_report
    for name, alpha, zero_tol in (("alpha_star_zero", 0.0, 1e-12), ("alpha_star_negative", -1.0, 1e-12),
                                  ("zero_tol_negative", 1e-4, -1.0)):
        out[f"refused/criticality_report/{name}"] = _digest(
            lambda: vars(report(X, P0, Q0, alpha_star=alpha, zero_tol=zero_tol)))
    with tempfile.TemporaryDirectory() as tmp:
        for key, call in malformed_cases(argument_table(l1pca, Path(tmp))):
            # a call that returns digests as None: only its refusal is compared
            out[f"refused/args/{key}"] = _digest(lambda: (call(), None)[1])


#: the malformed values each scalar argument of the public surface is tried with,
#: by label; "fractional" only where an integer is due
MALFORMED = {
    "str": "x", "fractional": 1.5, "none": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "negative": -1, "bool": True,
}


def argument_table(l1pca, tmp: Path) -> dict:
    """Name -> (call, {parameter: kind}) for every callable in ``l1pca.__all__`` but the error classes.

    ``call(**kw)`` runs the callable on small valid arguments, with ``kw`` in
    place of the named scalar arguments; kind is "int", "float" or "bool".
    A dataclass's fields are its parameters, and a callable whose scalars
    all come in through a ``SolverConfig`` or a ``FixedEffectSpec`` (``solve``,
    ``gen_fixed_effect``), or that takes none, has none.
    ``SolverConfig.method_params`` holds pdcae's and gipalm's keys.  The
    sparse-text file ``read_sparse_labeled`` reads is written in ``tmp``.
    """
    I, F, B = "int", "float", "bool"
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 6))
    inst = l1pca.ProblemInstance(X, 2)
    P, Q = l1pca.draw_start(inst, 1)
    thm = l1pca.theorem_config(X, max_iter=20)
    res = l1pca.solve(inst, thm, P, Q)
    A = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    Xo = rng.standard_normal((3, 3))
    orc = l1pca.enumerate_oracle(Xo, 1)
    path = tmp / "x.txt"
    l1pca.data.write_sparse_labeled(path, sp.csc_matrix(X), np.zeros(6))
    solver_fields = {name: F for name in ("alpha", "beta", "gamma", "tol", "alpha_star", "alpha_sup", "beta_star",
                                          "beta_sup", "gamma_sup", "spectral_rel_tol", "norm_upper")}
    solver_fields.update(max_iter=I, seed=I, theorem_mode=B)

    def solve_config(**kw):
        cfg = l1pca.SolverConfig(**{**vars(thm), "norm_upper": None, "max_iter": 5, **kw})
        return l1pca.solve(inst, cfg, *l1pca.draw_start(inst, cfg.seed))

    def method_params(**kw):
        method = "gipalm" if {"gamma_p", "gamma_q"} & kw.keys() else "pdcae"
        return l1pca.solve(inst, l1pca.SolverConfig(method=method, gamma=0.5, max_iter=5, method_params=kw), P, Q)

    none = (None, {})
    return {
        "AuditReport": none, "CriticalityReport": none, "CriticalSetSpec": none, "IterateTrace": none,
        "SolveResult": none, "build_critical_point": none, "fpm_solve": none, "gen_fixed_effect": none,
        "gipalm_solve": none, "ipalm_solve": none, "objective_h": none, "objective_l1": none, "pam_solve": none,
        "pame_solve": none, "pdcae_solve": none, "residual_R": none, "sample_critical_point": none,
        "sign_select": none, "solve": none, "spectral_norm": none, "stiefel_residual": none, "tev": none,
        "write_trace": none,
        "FixedEffectSpec": (
            lambda **kw: l1pca.gen_fixed_effect(l1pca.FixedEffectSpec(**{"n": 6, "d": 4, "K": 2, "sigma": 0.5, **kw})),
            {"n": I, "d": I, "K": I, "sigma": F, "seed": I}),
        "ProblemInstance": (lambda **kw: l1pca.draw_start(l1pca.ProblemInstance(X, **{"K": 2, **kw}), 1), {"K": I}),
        "SolverConfig": (solve_config, solver_fields),
        "SolverConfig.method_params": (
            method_params, {"restart_interval": I, "use_config_gamma": B, "gamma_p": F, "gamma_q": F}),
        "check_alpha_condition": (
            lambda **kw: l1pca.check_alpha_condition(X, Q, **{"alpha_star": 1e-4, **kw}),
            {"alpha_star": F, "zero_tol": F}),
        "choose_K_by_variance": (
            lambda **kw: l1pca.choose_K_by_variance(X, **{"threshold": 0.8, **kw}),
            {"threshold": F, "large_side": I, "cap": I}),
        "convergence_fit": (lambda **kw: l1pca.convergence_fit(res.trace, **kw), {"tail_fraction": F, "min_points": I}),
        "criticality_report": (
            lambda **kw: l1pca.criticality_report(X, P, Q, **{"alpha_star": 1e-4, **kw}),
            {"alpha_star": F, "zero_tol": F}),
        "critical_set_separation_probe": (
            lambda **kw: l1pca.critical_set_separation_probe(A, [1.0, 1.0], [-1.0, 1.0], **{"samples": 3, **kw}),
            {"samples": I, "seed": I, "tie_tol": F}),
        "critical_set_spec": (lambda **kw: l1pca.critical_set_spec(A, [1.0, 1.0], **kw), {"tie_tol": F, "rank_tol": F}),
        "decrease_and_error_audit": (lambda **kw: l1pca.decrease_and_error_audit(res, **kw), {"slack_tol": F}),
        "draw_start": (lambda **kw: l1pca.draw_start(inst, **{"seed": 1, **kw}), {"seed": I}),
        "enumerate_oracle": (lambda **kw: l1pca.enumerate_oracle(Xo, **{"K": 1, **kw}), {"K": I, "hard_cap": I}),
        "error_bound_probe": (
            lambda **kw: l1pca.error_bound_probe(A[:, :1], [1.0], **{"samples": 3, **kw}),
            {"samples": I, "radius": F, "seed": I, "tie_tol": F}),
        "kappa_constant": (lambda **kw: l1pca.kappa_constant(A, **kw), {"tie_tol": F, "rank_tol": F}),
        "kl_ratio_probe": (
            lambda **kw: l1pca.kl_ratio_probe(Xo, orc.Q, [0.01], **{"samples": 3, **kw}),
            {"samples": I, "seed": I, "max_zero_enum": I, "crit_tol": F, "stability_cap": F}),
        "kl_ratio_probe_h": (
            lambda **kw: l1pca.kl_ratio_probe_h(Xo, orc.P, orc.Q, [0.01], **{"samples": 3, **kw}),
            {"samples": I, "seed": I, "crit_tol": F, "stability_cap": F}),
        # one label value and two clusters: the majority scoring, which imports no scipy.optimize
        "kmeans_accuracy": (
            lambda **kw: l1pca.kmeans_accuracy(X, Q, np.zeros(6), **{"k": 2, **kw}),
            {"k": I, "restarts": I, "seed": I}),
        "polar_factor": (lambda **kw: l1pca.polar_factor(X[:, :2], **kw), {"complete": B}),
        "potential_psi": (lambda **kw: l1pca.potential_psi(X, P, Q, Q, **{"beta": 1.0, **kw}), {"beta": F}),
        "read_sparse_labeled": (lambda **kw: l1pca.read_sparse_labeled(path, **kw), {"K": I, "n_features": I}),
        "run_comparison": (
            lambda **kw: l1pca.run_comparison(inst, [l1pca.SolverConfig(max_iter=5)], **kw), {"seed": I}),
        "sandwich_probe": (lambda **kw: l1pca.sandwich_probe(**{"samples": 4, **kw}), {"samples": I, "seed": I}),
        "subgrad_dist_h": (lambda **kw: l1pca.subgrad_dist_h(X, P, Q, **kw), {"feas_tol": F}),
        "subgrad_dist_linear": (lambda **kw: l1pca.subgrad_dist_linear(X @ P, Q, **kw), {"feas_tol": F}),
        "theorem_config": (
            lambda **kw: l1pca.solve(inst, l1pca.theorem_config(X, **{"max_iter": 5, **kw}), P, Q),
            {"tol": F, "max_iter": I, "gamma_frac": F, "beta_scale": F, "spectral_rel_tol": F}),
        "thin_svd": (lambda **kw: l1pca.thin_svd(X, **kw), {"rank": I}),
    }


def malformed_cases(table: dict):
    """(key, thunk) for each ``argument_table`` entry, scalar parameter and fitting ``MALFORMED`` value."""
    for name, (call, params) in sorted(table.items()):
        for param, kind in params.items():
            for label, value in MALFORMED.items():
                if label != "fractional" or kind == "int":
                    yield f"{name}/{param}/{label}", functools.partial(call, **{param: value})


def kernel_runs(l1pca, out: dict) -> None:
    linalg = l1pca.linalg
    rng = np.random.default_rng(7)
    for rows, cols in ((3, 1), (5, 2), (6, 3), (7, 7), (200, 10), (2, 5)):
        k = min(rows, cols)
        for rank in range(k + 1):
            M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            if rank and cols > 1:
                M[:, -1] = M[:, 0]  # a repeated column
            for scale in ("1", "1e+160", "1e-160", "2^1022"):
                for order in ("C", "F"):
                    A = np.asarray(top(M) if scale == "2^1022" else M * float(scale), order=order)
                    key = f"kernel/{rows}x{cols}/rank{rank}/{scale}/{order}"
                    out[f"{key}/thin_svd"] = _digest(lambda: vars(linalg.thin_svd(A)))
                    out[f"{key}/polar_factor"] = _digest(lambda: linalg.polar_factor(A))


#: (d, n, K) of the oracle grid's small shapes, each run on tied data and at three scales
ORACLE_SHAPES = ((3, 1, 1), (4, 2, 2), (2, 9, 1), (5, 6, 2), (4, 5, 3), (3, 12, 1), (6, 6, 3))


def oracle_runs(l1pca, out: dict) -> None:
    """``enumerate_oracle``'s value, P and Q on seeded Gaussian, tied and zero data, then two
    larger runs: 2^20 candidates at K = 2, and 2^20 above the default cap (24 sign bits)."""
    oracle = l1pca.verify.enumerate_oracle
    rng = np.random.default_rng(13)
    for d, n, K in ORACLE_SHAPES:
        gauss = rng.standard_normal((d, n))
        dup, rows = gauss.copy(), gauss.copy()
        dup[:, -1] = dup[:, 0]  # a duplicate column
        rows[-1] = rows[0]  # equal rows
        ints = rng.integers(-2, 3, (d, n)).astype(np.float64)
        for name, X in (("gauss", gauss), ("dup", dup), ("rows", rows), ("ints", ints)):
            for scale in (1e-150, 1.0, 1e150):
                out[f"oracle/{d}x{n}x{K}/{name}/{scale:g}"] = _digest(lambda: oracle(X * scale, K)._asdict())
            out[f"oracle/{d}x{n}x{K}/{name}/2^1022"] = _digest(lambda: oracle(top(X), K)._asdict())
        out[f"oracle/{d}x{n}x{K}/zero"] = _digest(lambda: oracle(np.zeros((d, n)), K)._asdict())
    X = rng.standard_normal((5, 11))
    out["oracle/5x11x2/gauss/1"] = _digest(lambda: oracle(X, 2)._asdict())
    X = rng.standard_normal((5, 6))
    out["oracle/5x6x4/gauss/1/hard_cap24"] = _digest(lambda: oracle(X, 4, hard_cap=24)._asdict())
    out["oracle/5x6x4/gauss/1/refused"] = _digest(lambda: oracle(X, 4)._asdict())


def top_runs(l1pca, out: dict) -> None:
    """``kappa_constant``, ``criticality_report`` and a declared ``norm_upper`` at scale 1 and at 2^1022."""
    verify, solvers = l1pca.verify, l1pca.solvers
    X = np.random.default_rng(0).standard_normal((20, 40))
    inst = l1pca.model.ProblemInstance(X, 3)
    P0, Q0 = solvers.draw_start(inst, 1)
    res = solvers.solve(inst, solvers.SolverConfig(), P0, Q0)
    for scale, Xs in (("1", X), ("2^1022", top(X))):
        out[f"top/{scale}/kappa_constant"] = _digest(lambda: verify.kappa_constant(Xs[:, :3])._asdict())
        f = float(Xs[0, 0] / X[0, 0])  # the power of two of the scale
        out[f"top/{scale}/criticality_report"] = _digest(
            lambda: vars(verify.criticality_report(Xs, res.P_final, res.Q_final, 1e-4 * f)))
        # at 2^1022 ||X||_2 overflows (so theorem_config refuses), the largest float bounds it,
        # and 2^1020 lies below ||X||_F / sqrt(20)
        for bound, norm_upper in (("max_float", np.finfo(np.float64).max), ("2^1020", math.ldexp(1.0, 1020))):
            cfg = solvers.SolverConfig(alpha=f, beta=5.0 * f, max_iter=20, theorem_mode=True, norm_upper=norm_upper)
            out[f"top/{scale}/theorem/norm_upper_{bound}"] = _digest(
                lambda: _result(solvers.solve(l1pca.model.ProblemInstance(Xs, 3), cfg, P0, Q0)))


def suite_runs(l1pca, out: dict) -> None:
    for seed in range(6):
        out[f"error_bound_suite/seed{seed}"] = _digest(lambda: l1pca.verify.error_bound_suite(seed=seed))


def generator_runs(l1pca, out: dict) -> None:
    data = l1pca.data
    sizes = ((1, 1, 1), (5, 3, 2), (3, 5, 3), (40, 20, 4), (20, 40, 20), (50, 50, 1), (7, 30, 7), (100, 10, 9))
    for seed in range(10):
        for n, d, K in sizes:
            for sigma in (0.0, 0.5, 2.0):
                spec = data.FixedEffectSpec(n=n, d=d, K=K, sigma=sigma, seed=seed)
                out[f"gen_fixed_effect/{n}x{d}x{K}/{sigma}/seed{seed}"] = _digest(
                    lambda: data.gen_fixed_effect(spec))


def metric_runs(l1pca, out: dict, summary=_digest) -> None:
    """The metric grid; ``summary(fn)`` turns a metric thunk into the value stored for its key."""
    metrics, random_stiefel = l1pca.metrics, l1pca.linalg.random_stiefel
    rng = np.random.default_rng(11)
    bases = {
        "12x30": rng.standard_normal((12, 30)),
        "30x12": rng.standard_normal((30, 12)),
        "1x9": rng.standard_normal((1, 9)),
        "rank2_40x60": rng.standard_normal((40, 2)) @ rng.standard_normal((2, 60)),
        "sparse_80x50": np.where(rng.random((80, 50)) < 0.1, rng.standard_normal((80, 50)), 0.0),
        "lowrank_300x600": rng.standard_normal((300, 3)) @ rng.standard_normal((3, 600)) * 3.0
        + rng.standard_normal((300, 600)),
        "gauss_300x600": rng.standard_normal((300, 600)),
        "lowrank_600x400": rng.standard_normal((600, 4)) @ rng.standard_normal((4, 400)) * 4.0
        + rng.standard_normal((600, 400)),
        "lowrank_520x540": rng.standard_normal((520, 3)) @ rng.standard_normal((3, 540)) * 5.0
        + rng.standard_normal((520, 540)),
        "zero_6x4": np.zeros((6, 4)),
    }
    for name, X in bases.items():
        d = X.shape[0]
        frames = [random_stiefel(d, K, rng) for K in (1, 3, 9, 12) if K <= d]
        for scale in ("1", "1e+160", "1e-170", "2^1022"):
            for fmt in ("dense", "csc"):
                Xs = top(X) if scale == "2^1022" else X * float(scale)
                Xs = sp.csc_matrix(Xs) if fmt == "csc" else Xs
                key = f"metrics/{name}/{scale}/{fmt}"
                for Q in frames:
                    out[f"{key}/tev/K{Q.shape[1]}"] = summary(lambda: metrics.tev(Xs, Q))
                for threshold in (0.5, 0.8, 0.95):
                    out[f"{key}/choose_K/{threshold}"] = summary(
                        lambda: metrics.choose_K_by_variance(Xs, threshold))


#: (d, n) of the sparse spectral-norm runs: Gram sides 20, 100 and 300
NORM_SHAPES = ((20, 600), (100, 3000), (300, 2000))


def norm_runs(l1pca, out: dict, summary=_digest) -> None:
    """``spectral_norm`` of a seeded 2%-dense CSC X at each of ``NORM_SHAPES``."""
    for d, n in NORM_SHAPES:
        X = sp.random(d, n, density=0.02, format="csc", rng=np.random.default_rng([d, n]))
        out[f"spectral_norm/{d}x{n}/csc"] = summary(lambda: l1pca.linalg.spectral_norm(X))
        out[f"spectral_norm/{d}x{n}/csc/2^1022"] = summary(lambda: l1pca.linalg.spectral_norm(top(X)))


#: scales of the read grid's generated files
READ_SCALES = (1e-300, 1e-150, 1.0, 1e150, 1e300)
#: lines the read grid splices into its files: refused by the one-pass grammar (two points,
#: a tab, a lone CR, a sign before an index), by its index check (descending, 2^53 + 1), or
#: taken by it with CRLF, leading plus signs, a space before LF (after a value, after a bare
#: label) or blank lines
READ_SPLICES = {
    "two_points": "1 1:1.2.3\n", "tab": "1\t1:2\n", "crlf": "1 1:2\r\n", "plus_index": "+1 +2:+3\n",
    "descending": "1 2:1 1:1\n", "index_two53_plus_1": "1 9007199254740993:1\n", "plus": "+1 2:+3 5:+.5e+3\n",
    "space_lf": "1 1:2 \n", "label_space_lf": "3 \n", "blank_lines": "\n\n\n", "lone_cr": "1 1:2\r-1 2:3\n",
}
#: line ends the read grid also writes each whole file with, in place of its LFs
READ_LINE_ENDS = {"crlf_lines": b"\r\n", "space_crlf_lines": b" \r\n"}
#: signed copies the read grid also writes each whole file as, with LF and with space-CRLF line ends
READ_SIGNS = {
    "negated": lambda text: re.sub(rb":(-?)", lambda m: b":" if m[1] else b":-", text),
    "plus": lambda text: re.sub(rb"(?m)(^|:)(?=[0-9])", rb"\1+", text),
}
#: the reader's block size: the grid also splices at the first line that starts past this byte
READ_CUT = 1 << 19


def _sparse_text(X: sp.csc_matrix, labels: np.ndarray) -> list[bytes]:
    """The lines of X (columns = samples) with their labels in sparse labeled text, numbers as %.17g;
    written here, not by the tree's ``write_sparse_labeled``, so both trees read the same bytes."""
    return [
        " ".join([f"{labels[j]:.17g}", *(f"{i + 1}:{v:.17g}" for i, v in zip(X.indices[lo:hi], X.data[lo:hi]))])
        .encode() + b"\n"
        for j, (lo, hi) in enumerate(zip(X.indptr[:-1], X.indptr[1:]))
    ]


def read_runs(l1pca, out: dict) -> None:
    """``read_sparse_labeled`` on each of ``READ_SCALES``' files, as written, with each of
    ``READ_SPLICES`` spliced in at four places, one of them at the first block cut, with each
    of ``READ_LINE_ENDS``, and as each of ``READ_SIGNS``' copies."""

    def parsed(path):
        inst = l1pca.data.read_sparse_labeled(path)
        return {"shape": inst.X.shape, "data": inst.X.data, "indices": inst.X.indices, "indptr": inst.X.indptr,
                "labels": inst.labels}

    rng = np.random.default_rng(17)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.txt"
        for scale in READ_SCALES:
            X = sp.random(50, 3000, density=0.35, format="csc", rng=rng, data_rvs=rng.standard_normal) * scale
            X.data[::37], X.data[1::37] = 0.0, -0.0  # stored zeros of both signs
            labels = rng.integers(-2, 3, 3000) * 0.5
            labels[::23] = -0.0
            lines = _sparse_text(X, labels)
            path.write_bytes(b"".join(lines))
            out[f"read/{scale:g}"] = _digest(lambda: parsed(path))
            for name, end in READ_LINE_ENDS.items():
                path.write_bytes(b"".join(lines).replace(b"\n", end))
                out[f"read/{scale:g}/{name}"] = _digest(lambda: parsed(path))
            for name, signed in READ_SIGNS.items():
                text = signed(b"".join(lines))
                path.write_bytes(text)
                out[f"read/{scale:g}/{name}"] = _digest(lambda: parsed(path))
                path.write_bytes(text.replace(b"\n", READ_LINE_ENDS["space_crlf_lines"]))
                out[f"read/{scale:g}/{name}/space_crlf_lines"] = _digest(lambda: parsed(path))
            cut = int(np.cumsum([len(line) for line in lines]).searchsorted(READ_CUT, side="right")) + 1
            for name, line in READ_SPLICES.items():
                for at in (0, cut, len(lines) // 2, len(lines)):
                    path.write_bytes(b"".join([*lines[:at], line.encode(), *lines[at:]]))
                    out[f"read/{scale:g}/{name}/{at}"] = _digest(lambda: parsed(path))


def _agree(parent, change) -> bool:
    """Two ``--fields`` values agree: identical, or solve fields identical but a
    final_objective that moved by at most ``OBJECTIVE_REL_TOL`` relative."""
    if parent == change:
        return True
    if not (isinstance(parent, dict) and isinstance(change, dict) and "final_objective" in parent):
        return False
    rest = [{k: v for k, v in f.items() if k != "final_objective"} for f in (parent, change)]
    if rest[0] != rest[1] or "final_objective" not in change:
        return False
    a, b = float.fromhex(parent["final_objective"]), float.fromhex(change["final_objective"])
    return abs(a - b) <= OBJECTIVE_REL_TOL * abs(a)


def _moved(key: str, parent, change) -> list[str]:
    """What moved between two ``--fields`` values of the run ``key``: "metric values"
    off the solve grid, else the names of the ``SOLVE_FIELDS`` that differ, or
    "solve errors" where either solve raised."""
    if parent == change:
        return []
    if not key.startswith("solve/"):
        return ["metric values"]
    if all(isinstance(v, dict) and "P_final" in v for v in (parent, change)):
        return [name for name in SOLVE_FIELDS if parent.get(name) != change.get(name)]
    return ["solve errors"]


def compare(parent_path: str, change_path: str) -> int:
    """Print the runs of two ``--fields`` files that disagree, then what moved, by name.

    Returns 0 when none disagrees, else 1.
    """
    parent, change = (json.loads(Path(p).read_text()) for p in (parent_path, change_path))
    bad = sorted(parent.keys() ^ change.keys())
    for key in bad:
        print(f"{key}: only in {'parent' if key in parent else 'change'}")
    moved = dict.fromkeys((*SOLVE_FIELDS, "solve errors", "metric values"), 0)
    differ = 0
    for key in sorted(parent.keys() & change.keys()):
        if not _agree(parent[key], change[key]):
            bad.append(key)
            print(f"{key}: {parent[key]} != {change[key]}")
        differ += parent[key] != change[key]
        for name in _moved(key, parent[key], change[key]):
            moved[name] += 1
    by_name = ", ".join(f"{name} {count}" for name, count in moved.items())
    print(f"{len(parent.keys() & change.keys())} runs compared, {differ} differ ({by_name}), {len(bad)} disagree")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    fields = argv[:1] == ["--fields"]
    if fields:
        argv = argv[1:]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    import l1pca
    import l1pca.data
    import l1pca.linalg
    import l1pca.metrics
    import l1pca.model
    import l1pca.solvers
    import l1pca.verify

    print(f"l1pca from {Path(l1pca.__file__).parent}", file=sys.stderr)
    out: dict = {}
    if fields:
        solve_runs(l1pca, out, _fields, certify=False)
        metric_runs(l1pca, out, _value)
        norm_runs(l1pca, out, _value)
    else:
        for runs in (solve_runs, zero_runs, refused_runs, kernel_runs, oracle_runs, top_runs, suite_runs,
                     generator_runs, metric_runs, norm_runs, read_runs):
            runs(l1pca, out)
    print(json.dumps(out, indent=0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
