"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Each workload has a ``setup(seed, workdir)`` that builds the inputs from the
workload seed (the library only ever sees the generated inputs), an
``op(state, op_seed)`` that is the timed unit of work, and a
``check(state, out)`` that runs after the op, untimed, and returns an
:class:`OpCheck`.  ``min_ops`` ops always run, so ``iters_per_op`` and
``quality`` are taken over the same fixed set of op seeds on every commit.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from l1pca import cli, data, solvers, verify
from l1pca.linalg import frob, stiefel_residual
from l1pca.metrics import tev
from l1pca.model import ProblemInstance, subgrad_dist_h
from l1pca.solvers import METHODS, SolverConfig, solve

# Setups and ops call the library through its module attributes, so that a
# traced run sees these calls where the tracer rebinds them.  Checks run
# after the op, untraced.

#: acceptance limits applied to every solve an op makes
STIEFEL_TOL = 1e-8
REL_SUBGRAD_TOL = 1e-6
#: The dense workloads solve one fixed data instance and draw their starts
#: from the workload seed.  spectral_norm's power-iteration count follows
#: the instance's sigma_2/sigma_1 gap: over data seeds 1-8 of the
#: large-theorem shape it took 0.39-3.0 s, which would swamp every timing's
#: spread across workload seeds.
DATA_SEED = 0
#: oracle_suite's own defaults for the criticality and match-rate gates
ORACLE_SUBGRAD_TOL = 1e-6
ORACLE_MIN_MATCH_RATE = 0.8


@dataclass
class OpCheck:
    """Outcome of one op's output check."""

    ok: bool
    iters: int | None
    quality: float
    reason: str = ""


@dataclass
class Workload:
    name: str
    min_ops: int
    setup: Callable[[int, Path], dict]
    op: Callable[[dict, int], object]
    check: Callable[[dict, object], OpCheck]
    #: run-level gate on the mean quality over all ops of a run
    min_mean_quality: float = 0.0
    #: parts of the reference pass (reference.py) that op times are divided by
    reference: tuple[str, ...] = ("tiny_svd", "small_blas", "stream", "parse", "sparse")


def _solve_problems(X, P, Q, converged: bool, subgrad: float | None = None) -> list[str]:
    """Acceptance checks shared by every solve: frame, signs, stop, criticality."""
    problems = []
    res = stiefel_residual(Q)
    if not res <= STIEFEL_TOL:
        problems.append(f"stiefel_residual {res:.3e} > {STIEFEL_TOL:g}")
    if not np.all(np.abs(P) == 1.0):
        problems.append("P has entries other than +-1")
    if not converged:
        problems.append("not converged")
    if subgrad is None:
        subgrad = subgrad_dist_h(X, P, Q)
    rel = subgrad / frob(X)
    if not rel <= REL_SUBGRAD_TOL:
        problems.append(f"subgrad_dist_h/||X||_F {rel:.3e} > {REL_SUBGRAD_TOL:g}")
    return problems


def _verdict(problems: list[str], iters: int | None, quality: float) -> OpCheck:
    return OpCheck(ok=not problems, iters=iters, quality=quality, reason="; ".join(problems))


# ---------------------------------------------------------------------------
# desk-compare: all six methods with the paper flags at desk scale


def _desk_setup(seed: int, workdir: Path) -> dict:
    X, _, _ = data.gen_fixed_effect(data.FixedEffectSpec(n=500, d=200, K=10, sigma=0.5, seed=DATA_SEED))
    configs = [
        SolverConfig(method=m, alpha=1e-4, beta=1.0, gamma=0.8, tol=1e-8, max_iter=2000) for m in METHODS
    ]
    return {"inst": ProblemInstance(X, 10), "configs": configs}


def _desk_op(state: dict, op_seed: int):
    return solvers.run_comparison(state["inst"], state["configs"], seed=op_seed)


def _desk_check(state: dict, outcomes) -> OpCheck:
    X = state["inst"].X
    problems = []
    if len(outcomes) != len(METHODS):
        problems.append(f"{len(outcomes)} outcomes for {len(METHODS)} methods")
    objectives = []
    iters = 0
    for oc in outcomes:
        if oc.result is None:
            problems.append(f"{oc.method}: {oc.error}")
            continue
        r = oc.result
        problems += [f"{oc.method}: {p}" for p in _solve_problems(X, r.P_final, r.Q_final, r.converged)]
        objectives.append(r.final_objective)
        iters += r.iterations
    quality = float(np.mean(objectives) / max(objectives)) if objectives else 0.0
    return _verdict(problems, iters, quality)


# ---------------------------------------------------------------------------
# large-theorem: the certified-solve path at n=2000, d=500, K=20


def _large_setup(seed: int, workdir: Path) -> dict:
    X, _, _ = data.gen_fixed_effect(data.FixedEffectSpec(n=2000, d=500, K=20, sigma=0.5, seed=DATA_SEED))
    return {"inst": ProblemInstance(X, 20)}


def _large_op(state: dict, op_seed: int):
    inst = state["inst"]
    cfg = solvers.theorem_config(inst.X)
    P0, Q0 = solvers.draw_start(inst, op_seed)
    res = solvers.solve(inst, cfg, P0, Q0)
    audit = verify.decrease_and_error_audit(res)
    crit = verify.criticality_report(inst.X, res.P_final, res.Q_final, alpha_star=cfg.alpha)
    return res, audit, crit


def _large_check(state: dict, out) -> OpCheck:
    res, audit, crit = out
    X = state["inst"].X
    # criticality_report's h_residual is subgrad_dist_h at the final pair
    problems = _solve_problems(X, res.P_final, res.Q_final, res.converged, subgrad=crit.h_residual)
    if not audit.passed:
        problems.append(
            f"audit failed: {audit.violations_decrease} decrease and "
            f"{audit.violations_relative_error} relative-error violations"
        )
    return _verdict(problems, res.iterations, tev(X, res.Q_final))


# ---------------------------------------------------------------------------
# oracle-tiny: one 4096-candidate enumeration plus 20 tiny solves


def _oracle_setup(seed: int, workdir: Path) -> dict:
    # The suite's report carries no iteration counts, so count them where
    # verify binds ``solve``; the cost is one Python call per solve.
    counter = {"iters": 0}

    @functools.wraps(solve)
    def counting_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        counter["iters"] += res.iterations
        return res

    verify.solve = counting_solve
    return {"counter": counter}


def _oracle_op(state: dict, op_seed: int):
    state["counter"]["iters"] = 0
    rep = verify.oracle_suite(instances=1, restarts=20, n=6, d=5, K=2, seed=op_seed)
    return rep, state["counter"]["iters"]


def _oracle_check(state: dict, out) -> OpCheck:
    rep, iters = out
    # With one instance per op, a best-of-20 miss of the global value is the
    # heuristic's quality, not an error: it is reported as ``quality`` and
    # gated over the run's instances at the suite's own minimum match rate.
    # Dominance and criticality must hold on every op.
    problems = []
    if rep.violations:
        problems.append(f"{rep.violations} solver values above the oracle value")
    worst = rep.details["worst_subgrad_dist"]
    if not worst <= ORACLE_SUBGRAD_TOL:
        problems.append(f"worst subgrad_dist_h {worst:.3e} > {ORACLE_SUBGRAD_TOL:g}")
    return _verdict(problems, iters, float(rep.details["match_rate"]))


# ---------------------------------------------------------------------------
# cluster-sparse: the CLI's cluster command on a sparse labeled text file

SPARSE_N, SPARSE_D, SPARSE_CLUSTERS = 3000, 1500, 5
#: per cluster: features it uses, and the chance a sample sets each of them
TOPIC_FEATURES, TOPIC_P = 80, 0.95
#: background features set per sample, anywhere in the feature range
NOISE_PER_SAMPLE = 14


def sparse_clusters(seed: int) -> tuple[sp.csc_matrix, np.ndarray]:
    """Seeded d x n sparse data with five clusters on disjoint feature sets.

    About 6% of entries are nonzero.  Topic entries are uniform on
    [0.5, 1.5] and background entries uniform on [0, 0.2], so the five
    cluster directions hold about 88% of the variation and
    ``--auto-K`` at its default 0.8 threshold picks K = 5.
    """
    rng = np.random.default_rng([seed, 0xC1A5])
    labels = np.repeat(np.arange(1, SPARSE_CLUSTERS + 1), SPARSE_N // SPARSE_CLUSTERS)
    rng.shuffle(labels)
    topics = rng.permutation(SPARSE_D)[: SPARSE_CLUSTERS * TOPIC_FEATURES].reshape(SPARSE_CLUSTERS, TOPIC_FEATURES)
    hit = rng.random((SPARSE_N, TOPIC_FEATURES)) < TOPIC_P
    cols_t, slot = np.nonzero(hit)
    rows_t = topics[labels[cols_t] - 1, slot]
    vals_t = rng.uniform(0.5, 1.5, rows_t.size)
    cols_n = np.repeat(np.arange(SPARSE_N), NOISE_PER_SAMPLE)
    rows_n = rng.integers(0, SPARSE_D, cols_n.size)
    vals_n = rng.uniform(0.0, 0.2, cols_n.size)
    X = sp.coo_matrix(
        (np.concatenate([vals_t, vals_n]), (np.concatenate([rows_t, rows_n]), np.concatenate([cols_t, cols_n]))),
        shape=(SPARSE_D, SPARSE_N),
    ).tocsc()
    X.sum_duplicates()
    return X, labels.astype(np.float64)


def _cluster_setup(seed: int, workdir: Path) -> dict:
    X, labels = sparse_clusters(seed)
    path = workdir / f"cluster-sparse-{os.getpid()}.txt"
    data.write_sparse_labeled(path, X, labels)
    return {"path": path}


def _cluster_op(state: dict, op_seed: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["cluster", "--input", str(state["path"]), "--auto-K", "--seed", str(op_seed)])
    return code, buf.getvalue()


def _cluster_check(state: dict, out) -> OpCheck:
    code, text = out
    if code != 0:
        return OpCheck(ok=False, iters=None, quality=0.0, reason=f"exit code {code}")
    payload = json.loads(text)
    problems = [] if payload["converged"] else ["not converged"]
    return _verdict(problems, int(payload["iterations"]), float(payload["accuracy"]))


def cleanup(state: dict) -> None:
    """Remove files a setup wrote."""
    if "path" in state:
        state["path"].unlink(missing_ok=True)


# min_ops is sized so the fixed op set takes about 15 s on the seed code
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-compare", 8, _desk_setup, _desk_op, _desk_check),
        # BLAS calls on the 8 MB X (power iteration, products) dominate this
        # op, and they slow less than interpreter-bound work when the host is
        # busy: the full pass over-corrects (spread 0.14 against 0.05 over
        # 20-second windows), so its reference is BLAS work only
        Workload("large-theorem", 4, _large_setup, _large_op, _large_check, reference=("small_blas", "stream", "matvec")),
        Workload("oracle-tiny", 20, _oracle_setup, _oracle_op, _oracle_check, ORACLE_MIN_MATCH_RATE),
        Workload("cluster-sparse", 8, _cluster_setup, _cluster_op, _cluster_check),
    )
}
