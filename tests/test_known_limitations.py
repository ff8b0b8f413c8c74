"""Known defects (ROADMAP items 1, 2 and 18), pinned as strict xfails, and the fpm finishing
recipe that README's "Known limitations" section gives for them (item 19).

Every case is the 20x40 Gaussian of ``default_rng(0)``, K = 3, started from ``draw_start``
seed 1.  Each xfail asserts the correct behaviour, so it fails today; the change that mends
its item turns it into a pass, which ``strict=True`` reports until the mark goes.
"""

import numpy as np
import pytest

from l1pca import ProblemInstance, SolverConfig, criticality_report, draw_start, solve, theorem_config
from l1pca.linalg import frob

#: README's finishing recipe: fpm from a run's final pair until it stops at an L1 fixed point
FINISH = SolverConfig(method="fpm", tol=1e-300, max_iter=10000)


def _case(scale=1.0):
    X = np.random.default_rng(0).standard_normal((20, 40)) * scale
    inst = ProblemInstance(X, 3)
    return inst, *draw_start(inst, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 18: the L1 certificate fires at a random start")
def test_certificate_needs_criticality():
    inst, P0, Q0 = _case()
    report = criticality_report(inst.X, P0, Q0, alpha_star=1e-9)
    # l1_residual / frob(X) reads 1.65 here: the start is nowhere near critical
    assert not report.certified_critical_for_l1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: theorem_config never moves the sign block")
def test_theorem_run_moves_P():
    inst, P0, Q0 = _case()
    res = solve(inst, theorem_config(inst.X), P0, Q0)
    # today: 64 iterations, stopped at tol with P_final == P0, objective 116.28
    assert not np.array_equal(res.P_final, P0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2: converged=True at a tiny scale after one small step")
def test_converged_means_critical_at_any_scale():
    inst, P0, Q0 = _case(1e-160)
    res = solve(inst, SolverConfig(), P0, Q0)
    report = criticality_report(inst.X, res.P_final, res.Q_final, alpha_star=1e-4)
    # today: 1 iteration, stopped at tol with converged=True, l1_residual / frob(X) 1.65
    assert not res.converged or report.l1_residual / frob(inst.X) <= 1e-6


def _finished(inst, res, iterations, objective):
    """The recipe from ``res``'s final pair: an exact L1 fixed point that keeps what the run found."""
    fin = solve(inst, FINISH, res.P_final, res.Q_final)
    M = inst.X.T @ fin.Q_final
    assert fin.termination_reason == "fixed_point"
    assert np.all(M != 0.0) and np.array_equal(fin.P_final, np.sign(M))
    assert fin.final_objective >= res.final_objective
    assert fin.iterations == iterations
    assert fin.final_objective == pytest.approx(objective, rel=1e-6)


def test_finish_after_the_theorem_run():
    inst, P0, Q0 = _case()
    res = solve(inst, theorem_config(inst.X), P0, Q0)
    assert res.final_objective == pytest.approx(116.28075, rel=1e-6)
    _finished(inst, res, 6, 148.8449)


def test_finish_after_the_tiny_scale_run():
    inst, P0, Q0 = _case(1e-160)
    res = solve(inst, SolverConfig(), P0, Q0)
    assert res.final_objective == pytest.approx(88.34812e-160, rel=1e-6)
    _finished(inst, res, 4, 133.1413e-160)
