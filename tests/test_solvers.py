import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counting_products, make_instance, make_start
from l1pca.errors import DegenerateUpdateError, DivergedError, PreconditionError
from l1pca import linalg, solvers
from l1pca.linalg import polar_factor, random_stiefel, seeded_rng, spectral_norm, stiefel_residual
from l1pca.model import ProblemInstance, objective_h, objective_l1, sign_select
from l1pca.solvers import (
    METHODS,
    SolverConfig,
    _nesterov_restart_gamma,
    draw_start,
    fpm_solve,
    gipalm_solve,
    ipalm_solve,
    pam_solve,
    pame_solve,
    pdcae_solve,
    resolve_config,
    run_comparison,
    solve,
    theorem_config,
)
from l1pca.verify import decrease_and_error_audit, enumerate_oracle

SQRT2 = np.sqrt(2.0)


def _spy_fixed_point_tests(monkeypatch):
    """Record what each fixed-point test's polar_factor(X P, complete=False) returns."""
    seen = []
    real = solvers.polar_factor

    def spy(M, complete=True):
        out = real(M, complete)
        if not complete:
            seen.append(out)
        return out

    monkeypatch.setattr(solvers, "polar_factor", spy)
    return seen


def _assert_exact_fixed_point(X, res):
    """P = sign(X^T Q) with no zero entry, and Q the unique polar factor of a full-rank X P."""
    assert np.all((X.T @ res.Q_final) * res.P_final > 0.0)
    Q_star = polar_factor(X @ res.P_final, complete=False)
    assert Q_star is not None and np.array_equal(res.Q_final, Q_star)
    assert res.final_objective == float(np.abs(X.T @ res.Q_final).sum())


def _xp_steps(res):
    """The iterations that formed X P_new: the first, and each later one that flipped a sign."""
    return sum(1 for k, flips in enumerate(res.trace.sign_flips[1:]) if k == 0 or flips)


def _eye2_instance():
    return ProblemInstance(np.eye(2), 1)


def _trace_tuple(trace):
    # everything except wall_time, which is inherently nondeterministic
    return (trace.k, trace.h_value, trace.psi_value, trace.delta_P_norm, trace.delta_Q_norm, trace.delta_C_norm)


class TestPame:
    def test_zero_data_one_iteration(self):
        inst = ProblemInstance(np.zeros((2, 2)), 1)
        cfg = SolverConfig(method="pame", alpha=1e-3, beta=1.0, gamma=0.0, tol=1e-8)
        res = solve(inst, cfg, np.ones((2, 1)), np.array([[1.0], [0.0]]))
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.P_final, np.ones((2, 1)))
        assert np.allclose(res.Q_final, [[1.0], [0.0]])
        assert res.final_objective == 0.0

    def test_identity_reaches_global_value(self):
        # oracle gives the global value sqrt(2) for X = I_2, K = 1
        inst = _eye2_instance()
        oracle = enumerate_oracle(inst.X, 1)
        assert oracle.value == pytest.approx(SQRT2, abs=1e-12)
        cfg = SolverConfig(method="pame", alpha=1e-3, beta=1.0, gamma=0.0, tol=1e-11, max_iter=2000)
        res = solve(inst, cfg, np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert res.converged
        assert res.final_objective == pytest.approx(oracle.value, abs=1e-8)

    def test_theorem_mode_sufficient_decrease(self):
        inst = make_instance(40, 15, 3, seed=1)
        cfg = theorem_config(inst.X, method="pame", tol=1e-9, max_iter=400)
        P0, Q0 = make_start(inst, seed=2)
        res = solve(inst, cfg, P0, Q0)
        assert res.converged
        info = res.audit_info
        assert info is not None
        kappa1 = min(info["alpha_star"] * (1 - info["gamma_sup"]) / 2, info["beta_star"] / 4)
        tr = res.trace
        for i in range(1, len(tr)):
            drop = tr.psi_value[i] - tr.psi_value[i - 1]
            assert drop <= -kappa1 * tr.delta_C_norm[i] ** 2 + 1e-10

    def test_fixed_point_inclusion_at_limit(self):
        inst = make_instance(12, 6, 2, seed=3)
        alpha = 1e-5
        cfg = SolverConfig(method="pame", alpha=alpha, beta=1.0, gamma=0.0, tol=1e-11, max_iter=4000)
        P0, Q0 = make_start(inst, seed=4)
        res = solve(inst, cfg, P0, Q0)
        assert res.converged
        P, Q = res.P_final, res.Q_final
        assert np.array_equal(P, sign_select(P + (inst.X.T @ Q) / alpha, P))

    def test_iterates_stay_feasible(self):
        inst = make_instance(20, 8, 3, seed=5)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.7, tol=1e-10, max_iter=500)
        P0, Q0 = make_start(inst, seed=6)
        seen = []
        solve(inst, cfg, P0, Q0, callback=lambda k, P, Q: seen.append((P.copy(), Q.copy())))
        assert seen
        for P, Q in seen:
            assert stiefel_residual(Q) <= 1e-8
            assert np.all(np.abs(P) == 1.0)

    def test_infeasible_start_rejected(self):
        inst = _eye2_instance()
        cfg = SolverConfig(method="pame")
        with pytest.raises(PreconditionError):
            solve(inst, cfg, np.ones((2, 1)), np.array([[2.0], [0.0]]))
        with pytest.raises(PreconditionError):
            solve(inst, cfg, np.full((2, 1), 0.5), np.array([[1.0], [0.0]]))


class TestPam:
    def test_bit_identical_to_pame_gamma_zero(self):
        inst = make_instance(15, 7, 2, seed=7)
        P0, Q0 = make_start(inst, seed=8)
        cfg = SolverConfig(alpha=1e-4, beta=1.0, gamma=0.0, tol=1e-10, max_iter=300)
        r1 = pame_solve(inst, cfg, P0, Q0)
        r2 = pam_solve(inst, cfg, P0, Q0)
        assert _trace_tuple(r1.trace) == _trace_tuple(r2.trace)
        assert np.array_equal(r1.Q_final, r2.Q_final)
        assert np.array_equal(r1.P_final, r2.P_final)

    def test_identity_reaches_global_value(self):
        inst = _eye2_instance()
        cfg = SolverConfig(alpha=1e-3, beta=1.0, tol=1e-11, max_iter=2000)
        for seed in range(4):
            P0, Q0 = draw_start(inst, seed)
            res = pam_solve(inst, cfg, P0, Q0)
            assert res.final_objective == pytest.approx(SQRT2, abs=1e-8)

    def test_monotone_h(self):
        inst = make_instance(25, 10, 2, seed=9)
        cfg = theorem_config(inst.X, method="pam", tol=1e-9, max_iter=400)
        P0, Q0 = make_start(inst, seed=10)
        res = pam_solve(inst, cfg, P0, Q0)
        h = res.trace.h_value
        assert all(b <= a + 1e-10 for a, b in zip(h, h[1:]))


class TestFpm:
    def test_fixed_point_returns_immediately(self):
        inst = make_instance(10, 5, 2, seed=11)
        cfg = SolverConfig(method="fpm", tol=1e-9, max_iter=200)
        P0, Q0 = make_start(inst, seed=12)
        first = fpm_solve(inst, cfg, P0, Q0)
        again = fpm_solve(inst, cfg, first.P_final, first.Q_final)
        assert again.converged and again.iterations == 1

    def test_identity_reaches_global_value(self):
        inst = _eye2_instance()
        cfg = SolverConfig(method="fpm", tol=1e-11, max_iter=500)
        res = fpm_solve(inst, cfg, np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert res.final_objective == pytest.approx(SQRT2, abs=1e-10)

    def test_objective_nondecreasing(self):
        inst = make_instance(30, 9, 3, seed=13)
        cfg = SolverConfig(method="fpm", tol=1e-10, max_iter=300)
        P0, Q0 = make_start(inst, seed=14)
        values = [objective_l1(inst.X, Q0)]
        fpm_solve(inst, cfg, P0, Q0, callback=lambda k, P, Q: values.append(objective_l1(inst.X, Q)))
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_degenerate_update(self):
        inst = ProblemInstance(np.zeros((2, 2)), 1)
        cfg = SolverConfig(method="fpm")
        with pytest.raises(DegenerateUpdateError):
            fpm_solve(inst, cfg, np.ones((2, 1)), np.array([[1.0], [0.0]]))


class TestPdcae:
    def test_restart_schedule_resets(self):
        gamma = _nesterov_restart_gamma(10)
        values = [gamma(k) for k in range(25)]
        assert values[0] == 0.0 and values[10] == 0.0 and values[20] == 0.0
        assert all(v > 0 for v in values[1:10])
        # momentum grows within a window and repeats across windows
        assert values[1] < values[5] < values[9] < 1.0
        assert values[3] == pytest.approx(values[13])

    def test_identity_reaches_global_value(self):
        inst = _eye2_instance()
        cfg = SolverConfig(method="pdcae", beta=1.0, gamma=0.0, tol=1e-11, max_iter=2000,
                           method_params={"use_config_gamma": True})
        res = pdcae_solve(inst, cfg, np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert res.final_objective == pytest.approx(SQRT2, abs=1e-8)

    def test_zero_data_immediately_stationary(self):
        inst = ProblemInstance(np.zeros((2, 2)), 1)
        cfg = SolverConfig(method="pdcae", beta=1.0, tol=1e-9)
        Q0 = np.array([[1.0], [0.0]])
        res = pdcae_solve(inst, cfg, np.ones((2, 1)), Q0)
        assert res.converged and res.iterations == 1
        assert np.allclose(res.Q_final, Q0)


class TestInertialVariants:
    def test_ipalm_first_steps_match_pam(self):
        # the (k-1)/(k+2) weight vanishes at k = 0 and k = 1
        inst = make_instance(14, 6, 2, seed=15)
        P0, Q0 = make_start(inst, seed=16)
        cfg = SolverConfig(alpha=1e-3, beta=1.0, tol=1e-12, max_iter=2)
        ri = ipalm_solve(inst, cfg, P0, Q0)
        rp = pam_solve(inst, cfg, P0, Q0)
        assert ri.trace.h_value[:3] == rp.trace.h_value[:3]
        assert ri.trace.delta_Q_norm[:3] == rp.trace.delta_Q_norm[:3]

    def test_ipalm_identity(self):
        inst = _eye2_instance()
        cfg = SolverConfig(method="ipalm", alpha=1e-3, beta=1.0, tol=1e-11, max_iter=2000)
        res = ipalm_solve(inst, cfg, np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert res.final_objective == pytest.approx(SQRT2, abs=1e-8)

    def test_gipalm_identity(self):
        inst = _eye2_instance()
        cfg = SolverConfig(method="gipalm", alpha=1e-3, beta=1.0, tol=1e-11, max_iter=2000)
        res = gipalm_solve(inst, cfg, np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert res.final_objective == pytest.approx(SQRT2, abs=1e-8)


class TestStepRules:
    """Each method's step, replayed by hand from its formula rather than from the rule table."""

    @staticmethod
    def _nesterov_weight(k):
        # t_0 = 1, t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2; the default restart (10) is not reached here
        t = [1.0]
        for _ in range(k + 1):
            t.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[-1] * t[-1])))
        return (t[k] - 1.0) / t[k + 1]

    @pytest.mark.parametrize("method", ["pame", "pam", "fpm", "pdcae", "ipalm", "gipalm"])
    def test_matches_manual_iteration(self, method):
        from l1pca.linalg import polar_factor

        # on this instance every weight but ipalm's sign-block one changes the result within
        # 3 iterations; that one only reinforces signs that just flipped
        inst = make_instance(30, 8, 3, seed=4)
        P0, Q0 = make_start(inst, seed=104)
        a, b, g = 0.2, 1.0, 0.6
        cfg = SolverConfig(method=method, alpha=a, beta=b, gamma=g, tol=1e-15, max_iter=3)
        res = solve(inst, cfg, P0, Q0)
        X = inst.X
        P, Q, Pp, Qp = P0.copy(), Q0.copy(), P0.copy(), Q0.copy()
        for k in range(3):
            if method == "pame":  # the sign step sees Q extrapolated by gamma
                Pn = sign_select(P + (X.T @ (Q + g * (Q - Qp))) / a, P)
                Qn = polar_factor(Q + (X @ Pn) / b)
            elif method == "pam":
                Pn = sign_select(P + (X.T @ Q) / a, P)
                Qn = polar_factor(Q + (X @ Pn) / b)
            elif method == "fpm":
                Pn = sign_select(X.T @ Q, P)
                Qn = polar_factor(X @ Pn)
            elif method == "pdcae":  # only the subspace anchor, Nesterov-extrapolated
                Pn = sign_select(X.T @ Q, P)
                Qn = polar_factor(Q + self._nesterov_weight(k) * (Q - Qp) + (X @ Pn) / b)
            else:  # both anchors extrapolated: (k-1)/(k+2) for ipalm, 1/2 and 1/4 for gipalm
                wp = wq = max(0.0, (k - 1.0) / (k + 2.0))
                if method == "gipalm":
                    wp, wq = 0.5, 0.25
                Pbar = P + wp * (P - Pp)
                Qbar = Q + wq * (Q - Qp)
                Pn = sign_select(Pbar + (X.T @ Qbar) / a, P)
                Qn = polar_factor(Qbar + (X @ Pn) / b)
            Pp, P, Qp, Q = P, Pn, Q, Qn
        assert res.iterations == 3
        assert np.array_equal(res.P_final, P)
        assert np.allclose(res.Q_final, Q, atol=1e-14)


def _spy_carried_steps(monkeypatch):
    """Count the polar steps that give X^T Q_new (``_polar_and_inverse`` returning a T)
    and the X^T (X P) products formed."""
    seen = {"carried": 0, "xtxp": 0}
    real_polar, real_prescaled = solvers._polar_and_inverse, solvers._prescaled

    def polar(A):
        out = real_polar(A)
        seen["carried"] += out[1] is not None
        return out

    def prescaled(M, norm):
        seen["xtxp"] += 1
        return real_prescaled(M, norm)

    monkeypatch.setattr(solvers, "_polar_and_inverse", polar)
    monkeypatch.setattr(solvers, "_prescaled", prescaled)
    return seen


def _stretch_instance():
    """The 20 x 40 Gaussian, K = 3, start 1: under theorem_config, 64 iterations and no sign flip."""
    inst = ProblemInstance(np.random.default_rng(0).standard_normal((20, 40)), 3)
    return inst, draw_start(inst, seed=1)


def _ill_conditioned(d=30, n=60):
    """A d x n X with singular values spaced evenly in log from 1 to 1e-10."""
    g = seeded_rng(61)
    U = np.linalg.qr(g.standard_normal((d, d)))[0]
    V = np.linalg.qr(g.standard_normal((n, d)))[0]
    return (U * np.logspace(0, -10, d)) @ V.T


def _zero_column(d=8, n=16):
    """A Gaussian d x n X whose first column is zero: X^T Q has a zero row for
    every Q, so no fixed-point test stops a run on it."""
    X = seeded_rng(0).standard_normal((d, n))
    X[:, 0] = 0.0
    return X


class TestCarriedProducts:
    """solve carries X^T Q: a flip-free stretch forms a bounded number of products with X, objectives exact."""

    @pytest.mark.parametrize(
        "method, theorem",
        [(m, False) for m in METHODS] + [("pame", True)],
        ids=[f"paper_flags-{m}" for m in METHODS] + ["theorem_config"],
    )
    def test_two_products_per_iteration(self, monkeypatch, method, theorem):
        # one X^T Q0; X P_new on the first iteration and on each later one
        # that flips a sign; X^T Q_new on every iteration that does not take
        # it from its polar step, and one X^T (X P) for each P that such a
        # step first sees; plus one X^T Q* per fixed-point test that finds
        # X P of full rank.  Theorem mode takes no test, and theorem_config
        # declares the norm it took from plain X
        inst = make_instance(60, 12, 3, seed=5)
        cfg = theorem_config(inst.X) if theorem else SolverConfig(method=method)
        P0, Q0 = make_start(inst, seed=6)
        ref = solve(inst, cfg, P0, Q0)
        tests = _spy_fixed_point_tests(monkeypatch)
        carried = _spy_carried_steps(monkeypatch)
        inst.X, counter = counting_products(inst.X)
        res = solve(inst, cfg, P0, Q0)
        assert res.iterations == ref.iterations > 2
        full_rank_tests = sum(Q_star is not None for Q_star in tests)
        direct = res.iterations - carried["carried"]
        assert counter["matmul"] == 1 + direct + _xp_steps(res) + carried["xtxp"] + full_rank_tests
        assert counter["X @"] == _xp_steps(res)
        if theorem:
            assert tests == [] and res.termination_reason == "tol"
            # no sign moves, so X P and X^T (X P) are formed once, and only
            # the first iteration takes X^T Q_new from X
            assert not any(res.trace.sign_flips) and res.iterations == 46
            assert carried == {"carried": 45, "xtxp": 1} and counter["matmul"] == 4
        else:
            assert full_rank_tests >= 1 and res.termination_reason == "fixed_point"

    def test_flip_free_stretch_count_is_constant(self, monkeypatch):
        # a 64-iteration flip-free stretch: X^T Q0, X P, X^T Q_1 and X^T (X P),
        # however far the run goes (63 steps take X^T Q_new from the polar
        # step, fewer than _CARRY_SPAN)
        inst, (P0, Q0) = _stretch_instance()
        cfg = theorem_config(inst.X)
        X = inst.X
        counts = []
        for max_iter in (16, cfg.max_iter):
            inst.X, counter = counting_products(X)
            res = solve(inst, replace(cfg, max_iter=max_iter), P0, Q0)
            counts.append((res.iterations, counter["matmul"]))
        assert counts == [(16, 4), (64, 4)]

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("method", METHODS)
    def test_objectives_match_recomputed(self, method, sparse):
        inst = make_instance(40, 10, 3, seed=7)
        if sparse:
            inst = ProblemInstance(sp.csc_matrix(inst.X), inst.K)
        P0, Q0 = make_start(inst, seed=8)
        iterates = [(P0, Q0)]
        cfg = SolverConfig(method=method, alpha=0.2, beta=1.0, gamma=0.6, tol=1e-10, max_iter=60)
        res = solve(inst, cfg, P0, Q0, callback=lambda k, P, Q: iterates.append((P, Q)))
        assert len(iterates) == len(res.trace) == res.iterations + 1
        for (P, Q), h in zip(iterates, res.trace.h_value):
            assert h == pytest.approx(objective_h(inst.X, P, Q), rel=1e-12, abs=0.0)
        assert res.final_objective == pytest.approx(objective_l1(inst.X, res.Q_final), rel=1e-12, abs=0.0)

    @staticmethod
    def _assert_objectives_exact(inst, cfg, rel=1e-12, callback=None):
        """Every h_value and final_objective within ``rel`` of objective_h / objective_l1 recomputed."""
        P0, Q0 = draw_start(inst, seed=1)
        iterates = [(P0, Q0)]

        def record(k, P, Q):
            iterates.append((P, Q))
            if callback is not None:
                callback(k, P, Q)

        res = solve(inst, cfg, P0, Q0, callback=record)
        for (P, Q), h in zip(iterates, res.trace.h_value):
            assert h == pytest.approx(objective_h(inst.X, P, Q), rel=rel, abs=0.0)
        assert res.final_objective == pytest.approx(objective_l1(inst.X, res.Q_final), rel=rel, abs=0.0)
        return res

    @pytest.mark.parametrize("method", ["pame", "pam"])
    @pytest.mark.parametrize("case", ["stretch", "ill_K5", "ill_Kmin"])
    def test_theorem_mode_objectives_exact(self, monkeypatch, case, method):
        # the 64-iteration stretch, and 500-iteration runs on an X with
        # singular values 1 to 1e-10, where X^T Q is carried for most steps
        if case == "stretch":
            inst = _stretch_instance()[0]
        else:
            X = _ill_conditioned()
            inst = ProblemInstance(X, 5 if case == "ill_K5" else min(X.shape))
        carried = _spy_carried_steps(monkeypatch)
        res = self._assert_objectives_exact(inst, theorem_config(inst.X, method=method))
        assert res.iterations == (64 if case == "stretch" else 500)
        assert carried["carried"] >= 0.9 * res.iterations

    def test_carried_span_bounds_the_drift(self, monkeypatch):
        # rounding in a carried X^T Q adds up along a flip-free stretch (h off
        # by 1.5e-10 after 2000 steps here with no span); taking X^T Q_new
        # from X once every _CARRY_SPAN steps holds h to roundoff
        inst = ProblemInstance(np.random.default_rng(0).standard_normal((30, 60)), 30)
        carried = _spy_carried_steps(monkeypatch)
        cfg = replace(theorem_config(inst.X, method="pam"), tol=1e-300, max_iter=2000)
        res = self._assert_objectives_exact(inst, cfg)
        assert res.iterations == 2000 and not any(res.trace.sign_flips)
        assert 0.9 * res.iterations <= carried["carried"] < res.iterations * solvers._CARRY_SPAN / (
            solvers._CARRY_SPAN + 1)

    @pytest.mark.parametrize("method", METHODS)
    def test_only_plain_procrustes_steps_carry(self, monkeypatch, method):
        # a step takes X^T Q_new from its polar step only when its input is
        # Q + X P / beta: a rule with a Q anchor, at an iteration whose Q
        # weight is 0.  So fpm and gipalm never carry, and pdcae and ipalm
        # (which extrapolated, and carried, on most steps here before) only
        # where their weight is 0
        X = _ill_conditioned()
        inst = ProblemInstance(X, min(X.shape))
        cfg = SolverConfig(method=method, beta=100.0, gamma=0.5, tol=1e-12, max_iter=500)
        carried = _spy_carried_steps(monkeypatch)
        counts = [0]
        self._assert_objectives_exact(inst, cfg, callback=lambda k, P, Q: counts.append(carried["carried"]))
        took = [k for k in range(len(counts) - 1) if counts[k + 1] > counts[k]]
        gq = resolve_config(cfg, X).weight_fns[2]
        assert all(solvers._RULES[method].prox_q and gq(k) == 0.0 for k in took)
        assert len(took) >= {"pame": 400, "pam": 400, "pdcae": 30}.get(method, 0)

    @pytest.mark.parametrize("method", ["pame", "pam", "pdcae"])
    def test_non_finite_carried_product_taken_from_X(self, monkeypatch, method):
        # a carried X^T Q_new that is not finite is formed from X instead, so
        # the run is the one that never carries
        inst = ProblemInstance(_zero_column(), 2)
        cfg = SolverConfig(method=method, gamma=0.5, tol=1e-12, max_iter=200)
        P0, Q0 = draw_start(inst, seed=1)

        def outcome():
            res = solve(inst, cfg, P0, Q0)
            return _trace_tuple(res.trace), res.P_final.tobytes(), res.Q_final.tobytes(), res.final_objective

        with monkeypatch.context() as m:
            m.setattr(solvers, "_CARRY_SPAN", 0)
            direct = outcome()
        carried = _spy_carried_steps(monkeypatch)
        monkeypatch.setattr(solvers, "_xt_polar", lambda *args: np.full((inst.n, inst.K), np.nan))
        assert outcome() == direct
        assert carried["carried"] > 0

    def test_fpm_takes_no_carried_step(self, monkeypatch):
        # fpm's fixed-point test fails on every P here, so its flip-free
        # stretch reaches a second iteration with a well-conditioned X P; its
        # step has no Q anchor, so it takes X^T Q_new from X, and h is exact
        carried = _spy_carried_steps(monkeypatch)
        cfg = SolverConfig(method="fpm", beta=3.0, tol=1e-12)
        res = self._assert_objectives_exact(ProblemInstance(_zero_column(), 2), cfg)
        assert res.iterations >= 3 and carried["carried"] == 0

    def test_subnormal_beta_takes_X_products(self, monkeypatch):
        # 1 / beta overflows for a subnormal beta, so each carried product is
        # inf and the run takes X^T Q_new from X, as if it never carried
        inst = make_instance(40, 20, 3, seed=9, scale=1e-30)
        cfg = SolverConfig(method="pam", beta=1e-310, tol=1e-12, max_iter=50)
        P0, Q0 = make_start(inst, seed=10)
        with monkeypatch.context() as m:
            m.setattr(solvers, "_CARRY_SPAN", 0)
            direct = solve(inst, cfg, P0, Q0)
        carried = _spy_carried_steps(monkeypatch)
        res = solve(inst, cfg, P0, Q0)
        assert carried["carried"] > 0 and res.converged
        assert _trace_tuple(res.trace) == _trace_tuple(direct.trace)
        assert res.final_objective == direct.final_objective

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("method", METHODS)
    def test_no_transposed_X_on_the_left(self, method, order):
        # every X^T Q goes through linalg._xt, which forms (Q^T X)^T on a
        # C-order X and keeps X.T @ Q on an F-order one
        inst = make_instance(60, 12, 3, seed=5)
        P0, Q0 = make_start(inst, seed=6)
        inst.X, counter = counting_products(np.asarray(inst.X, order=order))
        solve(inst, SolverConfig(method=method, gamma=0.5), P0, Q0)
        xt_products = counter["matmul"] - counter["X @"]
        assert xt_products >= 2
        assert counter["X.T @"] == (0 if order == "C" else xt_products)


class TestFixedPointStop:
    """After a flip-free iteration, solve stops at (P, polar(X P)) when that pair is a fixed point."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("method", METHODS)
    def test_stop_is_a_fixed_point(self, method, sparse):
        inst = make_instance(30, 8, 3, seed=41)
        if sparse:
            inst = ProblemInstance(sp.csc_matrix(inst.X), inst.K)
        cfg = SolverConfig(method=method, gamma=0.5, tol=1e-10, max_iter=3000)
        stops = 0
        for seed in range(3):
            P0, Q0 = make_start(inst, seed=seed)
            res = solve(inst, cfg, P0, Q0)
            if res.termination_reason != "fixed_point":
                continue
            stops += 1
            assert res.converged
            _assert_exact_fixed_point(inst.X, res)
            again = solve(inst, cfg, res.P_final, res.Q_final)
            assert again.iterations == 1 and again.trace.sign_flips == [0, 0]
            assert np.array_equal(again.P_final, res.P_final)
            assert np.max(np.abs(again.Q_final - res.Q_final)) <= 1e-12
        assert stops >= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_rank_deficient_XP_never_tested(self, monkeypatch, method):
        # X of rank 1 and K = 2: X P never has full rank, so every test is
        # skipped before completion; only fpm's own polar steps complete,
        # one per iteration
        g = seeded_rng(43)
        inst = ProblemInstance(np.outer(g.standard_normal(6), g.standard_normal(9)), 2)
        P0, Q0 = make_start(inst, seed=44)
        tests = _spy_fixed_point_tests(monkeypatch)
        completions = []
        real = linalg.complete_orthonormal
        monkeypatch.setattr(linalg, "complete_orthonormal", lambda U, n: completions.append(n) or real(U, n))
        res = solve(inst, SolverConfig(method=method, gamma=0.5, max_iter=50), P0, Q0)
        assert res.termination_reason != "fixed_point"
        assert tests and all(Q_star is None for Q_star in tests)
        assert len(completions) == (res.iterations if method == "fpm" else 0)

    @pytest.mark.parametrize("method", ["pame", "pam"])
    def test_theorem_mode_takes_no_test(self, monkeypatch, method):
        tests = _spy_fixed_point_tests(monkeypatch)
        for seed in range(3):
            inst = make_instance(20, 6, 2, seed=seed)
            P0, Q0 = make_start(inst, seed=seed + 10)
            res = solve(inst, theorem_config(inst.X, method=method, tol=1e-9), P0, Q0)
            assert res.termination_reason == "tol"
        assert tests == []

    def test_oracle_tiny_shape_halves_iterations(self, monkeypatch):
        # the oracle suite's config on its smallest benchmark shape; with every
        # test answered "rank-deficient" the loop runs as if it had none
        g = seeded_rng(45)
        inst = ProblemInstance(g.standard_normal((5, 6)), 2)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.5, tol=1e-10, max_iter=3000)
        starts = [draw_start(inst, seed) for seed in range(10)]
        runs = [solve(inst, cfg, P0, Q0) for P0, Q0 in starts]
        monkeypatch.setattr(solvers, "polar_factor", lambda M, complete=True: polar_factor(M) if complete else None)
        walks = [solve(inst, cfg, P0, Q0) for P0, Q0 in starts]
        for run, walk in zip(runs, walks):
            assert np.array_equal(run.P_final, walk.P_final)
            assert run.iterations <= walk.iterations
        assert 2 * sum(r.iterations for r in runs) <= sum(w.iterations for w in walks)


class TestProcrustesStepOptimality:
    def test_prox_objective_not_beaten_by_candidates(self):
        inst = make_instance(10, 6, 2, seed=19)
        beta = 1.5
        cfg = SolverConfig(method="pam", alpha=1e-3, beta=beta, tol=1e-12, max_iter=5)
        P0, Q0 = make_start(inst, seed=20)
        states = []
        # callback sees the post-update state; rebuild (Q_prev, P_new, Q_new)
        prev = {"Q": Q0.copy()}

        def cb(k, P, Q):
            states.append((prev["Q"].copy(), P.copy(), Q.copy()))
            prev["Q"] = Q.copy()

        solve(inst, cfg, P0, Q0, callback=cb)
        rng = seeded_rng(21)

        def prox_value(Q, P_new, Q_prev):
            return -float(np.sum(P_new * (inst.X.T @ Q))) + 0.5 * beta * np.linalg.norm(Q - Q_prev) ** 2

        for Q_prev, P_new, Q_new in states:
            v_star = prox_value(Q_new, P_new, Q_prev)
            for _ in range(100):
                cand = random_stiefel(inst.d, inst.K, rng)
                assert v_star <= prox_value(cand, P_new, Q_prev) + 1e-10


class TestRunComparison:
    def test_singleton_matches_direct(self):
        inst = make_instance(12, 6, 2, seed=22)
        cfg = SolverConfig(method="pam", alpha=1e-4, beta=1.0, tol=1e-9, max_iter=300, seed=5)
        out = run_comparison(inst, [cfg])
        P0, Q0 = draw_start(inst, 5)
        direct = pam_solve(inst, cfg, P0, Q0)
        assert out[0].error is None
        assert np.array_equal(out[0].result.Q_final, direct.Q_final)

    def test_same_config_same_trace(self):
        inst = make_instance(12, 6, 2, seed=23)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.4, tol=1e-9, max_iter=300, seed=6)
        out = run_comparison(inst, [cfg, cfg])
        assert _trace_tuple(out[0].result.trace) == _trace_tuple(out[1].result.trace)

    def test_errors_do_not_abort_batch(self):
        inst = ProblemInstance(np.zeros((3, 3)), 1)
        cfgs = [SolverConfig(method="fpm"), SolverConfig(method="pame", alpha=1e-3, beta=1.0)]
        out = run_comparison(inst, cfgs, seed=1)
        assert out[0].error is not None and "Degenerate" in out[0].error
        assert out[1].error is None and out[1].result.converged

    def test_six_methods_shared_start(self):
        inst = make_instance(18, 8, 2, seed=24)
        methods = ["pame", "pam", "fpm", "pdcae", "ipalm", "gipalm"]
        cfgs = [SolverConfig(method=m, alpha=1e-4, beta=1.0, gamma=0.5, tol=1e-9, max_iter=2000) for m in methods]
        out = run_comparison(inst, cfgs, seed=7)
        assert [o.method for o in out] == methods
        assert all(o.result is not None and o.result.converged for o in out)
        start_h = {round(o.result.trace.h_value[0], 12) for o in out}
        assert len(start_h) == 1  # identical (P0, Q0)

    @pytest.mark.parametrize("seed", ["x", 1.5, math.nan, None])
    def test_malformed_seed_refused(self, seed):
        inst, _ = _gauss_20x40()
        with pytest.raises(PreconditionError, match="seed must be an integer of at least 0, got"):
            run_comparison(inst, [SolverConfig(seed=seed)])

    def test_numpy_integer_seed(self):
        inst, _ = _gauss_20x40()
        out = run_comparison(inst, [SolverConfig(seed=np.int64(1))])
        assert out[0].error is None
        assert np.array_equal(out[0].result.P_final, run_comparison(inst, [SolverConfig(seed=1)])[0].result.P_final)

    def test_theorem_mode_members_have_monotone_potential(self):
        inst = make_instance(40, 16, 3, seed=28)
        cfgs = [theorem_config(inst.X, method=m, tol=1e-8, max_iter=400) for m in ("pame", "pam")]
        cfgs += [SolverConfig(method=m, alpha=1e-4, beta=1.0, gamma=0.5, tol=1e-8, max_iter=2000)
                 for m in ("fpm", "pdcae", "ipalm", "gipalm")]
        out = run_comparison(inst, cfgs, seed=9)
        assert len(out) == 6 and all(o.result is not None for o in out)
        for oc in out[:2]:  # the audited schemes decrease their potential
            psi = oc.result.trace.psi_value
            assert all(b <= a + 1e-10 for a, b in zip(psi, psi[1:]))


class TestStorageEquivalence:
    def test_sparse_and_dense_data_agree(self):
        rng = seeded_rng(29)
        Xd = rng.standard_normal((10, 30))
        Xd[np.abs(Xd) < 0.7] = 0.0
        import scipy.sparse as sp

        inst_d = ProblemInstance(Xd, 2)
        inst_s = ProblemInstance(sp.csc_matrix(Xd), 2)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.5, tol=1e-10, max_iter=1000)
        P0, Q0 = make_start(inst_d, seed=30)
        rd = solve(inst_d, cfg, P0, Q0)
        rs = solve(inst_s, cfg, P0, Q0)
        assert rd.iterations == rs.iterations
        assert np.allclose(rd.Q_final, rs.Q_final, atol=1e-12)
        assert np.max(np.abs(np.asarray(rd.trace.h_value) - np.asarray(rs.trace.h_value))) <= 1e-12 * max(
            1.0, np.max(np.abs(rd.trace.h_value))
        )

    def test_result_invariants(self):
        inst = make_instance(12, 6, 2, seed=31)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, tol=1e-9, max_iter=2000)
        P0, Q0 = make_start(inst, seed=32)
        res = solve(inst, cfg, P0, Q0)
        assert res.converged
        if res.termination_reason == "tol":
            assert res.trace.delta_C_norm[-1] < cfg.tol
        else:
            assert res.termination_reason == "fixed_point"
            _assert_exact_fixed_point(inst.X, res)
        assert stiefel_residual(res.Q_final) <= 1e-8
        assert len(res.trace) <= cfg.max_iter + 1
        assert all(np.isfinite(res.trace.h_value))


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(PreconditionError):
            resolve_config(SolverConfig(method="nope"), np.eye(2))

    def test_theorem_mode_gamma_bound(self):
        X = np.eye(2)
        cfg = SolverConfig(method="pame", alpha=1e-5, beta=1e3, gamma=0.9, theorem_mode=True)
        with pytest.raises(PreconditionError, match="extrapolation bound"):
            resolve_config(cfg, X)

    def test_theorem_mode_beta_condition(self):
        X = np.eye(2)
        cfg = SolverConfig(method="pame", alpha=1.0, beta=1.0, beta_star=0.9, gamma=0.0, theorem_mode=True)
        with pytest.raises(PreconditionError, match="beta condition"):
            resolve_config(cfg, X)

    def test_theorem_mode_wrong_method(self):
        with pytest.raises(PreconditionError, match="pame/pam"):
            resolve_config(SolverConfig(method="fpm", theorem_mode=True), np.eye(2))

    def test_gamma_one_allowed_outside_theorem_mode(self):
        inst = make_instance(10, 5, 2, seed=25)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=1.0, tol=1e-9, max_iter=2000)
        P0, Q0 = make_start(inst, seed=26)
        res = solve(inst, cfg, P0, Q0)
        assert res.converged

    def test_callable_schedules(self):
        inst = make_instance(10, 5, 2, seed=27)
        cfg = SolverConfig(method="pame", alpha=lambda k: 1e-4, beta=lambda k: 1.0 + 0.1 * (k % 2),
                           gamma=lambda k: 0.3, tol=1e-9, max_iter=500)
        P0, Q0 = make_start(inst, seed=28)
        assert solve(inst, cfg, P0, Q0).converged

    def test_unknown_method_params_key(self):
        cfg = SolverConfig(method="pdcae", method_params={"restart_intervall": 3})
        message = r"unknown method_params keys \['restart_intervall'\]; known keys are \('restart_interval'"
        with pytest.raises(PreconditionError, match=message):
            resolve_config(cfg, np.eye(2))

    @pytest.mark.parametrize("method", METHODS)
    def test_method_params_shared_across_methods(self, method):
        # a key only another method reads is accepted, so one config serves all six
        params = {"restart_interval": 3, "use_config_gamma": False, "gamma_p": 0.3, "gamma_q": 0.6}
        resolve_config(SolverConfig(method=method, method_params=params), np.eye(2))

    def test_spectral_rel_tol_range(self):
        cfg = SolverConfig(method="pam", alpha=1.0, beta=2.0, theorem_mode=True, spectral_rel_tol=0.0)
        with pytest.raises(PreconditionError, match="spectral_rel_tol"):
            resolve_config(cfg, np.eye(2))


class TestStepSizeValidation:
    """A step size of a block with a proximal anchor must be finite and positive: a constant, or a callable's every value."""

    @staticmethod
    def _solve(**kw):
        inst = ProblemInstance(np.random.default_rng(0).standard_normal((20, 40)), 3)
        P0, Q0 = draw_start(inst, seed=1)
        return solve(inst, SolverConfig(tol=1e-8, max_iter=1000, **kw), P0, Q0)

    @pytest.mark.parametrize("value", [0.0, -1e-4, math.inf, math.nan])
    @pytest.mark.parametrize("method", ["pame", "pam", "ipalm", "gipalm"])
    def test_bad_alpha_rejected(self, method, value):
        with pytest.raises(PreconditionError, match="finite positive alpha"):
            self._solve(method=method, alpha=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("method", ["pame", "pam", "pdcae", "ipalm", "gipalm"])
    def test_bad_beta_rejected(self, method, value):
        with pytest.raises(PreconditionError, match="finite positive beta"):
            self._solve(method=method, beta=value)

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"alpha": lambda k: 0.0}, "alpha, got 0.0 at iteration 0"),
            ({"beta": lambda k: math.inf}, "beta, got inf at iteration 0"),
            ({"beta": lambda k: -1.0}, "beta, got -1.0 at iteration 0"),
            ({"alpha": lambda k: 1e-4 if k < 3 else math.nan}, "alpha, got nan at iteration 3"),
        ],
    )
    def test_bad_callable_rejected_at_its_iteration(self, schedule, message):
        with pytest.raises(PreconditionError, match=f"pame needs a finite positive {message}"):
            self._solve(method="pame", **schedule)

    def test_checked_callables_give_the_constants_trace(self):
        const = self._solve(alpha=1e-4, beta=1.0)
        sched = self._solve(alpha=lambda k: 1e-4, beta=lambda k: 1.0)
        assert _trace_tuple(sched.trace) == _trace_tuple(const.trace)
        assert np.array_equal(sched.Q_final, const.Q_final)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_tol_rejected(self, value):
        # tol=inf stopped after one iteration as converged, and tol=nan never stopped on tol
        inst = ProblemInstance(np.random.default_rng(0).standard_normal((20, 40)), 3)
        with pytest.raises(PreconditionError, match=f"pame needs a finite positive tol, got {value}"):
            solve(inst, SolverConfig(tol=value), *draw_start(inst, seed=1))

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"method": "pame", "gamma": math.inf}, "pame needs a finite gamma, got inf"),
            ({"method": "pame", "gamma": math.nan}, "pame needs a finite gamma, got nan"),
            ({"method": "pame", "gamma": "x"}, "pame needs a finite gamma, got 'x'"),
            ({"method": "pame", "gamma": lambda k: 0.5 if k < 2 else math.nan},
             "pame needs a finite gamma, got nan at iteration 2"),
            ({"method": "pdcae", "gamma": math.inf, "method_params": {"use_config_gamma": True}},
             "pdcae needs a finite gamma, got inf"),
            ({"method": "gipalm", "method_params": {"gamma_q": math.nan}}, "gipalm needs a finite gamma_q, got nan"),
            ({"method": "gipalm", "method_params": {"gamma_p": math.inf}}, "gipalm needs a finite gamma_p, got inf"),
            ({"method": "gipalm", "method_params": {"gamma_p": "x"}}, "gipalm needs a finite gamma_p, got 'x'"),
            ({"method": "pdcae", "method_params": {"restart_interval": "x"}},
             "pdcae needs a finite restart_interval, got 'x'"),
            ({"method": "pdcae", "method_params": {"restart_interval": math.inf}},
             "pdcae needs a finite restart_interval, got inf"),
            ({"method": "pdcae", "method_params": {"restart_interval": None}},
             "pdcae needs a finite restart_interval, got None"),
            ({"method": "pdcae", "method_params": {"restart_interval": 2.9}},
             "restart_interval must be an integer of at least 1, got 2.9"),
            ({"method": "pdcae", "method_params": {"restart_interval": 10.0}},
             "restart_interval must be an integer of at least 1, got 10.0"),
            ({"method": "pdcae", "method_params": {"restart_interval": True}},
             "restart_interval must be an integer of at least 1, got True"),
            ({"method": "pdcae", "gamma": 0.9, "method_params": {"use_config_gamma": "no"}},
             "pdcae needs a bool use_config_gamma, got 'no'"),
            ({"method": "pdcae", "method_params": {"use_config_gamma": 1}},
             "pdcae needs a bool use_config_gamma, got 1"),
        ],
    )
    def test_bad_weight_rejected(self, kw, message):
        # an extrapolation setting the rule reads must be a finite number
        with pytest.raises(PreconditionError, match=message):
            self._solve(**kw)

    @pytest.mark.parametrize(
        "params, numpy_params",
        [({"use_config_gamma": True}, {"use_config_gamma": np.bool_(True)}),
         ({"use_config_gamma": False, "restart_interval": 3}, {"use_config_gamma": np.bool_(False),
                                                               "restart_interval": np.int64(3)})],
        ids=["config_gamma", "restart_interval"],
    )
    def test_pdcae_numpy_params_accepted(self, params, numpy_params):
        plain = self._solve(method="pdcae", gamma=0.5, method_params=params)
        assert _trace_tuple(self._solve(method="pdcae", gamma=0.5, method_params=numpy_params).trace) == _trace_tuple(
            plain.trace)

    def test_unused_weights_unchecked(self):
        # pam and fpm read no gamma, pdcae reads it only with use_config_gamma,
        # and only gipalm reads gamma_p and gamma_q
        bad = {"gamma_p": "x", "gamma_q": math.nan}
        for method in ("pam", "fpm", "pdcae", "ipalm"):
            assert self._solve(method=method, gamma=math.inf, method_params=bad).converged
        assert self._solve(method="pame", method_params={"restart_interval": "x", **bad}).converged

    def test_unused_step_sizes_unchecked(self):
        # fpm has no anchors and pdcae no sign anchor, so their alpha (and fpm's beta) are never read
        assert self._solve(method="fpm", alpha=0.0, beta=math.inf).converged
        assert self._solve(method="pdcae", alpha=-1.0).converged
        assert self._solve(method="fpm", alpha=lambda k: 0.0, beta=lambda k: math.inf).converged


class TestTheoremModeRefusals:
    """Theorem mode refuses schedules outside the declared bounds: at set-up, or at the iteration that leaves them."""

    @staticmethod
    def _solve(make_cfg):
        inst = ProblemInstance(np.random.default_rng(0).standard_normal((20, 40)), 3)
        s = spectral_norm(inst.X)
        cfg = replace(make_cfg(s), theorem_mode=True, tol=1e-12, max_iter=20)
        return solve(inst, cfg, *draw_start(inst, seed=1))

    @pytest.mark.parametrize(
        "make_cfg, message",
        [
            (lambda s: SolverConfig(alpha=lambda k: s if k < 3 else 3.0 * s, beta=5.0 * s, alpha_star=s,
                                    alpha_sup=2.0 * s), r"alpha_3=\S+ outside its declared bounds"),
            (lambda s: SolverConfig(alpha=s, beta=lambda k: 5.0 * s * (k + 1), beta_star=s, beta_sup=6.0 * s),
             r"beta_1=\S+ outside its declared bounds"),
            (lambda s: SolverConfig(alpha=s, beta=5.0 * s, gamma=lambda k: 0.2 * k, gamma_sup=0.3),
             r"gamma_2=0.4 exceeds its declared bound"),
            (lambda s: SolverConfig(alpha=s, beta=5.0 * s, alpha_star=2.0 * s),
             r"alpha_0=\S+ outside its declared bounds"),
            (lambda s: SolverConfig(alpha=s, beta=lambda k: 5.0 * s, beta_sup=6.0 * s),
             "requires a declared beta_star for non-constant schedules"),
            (lambda s: SolverConfig(alpha=s, beta=5.0 * s, alpha_star=0.0), r"requires alpha_star > 0"),
        ],
        ids=["alpha_leaves_bounds", "beta_above_sup", "gamma_above_sup", "alpha_below_alpha_star",
             "callable_beta_without_beta_star", "alpha_star_not_positive"],
    )
    def test_refused(self, make_cfg, message):
        with pytest.raises(PreconditionError, match=f"theorem_mode.*{message}"):
            self._solve(make_cfg)


def _gauss_20x40():
    inst = ProblemInstance(np.random.default_rng(0).standard_normal((20, 40)), 3)
    return inst, draw_start(inst, seed=1)


class TestConfigNumbers:
    """resolve_config converts and checks every number a run reads, once; a setting the run does not read is never
    converted or called."""

    @staticmethod
    def _solve(**kw):
        inst, start = _gauss_20x40()
        return solve(inst, SolverConfig(**kw), *start)

    _THEOREM = dict(method="pame", alpha=1.0, beta=10.0, gamma=0.0, theorem_mode=True)

    @pytest.mark.parametrize(
        "bound, value",
        [("alpha_sup", math.nan), ("alpha_star", math.nan), ("beta_star", math.nan), ("gamma_sup", math.nan),
         ("alpha_sup", math.inf), ("beta_sup", math.inf)],
    )
    def test_non_finite_declared_bound_refused(self, bound, value):
        # these runs used to finish, and their audit passed with constants built from the non-finite bound
        with pytest.raises(PreconditionError, match=f"pame needs a finite {bound}, got {value}"):
            self._solve(**self._THEOREM, **{bound: value})

    def test_unread_alpha_never_called(self):
        # pdcae has no sign anchor, and fpm no anchor at all
        assert self._solve(method="pdcae", alpha=lambda k: 1 / 0).converged
        calls = []
        res = self._solve(method="fpm", alpha=lambda k: calls.append(k) or 1e-4, beta=lambda k: calls.append(k) or 1.0)
        assert res.converged and calls == []

    @pytest.mark.parametrize(
        "kw",
        [{"tol": "x"}, {"max_iter": "5"}, {"max_iter": 2.5}, {"max_iter": None},
         {**_THEOREM, "spectral_rel_tol": "x"}, {**_THEOREM, "alpha_star": "x"}, {**_THEOREM, "norm_upper": "x"}],
        ids=["tol", "max_iter_str", "max_iter_fractional", "max_iter_none", "spectral_rel_tol", "alpha_star",
             "norm_upper"],
    )
    def test_malformed_number_refused(self, kw):
        with pytest.raises(PreconditionError):
            self._solve(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [({"method": ["pame"]}, r"unknown method \['pame'\]"), ({"method": None}, "unknown method None"),
         ({"method_params": None}, "method_params must be a dict, got None"),
         ({"method_params": [("gamma_q", 0.1)]}, "method_params must be a dict"),
         ({"theorem_mode": "no"}, "pame needs a bool theorem_mode, got 'no'"),
         ({"theorem_mode": 1}, "pame needs a bool theorem_mode, got 1")],
        ids=["method_list", "method_none", "method_params_none", "method_params_pairs", "theorem_mode_str",
             "theorem_mode_int"],
    )
    def test_malformed_field_refused(self, kw, message):
        # these raised bare TypeErrors, and theorem_mode='no' ran a certified run
        with pytest.raises(PreconditionError, match=message):
            self._solve(**kw)

    def test_numpy_numbers_accepted(self):
        res = self._solve(tol=np.float64(1e-8), max_iter=np.int64(1000))
        assert res.converged
        assert self._solve(**{**self._THEOREM, "theorem_mode": np.bool_(True)}).audit_info is not None

    @pytest.mark.parametrize(
        "kw, message",
        [({"spectral_rel_tol": "x"}, r"spectral_rel_tol must lie in \(0, 1\)"),
         ({"gamma_frac": "x"}, "theorem_config needs a finite gamma_frac, got 'x'"),
         ({"gamma_frac": math.nan}, "theorem_config needs a finite gamma_frac, got nan"),
         ({"beta_scale": "x"}, "theorem_config needs a finite beta_scale, got 'x'"),
         ({"beta_scale": math.inf}, "theorem_config needs a finite beta_scale, got inf")],
        ids=["spectral_rel_tol", "gamma_frac", "gamma_frac_nan", "beta_scale", "beta_scale_inf"],
    )
    def test_theorem_config_malformed_number_refused(self, kw, message):
        with pytest.raises(PreconditionError, match=message):
            theorem_config(_gauss_20x40()[0].X, **kw)

    def test_theorem_config_beta_overflow_refused(self):
        # beta = beta_scale * ||X||_2 overflowed to inf, and gamma came from an infinite beta_star
        X = seeded_rng(30).standard_normal((50, 40)) * 1e307
        with pytest.raises(PreconditionError, match=r"beta = beta_scale \* \|\|X\|\|_2 overflows \(5\.0 \* 1\.2"):
            theorem_config(X)
        assert theorem_config(X, beta_scale=1.0).beta == spectral_norm(X)

    def test_theorem_config_gamma_frac_unread_for_pam(self):
        inst, start = _gauss_20x40()
        cfg = theorem_config(inst.X, method="pam", gamma_frac="x")
        assert cfg == theorem_config(inst.X, method="pam") and solve(inst, cfg, *start).audit_info is not None

    def test_spectral_rel_tol_unread_with_a_declared_norm_upper(self):
        inst, start = _gauss_20x40()
        res = solve(inst, replace(theorem_config(inst.X), spectral_rel_tol="x"), *start)
        assert res.audit_info["norm_upper"] == theorem_config(inst.X).norm_upper

    def test_theorem_settings_unread_outside_theorem_mode(self):
        res = self._solve(alpha_star="x", alpha_sup=math.nan, beta_sup=math.inf, gamma_sup="x", spectral_rel_tol="x",
                          norm_upper="x")
        assert res.converged and res.audit_info is None


#: a config that theorem mode certifies for pame and pam on TestConfigProperty's data
_TYPICAL = dict(alpha=1.0, beta=10.0, gamma=0.0, tol=1e-8, max_iter=20, alpha_star=None, alpha_sup=None,
                beta_star=None, beta_sup=None, gamma_sup=None, norm_upper=None, spectral_rel_tol=1e-6)
_ODD = (0.0, -1.0, math.inf, -math.inf, math.nan, "x", None)


@st.composite
def _configs(draw):
    """A SolverConfig of any method, in or out of theorem mode, with up to three of its numbers drawn from finite
    floats (integers for max_iter) and malformed values; the rest keep ``_TYPICAL``'s values."""
    kw = dict(_TYPICAL)
    for name in draw(st.lists(st.sampled_from(sorted(kw)), max_size=3, unique=True)):
        finite = st.integers(-1, 20) if name == "max_iter" else st.floats(allow_nan=False, allow_infinity=False)
        kw[name] = draw(st.one_of(finite, st.sampled_from(_ODD + (2.5,))))
    return SolverConfig(method=draw(st.sampled_from(METHODS)), theorem_mode=draw(st.booleans()), **kw)


class TestConfigProperty:
    _INST = ProblemInstance(np.random.default_rng(3).standard_normal((6, 8)), 2)
    _START = draw_start(_INST, seed=1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_configs())
    @example(SolverConfig(**{**_TYPICAL, "theorem_mode": True}))
    @example(SolverConfig(**{**_TYPICAL, "method": "pam", "theorem_mode": True, "alpha_sup": 1e300, "beta_sup": 1e300,
                             "norm_upper": 1e3}))
    @example(SolverConfig(**{**_TYPICAL, "theorem_mode": True, "alpha_sup": math.nan}))
    @example(SolverConfig(**{**_TYPICAL, "method": "fpm", "alpha": "x"}))
    def test_solve_returns_or_refuses(self, cfg):
        # any SolverConfig runs, is refused or diverges, and a certified run's bounds are all finite
        try:
            res = solve(self._INST, cfg, *self._START)
        except (PreconditionError, DivergedError):
            return
        if cfg.theorem_mode:
            keys = ("alpha_star", "alpha_sup", "beta_star", "beta_sup", "gamma_sup", "norm_upper")
            assert all(math.isfinite(res.audit_info[key]) for key in keys)


class TestDeclaredNormUpper:
    """A theorem-mode run takes ||X||_2 once: theorem_config declares it, and solve checks and keeps it."""

    @staticmethod
    def _count_norms(monkeypatch):
        calls = []
        real = solvers.spectral_norm
        monkeypatch.setattr(solvers, "spectral_norm", lambda X: calls.append(1) or real(X))
        return calls

    @staticmethod
    def _instance(storage="dense"):
        inst = make_instance(40, 16, 3, seed=51)
        return ProblemInstance(sp.csc_matrix(inst.X), 3) if storage == "csc" else inst

    def test_theorem_config_takes_one_norm(self, monkeypatch):
        calls = self._count_norms(monkeypatch)
        inst = self._instance()
        res = solve(inst, theorem_config(inst.X), *make_start(inst, seed=52))
        assert len(calls) == 1 and res.audit_info is not None

    def test_undeclared_bound_takes_the_norm_in_solve(self, monkeypatch):
        inst = self._instance()
        s = spectral_norm(inst.X)
        calls = self._count_norms(monkeypatch)
        res = solve(inst, SolverConfig(alpha=s, beta=5.0 * s, theorem_mode=True), *make_start(inst, seed=52))
        assert len(calls) == 1 and res.audit_info["norm_upper"] == s * (1.0 + 1e-6)

    def test_declared_bound_kept_verbatim(self, monkeypatch):
        inst = self._instance()
        s = spectral_norm(inst.X)
        calls = self._count_norms(monkeypatch)
        cfg = SolverConfig(alpha=s, beta=5.0 * s, gamma=0.1, theorem_mode=True, norm_upper=1.25 * s)
        res = solve(inst, cfg, *make_start(inst, seed=52))
        assert calls == [] and res.audit_info["norm_upper"] == 1.25 * s
        assert decrease_and_error_audit(res).passed

    @pytest.mark.parametrize("storage", ["dense", "csc"])
    @pytest.mark.parametrize("method", ["pame", "pam"])
    def test_declared_and_computed_bounds_agree(self, method, storage):
        inst = self._instance(storage)
        P0, Q0 = make_start(inst, seed=52)
        cfg = theorem_config(inst.X, method=method)
        plain = SolverConfig(method=method, alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, tol=cfg.tol,
                             max_iter=cfg.max_iter, theorem_mode=True)
        declared, computed = solve(inst, cfg, P0, Q0), solve(inst, plain, P0, Q0)
        assert declared.audit_info == computed.audit_info
        assert _trace_tuple(declared.trace) == _trace_tuple(computed.trace)
        assert np.array_equal(declared.Q_final, computed.Q_final)

    @pytest.mark.parametrize("bound", ["nan", "negative", "inf", "below_frobenius"])
    def test_bad_declared_bound_refused(self, bound):
        inst = self._instance()
        floor = np.linalg.norm(inst.X) / math.sqrt(min(inst.d, inst.n))
        value = {"nan": math.nan, "negative": -1.0, "inf": math.inf, "below_frobenius": 0.99 * floor}[bound]
        cfg = replace(theorem_config(inst.X, method="pam"), norm_upper=value)
        # a non-finite bound is refused like every other declared bound
        message = f"pam needs a finite norm_upper, got {value}" if bound in ("nan", "inf") else (
            "theorem_mode: declared norm_upper=.* not a finite upper bound")
        with pytest.raises(PreconditionError, match=message):
            solve(inst, cfg, *make_start(inst, seed=52))

    def test_config_for_other_data_refused(self):
        inst = self._instance()
        cfg = theorem_config(inst.X)
        scaled = ProblemInstance(10.0 * inst.X, inst.K)
        with pytest.raises(PreconditionError, match="declared norm_upper"):
            solve(scaled, cfg, *make_start(scaled, seed=52))

    def test_bound_at_the_frobenius_floor_accepted(self):
        # orthonormal rows: every singular value is 1, so ||X||_2 = ||X||_F / sqrt(d)
        X = random_stiefel(40, 6, seeded_rng(53)).T
        inst = ProblemInstance(X, 2)
        cfg = theorem_config(X, method="pam", spectral_rel_tol=1e-15)
        assert cfg.norm_upper == pytest.approx(np.linalg.norm(X) / math.sqrt(6), rel=1e-12)
        assert solve(inst, cfg, *make_start(inst, seed=54)).audit_info["norm_upper"] == cfg.norm_upper

    def test_zero_data_declares_zero(self):
        inst = ProblemInstance(np.zeros((6, 5)), 2)
        cfg = theorem_config(inst.X)
        assert cfg.norm_upper == 0.0 and cfg.alpha == 1.0
        assert solve(inst, cfg, *make_start(inst, seed=55)).audit_info["norm_upper"] == 0.0


class TestTheoremModeScale:
    """Theorem mode is invariant to the floating-point scale of X."""

    @staticmethod
    def _run(X):
        inst = ProblemInstance(X, 3)
        cfg = theorem_config(inst.X)
        P0, Q0 = draw_start(inst, seed=1)
        return cfg, solve(inst, cfg, P0, Q0)

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_extreme_scale_matches_unit_scale(self, scale):
        X = np.random.default_rng(0).standard_normal((20, 40))
        cfg1, res1 = self._run(X)
        assert res1.iterations == 64 and res1.converged
        cfg, res = self._run(X * scale)
        assert cfg.alpha / scale == pytest.approx(cfg1.alpha, rel=1e-12)
        assert cfg.gamma == pytest.approx(cfg1.gamma, rel=1e-12)
        assert res.converged
        assert res.iterations == res1.iterations
        assert res.final_objective / scale == pytest.approx(res1.final_objective, rel=1e-12)
        # the recorded subgradient norms and the audit constants stay finite
        assert all(math.isfinite(v) for v in res.audit_info["subgrad_norms"])
        assert decrease_and_error_audit(res).passed


class TestOverflow:
    """A step that overflows is a numerical failure (DivergedError), not a warning or an input error."""

    # at 1e305, X^T Q / alpha overflows in the sign step; at 1e307, so does X P in the methods without a sign anchor
    @pytest.mark.parametrize(
        "scale, method, step",
        [(1e305, "pame", "sign_select")]
        + [(1e307, m, "polar_factor" if m in ("fpm", "pdcae") else "sign_select") for m in METHODS],
    )
    def test_overflow_is_divergence(self, scale, method, step):
        inst = ProblemInstance(np.random.default_rng(0).standard_normal((20, 40)) * scale, 3)
        P0, Q0 = draw_start(inst, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError, match=f"overflow at iteration 0: {step} input") as info:
                solve(inst, SolverConfig(method=method), P0, Q0)
        assert len(info.value.trace) == 1 and info.value.trace.k == [0]
