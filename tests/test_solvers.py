import math

import numpy as np
import pytest

from conftest import make_instance, make_start
from l1pca.errors import DegenerateUpdateError, PreconditionError
from l1pca.linalg import random_stiefel, seeded_rng, stiefel_residual
from l1pca.model import ProblemInstance, objective_l1, sign_select
from l1pca.solvers import (
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
        assert res.trace.delta_C_norm[-1] < cfg.tol
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

    def test_spectral_rel_tol_range(self):
        cfg = SolverConfig(method="pam", alpha=1.0, beta=2.0, theorem_mode=True, spectral_rel_tol=0.0)
        with pytest.raises(PreconditionError, match="spectral_rel_tol"):
            resolve_config(cfg, np.eye(2))


class TestStepSizeValidation:
    """A constant step size of a block with a proximal anchor must be finite and positive."""

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

    def test_unused_step_sizes_unchecked(self):
        # fpm has no anchors and pdcae no sign anchor, so their alpha (and fpm's beta) are never read
        assert self._solve(method="fpm", alpha=0.0, beta=math.inf).converged
        assert self._solve(method="pdcae", alpha=-1.0).converged


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
