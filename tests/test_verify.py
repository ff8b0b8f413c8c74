import math

import numpy as np
import pytest

from conftest import make_instance, make_start
from l1pca.errors import InvalidInputError, PreconditionError, UnsupportedRegimeError
from l1pca import verify
from l1pca.linalg import random_orthogonal, random_stiefel, seeded_rng, stiefel_residual
from l1pca.model import ProblemInstance, residual_R
from l1pca.solvers import SolverConfig, solve
from l1pca.verify import (
    audit_constants,
    build_critical_point,
    check_alpha_condition,
    convergence_fit,
    critical_set_separation_probe,
    critical_set_spec,
    criticality_report,
    decrease_and_error_audit,
    enumerate_oracle,
    error_bound_probe,
    exact_l1_subgrad_dist,
    kappa_constant,
    kl_ratio_probe,
    kl_ratio_probe_h,
    sample_critical_point,
    sandwich_probe,
)

SQRT2 = np.sqrt(2.0)


class TestAlphaCondition:
    def test_fires_below_threshold(self):
        # X^T Q* has entries {0.5, -0.2, 0}
        X = np.array([[0.5, -0.2, 0.0]])
        Q = np.array([[1.0]])
        fired, thr = check_alpha_condition(X, Q, 0.1)
        assert fired and thr == pytest.approx(0.2)

    def test_withheld_above_threshold(self):
        X = np.array([[0.5, -0.2, 0.0]])
        Q = np.array([[1.0]])
        fired, thr = check_alpha_condition(X, Q, 0.3)
        assert not fired and thr == pytest.approx(0.2)

    def test_vacuous_for_zero_data(self):
        fired, thr = check_alpha_condition(np.zeros((2, 2)), np.eye(2)[:, :1], 0.1)
        assert not fired and thr == 0.0

    def test_alpha_positive(self):
        with pytest.raises(PreconditionError):
            check_alpha_condition(np.eye(2), np.eye(2)[:, :1], 0.0)


class TestCriticalityReport:
    def test_converged_run_certified(self):
        inst = make_instance(8, 5, 2, seed=31)
        alpha = 1e-6
        cfg = SolverConfig(method="pame", alpha=alpha, beta=1.0, gamma=0.0, tol=1e-10, max_iter=5000)
        P0, Q0 = make_start(inst, seed=32)
        res = solve(inst, cfg, P0, Q0)
        assert res.converged
        rep = criticality_report(inst.X, res.P_final, res.Q_final, alpha_star=alpha)
        assert rep.gen_eq_residual <= 1e-6
        assert rep.certified_critical_for_l1
        assert rep.l1_residual <= 1e-6
        assert rep.h_residual <= 1e-6

    def test_oracle_optimum_is_critical(self):
        rng = seeded_rng(33)
        X = rng.standard_normal((3, 3))
        orc = enumerate_oracle(X, 1)
        rep = criticality_report(X, orc.P, orc.Q, alpha_star=1e-8)
        assert rep.l1_residual <= 1e-10

    def test_zero_data(self):
        rep = criticality_report(np.zeros((2, 3)), np.ones((3, 1)), np.eye(2)[:, :1], alpha_star=0.5)
        assert rep.h_residual == 0.0
        assert rep.gen_eq_residual == 0.0
        assert rep.l1_residual == 0.0
        assert not rep.certified_critical_for_l1
        assert rep.alpha_condition_vacuous


def _oracle_reference(X, K):
    """Per-candidate loop over all 2^(nK) sign matrices: the reference oracle.

    Scores each candidate by the singular values ``thin_svd`` returns (its
    LAPACK call, without the sign and completion work on the factors).
    """
    d, n = X.shape
    bits_total = n * K
    shifts = np.arange(bits_total, dtype=np.uint64)
    best_val = -math.inf
    best_P = None
    for m in range(1 << bits_total):
        bits = (np.uint64(m) >> shifts) & np.uint64(1)
        P = (1.0 - 2.0 * bits.astype(np.float64)).reshape(n, K)
        val = float(np.linalg.svd(X @ P, full_matrices=False)[1].sum())
        if val > best_val:
            best_val = val
            best_P = P
    return best_val, best_P


def _oracle_cases():
    """Seeded instances with nK <= 12, then rank-deficient and zero data."""
    rng = seeded_rng(35)
    shapes = [(n, d, K) for n in range(1, 7) for d in range(1, 6) for K in range(1, min(3, n, d) + 1) if n * K <= 12]
    small = [shape for shape in shapes if shape[0] * shape[2] <= 8]
    for n, d, K in shapes + small + small:
        yield rng.standard_normal((d, n)), K
    for n, d, K in ((4, 5, 2), (5, 3, 2), (3, 4, 3)):
        yield rng.standard_normal((d, 1)) @ rng.standard_normal((1, n)), K
        yield rng.standard_normal((d, 2)) @ rng.standard_normal((2, n)), K
        yield np.zeros((d, n)), K


def _check_oracle(X, K, orc):
    """Returned P is a last-row-(+1) sign matrix scoring the value; Q its polar factor."""
    assert orc.P.shape == (X.shape[1], K)
    assert np.all(np.abs(orc.P) == 1.0)
    assert np.all(orc.P[-1] == 1.0)
    XP = X @ orc.P
    assert np.linalg.svd(XP, compute_uv=False).sum() == pytest.approx(orc.value, rel=1e-12, abs=0.0)
    assert stiefel_residual(orc.Q) <= 1e-12
    assert float(np.sum(orc.Q * XP)) == pytest.approx(orc.value, rel=1e-12, abs=0.0)


class TestEnumerateOracle:
    def test_matches_reference(self):
        n_cases = 0
        for X, K in _oracle_cases():
            ref_val, ref_P = _oracle_reference(X, K)
            orc = enumerate_oracle(X, K)
            assert orc.value == pytest.approx(ref_val, rel=1e-12, abs=0.0)
            _check_oracle(X, K, orc)
            if K == 1 and ref_val > 0.0:
                # no ties up to the column flip: the same maximizer
                assert np.array_equal(orc.P, ref_P * ref_P[-1])
            n_cases += 1
        assert n_cases >= 100

    def test_chunk_boundaries(self, monkeypatch):
        rng = seeded_rng(36)
        cases = [(rng.standard_normal((d, n)), K) for n, d, K in ((6, 5, 1), (5, 4, 2), (4, 3, 3), (2, 2, 1))]
        # three candidates per chunk: 2^((n-1)K) is never a multiple of 3
        for X, K in cases:
            d, n = X.shape
            monkeypatch.setattr(verify, "_ORACLE_CHUNK_BYTES", 3 * 8 * K * max(n, d))
            ref_val, ref_P = _oracle_reference(X, K)
            orc = enumerate_oracle(X, K)
            assert orc.value == pytest.approx(ref_val, rel=1e-12, abs=0.0)
            _check_oracle(X, K, orc)
            if K == 1:
                assert np.array_equal(orc.P, ref_P * ref_P[-1])

    def test_single_sample(self):
        # n = 1: the last row is the whole sign matrix, one candidate
        x = np.array([[3.0], [-4.0]])
        orc = enumerate_oracle(x, 1)
        assert orc.value == pytest.approx(5.0, rel=1e-15)
        assert np.array_equal(orc.P, [[1.0]])
        assert np.allclose(orc.Q, x / 5.0, atol=1e-15)

    def test_identity(self):
        orc = enumerate_oracle(np.eye(2), 1)
        assert orc.value == pytest.approx(SQRT2, abs=1e-12)
        assert np.allclose(np.abs(orc.Q.ravel()), [1 / SQRT2, 1 / SQRT2])

    def test_rank_one_dominance(self):
        orc = enumerate_oracle(np.diag([3.0, 0.0]), 1)
        assert orc.value == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(np.abs(orc.Q.ravel()), [1.0, 0.0], atol=1e-12)

    def test_zero_data(self):
        assert enumerate_oracle(np.zeros((2, 2)), 1).value == 0.0

    def test_cap_refused(self):
        with pytest.raises(UnsupportedRegimeError):
            enumerate_oracle(np.ones((2, 12)), 2)  # 24 sign bits

    def test_cap_counts_all_sign_bits(self):
        # the cap bounds nK, not the (n - 1)K bits actually enumerated
        X = seeded_rng(37).standard_normal((2, 3))
        with pytest.raises(UnsupportedRegimeError):
            enumerate_oracle(X, 2, hard_cap=5)
        assert enumerate_oracle(X, 2, hard_cap=6).value > 0.0

    def test_dominates_solver(self):
        rng = seeded_rng(34)
        for _ in range(5):
            X = rng.standard_normal((3, 3))
            inst = ProblemInstance(X, 1)
            orc = enumerate_oracle(X, 1)
            P0, Q0 = make_start(inst, seed=int(rng.integers(2**31)))
            res = solve(inst, SolverConfig(method="pame", alpha=1e-4, beta=1.0, tol=1e-10, max_iter=2000), P0, Q0)
            assert res.final_objective <= orc.value + 1e-10


class TestCriticalSets:
    def test_hand_example(self):
        A = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        spec = critical_set_spec(A, [1.0])
        assert spec.rank == 1 and spec.multiplicities == (1,)
        Q = build_critical_point(spec, [np.eye(1)], np.array([[1.0], [0.0]]))
        assert np.allclose(Q, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert np.allclose(residual_R(A, Q), 0.0, atol=1e-12)

    def test_flipped_sign(self):
        A = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        spec = critical_set_spec(A, [-1.0])
        Q = build_critical_point(spec, [np.eye(1)], np.array([[1.0], [0.0]]))
        assert Q[0, 0] == pytest.approx(-1.0)
        assert np.allclose(residual_R(A, Q), 0.0, atol=1e-12)

    def test_square_distinct_is_sign_diagonal(self):
        A = np.diag([3.0, 2.0, 1.0])
        q = np.array([1.0, -1.0, 1.0])
        spec = critical_set_spec(A, q)
        assert spec.multiplicities == (1, 1, 1)
        Q = build_critical_point(spec, [np.eye(1)] * 3, np.zeros((0, 0)))
        assert np.allclose(Q, np.diag(q), atol=1e-12)

    def test_sampled_members_satisfy_identities(self):
        rng = seeded_rng(35)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            K = int(rng.integers(1, min(d, 3) + 1))
            r = int(rng.integers(1, K + 1))
            vals = np.sort(rng.uniform(0.5, 3.0, r))[::-1]
            A = (random_stiefel(d, r, rng) * vals) @ random_stiefel(K, r, rng).T
            q = np.where(rng.random(r) < 0.5, -1.0, 1.0)
            spec = critical_set_spec(A, q)
            Q = sample_critical_point(spec, rng)
            assert np.linalg.norm(residual_R(A, Q)) <= 1e-10 * max(1.0, np.linalg.norm(A))

    def test_structure_roundtrip_after_rotation(self):
        # members rotated back to the diagonal frame show the block pattern
        rng = seeded_rng(36)
        A = (random_stiefel(5, 2, rng) * np.array([2.0, 1.0])) @ random_stiefel(3, 2, rng).T
        spec = critical_set_spec(A, np.array([1.0, -1.0]))
        Q = sample_critical_point(spec, rng)
        W = spec.U_full.T @ Q @ spec.V_full
        r = spec.rank
        assert np.allclose(W[:r, r:], 0.0, atol=1e-10)
        assert np.allclose(W[r:, :r], 0.0, atol=1e-10)
        core = W[:r, :r]
        assert np.allclose(core, core.T, atol=1e-10)
        assert np.allclose(np.sort(np.linalg.eigvalsh(core)), [-1.0, 1.0], atol=1e-10)

    def test_bad_blocks_rejected(self):
        A = np.diag([2.0, 1.0])
        spec = critical_set_spec(A, [1.0, 1.0])
        with pytest.raises(PreconditionError):
            build_critical_point(spec, [np.array([[2.0]]), np.eye(1)], np.zeros((0, 0)))


class TestSeparation:
    def test_scalar_exact_two(self):
        assert critical_set_separation_probe(np.array([[1.5]]), [1.0], [-1.0], samples=5, seed=0) == pytest.approx(2.0, abs=1e-12)

    def test_rectangular_case(self):
        A = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        dist = critical_set_separation_probe(A, [1.0], [-1.0], samples=100, seed=1)
        assert dist >= 2.0 - 1e-9

    def test_equal_counts_rejected(self):
        # with a tied pair the families for (+1,-1) and (-1,+1) coincide
        A = np.diag([2.0, 2.0])
        with pytest.raises(PreconditionError):
            critical_set_separation_probe(A, [1.0, -1.0], [-1.0, 1.0], samples=5, seed=0)


class TestKappaConstant:
    def test_two_distinct_values(self):
        kc = kappa_constant(np.diag([2.0, 1.0]))
        # delta = 2/1 - 1/2 = 1.5; kappa = sqrt(13 + 42/2.25) / 1
        assert kc.p == 2
        assert kc.delta_min == pytest.approx(1.5)
        assert kc.kappa == pytest.approx(math.sqrt(13.0 + 42.0 / 2.25), rel=1e-12)
        assert kc.kappa == pytest.approx(5.6273, abs=2e-4)

    def test_single_value(self):
        kc = kappa_constant(np.array([[2.0], [0.0]]))
        assert kc.p == 1 and kc.delta_min == math.inf
        assert kc.kappa == pytest.approx(math.sqrt(13.0) / 2.0, rel=1e-12)
        assert kc.eta_g == pytest.approx(1.0 / math.sqrt(13.0), rel=1e-12)

    def test_tied_values_grouped(self):
        kc = kappa_constant(np.diag([2.0, 2.0, 1.0]))
        assert kc.p == 2 and kc.delta_min == pytest.approx(1.5)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            kappa_constant(np.zeros((2, 2)))


class TestErrorBound:
    def test_closed_form_single_direction(self):
        # A = (2,0), Q at angle pi/4: distance 2 sin(pi/8), residual 2 sin(pi/4)
        A = np.array([[2.0], [0.0]])
        theta = np.pi / 4
        Q = np.array([[np.cos(theta)], [np.sin(theta)]])
        dist = np.linalg.norm(Q - np.array([[1.0], [0.0]]))
        Rn = np.linalg.norm(residual_R(A, Q))
        assert dist == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-12)
        assert Rn == pytest.approx(2 * np.sin(np.pi / 4), abs=1e-12)
        ratio = dist / Rn
        assert ratio == pytest.approx(0.5412, abs=1e-4)
        assert ratio <= kappa_constant(A).kappa

    def test_probe_k1(self):
        rng = seeded_rng(37)
        A = rng.standard_normal((6, 1)) * 2.0
        rep = error_bound_probe(A, [1.0], samples=400, seed=2)
        assert rep.passed and rep.violations == 0
        assert rep.worst_ratio <= kappa_constant(A).kappa

    def test_probe_square_distinct(self):
        rng = seeded_rng(38)
        vals = np.array([2.0, 1.3, 0.7])
        A = (random_orthogonal(3, rng) * vals) @ random_orthogonal(3, rng).T
        rep = error_bound_probe(A, [1.0, -1.0, 1.0], samples=400, seed=3)
        assert rep.passed
        assert rep.worst_ratio <= kappa_constant(A).kappa

    def test_unsupported_regime_refused(self):
        rng = seeded_rng(39)
        A = (random_stiefel(4, 2, rng) * np.array([2.0, 1.0])) @ random_stiefel(2, 2, rng).T
        with pytest.raises(UnsupportedRegimeError):
            error_bound_probe(A, [1.0, 1.0], samples=10, seed=0)


class TestKlProbe:
    def test_positive_at_global_optimum(self):
        X = np.eye(2)
        Qstar = enumerate_oracle(X, 1).Q
        rep = kl_ratio_probe(X, Qstar, radii=[0.1], samples=1000, seed=4)
        entry = rep.per_radius[0]
        assert entry.min_ratio > 0 and entry.samples_used > 0

    def test_noncritical_rejected(self):
        X = np.eye(2)
        with pytest.raises(PreconditionError):
            kl_ratio_probe(X, np.array([[1.0], [0.0]]) * [[1.0]], radii=[0.1], samples=5, seed=0)

    def test_flat_sentinel_for_zero_data(self):
        X = np.zeros((2, 2))
        rep = kl_ratio_probe(X, np.array([[1.0], [0.0]]), radii=[0.1], samples=20, seed=5)
        entry = rep.per_radius[0]
        assert entry.all_flat and entry.min_ratio == math.inf

    def test_two_block_variant(self):
        X = np.eye(2)
        orc = enumerate_oracle(X, 1)
        rep = kl_ratio_probe_h(X, orc.P, orc.Q, radii=[0.1, 0.03], samples=300, seed=6)
        assert all(r.min_ratio > 0 for r in rep.per_radius)

    def test_exact_subgrad_enumerates_zeros(self):
        # X^T Q has an exact zero entry at the canonical direction
        X = np.eye(2)
        Q = np.array([[1.0], [0.0]])
        dist, fallback = exact_l1_subgrad_dist(X, Q)
        assert not fallback
        # best selection keeps the free sign aligned: xi = (1, s), R spans
        # the second coordinate only for s choices; verify against direct
        # minimum over both selections
        from l1pca.model import subgrad_dist_linear

        cands = []
        for s in (1.0, -1.0):
            xi = np.array([[1.0], [s]])
            cands.append(subgrad_dist_linear(-(X @ xi), Q))
        assert dist == pytest.approx(min(cands), abs=1e-14)


class TestAudit:
    def _theorem_run(self, method="pame", seed=41):
        inst = make_instance(40, 16, 3, seed=seed)
        from l1pca.solvers import theorem_config

        cfg = theorem_config(inst.X, method=method, tol=1e-8, max_iter=400)
        P0, Q0 = make_start(inst, seed=seed + 1)
        return solve(inst, cfg, P0, Q0)

    def test_pame_zero_violations(self):
        res = self._theorem_run("pame")
        rep = decrease_and_error_audit(res)
        assert rep.passed
        assert rep.violations_decrease == 0 and rep.violations_relative_error == 0

    def test_pam_constant_uses_zero_gamma(self):
        res = self._theorem_run("pam")
        k1, _ = audit_constants(res)
        info = res.audit_info
        assert k1 == pytest.approx(min(info["alpha_star"] / 2.0, info["beta_star"] / 4.0))
        assert decrease_and_error_audit(res).passed

    def test_single_iteration_vacuous(self):
        inst = ProblemInstance(np.zeros((2, 2)), 1)
        cfg = SolverConfig(method="pame", alpha=1.0, beta=1.0, gamma=0.0, tol=1e-8, theorem_mode=True)
        res = solve(inst, cfg, np.ones((2, 1)), np.array([[1.0], [0.0]]))
        assert res.iterations == 1
        rep = decrease_and_error_audit(res)
        assert rep.passed and rep.iterations == 1

    def test_non_theorem_run_refused(self):
        inst = make_instance(10, 5, 2, seed=42)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, tol=1e-8, max_iter=200)
        P0, Q0 = make_start(inst, seed=43)
        res = solve(inst, cfg, P0, Q0)
        with pytest.raises(UnsupportedRegimeError):
            decrease_and_error_audit(res)

    def test_convergence_fit_negative_slope(self):
        res = self._theorem_run("pame", seed=44)
        slope, r2, pts = convergence_fit(res.trace)
        assert slope < 0 and r2 > 0.9 and pts >= 4


def test_sandwich_probe_report():
    rep = sandwich_probe(samples=300, seed=0)
    assert rep.passed and rep.violations == 0
    assert 0.5 - 1e-9 <= rep.min_ratio and rep.worst_ratio <= 1.0 + 1e-9
    payload = rep.to_dict()
    assert payload["name"] == "sandwich" and payload["passed"]
