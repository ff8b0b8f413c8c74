import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import counting_products, make_instance, make_start
from l1pca.errors import DimensionMismatchError, InvalidInputError, PreconditionError, UnsupportedRegimeError
from l1pca import verify
from l1pca.linalg import polar_factor, random_orthogonal, random_stiefel, seeded_rng, stiefel_residual
from l1pca.model import ProblemInstance, residual_R, sign_select, subgrad_dist_h, subgrad_dist_linear
from l1pca.solvers import SolverConfig, draw_start, solve
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
    kl_suite,
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

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_frame_row_mismatch(self, sparse):
        X = np.ones((4, 6))
        with pytest.raises(DimensionMismatchError, match="Q has 3 rows, X has 4"):
            check_alpha_condition(sp.csc_matrix(X) if sparse else X, np.eye(3)[:, :2], 0.1)


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

    def test_converged_pair_takes_two_products(self):
        # X P and X^T Q once each: at a converged pair both sign choices equal P
        inst = make_instance(8, 5, 2, seed=31)
        alpha = 1e-6
        cfg = SolverConfig(method="pame", alpha=alpha, beta=1.0, gamma=0.0, tol=1e-10, max_iter=5000)
        res = solve(inst, cfg, *make_start(inst, seed=32))
        X, counter = counting_products(inst.X)
        rep = criticality_report(X, res.P_final, res.Q_final, alpha_star=alpha)
        assert counter["matmul"] == 2 and counter["X.T @"] == 0
        assert rep == criticality_report(inst.X, res.P_final, res.Q_final, alpha_star=alpha)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 100.0])
    def test_fields_match_definitions(self, alpha):
        # an unconverged pair, where the sign choices differ from P
        inst = make_instance(30, 8, 3, seed=34)
        X = inst.X
        P, Q = make_start(inst, seed=35)
        rep = criticality_report(X, P, Q, alpha_star=alpha)
        M = X.T @ Q
        assert rep.h_residual == subgrad_dist_h(X, P, Q)
        assert rep.gen_eq_residual == subgrad_dist_linear(-(X @ sign_select(P + M / alpha, P)), Q)
        assert rep.l1_residual == subgrad_dist_linear(-(X @ sign_select(M, P)), Q)
        fired, threshold = check_alpha_condition(X, Q, alpha, zero_tol=1e-12)
        assert (rep.certified_critical_for_l1, rep.alpha_condition_threshold) == (fired, threshold)

    @pytest.mark.parametrize(
        "alpha, zero_tol, message",
        [(0.0, 1e-12, "criticality_report needs a finite positive alpha_star, got 0.0"),
         (-1.0, 1e-12, "criticality_report needs a finite positive alpha_star, got -1.0"),
         (1e-3, -1.0, "zero_tol must be nonnegative, got -1.0")],
        ids=["alpha_zero", "alpha_negative", "zero_tol_negative"],
    )
    def test_bad_arguments_refused_before_any_product(self, alpha, zero_tol, message):
        # alpha_star = 0 would otherwise divide X^T Q by zero first
        inst = make_instance(30, 8, 3, seed=34)
        P, Q = make_start(inst, seed=35)
        X, counter = counting_products(inst.X)
        with pytest.raises(PreconditionError, match=message):
            criticality_report(X, P, Q, alpha_star=alpha, zero_tol=zero_tol)
        assert counter["matmul"] == 0

    @pytest.mark.parametrize("power", [1020, 1022])
    @pytest.mark.parametrize("fmt", ["dense", "csc"])
    def test_overflowing_products(self, fmt, power):
        # X P overflows at both scales, ||X||_F too at 2^1022; the report is homogeneous in X
        X = np.random.default_rng(0).standard_normal((20, 40))
        inst = ProblemInstance(X, 3)
        res = solve(inst, SolverConfig(), *draw_start(inst, seed=1))
        assert res.termination_reason == "fixed_point"
        Xf = sp.csc_matrix(X) if fmt == "csc" else X
        ref = criticality_report(Xf, res.P_final, res.Q_final, 1e-4)
        rep = criticality_report(Xf * 2.0**power, res.P_final, res.Q_final, 1e-4 * 2.0**power)
        homogeneous = ("h_residual", "gen_eq_residual", "l1_residual", "alpha_condition_threshold")
        assert [getattr(rep, f) for f in homogeneous] == [getattr(ref, f) * 2.0**power for f in homogeneous]
        assert rep.certified_critical_for_l1 == ref.certified_critical_for_l1
        assert not rep.alpha_condition_vacuous

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

    @pytest.mark.parametrize("power", [1020, 1021, 1022])
    @pytest.mark.parametrize("K", [1, 2])
    def test_near_overflow_scales(self, K, power):
        # X P or its nuclear norm may overflow, and ||X||_F does at 2^1022: the oracle runs on
        # X / 2^e, so P and Q are those of X, and the value is 2^power times X's, inf where that overflows
        X = np.random.default_rng(0).standard_normal((4, 6))
        ref, orc = enumerate_oracle(X, K), enumerate_oracle(X * 2.0**power, K)
        assert orc.value == ref.value * 2.0**power
        assert np.array_equal(orc.P, ref.P) and np.array_equal(orc.Q, ref.Q)

    def test_cap_refused(self):
        with pytest.raises(UnsupportedRegimeError):
            enumerate_oracle(np.ones((2, 12)), 2)  # 24 sign bits

    def test_cap_counts_all_sign_bits(self):
        # the cap bounds nK, not the (n - 1)K bits actually enumerated
        X = seeded_rng(37).standard_normal((2, 3))
        with pytest.raises(UnsupportedRegimeError):
            enumerate_oracle(X, 2, hard_cap=5)
        assert enumerate_oracle(X, 2, hard_cap=6).value > 0.0

    def test_rescores_few_candidates(self, monkeypatch):
        # random data rescores the K! column orders of the maximizer, or a few more, each in a
        # stacked SVD (the polar factor takes one of a matrix)
        rescored = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: rescored.append(len(a) if a.ndim == 3 else 0) or svd(a, **kw))
        rng = seeded_rng(39)
        for n, d, K in ((11, 5, 2), (5, 4, 3), (16, 3, 1)):
            rescored.clear()
            enumerate_oracle(rng.standard_normal((d, n)), K)
            assert math.factorial(K) <= sum(rescored) <= 8 * math.factorial(K)

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

    @pytest.mark.parametrize("scale", [1e-160, 1e160, 2.0**1021, 2.0**1022])
    def test_extreme_scales(self, scale):
        # kappa scales as 1/||A|| and eta_g as ||A||^(1/2); kappa^2 overflowed at 1e-160,
        # 2 ||A|| at 2^1021 and sigma_1 at 2^1022
        A = np.random.default_rng(0).standard_normal((20, 40))[:, :3]
        kc, ref = kappa_constant(A * scale), kappa_constant(A)
        assert kc.kappa * scale == pytest.approx(ref.kappa, rel=1e-12)
        assert kc.eta_g / math.sqrt(scale) == pytest.approx(ref.eta_g, rel=1e-12)


@pytest.mark.parametrize("rank_tol", [1.0, 2.0, -0.5, math.nan])
@pytest.mark.parametrize("function", ["critical_set_spec", "kappa_constant"])
def test_rank_tol_outside_unit_interval_rejected(function, rank_tol):
    A = np.diag([2.0, 1.0, 0.0])
    with pytest.raises(PreconditionError, match="rank_tol"):
        if function == "kappa_constant":
            kappa_constant(A, rank_tol=rank_tol)
        else:
            # one sign per singular value this rank_tol would count, so only the range check can refuse it
            critical_set_spec(A, [1.0] * int(np.sum(np.diag(A) > rank_tol * 2.0)), rank_tol=rank_tol)


def test_rank_tol_range_ends():
    A = np.diag([2.0, 1.0, 0.0])
    assert critical_set_spec(A, [1.0, 1.0], rank_tol=0.0).rank == 2
    assert kappa_constant(A, rank_tol=0.0).p == 2
    assert critical_set_spec(A, [1.0], rank_tol=0.9).rank == 1


class TestCriticalSetsAtTheTopOfTheRange:
    """Rank and tie blocks are counted on A / 2^e: at 2^1022 sigma_1 overflows, and the rank
    of A, counted against inf, read 0."""

    A = np.random.default_rng(0).standard_normal((20, 40))[:, :3]

    def test_spec_rank_and_blocks(self):
        base, spec = (critical_set_spec(M, [1.0] * 3) for M in (self.A, self.A * 2.0**1022))
        assert spec.rank == base.rank == 3 and spec.multiplicities == base.multiplicities == (1, 1, 1)
        assert spec.sigma_pos[0] == math.inf  # sigma_1 of A itself, which overflows
        assert np.allclose(spec.sigma_pos[1:] / 2.0**1022, base.sigma_pos[1:], rtol=1e-14, atol=0.0)
        with np.errstate(all="raise"):
            Q, ref = (sample_critical_point(s, seeded_rng(5)) for s in (spec, base))
        assert np.allclose(Q, ref, rtol=0.0, atol=1e-12)

    def test_probe_refuses_the_regime_not_the_rank(self):
        for M in (self.A, self.A * 2.0**1022):
            with pytest.raises(UnsupportedRegimeError, match="exact family distance"):
                error_bound_probe(M, [1.0] * 3, samples=3)

    def test_probe_where_sigma_1_overflows(self):
        x = np.linspace(1.0, 2.0, 20)[:, None]  # ||x|| = 6.8: sigma_1 of x 2^1022 overflows
        base = error_bound_probe(x, [1.0], samples=30)
        with np.errstate(all="raise"):
            rep = error_bound_probe(x * 2.0**1022, [1.0], samples=30)
        assert rep.samples == base.samples == 30 and rep.passed and rep.violations == 0
        assert math.ldexp(rep.worst_ratio, 1022) == pytest.approx(base.worst_ratio, rel=1e-12)
        assert rep.parameters["kappa"] == kappa_constant(x * 2.0**1022).kappa


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

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_probe_scale_free(self, scale):
        # the residual guard was an absolute 1e-12: at 1e-160 every draw was skipped (samples=0, passed=False)
        A = np.random.default_rng(0).standard_normal((20, 40))[:5, :1]
        base, rep = (error_bound_probe(M, [1.0], samples=50) for M in (A, A * scale))
        assert rep.samples == base.samples == 50 and rep.passed
        assert rep.worst_ratio * scale == pytest.approx(base.worst_ratio, rel=1e-12)

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

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_exact_subgrad_frame_row_mismatch(self, sparse):
        X = np.ones((4, 6))
        with pytest.raises(DimensionMismatchError, match="Q has 3 rows, X has 4"):
            exact_l1_subgrad_dist(sp.csc_matrix(X) if sparse else X, np.eye(3)[:, :2])


class TestKlSuite:
    def test_passes_at_default_samples(self):
        # instance 4 (3x3, K=1) has sign-stable radius 0.219; at radius 0.3 its ratio fell from 2.9 to 0.13
        out = kl_suite(instances=5, samples=1000, seed=0)
        assert out["passed"]
        for entry in out["reports"]:
            radii = entry["report"]["parameters"]["radii"]
            assert radii and all(r < entry["sign_stable_radius"] for r in radii)
        assert out["reports"][4]["sign_stable_radius"] == pytest.approx(0.219, abs=1e-3)
        assert out["reports"][4]["report"]["parameters"]["radii"] == [0.1, 0.03, 0.01]

    def test_instance_without_a_radius_fails(self, monkeypatch):
        # a sign-stable radius is at most 1, so no radius of 2 is probed
        monkeypatch.setattr(verify, "_KL_RADII", (2.0,))
        out = kl_suite(instances=1, samples=10, seed=0)
        assert out["reports"][0]["report"]["parameters"]["radii"] == [] and not out["passed"]

    def test_sign_stable_radius_skips_zero_columns(self):
        X = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 0.0]])
        # |x_i^T q| / ||x_i|| over the nonzero columns: 4/5 and 0/1
        assert verify._sign_stable_radius(X, np.array([[0.0], [1.0]])) == 0.0
        assert verify._sign_stable_radius(X, np.array([[1.0], [0.0]])) == pytest.approx(0.6)
        assert verify._sign_stable_radius(np.zeros((2, 3)), np.array([[1.0], [0.0]])) == math.inf


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
        with pytest.raises(UnsupportedRegimeError, match="audit requires a run made in theorem_mode"):
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


def _check_serialized(report) -> dict:
    """to_dict keys in field order, JSON without a default, every bool field a Python bool."""
    payload = report.to_dict()
    fields = dataclasses.fields(report)
    assert list(payload) == [f.name for f in fields]
    json.dumps(payload)
    for f in fields:
        if f.type == "bool":
            assert type(payload[f.name]) is bool
    return payload


class TestReportSerialization:
    def test_probe_report(self):
        payload = _check_serialized(sandwich_probe(samples=20, seed=0))
        assert payload["passed"] is True

    def test_criticality_report_numpy_alpha(self):
        rng = seeded_rng(33)
        X = rng.standard_normal((3, 3))
        orc = enumerate_oracle(X, 1)
        rep = criticality_report(X, orc.P, orc.Q, alpha_star=np.float64(1e-4))
        # the numpy alpha is converted to a float, so the certificate is a plain bool
        assert type(rep.certified_critical_for_l1) is bool
        payload = _check_serialized(rep)
        assert payload["certified_critical_for_l1"] is True

    def test_kl_reports_with_nested_radii(self):
        X = np.eye(2)
        Qstar = enumerate_oracle(X, 1).Q
        rep = kl_ratio_probe(X, Qstar, radii=[0.1, 0.03], samples=20, seed=4, stability_cap=np.float64(10.0))
        # the numpy stability_cap is converted to a float, so the verdict is a plain bool
        assert type(rep.passed) is bool
        payload = _check_serialized(rep)
        assert payload["per_radius"] == [_check_serialized(r) for r in rep.per_radius]
        assert all(type(entry["all_flat"]) is bool for entry in payload["per_radius"])

    def test_audit_report(self):
        inst = ProblemInstance(np.zeros((2, 2)), 1)
        cfg = SolverConfig(method="pame", alpha=1.0, beta=1.0, gamma=0.0, tol=1e-8, theorem_mode=True)
        res = solve(inst, cfg, np.ones((2, 1)), np.array([[1.0], [0.0]]))
        payload = _check_serialized(decrease_and_error_audit(res))
        assert payload["passed"] is True


def _full_scan(X, K):
    """The full scan the screen replaced: every candidate's SVD value, the first maximizer kept."""
    d, n = X.shape
    bits = (n - 1) * K
    chunk = max(1, verify._ORACLE_CHUNK_BYTES // (8 * K * max(n, d)))
    best_val, best_P = -math.inf, None
    for start in range(0, 1 << bits, chunk):
        m = np.arange(start, min(start + chunk, 1 << bits))
        P = np.ones((m.size, n, K))
        P[:, : n - 1] = (1 - 2 * ((m[:, None] >> np.arange(bits)) & 1)).reshape(m.size, n - 1, K)
        vals = np.linalg.svd(X @ P, compute_uv=False).sum(axis=-1)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_P = float(vals[i]), P[i].copy()
    return best_val, best_P, polar_factor(X @ best_P)


def _identity_grid():
    """Seeded (X, K) for n 1-8 and K 1-3 with at most 2^15 candidates: Gaussian X, a duplicate
    column, equal rows and small integers (exact ties), each at three scales, and zero X."""
    rng = seeded_rng(38)
    for n in range(1, 9):
        for K in range(1, min(3, n) + 1):
            if (n - 1) * K > 15:
                continue
            d = int(rng.integers(K, 7))
            G = rng.standard_normal((d, n))
            dup, rows = G.copy(), G.copy()
            dup[:, -1] = dup[:, 0]
            rows[-1] = rows[0]
            ints = rng.integers(-2, 3, (d, n)).astype(np.float64)
            for scale in (1e-150, 1.0, 1e150):
                for X in (G, dup, rows, ints):
                    yield X * scale, K
            yield np.zeros((d, n)), K


def _same_bytes(orc, ref):
    value, P, Q = ref
    return orc.value.hex() == value.hex() and all(
        a.shape == b.shape and a.flags.c_contiguous == b.flags.c_contiguous and a.tobytes() == b.tobytes()
        for a, b in ((orc.P, P), (orc.Q, Q))
    )


class TestOracleScreenIdentity:
    """The screened oracle returns the full scan's value, P and Q byte for byte."""

    def test_grid(self):
        cases = list(_identity_grid())
        assert len(cases) == 247
        assert [(X.shape, K) for X, K in cases if not _same_bytes(enumerate_oracle(X, K), _full_scan(X, K))] == []

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_ties_across_chunks(self, monkeypatch, per_chunk):
        # one or three candidates per chunk: exact ties (column orders, integer data) land in different chunks
        rng = seeded_rng(40)
        for n, d, K in ((5, 4, 2), (4, 3, 3), (6, 5, 1), (5, 5, 2)):
            for X in (rng.standard_normal((d, n)), rng.integers(-1, 2, (d, n)).astype(np.float64)):
                monkeypatch.setattr(verify, "_ORACLE_CHUNK_BYTES", per_chunk * 8 * K * max(n, d))
                assert _same_bytes(enumerate_oracle(X, K), _full_scan(X, K))

    def test_raised_hard_cap(self):
        X = seeded_rng(41).standard_normal((4, 8))
        assert _same_bytes(enumerate_oracle(X, 2, hard_cap=40), _full_scan(X, 2))


def _build(A, q, blocks, V):
    return build_critical_point(critical_set_spec(np.array(A), q), blocks, V)


_DIAG = [[2.0, 0.0], [0.0, 1.0]]  # rank 2, two blocks of multiplicity 1
_TALL = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]  # d=3, K=2, rank 1: a (2, 1) tail V


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: enumerate_oracle(np.ones((3, 2)), 3), "K must satisfy 1 <= K <= min(n, d)"),
        (lambda: enumerate_oracle(np.ones((3, 2)), 0), "K must satisfy 1 <= K <= min(n, d)"),
        (lambda: enumerate_oracle(np.ones((3, 2)), "2"), "K must be an integer, got '2'"),
        (lambda: enumerate_oracle(np.ones((3, 2)), 2.0), "K must be an integer, got 2.0"),
        (lambda: enumerate_oracle(np.ones((3, 2)), True), "K must be an integer, got True"),
        (lambda: enumerate_oracle(np.ones((3, 2)), 1, hard_cap="22"), "hard_cap must be an integer, got '22'"),
        (lambda: verify.oracle_suite(n="x"), "n must be an integer of at least 1, got 'x'"),
        (lambda: verify.oracle_suite(restarts=2.5), "restarts must be an integer of at least 1, got 2.5"),
        (lambda: verify.oracle_suite(restarts=0), "restarts must be an integer of at least 1, got 0"),
        (lambda: verify.oracle_suite(instances=0), "instances must be an integer of at least 1, got 0"),
        (lambda: critical_set_spec(np.ones((2, 3)), [1.0, 1.0]), "A must be d x K with d >= K >= 1"),
        (lambda: critical_set_spec(np.array(_DIAG), [1.0]), "q must have one sign per positive singular value (rank 2)"),
        (lambda: critical_set_spec(np.array(_DIAG), [1.0, 0.5]), "q entries must be exactly +-1"),
        (lambda: _build(_DIAG, [1.0, 1.0], [np.eye(1)], None), "one orthogonal block per multiplicity group required"),
        (lambda: _build(_DIAG, [1.0, 1.0], [np.eye(2), np.eye(1)], None), "block shape (2, 2) does not match multiplicity 1"),
        (lambda: _build(_DIAG, [1.0, 1.0], [np.eye(1), [[0.5]]], None), "U_blocks must be orthogonal"),
        (lambda: _build(_TALL, [1.0], [np.eye(1)], None), "V required when K exceeds the rank"),
        (lambda: _build(_TALL, [1.0], [np.eye(1)], np.ones((1, 1))), "V must have shape (2, 1)"),
        (lambda: _build(_TALL, [1.0], [np.eye(1)], [[2.0], [0.0]]), "V must have orthonormal columns"),
        (lambda: error_bound_probe(np.array([[2.0]]), [1.0], radius=1.0), "radius must lie in (0, 1), got 1.0"),
        (lambda: error_bound_probe(np.array([[2.0]]), [1.0], radius=0.0), "radius must lie in (0, 1), got 0.0"),
        (
            lambda: kl_ratio_probe_h(
                np.array([[1.0, 2.0], [3.0, -1.0]]), np.ones((2, 1)), np.array([[1.0], [0.0]]), radii=[0.1]
            ),
            "(Pstar, Qstar) is not critical (residual 2.000e+00 > 1.0e-08)",
        ),
    ],
    ids=["oracle_K_above", "oracle_K_zero", "oracle_K_string", "oracle_K_float", "oracle_K_bool", "oracle_cap_string",
         "suite_n_string", "suite_restarts_float", "suite_restarts_zero", "suite_instances_zero", "spec_d_below_K",
         "spec_q_length", "spec_q_not_sign", "block_count", "block_shape", "block_not_orthogonal", "V_missing", "V_shape", "V_not_orthonormal", "radius_one", "radius_zero",
         "kl_h_not_critical"],
)
def test_precondition_refusals(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert type(err.value) is PreconditionError
    assert str(err.value) == message
