import numpy as np
import pytest
import scipy.sparse as sp

from l1pca.errors import InvalidInputError, PreconditionError
from l1pca.linalg import (
    complete_orthonormal,
    frob,
    polar_factor,
    random_stiefel,
    seeded_rng,
    spectral_norm,
    stiefel_residual,
    thin_svd,
)
from l1pca.solvers import theorem_config


class TestThinSvd:
    def test_vector(self):
        s = thin_svd(np.array([[3.0], [4.0]]))
        assert np.allclose(s.sigma, [5.0])
        # sign convention pins V = [1], hence U = (0.6, 0.8)
        assert np.allclose(s.V, [[1.0]])
        assert np.allclose(s.U.ravel(), [0.6, 0.8])

    def test_identity(self):
        s = thin_svd(np.eye(3))
        assert np.allclose(s.sigma, [1.0, 1.0, 1.0])

    def test_hand_gram(self):
        # M^T M = diag(1, 4), so the singular values are (2, 1)
        s = thin_svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.allclose(s.sigma, [2.0, 1.0])

    def test_invariants_random(self):
        rng = seeded_rng(1)
        for _ in range(30):
            d = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(d, 9) + 1))
            M = rng.standard_normal((d, k))
            s = thin_svd(M)
            assert np.all(np.diff(s.sigma) <= 1e-14)
            assert np.all(s.sigma >= 0)
            assert np.linalg.norm(s.U.T @ s.U - np.eye(k)) < 1e-10
            assert np.linalg.norm(s.V.T @ s.V - np.eye(k)) < 1e-10
            rel = np.linalg.norm(s.reconstruct() - M) / np.linalg.norm(M)
            assert rel < 1e-8

    def test_ill_conditioned(self):
        rng = seeded_rng(2)
        for trial in range(10):
            d = int(rng.integers(8, 50))
            k = int(rng.integers(2, 8))
            U0 = random_stiefel(d, k, rng)
            V0 = random_stiefel(k, k, rng)
            vals = np.logspace(0, -6, k)
            M = (U0 * vals) @ V0.T
            s = thin_svd(M)
            assert np.linalg.norm(s.reconstruct() - M) / np.linalg.norm(M) < 1e-8
            assert np.linalg.norm(s.U.T @ s.U - np.eye(k)) < 1e-10
            assert np.linalg.norm(s.V.T @ s.V - np.eye(k)) < 1e-10

    def test_wide_matrix(self):
        rng = seeded_rng(3)
        M = rng.standard_normal((3, 8))
        s = thin_svd(M)
        assert s.U.shape == (3, 3) and s.V.shape == (8, 3)
        assert np.linalg.norm(s.reconstruct() - M) / np.linalg.norm(M) < 1e-10

    def test_rank_deficient_zero_sigma(self):
        rng = seeded_rng(4)
        u = random_stiefel(6, 1, rng)
        v = random_stiefel(3, 1, rng)
        s = thin_svd(2.0 * u @ v.T)
        assert s.sigma[0] == pytest.approx(2.0, rel=1e-12)
        assert np.all(s.sigma[1:] < 1e-12)
        assert np.linalg.norm(s.U.T @ s.U - np.eye(3)) < 1e-10
        # wide input: the completion lands in V, the taller factor
        w = thin_svd(2.0 * v @ u.T)
        assert w.U.shape == (3, 3) and w.V.shape == (6, 3)
        assert w.sigma[0] == pytest.approx(2.0, rel=1e-12)
        assert np.all(w.sigma[1:] < 1e-12)
        assert np.linalg.norm(w.V.T @ w.V - np.eye(3)) < 1e-10
        assert np.linalg.norm(w.U.T @ w.U - np.eye(3)) < 1e-10
        assert np.linalg.norm(w.reconstruct() - 2.0 * v @ u.T) < 1e-12

    def test_truncation(self):
        rng = seeded_rng(5)
        M = rng.standard_normal((10, 5))
        s = thin_svd(M, rank=2)
        assert s.U.shape == (10, 2) and s.sigma.shape == (2,) and s.V.shape == (5, 2)

    def test_deterministic(self):
        rng = seeded_rng(6)
        M = rng.standard_normal((12, 4))
        s1 = thin_svd(M)
        s2 = thin_svd(M)
        assert np.array_equal(s1.U, s2.U)
        assert np.array_equal(s1.sigma, s2.sigma)
        assert np.array_equal(s1.V, s2.V)

    def test_non_finite_rejected(self):
        M = np.array([[1.0], [np.nan]])
        with pytest.raises(InvalidInputError):
            thin_svd(M)


class TestPolarFactor:
    def test_vector(self):
        assert np.allclose(polar_factor(np.array([[3.0], [4.0]])).ravel(), [0.6, 0.8])

    def test_positive_diagonal(self):
        assert np.allclose(polar_factor(2.0 * np.eye(2)), np.eye(2))

    def test_hand_case(self):
        # M (M^T M)^(-1/2) with M^T M = diag(1, 4)
        Q = polar_factor(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.allclose(Q, [[0.0, 1.0], [1.0, 0.0]])

    def test_maximizes_inner_product(self):
        rng = seeded_rng(8)
        for _ in range(3):
            d = int(rng.integers(3, 12))
            k = int(rng.integers(1, min(d, 4) + 1))
            M = rng.standard_normal((d, k))
            Q = polar_factor(M)
            best = float(np.sum(M * Q))
            for _ in range(1000):
                cand = random_stiefel(d, k, rng)
                assert float(np.sum(M * cand)) <= best + 1e-10

    def test_rank_deficient_still_feasible(self):
        M = np.zeros((5, 3))
        M[:, 0] = [2.0, 0, 0, 0, 0]
        Q1 = polar_factor(M)
        Q2 = polar_factor(M)
        assert stiefel_residual(Q1) < 1e-12
        assert np.array_equal(Q1, Q2)

    def test_shape_precondition(self):
        with pytest.raises(PreconditionError):
            polar_factor(np.ones((2, 3)))


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-6)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_rank_one(self):
        assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0, rel=1e-6)

    def test_exact_against_svd(self):
        rng = seeded_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 30))
            n = int(rng.integers(2, 30))
            X = rng.standard_normal((d, n))
            true = np.linalg.svd(X, compute_uv=False)[0]
            for scale in (1.0, 1e160, 1e-160):
                Xs = X * scale
                for M in (Xs, sp.csc_matrix(Xs)):
                    assert spectral_norm(M) == pytest.approx(true * scale, rel=1e-13)

    def test_sparse_input(self):
        X = sp.csc_matrix(np.diag([3.0, 1.0]))
        assert spectral_norm(X) == pytest.approx(3.0, rel=1e-6)

    def test_sparse_vector(self):
        # ARPACK needs k < min(shape); a vector's 2-norm is its Frobenius norm
        x = np.array([[3.0, 0.0, 4.0]])
        assert spectral_norm(sp.csr_matrix(x)) == pytest.approx(5.0, rel=1e-15)
        assert spectral_norm(sp.csc_matrix(x.T * 1e300)) == pytest.approx(5e300, rel=1e-15)

    def test_rel_tol_range(self):
        with pytest.raises(PreconditionError):
            theorem_config(np.eye(2), spectral_rel_tol=2.0)


class TestFrob:
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160, 1e-170])
    def test_scale_invariant(self, scale):
        # squares overflow at 1e160, lose digits at 1e-160 and vanish at 1e-170
        rng = seeded_rng(12)
        for shape in ((1, 1), (5, 2), (30, 17)):
            A = rng.standard_normal(shape)
            ref = frob(A)
            assert ref == pytest.approx(float(np.sqrt((A**2).sum())), rel=1e-14)
            for M in (A * scale, sp.csc_matrix(A) * scale):
                assert frob(M) / scale == pytest.approx(ref, rel=1e-14)

    def test_zero(self):
        assert frob(np.zeros((3, 2))) == 0.0
        assert frob(sp.csc_matrix((3, 2))) == 0.0
        assert frob(np.zeros((0, 2))) == 0.0


class TestStiefelResidual:
    def test_orthonormal(self):
        assert stiefel_residual(np.eye(3)[:, :2]) == 0.0

    def test_scaled_vector(self):
        assert stiefel_residual(np.array([[2.0], [0.0]])) == pytest.approx(3.0)

    def test_tall_identity(self):
        assert stiefel_residual(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])) == 0.0


class TestCompleteOrthonormal:
    def test_completion(self):
        rng = seeded_rng(10)
        U = random_stiefel(7, 3, rng)
        F = complete_orthonormal(U, 7)
        assert np.linalg.norm(F.T @ F - np.eye(7)) < 1e-12
        assert np.array_equal(F[:, :3], U)

    def test_too_many_columns(self):
        with pytest.raises(PreconditionError):
            complete_orthonormal(np.eye(2), 3)


def test_dense_sparse_agree():
    rng = seeded_rng(11)
    Xd = rng.standard_normal((8, 12))
    Xd[np.abs(Xd) < 0.8] = 0.0
    Xs = sp.csc_matrix(Xd)
    assert abs(spectral_norm(Xd) - spectral_norm(Xs)) < 1e-12
    Q = random_stiefel(8, 2, rng)
    assert np.allclose(Xd.T @ Q, (Xs.T @ Q), atol=1e-12)
