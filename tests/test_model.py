import numpy as np
import pytest

from l1pca.errors import DimensionMismatchError, InvalidInputError, PreconditionError
from l1pca.linalg import random_stiefel, seeded_rng
from l1pca.model import (
    ProblemInstance,
    objective_h,
    objective_l1,
    potential_psi,
    require_stiefel,
    residual_R,
    sign_select,
    subgrad_dist_h,
    subgrad_dist_linear,
)

SQRT2 = np.sqrt(2.0)


class TestProblemInstance:
    def test_valid(self):
        inst = ProblemInstance(np.eye(3), 2, labels=np.array([0, 1, 0]))
        assert inst.d == 3 and inst.n == 3

    def test_bad_K(self):
        with pytest.raises(PreconditionError):
            ProblemInstance(np.eye(3), 4)

    def test_bad_labels(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance(np.eye(3), 1, labels=np.array([0, 1]))

    def test_zero_matrix_allowed(self):
        ProblemInstance(np.zeros((2, 2)), 1)


class TestObjectives:
    def test_l1_diagonal_direction(self):
        Q = np.array([[1.0], [1.0]]) / SQRT2
        assert objective_l1(np.eye(2), Q) == pytest.approx(SQRT2, abs=1e-12)

    def test_l1_zero(self):
        assert objective_l1(np.zeros((2, 3)), np.array([[1.0], [0.0]])) == 0.0

    def test_l1_canonical(self):
        assert objective_l1(np.eye(2), np.array([[1.0], [0.0]])) == 1.0

    def test_h_matches_negated_l1_at_signs(self):
        rng = seeded_rng(21)
        X = rng.standard_normal((4, 6))
        Q = random_stiefel(4, 2, rng)
        P = np.sign(X.T @ Q)
        assert objective_h(X, P, Q) == pytest.approx(-objective_l1(X, Q), abs=1e-12)

    def test_h_zero_data(self):
        assert objective_h(np.zeros((2, 2)), np.ones((2, 1)), np.array([[1.0], [0.0]])) == 0.0

    def test_h_hand_value(self):
        X = np.eye(2)
        Q = np.array([[0.6], [0.8]])
        P = np.array([[1.0], [-1.0]])
        assert objective_h(X, P, Q) == pytest.approx(0.2, abs=1e-12)

    def test_h_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            objective_h(np.eye(2), np.ones((3, 1)), np.array([[1.0], [0.0]]))

    def test_l1_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="Q has 3 rows, X has 2"):
            objective_l1(np.eye(2), np.ones((3, 1)))


class TestPotential:
    def test_equal_states(self):
        rng = seeded_rng(22)
        X = rng.standard_normal((3, 5))
        Q = random_stiefel(3, 1, rng)
        P = np.ones((5, 1))
        assert potential_psi(X, P, Q, Q, 7.0) == objective_h(X, P, Q)

    def test_beta_zero(self):
        rng = seeded_rng(23)
        X = rng.standard_normal((3, 5))
        Q = random_stiefel(3, 1, rng)
        Qp = random_stiefel(3, 1, rng)
        P = np.ones((5, 1))
        assert potential_psi(X, P, Q, Qp, 0.0) == objective_h(X, P, Q)

    def test_unit_displacement(self):
        X = np.eye(2)
        P = np.ones((2, 1))
        Q = np.array([[1.0], [0.0]])
        Qp = np.array([[0.0], [1.0]])  # ||Q - Qp||_F = sqrt(2); use beta = 1 -> h + 1
        assert potential_psi(X, P, Q, Qp, 1.0) == pytest.approx(objective_h(X, P, Q) + 1.0, abs=1e-12)

    def test_monotone_in_beta(self):
        rng = seeded_rng(24)
        X = rng.standard_normal((4, 4))
        P = np.ones((4, 2))
        Q = random_stiefel(4, 2, rng)
        Qp = random_stiefel(4, 2, rng)
        vals = [potential_psi(X, P, Q, Qp, b) for b in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_beta(self):
        with pytest.raises(PreconditionError):
            potential_psi(np.eye(2), np.ones((2, 1)), np.eye(2)[:, :1], np.eye(2)[:, :1], -1.0)


class TestResidualMap:
    def test_critical_direction(self):
        A = np.array([[2.0], [0.0]])
        Q = np.array([[1.0], [0.0]])
        assert np.allclose(residual_R(A, Q), 0.0)

    def test_orthogonal_direction(self):
        A = np.array([[1.0], [0.0]])
        Q = np.array([[0.0], [1.0]])
        assert np.allclose(residual_R(A, Q), A)

    def test_zero_A(self):
        rng = seeded_rng(25)
        Q = random_stiefel(4, 2, rng)
        assert np.allclose(residual_R(np.zeros((4, 2)), Q), 0.0)


class TestSubgradDistances:
    def test_hand_value_one(self):
        assert subgrad_dist_linear(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])) == pytest.approx(1.0)

    def test_zero_at_critical(self):
        assert subgrad_dist_linear(np.array([[2.0], [0.0]]), np.array([[1.0], [0.0]])) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_two(self):
        # A = (2,0), Q = (cos pi/2, sin pi/2): R = A and the projector keeps it
        assert subgrad_dist_linear(np.array([[2.0], [0.0]]), np.array([[0.0], [1.0]])) == pytest.approx(2.0)

    def test_infeasible_rejected(self):
        with pytest.raises(PreconditionError):
            subgrad_dist_linear(np.eye(2), np.array([[2.0], [0.0]]))

    def test_sandwich_random(self):
        rng = seeded_rng(26)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(d, 3) + 1))
            A = rng.standard_normal((d, k))
            Q = random_stiefel(d, k, rng)
            Rn = np.linalg.norm(residual_R(A, Q))
            dist = subgrad_dist_linear(A, Q)
            assert dist <= Rn * (1 + 1e-12)
            assert dist >= 0.5 * Rn * (1 - 1e-12)

    def test_h_distance_hand_value(self):
        X = np.eye(2)
        P = np.array([[1.0], [1.0]])
        Q = np.array([[1.0], [0.0]])
        assert subgrad_dist_h(X, P, Q) == pytest.approx(1.0)

    def test_h_zero_data(self):
        assert subgrad_dist_h(np.zeros((2, 2)), np.ones((2, 1)), np.array([[1.0], [0.0]])) == 0.0

    def test_h_requires_signs(self):
        with pytest.raises(PreconditionError):
            subgrad_dist_h(np.eye(2), np.full((2, 1), 0.5), np.array([[1.0], [0.0]]))

    def test_one_dimensional_Q_rejected(self):
        with pytest.raises(PreconditionError, match="2-d"):
            subgrad_dist_h(np.eye(2), np.ones((2, 1)), np.array([1.0, 0.0]))
        with pytest.raises(PreconditionError, match="2-d"):
            require_stiefel(np.array([1.0, 0.0]))


class TestSignSelect:
    def test_all_zero_keeps_previous(self):
        P = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(sign_select(np.zeros((2, 2)), P), P)

    def test_negative_entry(self):
        assert sign_select(np.array([[-0.3]]), np.array([[1.0]]))[0, 0] == -1.0

    def test_entrywise_rule(self):
        M = np.array([[0.5, 0.0], [-2.0, 0.0]])
        P = np.array([[-1.0, -1.0], [1.0, 1.0]])
        assert np.array_equal(sign_select(M, P), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            sign_select(np.array([[np.nan]]), np.array([[1.0]]))

    def test_consistency_with_objectives(self):
        rng = seeded_rng(27)
        for _ in range(50):
            X = rng.standard_normal((5, 7))
            Q = random_stiefel(5, 2, rng)
            M = X.T @ Q
            if np.any(M == 0.0):
                continue
            P = sign_select(M, np.ones_like(M))
            assert objective_h(X, P, Q) == pytest.approx(-objective_l1(X, Q), abs=1e-12)
