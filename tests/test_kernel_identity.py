"""The solver loop's kernels against their references in conftest, byte for byte.

``sign_select``, ``polar_factor`` and ``stiefel_residual`` take lean paths
that must give the same bytes, memory layout and error class as the
references, and a whole ``solve`` must not move when the references are
swapped in.  ``polar_factor``'s reference is its Gram route written plainly
(``polar_factor_gram_reference``); the SVD reference it falls back to stays
the yardstick of accuracy, and of the exact bytes of every declined input.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    polar_factor_gram_reference,
    polar_factor_reference,
    sign_select_reference,
    stiefel_residual_reference,
)
from l1pca import linalg, model, solvers
from l1pca.errors import DegenerateUpdateError, InvalidInputError
from l1pca.linalg import polar_factor, random_stiefel, seeded_rng, stiefel_residual
from l1pca.model import ProblemInstance, sign_select
from l1pca.solvers import METHODS, SolverConfig, draw_start, solve, theorem_config

_SCALES = st.sampled_from([1.0, 1e160, 1e-160])
_IDENTITY = settings(max_examples=150, deadline=None, derandomize=True)


def _outcome(fn, *args):
    """What a kernel call gives: the error class, or the value with its type, layout and bytes."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    if isinstance(out, np.ndarray):
        return out.dtype, out.shape, out.strides, out.tobytes()
    return type(out), np.float64(out).tobytes()


def _assert_same(fn, ref, *args):
    # 1e160-scale Gram entries overflow in both; compare the results, not the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        assert _outcome(fn, *args) == _outcome(ref, *args)


@st.composite
def _shapes(draw):
    """(rows, cols) with rows >= cols: tall, square or single-column."""
    kind = draw(st.sampled_from(["tall", "square", "column"]))
    rows = draw(st.integers(1 if kind != "tall" else 2, 9))
    if kind == "tall":
        return rows, draw(st.integers(1, rows - 1))
    return rows, rows if kind == "square" else 1


@st.composite
def _matrices(draw, shape=None):
    """A matrix of a given or drawn shape: Gaussian of a drawn rank (0 is the zero matrix),
    some entries set to exact 0.0 or -0.0, optionally a column repeated, times a scale."""
    rows, cols = shape if shape is not None else draw(_shapes())
    g = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(0, cols))
    M = g.standard_normal((rows, rank)) @ g.standard_normal((rank, cols))
    zeros = g.random((rows, cols)) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    M[zeros] = np.where(g.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    if cols > 1 and draw(st.booleans()):
        M[:, -1] = M[:, 0]
    M = M * draw(_SCALES)
    return np.asfortranarray(M) if draw(st.booleans()) else M


class TestSignSelect:
    @_IDENTITY
    @given(data=st.data())
    def test_matches_reference(self, data):
        M = data.draw(_matrices())
        Pprev = np.where(seeded_rng(data.draw(st.integers(0, 99))).random(M.shape) < 0.5, -1.0, 1.0)
        if data.draw(st.booleans()):
            Pprev = np.asfortranarray(Pprev)
        _assert_same(sign_select, sign_select_reference, M, Pprev)

    def test_signed_zeros_take_previous_sign(self):
        M = np.array([[0.0, -0.0], [-0.0, 5e-324], [-5e-324, 0.0]])
        P = np.array([[-1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]])
        assert np.array_equal(sign_select(M, P), [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
        _assert_same(sign_select, sign_select_reference, M, P)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        M = np.ones((3, 2))
        M[1, 1] = bad
        _assert_same(sign_select, sign_select_reference, M, np.ones((3, 2)))
        assert _outcome(sign_select, M, np.ones((3, 2))) is InvalidInputError

    def test_shape_mismatch(self):
        _assert_same(sign_select, sign_select_reference, np.ones((3, 2)), np.ones((2, 3)))


class TestPolarFactor:
    @_IDENTITY
    @given(M=_matrices())
    def test_matches_reference(self, M):
        _assert_same(polar_factor, polar_factor_gram_reference, M)

    @_IDENTITY
    @given(M=_matrices())
    def test_incomplete_matches_reference(self, M):
        # None for rank-deficient M, decided on the same singular values
        _assert_same(polar_factor, polar_factor_gram_reference, M, False)

    @_IDENTITY
    @given(M=_matrices())
    def test_close_to_svd_reference(self, M):
        # the Gram route serves only cond(M) <= 4, where it agrees with the SVD to roundoff
        assert np.abs(polar_factor(M) - polar_factor_reference(M)).max() <= 1e-13
        assert stiefel_residual(polar_factor(M)) <= 1e-13
        assert (polar_factor(M, False) is None) == (polar_factor_reference(M, False) is None)

    @_IDENTITY
    @given(M=_matrices())
    def test_inverse_helper_matches(self, M):
        # the solver's carried steps take Q from _polar_and_inverse: the same
        # bytes, with a T exactly when the Gram route serves M (None and e = 0
        # on the SVD route), and Q = (M / 2^e) T to roundoff times the
        # condition number
        _assert_same(lambda A: linalg._polar_and_inverse(A)[0], polar_factor, M)
        Q, T, e = linalg._polar_and_inverse(M)
        As = np.ldexp(M, -math.frexp(linalg.frob(M))[1])
        w, _, info = linalg.dsyevd(As.T @ As)
        assert (T is not None) == (info == 0 and 16.0 * w[0] >= w[-1] > 0.0)
        if T is None:
            assert e == 0
        else:
            sigma = np.linalg.svd(M, compute_uv=False)
            bound = 8 * np.finfo(float).eps * sigma[0] / sigma[-1] * max(M.shape)
            assert np.linalg.norm(np.ldexp(M, -e) @ T - Q) <= bound

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
    @pytest.mark.parametrize(
        "M",
        [
            np.zeros((5, 3)),
            np.zeros((1, 1)),
            np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -0.0], [1.0, 0.0, 3.0], [0.0, 0.0, 1.0]]),
            np.eye(4)[:, :3] * [1.0, 1e-17, 1.0],
        ],
        ids=["zero", "zero-1x1", "repeated-column", "zero-column", "below-cutoff"],
    )
    def test_rank_deficient(self, M, scale):
        _assert_same(polar_factor, polar_factor_reference, M * scale)
        assert stiefel_residual(polar_factor(M * scale)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        M = np.ones((4, 2))
        M[0, 1] = bad
        _assert_same(polar_factor, polar_factor_reference, M)
        assert _outcome(polar_factor, M) is InvalidInputError

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.ones((3, 0)), np.ones(3)])
    def test_shape_precondition(self, M):
        _assert_same(polar_factor, polar_factor_reference, M)


def _two_columns(first, second):
    """A 4 x 2 matrix whose columns hold ``first`` from row 0 and ``second`` from row 2:
    disjoint supports, so its Gram matrix is diagonal and formed exactly."""
    M = np.zeros((4, 2))
    M[: len(first), 0] = first
    M[2 : 2 + len(second), 1] = second
    return M


class TestGramRoute:
    """Which inputs ``polar_factor`` serves from the Gram matrix, and what the others give."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """A count of the SVDs taken while the test runs."""
        counts = {"svd": 0}
        real_svd = np.linalg.svd

        def svd(*args, **kwargs):
            counts["svd"] += 1
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        return counts

    @staticmethod
    def _served(M, calls):
        """Whether polar_factor(M) took no SVD; its bytes are then the Gram reference's."""
        before = calls["svd"]
        Q = polar_factor(M)
        served = calls["svd"] == before
        if served:
            _assert_same(polar_factor, polar_factor_gram_reference, M)
            assert np.abs(Q - polar_factor_reference(M)).max() <= 1e-13
            assert stiefel_residual(Q) <= 1e-13
        else:
            _assert_same(polar_factor, polar_factor_reference, M)
        return served

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160, 1e-300, 1e-310])
    def test_scales(self, calls, scale):
        # at 1e-310 every entry is subnormal, and frob(M) below 2^-1023
        M = seeded_rng(3).standard_normal((40, 3))
        assert self._served(M * scale, calls)
        # a column 1/10 of the others puts cond(M) near 14
        assert not self._served(M * [1.0, 1.0, 0.1] * scale, calls)

    @pytest.mark.parametrize(
        "M, toward",
        [
            (_two_columns([1.0], [0.25, 2.0**-28]), math.inf),
            (_two_columns([1.0], [0.25]), None),
            (_two_columns([1.0, 2.0**-26], [0.25]), -math.inf),
        ],
        ids=["ulp-above", "at", "ulp-below"],
    )
    def test_ratio_boundary(self, calls, M, toward):
        # the smallest eigenvalue of the prescaled Gram matrix is 1/16 of the
        # largest, or one ulp off it; the route serves down to 1/16 inclusive
        As = np.ldexp(M, -math.frexp(linalg.frob(M))[1])
        w = np.linalg.eigvalsh(As.T @ As)
        edge = w[-1] / 16
        assert w[0] == (edge if toward is None else np.nextafter(edge, toward))
        assert self._served(M, calls) == (toward != -math.inf)

    @pytest.mark.parametrize("shape", [(5, 3), (1, 1), (4, 4)])
    def test_zero_matrix_declined(self, calls, shape):
        assert not self._served(np.zeros(shape), calls)
        assert not self._served(np.asfortranarray(-np.zeros(shape)), calls)

    def test_fortran_order(self, calls):
        M = seeded_rng(4).standard_normal((500, 20))
        F = np.asfortranarray(M)
        assert self._served(F, calls)
        assert np.abs(polar_factor(F) - polar_factor(M)).max() <= 1e-15
        assert not self._served(np.asfortranarray(M * np.geomspace(1.0, 1e-3, 20)), calls)

    def test_failed_eigensolve_takes_svd(self, monkeypatch):
        real = linalg.dsyevd
        monkeypatch.setattr(linalg, "dsyevd", lambda G: real(G)[:2] + (1,))
        M = seeded_rng(5).standard_normal((30, 4))
        _assert_same(polar_factor, polar_factor_reference, M)
        assert linalg._polar_and_inverse(M)[1:] == (None, 0)


class TestStiefelResidual:
    @_IDENTITY
    @given(data=st.data())
    def test_matches_reference(self, data):
        rows, cols = data.draw(_shapes())
        if data.draw(st.booleans()):
            Q = random_stiefel(rows, cols, seeded_rng(data.draw(st.integers(0, 99)))) * data.draw(_SCALES)
        else:
            Q = data.draw(_matrices((rows, cols)))
        _assert_same(stiefel_residual, stiefel_residual_reference, Q)

    def test_non_finite(self):
        Q = np.eye(3)[:, :2].copy()
        Q[2, 0] = np.nan
        _assert_same(stiefel_residual, stiefel_residual_reference, Q)
        assert _outcome(stiefel_residual, Q) is InvalidInputError


_KERNELS = {
    "sign_select": sign_select_reference,
    "polar_factor": polar_factor_gram_reference,
    "stiefel_residual": stiefel_residual_reference,
}


def _solve_outcome(monkeypatch, reference, inst, cfg, P0, Q0):
    """Everything a solve returns but wall times, with the references bound in place of the kernels if asked."""
    with monkeypatch.context() as m:
        if reference:
            for module in (linalg, model, solvers):
                for name, ref in _KERNELS.items():
                    if hasattr(module, name):
                        m.setattr(module, name, ref)
        try:
            res = solve(inst, cfg, P0, Q0)
        except Exception as exc:  # noqa: BLE001 - the class and message are what is compared
            return type(exc), str(exc)
    t = res.trace
    return (
        _outcome(lambda: res.P_final),
        _outcome(lambda: res.Q_final),
        (t.k, t.h_value, t.psi_value, t.delta_P_norm, t.delta_Q_norm, t.delta_C_norm),
        res.iterations,
        res.converged,
        res.termination_reason,
        res.final_objective,
        res.audit_info,
    )


def _instance(storage, d=20, n=40, K=3):
    X = seeded_rng(d, n, K).standard_normal((d, n))
    return ProblemInstance(sp.csc_matrix(X) if storage == "csc" else X, K)


class TestSolveIdentity:
    @pytest.mark.parametrize("storage", ["dense", "csc"])
    @pytest.mark.parametrize("method", METHODS)
    def test_methods(self, monkeypatch, method, storage):
        inst = _instance(storage)
        P0, Q0 = draw_start(inst, 3)
        cfg = SolverConfig(method=method, gamma=0.5, max_iter=300)
        new = _solve_outcome(monkeypatch, False, inst, cfg, P0, Q0)
        assert new[3] > 1
        assert new == _solve_outcome(monkeypatch, True, inst, cfg, P0, Q0)

    @pytest.mark.parametrize("storage", ["dense", "csc"])
    @pytest.mark.parametrize("method", ["pame", "pam"])
    def test_theorem_mode(self, monkeypatch, method, storage):
        inst = _instance(storage, d=30, n=60, K=4)
        P0, Q0 = draw_start(inst, 5)
        cfg = theorem_config(inst.X, method=method)
        new = _solve_outcome(monkeypatch, False, inst, cfg, P0, Q0)
        assert new[-1] is not None
        assert new == _solve_outcome(monkeypatch, True, inst, cfg, P0, Q0)

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_data(self, monkeypatch, method):
        # fpm raises DegenerateUpdateError at X P = 0; the anchored methods stop after one step
        inst = ProblemInstance(np.zeros((6, 10)), 2)
        P0, Q0 = draw_start(inst, 0)
        new = _solve_outcome(monkeypatch, False, inst, SolverConfig(method=method), P0, Q0)
        assert (new[0] is DegenerateUpdateError) == (method == "fpm")
        assert new == _solve_outcome(monkeypatch, True, inst, SolverConfig(method=method), P0, Q0)
