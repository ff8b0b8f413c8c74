"""Checks folded into the solver's hot path.

Each array there is checked once, by arithmetic its step does anyway: a NaN
or infinite entry still raises InvalidInputError naming the array, before
any floating-point warning, and an entry of 1e200 (whose square overflows)
or 1e-200 (whose square underflows) passes the check as any finite entry
does.  Tier-1 turns numpy's floating-point warnings into errors, so a check
that warned first would fail here.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from l1pca import verify
from l1pca.errors import InvalidInputError, PreconditionError
from l1pca.linalg import (
    _polar_and_inverse,
    as_dense,
    frob,
    polar_factor,
    random_signs,
    random_stiefel,
    seeded_rng,
    spectral_norm,
    stiefel_residual,
    thin_svd,
)
from l1pca.metrics import choose_K_by_variance, tev
from l1pca.model import ProblemInstance, require_stiefel, sign_select, subgrad_dist_h
from l1pca.solvers import SolverConfig, resolve_config, solve

NON_FINITE = pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
EXTREME = pytest.mark.parametrize("value", [1e200, -1e200, 1e-200], ids=["1e200", "-1e200", "1e-200"])


@pytest.fixture
def case():
    g = seeded_rng(29, 5, 6, 2)
    X = g.standard_normal((5, 6))
    return X, random_signs(6, 2, g), random_stiefel(5, 2, g)


def put(M, value, at=(1, 0)):
    M = M.copy()
    M[at] = value
    return M


def refused(fn, cls, message):
    with pytest.raises(cls) as info:
        fn()
    assert str(info.value) == message


@NON_FINITE
class TestNonFiniteRefused:
    def test_polar_factor(self, case, value):
        X, P, Q = case
        for A in (put(X @ P, value), np.full((5, 2), value)):
            refused(lambda: polar_factor(A), InvalidInputError, "polar_factor input contains non-finite entries")

    def test_stiefel_residual(self, case, value):
        _, _, Q = case
        # one entry; every entry (infinities of both signs meet in Q^T Q); a zero beside the entry
        # (inf * 0 in Q^T Q); and a 1-d input, whose finiteness is checked before its shape
        for M in (put(Q, value), Q * value, put(np.eye(5, 2), value), put(Q, value)[:, 0]):
            refused(lambda: stiefel_residual(M), InvalidInputError, "stiefel_residual input contains non-finite entries")

    def test_sign_select(self, case, value):
        X, P, Q = case
        refused(lambda: sign_select(put(X.T @ Q, value), P), InvalidInputError, "sign_select input contains non-finite entries")

    def test_subgrad_dist_h(self, case, value):
        X, P, Q = case
        for bad_Q in (put(Q, value), Q * value, put(Q, value).T, put(Q, value)[:, 0]):
            refused(lambda: subgrad_dist_h(X, P, bad_Q), InvalidInputError, "Q contains non-finite entries")
        refused(lambda: subgrad_dist_h(X, put(P, value), Q), InvalidInputError, "P contains non-finite entries")

    def test_solve_start(self, case, value):
        X, P, Q = case
        inst, cfg = ProblemInstance(X, 2), SolverConfig(gamma=0.5)
        refused(lambda: solve(inst, cfg, put(P, value), Q), InvalidInputError, "P0 contains non-finite entries")
        for Q0 in (put(Q, value), Q * value):
            refused(lambda: solve(inst, cfg, P, Q0), InvalidInputError, "Q0 contains non-finite entries")


@EXTREME
class TestExtremeFiniteEntries:
    def test_polar_factor(self, case, value):
        X, P, _ = case
        A = X @ P
        # the whole input at the entry's scale has the factor of A, times the sign
        assert np.allclose(polar_factor(A * value), polar_factor(A) * np.sign(value), atol=1e-14)
        Q = polar_factor(put(A, value))
        assert stiefel_residual(Q) < 1e-14
        if abs(value) > 1.0:
            # A is of numerical rank one, and Q's first column lies along the entry
            assert Q[1, 0] == pytest.approx(np.sign(value), abs=1e-14)
        else:
            assert np.allclose(Q, polar_factor(put(A, 0.0)), atol=1e-14)

    def test_stiefel_residual(self, case, value):
        _, _, Q = case
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(value) > 1.0:
                # Q^T Q overflows: the residual is infinite, and no refusal is raised
                assert stiefel_residual(put(Q, value)) == math.inf
                assert stiefel_residual(Q * value) == math.inf
            else:
                # Q^T Q underflows to 0: the residual is ||I||_F
                assert stiefel_residual(Q * value) == math.sqrt(2.0)
                M = put(Q, value)
                assert stiefel_residual(M) == np.linalg.norm(M.T @ M - np.eye(2))

    def test_sign_select(self, case, value):
        X, P, Q = case
        M = put(X.T @ Q, value)
        assert np.array_equal(sign_select(M, P), np.sign(M))

    def test_start_refused_as_infeasible(self, case, value):
        X, P, Q = case
        inst, cfg = ProblemInstance(X, 2), SolverConfig(gamma=0.5)
        refused(lambda: solve(inst, cfg, put(P, value), Q), PreconditionError, "P0 must have all entries exactly +-1")
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="^Q0 is not feasible: orthonormality residual"):
            solve(inst, cfg, P, put(Q, value))
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="^Q is not feasible: orthonormality residual"):
            subgrad_dist_h(X, P, put(Q, value))


class TestOverflowingSquares:
    """Finite entries whose sum of squares overflows: no refusal, no warning, and no
    ``np.errstate`` here, so Tier-1's filters would turn any warning into a failure."""

    def test_frob_is_infinite(self):
        M = np.full((5, 2), 1e308)
        assert frob(M) == math.inf
        assert frob(sp.csc_matrix(M)) == math.inf
        assert frob(M * 0.5) == pytest.approx(math.sqrt(10.0) * 0.5e308)

    def test_polar_factor_of_rank_one_input(self):
        # the SVD route factors M / 2^1024, whose entries are not ones: equal to roundoff
        assert np.allclose(polar_factor(np.full((5, 2), 1e308)), polar_factor(np.ones((5, 2))), rtol=0.0, atol=1e-15)

    def test_polar_factor_by_the_gram_route(self, case):
        X, P, _ = case
        M = X @ P
        M *= 1.5e308 / np.abs(M).max()
        assert frob(M) == math.inf
        Q, T, e = _polar_and_inverse(M)
        # a power-of-two scale leaves the factor's bits, and Q = (M / 2^e) T still holds
        assert T is not None and np.array_equal(Q, polar_factor(M * 2.0**-1000))
        assert np.array_equal(np.ldexp(M, -e) @ T, Q)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_spectrum_of_overflowing_norm(self, sparse):
        # ||X||_F overflows but ||X||_2 does not: the Gram prescale comes from the largest entry
        X = seeded_rng(30).standard_normal((50, 40)) * 1e307
        X = sp.csc_matrix(X) if sparse else X
        assert frob(X) == math.inf
        assert spectral_norm(X) == pytest.approx(spectral_norm(X / 16.0) * 16.0, rel=1e-14)
        assert spectral_norm(X * 4.0) == math.inf
        Q = thin_svd(as_dense(X) / 16.0).U[:, :3]
        assert tev(X, Q) == pytest.approx(tev(X / 16.0, Q), rel=1e-14)
        assert choose_K_by_variance(X, 0.5) == choose_K_by_variance(X / 16.0, 0.5)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_declared_norm_bound_of_overflowing_norm(self, sparse):
        # ||X||_F overflows, so the Frobenius floor on ||X||_2 is compared after the Gram prescale
        X = seeded_rng(30).standard_normal((50, 40)) * 1e307
        X = sp.csc_matrix(X) if sparse else X
        assert frob(X) == math.inf and spectral_norm(X) < 1.4e308

        def config(bound):
            return SolverConfig(method="pam", alpha=1e308, beta=1e308, theorem_mode=True, norm_upper=bound)

        assert resolve_config(config(1.4e308), X).bounds["norm_upper"] == 1.4e308
        floor = frob(X / 16.0) / math.sqrt(40) * 16.0  # 7.1e307
        refused(lambda: resolve_config(config(0.99 * floor), X), PreconditionError,
                f"theorem_mode: declared norm_upper={0.99 * floor:g} is not a finite upper bound on ||X||_2 "
                f"(||X||_F / sqrt(min(d, n)) = {floor:g})")

    def test_stiefel_residual_is_infinite(self, case):
        _, P, Q = case
        assert stiefel_residual(put(Q, 1e200)) == math.inf
        assert stiefel_residual(Q * 1e200) == math.inf
        refused(lambda: stiefel_residual(np.full(4, 1e200)), PreconditionError,
                "stiefel_residual expects a 2-d matrix, got 1-d input")

    def test_frame_checks_refuse(self, case):
        X, P, Q = case
        message = "Q is not feasible: orthonormality residual inf > 1.0e-06"
        refused(lambda: require_stiefel(Q * 1e200), PreconditionError, message)
        with pytest.raises(PreconditionError, match="^Q is not feasible: orthonormality residual inf"):
            subgrad_dist_h(X, P, put(Q, 1e200))
        with pytest.raises(PreconditionError, match="^Q0 is not feasible: orthonormality residual inf"):
            solve(ProblemInstance(X, 2), SolverConfig(gamma=0.5), P, put(Q, 1e200))


def test_subgrad_dist_h_takes_one_residual(case, monkeypatch):
    X, P, Q = case
    calls = []

    def counting(M):
        calls.append(M)
        return stiefel_residual(M)

    monkeypatch.setattr("l1pca.model.stiefel_residual", counting)
    subgrad_dist_h(X, P, Q)
    assert len(calls) == 1


def test_subgrad_dist_h_names_itself_for_feas_tol(case):
    X, P, Q = case
    refused(lambda: subgrad_dist_h(X, P, Q, feas_tol=math.nan), PreconditionError, "subgrad_dist_h needs a finite feas_tol, got nan")


@pytest.mark.parametrize("complete", ["x", None, math.nan, -1, 1, 0.0], ids=["str", "none", "nan", "-1", "1", "0.0"])
def test_polar_factor_complete_must_be_a_bool(complete):
    refused(lambda: polar_factor(np.eye(3, 2), complete=complete), PreconditionError,
            f"polar_factor needs a bool complete, got {complete!r}")


def test_polar_factor_complete_takes_numpy_bools():
    rank_one = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
    assert polar_factor(rank_one, complete=np.False_) is None
    assert stiefel_residual(polar_factor(rank_one, complete=np.True_)) < 1e-14


class TestSeparationBlocks:
    @staticmethod
    def full_minimum(A, q, qprime, samples, seed):
        """The probe's value over the whole samples x samples x d x K array of differences."""
        spec_q, spec_p = verify.critical_set_spec(A, q), verify.critical_set_spec(A, qprime)
        rng = seeded_rng(seed, 0xC417)
        left = np.stack([verify.sample_critical_point(spec_q, rng) for _ in range(samples)])
        right = np.stack([verify.sample_critical_point(spec_p, rng) for _ in range(samples)])
        diff = left[:, None, :, :] - right[None, :, :, :]
        return float(np.sqrt((diff**2).sum(axis=(2, 3))).min())

    # 61 samples: any block of more than one row leaves a shorter last block
    @pytest.mark.parametrize("block_bytes", [None, 1, 20000], ids=["default", "one_row", "uneven"])
    def test_blocked_minimum_is_bit_identical(self, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(verify, "_SEPARATION_BLOCK_BYTES", block_bytes)
        g = seeded_rng(29, 0x5E9)
        for i in range(6):
            d = 2 + i % 5
            K = 1 + i % min(d, 3)
            r = 1 + i % K
            vals = np.sort(g.uniform(0.5, 3.0, size=r))[::-1].copy()
            if i % 2 == 1 and r >= 2:
                vals[1] = vals[0]
            A = (random_stiefel(d, r, g) * vals) @ random_stiefel(K, r, g).T
            q = np.ones(r)
            qprime = q.copy()
            qprime[0] = -1.0
            expected = self.full_minimum(A, q, qprime, samples=61, seed=i)
            assert verify.critical_set_separation_probe(A, q, qprime, samples=61, seed=i) == expected

    def test_buffer_bounded_at_default_samples(self):
        g = seeded_rng(29, 6, 3)
        A = (random_stiefel(6, 3, g) * [3.0, 2.0, 1.0]) @ random_stiefel(3, 3, g).T
        tracemalloc.start()
        try:
            dist = verify.critical_set_separation_probe(A, np.ones(3), [-1.0, 1.0, 1.0], samples=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole array of differences would take 1000 * 1000 * 6 * 3 * 8 bytes = 144 MB
        assert peak < 20e6
        assert dist >= 2.0 - 1e-9
