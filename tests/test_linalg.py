import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_orthonormal_reference, with_duplicates
from l1pca.errors import DimensionMismatchError, InvalidInputError, PreconditionError
from l1pca import linalg, metrics, verify
from l1pca.linalg import (
    _xt,
    complete_orthonormal,
    frob,
    polar_factor,
    random_stiefel,
    require_finite,
    seeded_rng,
    spectral_norm,
    stiefel_residual,
    thin_svd,
)
from l1pca.metrics import choose_K_by_variance, tev
from l1pca.model import ProblemInstance
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

    @staticmethod
    def _counting(monkeypatch):
        """Record the shapes that np.linalg.svd and linalg.dsyevd are called on."""
        calls = {"svd": [], "dsyevd": []}
        real_svd, real_dsyevd = np.linalg.svd, linalg.dsyevd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls["svd"].append(a.shape) or real_svd(a, **kw))
        monkeypatch.setattr(linalg, "dsyevd", lambda a, **kw: calls["dsyevd"].append(a.shape) or real_dsyevd(a, **kw))
        return calls

    @staticmethod
    def _six_by_three(rank):
        """A 6 x 3 matrix of the given rank; "cond3" is full rank with cond(M) = 3, which the Gram route serves."""
        rng = seeded_rng(9)
        if rank == "cond3":
            return random_stiefel(6, 3, rng) * [1.0, 2.0, 3.0], True
        return rng.standard_normal((6, rank)) @ rng.standard_normal((rank, 3)), False

    @pytest.mark.parametrize("rank", [0, 1, 2, 3, "cond3"])
    def test_incomplete_is_none_below_full_rank(self, monkeypatch, rank):
        # the rank comes from one eigensolve and, where the Gram route declines,
        # one SVD, and nothing is completed
        M, served = self._six_by_three(rank)
        full = polar_factor(M)
        calls = self._counting(monkeypatch)
        monkeypatch.setattr(linalg, "complete_orthonormal", None)
        Q = polar_factor(M, complete=False)
        assert calls == {"dsyevd": [(3, 3)], "svd": [] if served else [(6, 3)]}
        assert Q is None if rank in (0, 1, 2) else np.array_equal(Q, full)

    @pytest.mark.parametrize("rank", [0, 1, 2, 3, "cond3"])
    def test_one_factorization_at_any_rank(self, monkeypatch, rank):
        M, served = self._six_by_three(rank)
        calls = self._counting(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("polar_factor called thin_svd")

        monkeypatch.setattr(linalg, "thin_svd", refuse)
        Q = polar_factor(M)
        assert calls == {"dsyevd": [(3, 3)], "svd": [] if served else [(6, 3)]}
        assert stiefel_residual(Q) < 1e-12


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

    @staticmethod
    def _agrees_with_svd(X):
        true = np.linalg.svd(X, compute_uv=False)[0]
        for M in (X, sp.csc_matrix(X)):
            assert spectral_norm(M) == pytest.approx(true, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-170])
    def test_far_scales_against_svd(self, scale):
        # X X^T overflows at 1e300; at 1e-170 and 1e-300 its entries underflow
        X = seeded_rng(13).standard_normal((7, 11))
        self._agrees_with_svd(X * scale)

    def test_norm_below_least_normal(self):
        # frob(X) below 2^-1023 puts 2^1023 < 2^-e; integer entries times
        # 2^-1040 are exact, and the subnormal result keeps about 37 bits
        X = seeded_rng(15).integers(-9, 10, (6, 10)).astype(float)
        for M in (X, sp.csc_matrix(X)):
            tiny = spectral_norm(M * 2.0**-1040)
            assert np.ldexp(tiny, 1040) == pytest.approx(spectral_norm(M), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1)])
    def test_single_row_or_column(self, shape):
        self._agrees_with_svd(seeded_rng(14).standard_normal(shape))

    def test_rank_deficient_wide(self):
        rng = seeded_rng(15)
        X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 40))
        self._agrees_with_svd(X)

    def test_sparse_input(self):
        X = sp.csc_matrix(np.diag([3.0, 1.0]))
        assert spectral_norm(X) == pytest.approx(3.0, rel=1e-6)

    def test_sparse_vector(self):
        # ARPACK needs k < min(shape); a vector's 2-norm is its Frobenius norm
        x = np.array([[3.0, 0.0, 4.0]])
        assert spectral_norm(sp.csr_matrix(x)) == pytest.approx(5.0, rel=1e-15)
        assert spectral_norm(sp.csc_matrix(x.T * 1e300)) == pytest.approx(5e300, rel=1e-15)

    @pytest.mark.parametrize("shape", [(100, 3000), (3000, 100)])
    def test_sparse_dense_side_takes_no_lanczos(self, monkeypatch, shape):
        # a Gram side of 100 is at most linalg._DENSE_SIDE: the whole spectrum, densely
        def refuse(*args, **kwargs):
            raise AssertionError("eigsh called")

        rng = seeded_rng(17)
        X = sp.random(*shape, density=0.02, format="csc", rng=rng)
        true = np.linalg.svd(X.toarray(), compute_uv=False)[0]
        monkeypatch.setattr(linalg, "eigsh", refuse)
        assert spectral_norm(X) == pytest.approx(true, rel=1e-13, abs=0.0)

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

    def test_subnormal(self):
        # the largest entry lies below 2^-1023, so its power-of-two prescale (2^1039) is not a float
        A = np.full((3, 4), 2.0**-1040)
        for M in (A, sp.csc_matrix(A)):
            assert frob(M) == pytest.approx(12**0.5 * 2.0**-1040, rel=1e-9)

    def test_zero(self):
        assert frob(np.zeros((3, 2))) == 0.0
        assert frob(sp.csc_matrix((3, 2))) == 0.0
        assert frob(np.zeros((0, 2))) == 0.0

    @pytest.mark.parametrize("fmt", ["coo", "csr", "csc"])
    def test_duplicate_entries_summed(self, fmt):
        # every entry stored as two duplicates; the caller's matrix keeps them
        A = seeded_rng(13).standard_normal((5, 7))
        M = with_duplicates(0.25 * A, 0.75 * A, fmt)
        stored = M.data.copy()
        assert frob(M) == pytest.approx(frob(A), rel=1e-14)
        assert M.nnz == 2 * A.size and np.array_equal(M.data, stored)
        assert frob(with_duplicates(A, -A, fmt)) == 0.0


@st.composite
def _any_scale(draw):
    """A finite nonzero X, dense or CSC, of at most 6 x 6 entries, whose largest entry has any
    binary exponent from -1074 to 1023 and whose others lie up to 2^2200 below it (subnormal or
    rounded to zero there); at exponent 1023 with equal magnitudes ||X||_F overflows."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = draw(st.integers(-1074, 1023) | st.sampled_from([-1074, -1022, -300, 300, 1020, 1023]))
    spread = draw(st.sampled_from([0, 4, 60, 2200]))
    g = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.ldexp(g.uniform(1.0, 2.0, (rows, cols)), top - g.integers(0, spread + 1, (rows, cols)))
    X.flat[g.integers(X.size)] = np.ldexp(1.5, top)
    X *= g.choice([-1.0, 1.0], (rows, cols))
    return sp.csc_matrix(X) if draw(st.booleans()) else X


class TestPrescaled:
    """``_prescaled``, the library's one power-of-two scale rule, at every binary exponent."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_any_scale())
    def test_rule(self, X):
        norm = frob(X)
        Y, e = linalg._prescaled(X, norm)
        if 2.0**-300 <= norm <= 2.0**300:
            assert e == 0 and Y is X
            return
        Xd, Yd = X.toarray() if sp.issparse(X) else X, Y.toarray() if sp.issparse(Y) else Y
        # X / 2^e, correctly rounded: exact wherever the quotient is a normal number
        assert np.array_equal(Yd, np.ldexp(Xd, -e))
        normal = np.abs(Yd) >= 2.0**-1022
        assert np.array_equal(np.ldexp(Yd[normal], e), Xd[normal])
        assert 0.5 * (1.0 - 4 * np.finfo(np.float64).eps) <= frob(Y) < 1.0


@pytest.fixture
def prescales(monkeypatch):
    """[number of ``_prescaled`` calls] through its bindings in linalg, metrics and verify."""
    calls = [0]
    real = linalg._prescaled

    def counting(X, norm):
        calls[0] += 1
        return real(X, norm)

    for module in (linalg, metrics, verify):
        monkeypatch.setattr(module, "_prescaled", counting)
    return calls


class TestOnePrescalePerEntry:
    """Kernels compute, entries scale: each spectral entry takes the power-of-two scale once,
    and ``_gram``, ``_top_eigenvalues`` and ``verify._tie_blocks`` under it take none."""

    @pytest.mark.parametrize("entry", ["tev", "choose_K_by_variance", "spectral_norm"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("d", [6, 300], ids=["dense-side", "lanczos-side"])
    def test_metrics_and_spectral_norm(self, prescales, d, sparse, entry):
        rng = seeded_rng(71)
        X = rng.standard_normal((d, d + 20))
        Q = random_stiefel(d, 3, rng)
        X = sp.csc_matrix(X) if sparse else X
        {"tev": lambda: tev(X, Q), "choose_K_by_variance": lambda: choose_K_by_variance(X, 0.8),
         "spectral_norm": lambda: spectral_norm(X)}[entry]()
        assert prescales == [1]

    @pytest.mark.parametrize("scale", [1.0, 2.0**1022])
    def test_verify(self, prescales, scale):
        A = np.random.default_rng(0).standard_normal((20, 40))[:, :3] * scale
        verify.kappa_constant(A)
        assert prescales == [1]
        prescales[0] = 0
        verify.critical_set_spec(A, [1.0] * 3)
        assert prescales == [1]


class TestRequireFinite:
    """Sparse formats whose ``.data`` is not the stored values are read through a COO copy."""

    @pytest.mark.parametrize("fmt", ["lil", "dok", "dia"])
    def test_other_sparse_formats(self, fmt):
        rng = seeded_rng(18)
        X = np.where(rng.random((30, 50)) < 0.2, rng.standard_normal((30, 50)), 0.0)
        M = sp.csr_matrix(X).asformat(fmt)
        before = M.toarray()
        Q = random_stiefel(30, 3, rng)
        require_finite(M)
        assert spectral_norm(M) == pytest.approx(spectral_norm(X), rel=1e-13)
        assert tev(M, Q) == pytest.approx(tev(X, Q), rel=1e-13)
        assert choose_K_by_variance(M, 0.8) == choose_K_by_variance(X, 0.8)
        assert ProblemInstance(M, 3).X is M
        assert M.format == fmt and np.array_equal(M.toarray(), before)
        X[2, 3] = np.inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            require_finite(sp.csr_matrix(X).asformat(fmt))

    def test_dia_padding_is_not_an_entry(self):
        # offset -1 stores data[0, j] at (j + 1, j): the last slot lies below the matrix
        padded = sp.dia_matrix(([[1.0, 2.0, np.inf]], [-1]), shape=(3, 3))
        require_finite(padded)
        assert np.isinf(padded.data[0, 2])
        with pytest.raises(InvalidInputError, match="non-finite"):
            require_finite(sp.dia_matrix(([[np.inf, 2.0, 1.0]], [-1]), shape=(3, 3)))


class TestStiefelResidual:
    def test_orthonormal(self):
        assert stiefel_residual(np.eye(3)[:, :2]) == 0.0

    def test_scaled_vector(self):
        assert stiefel_residual(np.array([[2.0], [0.0]])) == pytest.approx(3.0)

    def test_tall_identity(self):
        assert stiefel_residual(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])) == 0.0

    @pytest.mark.parametrize("Q", [np.ones(3), np.float64(1.0), np.ones((2, 2, 1))])
    def test_not_a_matrix(self, Q):
        with pytest.raises(PreconditionError, match="2-d"):
            stiefel_residual(Q)


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

    @pytest.mark.parametrize(
        "d, k, n_cols",
        [(1, 0, 1), (5, 0, 3), (7, 3, 7), (12, 1, 5), (40, 6, 20), (200, 4, 10)],
    )
    def test_matches_projector_reference(self, d, k, n_cols):
        # same basis vector picked for every slot (lowest index on ties), same
        # columns to roundoff, for drawn and axis-aligned starting columns
        rng = seeded_rng(12, d, k)
        for U in (random_stiefel(d, k, rng) if k else np.zeros((d, 0)), np.eye(d)[:, ::-1][:, :k]):
            F = complete_orthonormal(U, n_cols)
            assert np.max(np.abs(F - complete_orthonormal_reference(U, n_cols)), initial=0.0) <= 1e-14
            assert np.linalg.norm(F.T @ F - np.eye(n_cols)) < 1e-12

    def test_memory_linear_in_d(self):
        # the d x d projector of d = 4000 alone would take 128 MB
        import tracemalloc

        U = random_stiefel(4000, 1, seeded_rng(13))
        tracemalloc.start()
        try:
            complete_orthonormal(U, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 3 * 8 * 8


def test_dense_sparse_agree():
    rng = seeded_rng(11)
    Xd = rng.standard_normal((8, 12))
    Xd[np.abs(Xd) < 0.8] = 0.0
    Xs = sp.csc_matrix(Xd)
    assert abs(spectral_norm(Xd) - spectral_norm(Xs)) < 1e-12
    Q = random_stiefel(8, 2, rng)
    assert np.allclose(Xd.T @ Q, (Xs.T @ Q), atol=1e-12)


@st.composite
def _xt_operands(draw):
    """(X, Q) for ``_xt``: d > n, d < n or d = n, K up to min(d, n), X dense in
    C or F order or CSC/CSR with some zero entries, Q in C or F order."""
    d, n = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    K = draw(st.sampled_from(sorted({1, min(d, n), draw(st.integers(1, min(d, n)))})))
    g = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    X = g.standard_normal((d, n)) * (g.random((d, n)) < 0.7)
    Q = g.standard_normal((d, K))
    Q = np.asfortranarray(Q) if draw(st.booleans()) else Q
    storage = draw(st.sampled_from(["C", "F", "csc", "csr"]))
    if storage in ("csc", "csr"):
        return sp.csc_matrix(X) if storage == "csc" else sp.csr_matrix(X), Q
    return np.asarray(X, order=storage), Q


class TestXt:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_xt_operands())
    def test_matches_plain_product(self, operands):
        X, Q = operands
        out = _xt(X, Q)
        ref = X.T @ Q
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == (X.shape[1], Q.shape[1]) and out.flags.c_contiguous
        if sp.issparse(X):
            assert np.array_equal(out, ref)
        else:
            # each entry is a length-d dot product, which any summation order
            # gets within gamma_d = d (eps/2) / (1 - d eps/2) times |X|^T |Q|
            # of exact; two orders differ by at most twice that, here with room
            bound = 2 * X.shape[0] * np.finfo(np.float64).eps * (np.abs(X).T @ np.abs(Q))
            assert np.all(np.abs(out - ref) <= bound)

    def test_plain_product_off_C_order(self):
        # F-order and sparse X keep X.T @ Q bit for bit
        g = seeded_rng(71)
        X, Q = g.standard_normal((30, 50)), g.standard_normal((30, 7))
        for Xs in (np.asfortranarray(X), sp.csc_matrix(X), sp.csr_matrix(X)):
            assert np.array_equal(_xt(Xs, Q), Xs.T @ Q)

    @pytest.mark.parametrize("storage", ["C", "F", "csc"])
    def test_row_mismatch(self, storage):
        X = np.ones((4, 6))
        X = sp.csc_matrix(X) if storage == "csc" else np.asarray(X, order=storage)
        with pytest.raises(DimensionMismatchError, match="Q has 3 rows, X has 4"):
            _xt(X, np.ones((3, 2)))
