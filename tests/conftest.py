import numpy as np
import pytest
import scipy.sparse as sp

from l1pca.linalg import random_signs, random_stiefel, seeded_rng
from l1pca.model import ProblemInstance


@pytest.fixture
def rng():
    return seeded_rng(20240613)


def make_instance(n, d, K, seed=0, scale=1.0):
    g = seeded_rng(seed, n, d, K)
    return ProblemInstance(scale * g.standard_normal((d, n)), K)


def make_start(inst, seed=0):
    g = seeded_rng(seed, 0xABCD)
    return random_signs(inst.n, inst.K, g), random_stiefel(inst.d, inst.K, g)


def counting_products(X):
    """X as an ndarray subclass that counts the matrix products taken with it or its transpose."""
    counter = {"matmul": 0}

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                counter["matmul"] += 1
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    return X.view(Counting), counter


def gram_eigenvalues_reference(X):
    """All eigenvalues of the dense smaller-side Gram matrix, nonincreasing: the spectrum before Lanczos."""
    A = X.toarray() if sp.issparse(X) else np.asarray(X)
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return np.linalg.eigvalsh(G)[::-1]


def variance_K_reference(X, threshold):
    """choose_K_by_variance as it stood before Lanczos: the cumulative rule over the whole spectrum."""
    w = np.maximum(gram_eigenvalues_reference(X), 0.0)
    w = w[w > w[0] * 1e-12]
    total = float(w.sum())
    return int(np.argmax(np.cumsum(w) >= threshold * total - 1e-12 * total)) + 1
