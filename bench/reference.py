"""Reference pass: fixed, library-free work that tracks the machine's speed.

On the 2-vCPU VM this benchmark was written on, the host's speed drifts by up
to 2x over seconds to minutes, and op wall times follow it.  Between ops the
child times one pass of the parts below that the workload names, and reports
each op's time in reference seconds::

    ref_s = wall_s * baseline(parts) / (mean of the passes before and after the op)

where ``baseline(parts)`` is the sum of the parts' ``BASELINE_S``, their median
times on that machine, so that reference seconds read close to wall seconds
there.  A change to the library moves the op's time and not the pass's, so it
shows in full; the machine's drift moves both and largely cancels.

Each part mirrors one kind of hot path in the workloads.  Nothing here calls
``l1pca``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

#: median seconds of each part on the baseline machine (README.md)
BASELINE_S = {
    "tiny_svd": 0.012,  # per-call overhead: 800 SVDs of a 5x2 matrix
    "small_blas": 0.008,  # 30 products (200x500)(500x20) and SVDs of 200x10
    "stream": 0.017,  # 3 product pairs with an 8 MB 500x2000 matrix
    "matvec": 0.014,  # 16 products X^T (X v) with that matrix, as in power iteration
    "parse": 0.017,  # 10 parses of a 2000-token "index:value" line
    "sparse": 0.024,  # 20 products of a 1500x3000 6%-dense matrix with 5 columns
}


def make_reference_pass(parts: tuple[str, ...]):
    """Return ``(one_pass, baseline_s)``; ``one_pass()`` times one pass of ``parts``."""
    unknown = set(parts) - set(BASELINE_S)
    if unknown:
        raise ValueError(f"unknown reference parts {sorted(unknown)}")
    rng = np.random.default_rng(0)
    tiny = rng.standard_normal((5, 2))
    B, C, D = rng.standard_normal((200, 500)), rng.standard_normal((500, 20)), rng.standard_normal((200, 10))
    M, Q, P = rng.standard_normal((500, 2000)), rng.standard_normal((500, 20)), rng.standard_normal((2000, 20))
    v = rng.standard_normal(2000)
    text = " ".join(f"{i}:{x:.6f}" for i, x in enumerate(rng.random(2000)))
    # 90 entries per column, built in CSC form directly to keep memory small
    per_col = 90
    S = sp.csc_matrix(
        (rng.random(3000 * per_col), rng.integers(0, 1500, 3000 * per_col, dtype=np.int32), np.arange(3001) * per_col),
        shape=(1500, 3000),
    )
    V = rng.standard_normal((3000, 5))

    def tiny_svd():
        for _ in range(800):
            np.linalg.svd(tiny, full_matrices=False)

    def small_blas():
        for _ in range(30):
            B @ C
            np.linalg.svd(D, full_matrices=False)

    def stream():
        for _ in range(3):
            M.T @ Q
            M @ P

    def matvec():
        for _ in range(16):
            M.T @ (M @ v)

    def parse():
        for _ in range(10):
            [(int(k), float(x)) for k, x in (tok.split(":") for tok in text.split())]

    def sparse():
        for _ in range(20):
            S @ V

    work = {f.__name__: f for f in (tiny_svd, small_blas, stream, matvec, parse, sparse)}
    steps = [work[p] for p in parts]

    def one_pass() -> float:
        t0 = time.perf_counter()
        for step in steps:
            step()
        return time.perf_counter() - t0

    one_pass()  # warm caches and lazy initialisation
    return one_pass, sum(BASELINE_S[p] for p in parts)


def part_times(repeats: int = 40) -> dict[str, float]:
    """Median seconds of each part over ``repeats`` passes, to re-derive BASELINE_S."""
    times = {p: [] for p in BASELINE_S}
    passes = {p: make_reference_pass((p,))[0] for p in BASELINE_S}
    for _ in range(repeats):
        for p, one_pass in passes.items():
            times[p].append(one_pass())
    return {p: statistics.median(t) for p, t in times.items()}


if __name__ == "__main__":
    for name, seconds in part_times().items():
        print(f"{name:10s} {seconds:.4f} s")
