"""Paired in-process A/B timing of one op on two l1pca source trees.

Usage::

    python tools/paired_ab.py PARENT_SRC CHANGE_SRC --op oracle --calls 400

PARENT_SRC and CHANGE_SRC are directories holding an ``l1pca`` package
(``src`` in a checkout).  Both are imported into one process, side by side,
as the packages ``l1pca_parent`` and ``l1pca_change``.  Each of ``--calls``
pairs runs the op once on each tree with the same op seed, parent first on
even pairs and change first on odd ones, and times each call in CPU seconds
(``time.process_time``) and in wall seconds (``time.perf_counter``).  One
warm-up call per tree is not counted.  The last line of stdout is one JSON
object: the median of the per-pair change/parent CPU-time ratios, its
quartiles, and in how many pairs the change took less CPU time
(``ratio_*``, ``change_won``), and the same of the wall-time ratios
(``wall_ratio_*``, ``wall_change_won``).  CPU time sums every thread of the
process, so it misstates a change whose library calls run worker threads;
wall time then shows what a caller waits.

A benchmark run in its own process sees the load of the whole machine, which
can drift by 10% between runs; the two calls of a pair see the same load, so
their ratio resolves smaller differences.  The ops are the benchmark's
workloads at the same sizes:

* ``oracle``: ``verify.oracle_suite(instances=1, restarts=20, n=6, d=5, K=2)``.
* ``desk``: ``solvers.run_comparison`` of the six methods with the paper
  flags at n=500, d=200, K=10 (``gen_fixed_effect`` data, seed 0).
* ``large``: ``theorem_config``, ``draw_start``, ``solve``,
  ``decrease_and_error_audit`` and ``criticality_report`` at n=2000, d=500,
  K=20.
* ``cluster``: the CLI's ``cluster --auto-K`` on a seeded sparse labeled
  file of 3000 samples, 1500 features and five clusters.
* ``read``: ``data.read_sparse_labeled`` of the same file, the parse layer
  of ``cluster`` alone.
* ``spectrum``: ``metrics.choose_K_by_variance`` at thresholds 0.8 and 0.9
  on the matrix of the same file, read once: the Lanczos layer of
  ``cluster`` apart from the parse.

BLAS and OpenMP thread counts are pinned to 1 unless already set.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

OPS = ("oracle", "desk", "large", "cluster", "read", "spectrum")
DATA_SEED = 0


def load(src: str, alias: str):
    """Import the ``l1pca`` package under ``src`` as the package ``alias``, with its submodules."""
    root = Path(src).resolve() / "l1pca"
    for name in [m for m in sys.modules if m == alias or m.startswith(f"{alias}.")]:
        del sys.modules[name]  # a stale copy would serve the submodule imports
    spec = importlib.util.spec_from_file_location(alias, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name in ("cli", "data", "solvers", "verify"):
        importlib.import_module(f"{alias}.{name}")
    return package


def _sparse_file(pkg, directory: Path) -> Path:
    """The benchmark's cluster-sparse file at workload seed 0, written by ``pkg``: five clusters
    on disjoint sets of 80 features, plus noise."""
    n, d, k, topic, noise = 3000, 1500, 5, 80, 14
    rng = np.random.default_rng([DATA_SEED, 0xC1A5])
    labels = np.repeat(np.arange(1, k + 1), n // k)
    rng.shuffle(labels)
    topics = rng.permutation(d)[: k * topic].reshape(k, topic)
    cols_t, slot = np.nonzero(rng.random((n, topic)) < 0.95)
    rows_t = topics[labels[cols_t] - 1, slot]
    vals_t = rng.uniform(0.5, 1.5, rows_t.size)
    cols_n = np.repeat(np.arange(n), noise)
    rows_n = rng.integers(0, d, cols_n.size)
    vals_n = rng.uniform(0.0, 0.2, cols_n.size)
    entries = (np.concatenate([vals_t, vals_n]), (np.concatenate([rows_t, rows_n]), np.concatenate([cols_t, cols_n])))
    X = sp.coo_matrix(entries, shape=(d, n)).tocsc()
    X.sum_duplicates()
    path = directory / f"{pkg.__name__}-clusters.txt"
    pkg.data.write_sparse_labeled(path, X, labels.astype(np.float64))
    return path


def make_op(pkg, op: str, directory: Path):
    """The callable that runs ``op`` once on the package ``pkg``, given an op seed."""
    if op == "oracle":
        return lambda seed: pkg.verify.oracle_suite(instances=1, restarts=20, n=6, d=5, K=2, seed=seed)
    if op == "desk":
        X, _, _ = pkg.data.gen_fixed_effect(pkg.data.FixedEffectSpec(n=500, d=200, K=10, sigma=0.5, seed=DATA_SEED))
        inst = pkg.ProblemInstance(X, 10)
        configs = [
            pkg.SolverConfig(method=m, alpha=1e-4, beta=1.0, gamma=0.8, tol=1e-8, max_iter=2000)
            for m in pkg.solvers.METHODS
        ]
        return lambda seed: pkg.solvers.run_comparison(inst, configs, seed=seed)
    if op == "large":
        X, _, _ = pkg.data.gen_fixed_effect(pkg.data.FixedEffectSpec(n=2000, d=500, K=20, sigma=0.5, seed=DATA_SEED))
        inst = pkg.ProblemInstance(X, 20)

        def large(seed):
            cfg = pkg.solvers.theorem_config(inst.X)
            res = pkg.solvers.solve(inst, cfg, *pkg.solvers.draw_start(inst, seed))
            pkg.verify.decrease_and_error_audit(res)
            pkg.verify.criticality_report(inst.X, res.P_final, res.Q_final, alpha_star=cfg.alpha)

        return large
    if op == "cluster":
        path = _sparse_file(pkg, directory)

        def cluster(seed):
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg.cli.main(["cluster", "--input", str(path), "--auto-K", "--seed", str(seed)])
            if code != 0:
                raise RuntimeError(f"cluster exited with code {code}")

        return cluster
    if op == "read":
        path = _sparse_file(pkg, directory)
        return lambda seed: pkg.data.read_sparse_labeled(path)
    if op == "spectrum":
        X = pkg.data.read_sparse_labeled(_sparse_file(pkg, directory)).X
        return lambda seed: [pkg.metrics.choose_K_by_variance(X, threshold) for threshold in (0.8, 0.9)]
    raise ValueError(f"unknown op {op!r}; expected one of {OPS}")


def _seconds(fn, seed: int) -> tuple[float, float]:
    """(CPU seconds, wall seconds) of one call."""
    c0, w0 = time.process_time(), time.perf_counter()
    fn(seed)
    return time.process_time() - c0, time.perf_counter() - w0


def _summary(ratios: list[float], prefix: str) -> dict:
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (ratios[0],) * 3
    return {
        f"{prefix}ratio_median": median,
        f"{prefix}ratio_q1": q1,
        f"{prefix}ratio_q3": q3,
        f"{prefix}change_won": sum(r < 1.0 for r in ratios),
    }


def paired(parent, change, calls: int, seed: int = 0) -> dict:
    """Time ``calls`` pairs of ``parent(s)`` and ``change(s)``, alternating which goes first."""
    parent(seed)
    change(seed)
    cpu, wall = [], []
    for i in range(calls):
        s = seed + i
        if i % 2 == 0:
            p = _seconds(parent, s)
            c = _seconds(change, s)
        else:
            c = _seconds(change, s)
            p = _seconds(parent, s)
        cpu.append(c[0] / p[0] if p[0] > 0.0 else 1.0)
        wall.append(c[1] / p[1] if p[1] > 0.0 else 1.0)
    return {"calls": calls, **_summary(cpu, ""), **_summary(wall, "wall_")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--op", required=True, choices=OPS)
    p.add_argument("--calls", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="op seed of the first pair; pair i takes seed + i")
    args = p.parse_args(argv)
    if args.calls < 1 or args.seed < 0:
        p.error("--calls must be >= 1 and --seed >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        parent = make_op(load(args.parent_src, "l1pca_parent"), args.op, Path(tmp))
        change = make_op(load(args.change_src, "l1pca_change"), args.op, Path(tmp))
        out = {"op": args.op, **paired(parent, change, args.calls, args.seed)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
