"""In-memory span tracer around the public functions of each l1pca module.

The tracer rebinds each traced function wherever a module of the package
binds it (``l1pca.solvers.polar_factor``, ``l1pca.verify.thin_svd``,
``l1pca.linalg.thin_svd``, ...), so calls between modules and within one
module both open a span.  Nothing in the library changes; the bindings are
restored when the traced unit ends, so untraced ops run the original code.

A span is ``[name, start, end, parent, op]``; the spans of one op share its
op id, and a parent of -1 marks the op's root span.  Self time is a span's
duration minus the durations of its direct children, which never overlap
because one thread runs everything.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: the package's modules and the public functions traced in each
LAYERS = {
    "linalg": ("polar_factor", "thin_svd", "spectral_norm", "stiefel_residual"),
    "model": ("sign_select", "objective_h", "objective_l1", "subgrad_dist_linear", "subgrad_dist_h"),
    "solvers": ("solve", "theorem_config", "draw_start", "run_comparison"),
    "verify": ("enumerate_oracle", "oracle_suite", "criticality_report", "decrease_and_error_audit"),
    "data": ("gen_fixed_effect", "read_sparse_labeled", "write_sparse_labeled"),
    "metrics": ("tev", "choose_K_by_variance", "kmeans_accuracy"),
    "cli": ("main",),
}
#: traced functions that run in a workload's setup rather than in its ops
SETUP_FUNCTIONS = ("data.gen_fixed_effect", "data.write_sparse_labeled")

_MODULES = ("l1pca",) + tuple(f"l1pca.{m}" for m in LAYERS)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _sign_flips(args, kwargs, out, parent):
    # only the solver's sign step; certificates re-select signs at the limit
    if parent != "solvers.solve":
        return {}
    Pprev = _arg(args, kwargs, 1, "Pprev")
    return {"flips": int((out != Pprev).sum()), "entries": int(out.size)}


def _solve_iters(args, kwargs, out, parent):
    return {"iters": int(out.iterations)}


def _oracle_candidates(args, kwargs, out, parent):
    X = _arg(args, kwargs, 0, "X")
    K = _arg(args, kwargs, 1, "K")
    return {"candidates": 2 ** (X.shape[1] * K)}


def _file_bytes(args, kwargs, out, parent):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


#: counts recorded at the span of these functions, from arguments, result
#: and the name of the calling span
COUNTERS = {
    "model.sign_select": _sign_flips,
    "solvers.solve": _solve_iters,
    "verify.enumerate_oracle": _oracle_candidates,
    "data.read_sparse_labeled": _file_bytes,
}


class Tracer:
    """Collects spans and counts for traced units (ops, or the setup)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, dict] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = None
        self._modules = [importlib.import_module(m) for m in _MODULES]
        self._originals = [
            (fname, f"{layer}.{fname}", inspect.unwrap(getattr(importlib.import_module(f"l1pca.{layer}"), fname)))
            for layer, names in LAYERS.items()
            for fname in names
        ]

    def _bindings(self):
        """Yield (module, attribute, bound object, span name) for each binding.

        A binding counts when it is the original function or a wrapper of it
        (``__wrapped__``), so a hook a workload installs is traced as well.
        """
        for fname, name, original in self._originals:
            for mod in self._modules:
                bound = getattr(mod, fname, None)
                if bound is not None and inspect.unwrap(bound) is original:
                    yield mod, fname, bound, name

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self._op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, out, spans[span[3]][0]).items():
                    self.counts[(self._op, name)][key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def unit(self, op):
        """Trace everything called inside the block as unit ``op``."""
        self._op = op
        root = [f"op:{op}", 0.0, 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        installed = []
        for mod, fname, bound, name in list(self._bindings()):
            wrapper = self._wrap(bound, name)
            setattr(mod, fname, wrapper)
            installed.append((mod, fname, bound, wrapper))
        root[1] = time.perf_counter()
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            # leave alone a binding the traced code itself replaced
            for mod, fname, bound, wrapper in installed:
                if getattr(mod, fname) is wrapper:
                    setattr(mod, fname, bound)
            self._stack.clear()
            self._op = None

    def self_times(self) -> dict[tuple, list[float]]:
        """Map (op, name) to [calls, self seconds, inclusive seconds]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            acc = out[(op, name)]
            acc[0] += 1
            acc[1] += end - start - child_time[i]
            acc[2] += end - start
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, times: dict, ops: list) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics over the traced ``ops`` plus the traced setup.

    ``times`` is ``tracer.self_times()``.  A metric whose layer did no work
    in the workload reads 0.
    """
    n = len(ops)
    metrics: dict[str, tuple[float, str]] = {}
    incl: dict[str, float] = {}
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for layer, names in LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            calls = self_s = inclusive = 0.0
            for op in ops:
                c, s, i = times.get((op, name), (0, 0.0, 0.0))
                calls, self_s, inclusive = calls + c, self_s + s, inclusive + i
                for key, value in tracer.counts.get((op, name), {}).items():
                    counts[name][key] += value
            metrics[f"{name}.calls"] = (calls / n, "count")
            metrics[f"{name}.self_s"] = (self_s / n, "s")
            incl[name] = inclusive
    for name in SETUP_FUNCTIONS:
        metrics[f"setup.{name}.self_s"] = (times.get(("setup", name), (0, 0.0, 0.0))[1], "s")

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    pf_calls = metrics["linalg.polar_factor.calls"][0] * n
    iters = counts["solvers.solve"]["iters"]
    flips = counts["model.sign_select"]
    cands = counts["verify.enumerate_oracle"]["candidates"]
    metrics["linalg.polar_factor.us_per_call"] = (ratio(incl["linalg.polar_factor"], pf_calls, 1e6), "us")
    metrics["solvers.solve.iters"] = (iters / n, "count")
    metrics["solvers.solve.ms_per_iter"] = (ratio(incl["solvers.solve"], iters, 1e3), "ms")
    metrics["model.sign_select.flip_frac"] = (ratio(flips["flips"], flips["entries"]), "frac")
    metrics["verify.enumerate_oracle.candidates"] = (cands / n, "count")
    metrics["verify.enumerate_oracle.us_per_candidate"] = (ratio(incl["verify.enumerate_oracle"], cands, 1e6), "us")
    read_bytes = counts["data.read_sparse_labeled"]["bytes"]
    metrics["data.read_sparse_labeled.mb_per_s"] = (ratio(read_bytes / 1e6, incl["data.read_sparse_labeled"]), "MB/s")
    return metrics


def self_time_totals(times: dict) -> dict:
    """Sum of span self times per traced unit, from ``Tracer.self_times()``."""
    totals: dict = defaultdict(float)
    for (op, _), (_, self_s, _) in times.items():
        totals[op] += self_s
    return totals
