"""One workload run in its own process: set up, run ops closed-loop, report.

``run.py`` starts this script with BLAS/OpenMP threads pinned to 1 in its
environment.  It imports ``l1pca`` from ``src/`` of the checkout, builds the
workload's inputs, then runs one op at a time until ``--seconds`` have
passed and at least the workload's ``min_ops`` ops are done, timing a
library-free reference pass between ops (``reference.py``).  It prints one
JSON line: the op records, the monotonic time at which set-up finished, peak
memory and the environment.  With ``--trace 1`` each op runs twice, untraced
and traced, alternating which goes first; the traced copy's spans give the
layer metrics and are written to ``out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from reference import make_reference_pass  # noqa: E402
from tracer import Tracer, layer_metrics, self_time_totals  # noqa: E402
from workloads import WORKLOADS, OpCheck, cleanup  # noqa: E402

OUT = BENCH / "out"
#: traced runs time at least this many untraced/traced pairs
MIN_TRACE_PAIRS = 2


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``, split from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def run_one(wl, state, i: int, seed: int, tracer: Tracer | None) -> dict:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(state, seed)
        else:
            with tracer.unit(i):
                out = wl.op(state, seed)
        wall = time.perf_counter() - t0
        check = wl.check(state, out)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        wall = time.perf_counter() - t0
        check = OpCheck(ok=False, iters=None, quality=0.0, reason=f"{type(exc).__name__}: {exc}")
    return {
        "i": i,
        "traced": tracer is not None,
        "wall_s": wall,
        "ok": check.ok,
        "iters": check.iters,
        "quality": check.quality,
        "reason": check.reason,
    }


def run_ops(wl, state, seed: int, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Run ops closed-loop; each record's ``ref_s`` is its time in reference seconds."""
    records = []
    min_rounds = wl.min_ops if tracer is None else MIN_TRACE_PAIRS
    reference_pass, baseline_s = make_reference_pass(wl.reference)
    begin = time.monotonic()
    before = reference_pass()
    i = 0
    while i < min_rounds or time.monotonic() - begin < seconds:
        s = op_seed(seed, i)
        for tr in (None,) if tracer is None else (None, tracer) if i % 2 == 0 else (tracer, None):
            rec = run_one(wl, state, i, s, tr)
            after = reference_pass()
            rec["pass_s"] = (before + after) / 2
            rec["ref_s"] = rec["wall_s"] * baseline_s / rec["pass_s"]
            before = after
            records.append(rec)
        i += 1
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="exit once the inputs are built")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    if tracer is None:
        state = wl.setup(args.seed, OUT)
    else:
        with tracer.unit("setup"):
            state = wl.setup(args.seed, OUT)
    result = {"ready": time.monotonic()}
    try:
        if not args.setup_only:
            records = run_ops(wl, state, args.seed, args.seconds, tracer)
            result["ops"] = records
            result["min_ops"] = wl.min_ops
            result["min_mean_quality"] = wl.min_mean_quality
    finally:
        cleanup(state)
    if tracer is not None and not args.setup_only:
        times = tracer.self_times()
        traced = [r for r in records if r["traced"]]
        totals = self_time_totals(times)
        # every span lies inside its op, so self times cannot add up to more
        result["self_time_ok"] = all(totals[r["i"]] <= r["wall_s"] for r in traced)
        result["layers"] = layer_metrics(tracer, times, [r["i"] for r in traced])
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
