"""Batch front end: generate data, run/compare solvers, verify, evaluate.

Solver flags default to SolverConfig's values (cluster: tol 1e-6).  A --config
JSON entry is read, and checked, as the flag of its name (max_iter is --max-iter)
given before the explicit flags; other keys, and config, input and out, are ignored.
Float flags must be finite numbers and verify's counts and sizes integers >= 1,
by the library's own converters; seeds must be >= 0.  Exit codes: 0
success (or all checks passed), 2 usage/precondition error (compare: also
when no method produced a result, after the table is written), 3 solver
stopped at the iteration cap, 4 internal numerical failure, 1 verification
suite failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ._args import count, finite
from .data import (
    _DENSE_MAGIC,
    FixedEffectSpec,
    gen_fixed_effect,
    read_dense_matrix,
    read_sparse_labeled,
    write_dense_matrix,
    write_sparse_labeled,
    write_trace,
)
from .errors import (
    DegenerateUpdateError,
    DimensionMismatchError,
    DivergedError,
    InvalidInputError,
    ParseError,
    PreconditionError,
    UndefinedMetricError,
    UnsupportedRegimeError,
)
from .metrics import _TEV_ZERO, _choose_K, _spectrum, _tev_ratio, kmeans_accuracy, tev
from .model import ProblemInstance, require_stiefel
from .solvers import METHODS, SolverConfig, draw_start, run_comparison, solve
from .verify import (
    audit_suite,
    criticality_report,
    error_bound_suite,
    kl_suite,
    oracle_suite,
    sandwich_probe,
    separation_suite,
)

SCHEMA_VERSION = 1

#: the solver flags of solve, compare and cluster (theorem_mode: solve's switch), with SolverConfig's defaults
_SOLVER_FLAGS = {
    f.name: f.default
    for f in fields(SolverConfig)
    if f.name in ("method", "alpha", "beta", "gamma", "tol", "max_iter", "seed", "theorem_mode")
}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def _read_json(path) -> dict:
    """The JSON object in the file at ``path``: invalid JSON is a ParseError, any other value an InvalidInputError."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", exc.lineno) from None
    if not isinstance(value, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return value


def _meta_count(meta: dict, key: str, path: Path) -> int:
    """``meta[key]`` if it is an int >= 1 (a bool is not), else an InvalidInputError naming ``path``."""
    value = meta[key]
    if type(value) is not int or value < 1:
        raise InvalidInputError(f"{path}: {key!r} must be an integer >= 1, got {value!r}")
    return value


def _load_instance(path: str, K: int | None = None, n_features: int | None = None) -> ProblemInstance:
    p = Path(path)
    if p.is_dir():
        meta = _read_json(p / "meta.json")
        sparse = meta.get("format") == "sparse"
        try:
            X_path = p / meta["files"]["X"]
            K_eff = K if K is not None else _meta_count(meta, "K", p / "meta.json")
            d = _meta_count(meta, "d", p / "meta.json") if sparse else None
        except KeyError as exc:
            raise InvalidInputError(f"{p / 'meta.json'} has no {exc} entry") from None
        except TypeError:
            raise InvalidInputError(f"{p / 'meta.json'}: 'files' must be an object naming the file 'X'") from None
        if sparse:
            return read_sparse_labeled(X_path, K=K_eff, n_features=d)
        return ProblemInstance(read_dense_matrix(X_path), K_eff)
    with open(p, "rb") as fh:
        magic = fh.read(8)
    if magic == _DENSE_MAGIC:
        if K is None:
            raise PreconditionError("--K is required for dense matrix input")
        return ProblemInstance(read_dense_matrix(p), K)
    return read_sparse_labeled(p, K=K if K is not None else 1, n_features=n_features)


def _config_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """``args.config``'s entries as ``--flag=value`` tokens of the command: strings as is, other values as JSON."""
    actions = parser._subparsers._group_actions[0].choices[args.command]._actions
    flags = {a.dest: a.option_strings[0] for a in actions if a.option_strings and a.nargs != 0}
    return [
        f"{flags[key]}={value if isinstance(value, str) else json.dumps(value)}"
        for key, value in _read_json(args.config).items()
        if key in flags and key not in ("config", "input", "out")
    ]


def _solver_config(args: argparse.Namespace, method: str | None = None) -> SolverConfig:
    """The flags' SolverConfig (for ``method``, if given)."""
    cfg = SolverConfig(**{key: getattr(args, key) for key in _SOLVER_FLAGS})
    return cfg if method is None else replace(cfg, method=method)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    if args.n is None or args.d is None or args.K is None:
        raise PreconditionError("--n, --d and --K are required")
    spec = FixedEffectSpec(n=args.n, d=args.d, K=args.K, sigma=args.sigma, seed=args.seed)
    X, U, Z = gen_fixed_effect(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "dense":
        files = {"X": "X.bin", "U": "U.bin", "Z": "Z.bin"}
        write_dense_matrix(out / files["X"], X)
    else:
        files = {"X": "X.txt", "U": "U.bin", "Z": "Z.bin"}
        write_sparse_labeled(out / files["X"], sp.csc_matrix(X), np.zeros(spec.n))
    write_dense_matrix(out / files["U"], U)
    write_dense_matrix(out / files["Z"], Z)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "n": spec.n,
        "d": spec.d,
        "K": spec.K,
        "sigma": spec.sigma,
        "seed": spec.seed,
        "format": args.format,
        "files": files,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(meta, sort_keys=True))
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args.input, K=args.K)
    cfg = _solver_config(args)
    P0, Q0 = draw_start(inst, args.seed)
    res = solve(inst, cfg, P0, Q0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(res.trace, out / "trace.csv", "csv")
    alpha_star = args.alpha if args.alpha > 0 else 1e-12
    crit = criticality_report(inst.X, res.P_final, res.Q_final, alpha_star=alpha_star)
    try:
        tev_value = tev(inst.X, res.Q_final)
    except UndefinedMetricError:
        tev_value = None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": res.method,
        "converged": res.converged,
        "iterations": res.iterations,
        "termination_reason": res.termination_reason,
        "objective_l1": res.final_objective,
        "tev": tev_value,
        "criticality": crit.to_dict(),
        "config": {key: getattr(cfg, key) for key in _SOLVER_FLAGS if key != "method"},
        "files": {"trace_csv": str(out / "trace.csv")},
    }
    (out / "result.json").write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n", encoding="utf-8")
    print(json.dumps(payload, sort_keys=True, default=float))
    return 0 if res.converged else 3


def cmd_compare(args) -> int:
    inst = _load_instance(args.input, K=args.K)
    methods = sorted({m.strip() for m in args.methods.split(",") if m.strip()})
    # compare has no --method flag; a "method" key in a --config file is ignored
    configs = [_solver_config(args, m) for m in methods]
    outcomes = run_comparison(inst, configs, seed=args.seed)
    lines = ["method,iterations,objective_l1,tev,converged,error"]
    spectrum = None  # one spectrum of X serves every method's tev
    for oc in outcomes:
        if oc.result is not None:
            r = oc.result
            Q = require_stiefel(r.Q_final)
            try:
                if spectrum is None:
                    spectrum = _spectrum(inst.X, _TEV_ZERO, inst.K)
                t = f"{_tev_ratio(*spectrum, Q):.17g}"
            except UndefinedMetricError:
                t = ""
            lines.append(f"{oc.method},{r.iterations},{r.final_objective:.17g},{t},{int(r.converged)},")
        else:
            lines.append(f"{oc.method},,,,,{oc.error}")
    table = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
    print(table, end="")
    if not any(oc.result is not None for oc in outcomes):
        print("error: no method produced a result", file=sys.stderr)
        return 2
    return 0


#: suite name -> the JSON payload of that suite run with the parsed flags
_VERIFY_SUITES = {
    "sandwich": lambda a: sandwich_probe(samples=a.samples, seed=a.seed).to_dict(),
    "critical-sets": lambda a: separation_suite(n_specs=a.specs, samples=a.samples, seed=a.seed).to_dict(),
    "error-bound": lambda a: error_bound_suite(samples=a.samples, seed=a.seed),
    "kl": lambda a: kl_suite(instances=a.instances, samples=a.samples, seed=a.seed),
    "audit": lambda a: audit_suite(
        instances=a.instances,
        sigma=a.sigma,
        seed=a.seed,
        method=a.method,
        # an unset size takes audit_suite's own default
        **{key: getattr(a, key) for key in ("n", "d", "K") if getattr(a, key) is not None},
    ),
    "oracle": lambda a: oracle_suite(
        instances=a.instances,
        restarts=a.restarts,
        seed=a.seed,
        n=a.n,
        d=a.d,
        K=a.K,
    ).to_dict(),
}


def cmd_verify(args) -> int:
    payload = _VERIFY_SUITES[args.suite](args)
    payload["schema_version"] = SCHEMA_VERSION
    _emit(payload, args.out)
    return 0 if payload["passed"] else 1


def cmd_cluster(args) -> int:
    inst = _load_instance(args.input)
    if inst.labels is None:
        raise PreconditionError("clustering requires a labeled dataset")
    # under --auto-K the spectrum that picks K also serves tev below
    K, spectrum = _choose_K(inst.X, args.threshold) if args.auto_K else (args.K, None)
    if K is None:
        raise PreconditionError("pass --K or --auto-K")
    inst = ProblemInstance(inst.X, K, labels=inst.labels)
    cfg = _solver_config(args)
    P0, Q0 = draw_start(inst, args.seed)
    res = solve(inst, cfg, P0, Q0)
    k = len(np.unique(inst.labels))
    accuracy = kmeans_accuracy(inst.X, res.Q_final, inst.labels, k=k, restarts=args.restarts, seed=args.seed)
    if spectrum is None:
        spectrum = _spectrum(inst.X, _TEV_ZERO, K)
    tev_value = _tev_ratio(*spectrum, require_stiefel(res.Q_final))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": res.method,
        "K": int(K),
        "clusters": int(k),
        "accuracy": accuracy,
        "tev": tev_value,
        "converged": res.converged,
        "iterations": res.iterations,
    }
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _flag_type(convert):
    """The argparse type that hands a flag's text to ``convert`` and re-raises its refusal as a usage error."""

    def parse(text: str):
        try:
            return convert(text)
        except PreconditionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _int_text(text: str):
    """``int(text)``, or the text itself for ``count`` to refuse."""
    try:
        return int(text)
    except ValueError:
        return text


#: the argparse types of the float flags, and of verify's counts and sizes
_number_flag = _flag_type(lambda text: finite("this flag", "number", text))
_count_flag = _flag_type(lambda text: count("this flag", _int_text(text), 1))


def _add_solver_flags(p: argparse.ArgumentParser, with_method: bool = True) -> None:
    if with_method:
        p.add_argument("--method", choices=METHODS)
    for name in ("alpha", "beta", "gamma", "tol"):
        p.add_argument(f"--{name}", type=_number_flag)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(**_SOLVER_FLAGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l1pca", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="generate a synthetic fixed-effect instance")
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--K", type=int)
    g.add_argument("--sigma", type=_number_flag, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=("dense", "sparse"), default="dense")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one solver and export trace + report")
    _add_solver_flags(s)
    s.add_argument("--theorem-mode", dest="theorem_mode", action="store_true")
    s.add_argument("--input", required=True)
    s.add_argument("--K", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="run several methods from one start")
    c.add_argument("--methods", default=",".join(METHODS), help="comma-separated method list")
    _add_solver_flags(c, with_method=False)
    c.add_argument("--input", required=True)
    c.add_argument("--K", type=int)
    c.add_argument("--out")
    c.set_defaults(func=cmd_compare)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=tuple(_VERIFY_SUITES))
    v.add_argument("--samples", type=_count_flag, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--specs", type=_count_flag, default=10)
    v.add_argument("--instances", type=_count_flag, default=10)
    v.add_argument("--restarts", type=_count_flag, default=20)
    v.add_argument("--n", type=_count_flag)
    v.add_argument("--d", type=_count_flag)
    v.add_argument("--K", type=_count_flag)
    v.add_argument("--sigma", type=_number_flag, default=0.5)
    v.add_argument("--method", choices=("pame", "pam"), default="pame")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    cl = sub.add_parser("cluster", help="solve, project, cluster, and score")
    _add_solver_flags(cl)
    cl.add_argument("--input", required=True)
    cl.add_argument("--K", type=int)
    cl.add_argument("--auto-K", dest="auto_K", action="store_true")
    cl.add_argument("--threshold", type=_number_flag, default=0.8)
    cl.add_argument("--restarts", type=int, default=10)
    cl.add_argument("--out")
    # cluster stops at a looser tol than SolverConfig's default
    cl.set_defaults(func=cmd_cluster, tol=1e-6)

    for p in (g, s, c, cl):
        p.add_argument("--config", help="JSON file of flags read before the explicit flags (max_iter is --max-iter)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        if getattr(args, "config", None):
            # the file's entries go ahead of the user's flags: argparse keeps the last value
            args = parser.parse_args([argv[0], *_config_flags(parser, args), *argv[1:]])
        return args.func(args)
    except (
        PreconditionError,
        InvalidInputError,
        ParseError,
        UnsupportedRegimeError,
        UndefinedMetricError,
        DimensionMismatchError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergedError, DegenerateUpdateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
