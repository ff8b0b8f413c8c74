"""The public surface that a change to the internals must keep: ``l1pca.__all__``,
the option strings of every CLI subcommand and the fields of ``SolverConfig``.

A change that means to alter one of them edits the listed values here."""

import argparse
import dataclasses

import l1pca
from l1pca.cli import build_parser
from l1pca.solvers import SolverConfig

ALL = [
    "AuditReport", "CriticalityReport", "CriticalSetSpec", "DegenerateUpdateError", "DimensionMismatchError",
    "DivergedError", "FixedEffectSpec", "InvalidInputError", "IterateTrace", "ParseError", "PreconditionError",
    "ProblemInstance", "SolveResult", "SolverConfig", "UndefinedMetricError", "UnsupportedRegimeError",
    "build_critical_point", "check_alpha_condition", "choose_K_by_variance", "convergence_fit",
    "criticality_report", "critical_set_separation_probe", "critical_set_spec", "decrease_and_error_audit",
    "draw_start", "enumerate_oracle", "error_bound_probe", "fpm_solve", "gen_fixed_effect", "gipalm_solve",
    "ipalm_solve", "kappa_constant", "kl_ratio_probe", "kl_ratio_probe_h", "kmeans_accuracy", "objective_h",
    "objective_l1", "pam_solve", "pame_solve", "pdcae_solve", "polar_factor", "potential_psi",
    "read_sparse_labeled", "residual_R", "run_comparison", "sample_critical_point", "sandwich_probe",
    "sign_select", "solve", "spectral_norm", "stiefel_residual", "subgrad_dist_h", "subgrad_dist_linear", "tev",
    "theorem_config", "thin_svd", "write_trace",
]

_SOLVER = ["--alpha", "--beta", "--gamma", "--max-iter", "--seed", "--tol"]
CLI_OPTIONS = {
    "generate": ["--K", "--config", "--d", "--format", "--n", "--out", "--seed", "--sigma"],
    "solve": [*_SOLVER, "--K", "--config", "--input", "--method", "--out", "--theorem-mode"],
    "compare": [*_SOLVER, "--K", "--config", "--input", "--methods", "--out"],
    "verify": ["--K", "--d", "--instances", "--method", "--n", "--out", "--restarts", "--samples", "--seed",
               "--sigma", "--specs", "--suite"],
    "cluster": [*_SOLVER, "--K", "--auto-K", "--config", "--input", "--method", "--out", "--restarts",
                "--threshold"],
}

SOLVER_CONFIG_FIELDS = [
    "method", "alpha", "beta", "gamma", "tol", "max_iter", "seed", "theorem_mode", "alpha_star", "alpha_sup",
    "beta_star", "beta_sup", "gamma_sup", "spectral_rel_tol", "norm_upper", "method_params",
]


def test_all():
    assert l1pca.__all__ == ALL
    assert all(hasattr(l1pca, name) for name in ALL)


def test_cli_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert options == {name: sorted(opts) for name, opts in CLI_OPTIONS.items()}


def test_solver_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == SOLVER_CONFIG_FIELDS
