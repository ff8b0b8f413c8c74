"""One argument policy for the public surface: every scalar argument of every callable in
``l1pca.__all__`` takes a malformed value by returning or by raising a class from ``l1pca.errors``.

The table of calls is ``argument_table`` in tools/solve_digests.py, whose ``refused`` grid
digests the class and message of the same cases.
"""

import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import l1pca
from l1pca import errors

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digests.py"
_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
#: every callable in __all__ but the error classes
_PUBLIC = [name for name in l1pca.__all__ if getattr(l1pca, name) not in _ERRORS]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("solve_digests", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def table(tool, tmp_path_factory):
    return tool.argument_table(l1pca, tmp_path_factory.mktemp("arguments"))


@pytest.mark.parametrize("name", [*_PUBLIC, "SolverConfig.method_params"])
def test_malformed_scalar_arguments(tool, table, name):
    call, params = table[name]
    bare = []
    for key, case in tool.malformed_cases({name: (call, params)}):
        try:
            case()
        except _ERRORS:
            pass
        except Exception as exc:  # noqa: BLE001 - a bare exception is what the test looks for
            bare.append(f"{key}: {type(exc).__name__}: {exc}")
    assert bare == []


def test_table_parameters_are_the_callables_own(table):
    # each tried parameter is one the callable (a dataclass: its fields) takes, and every
    # parameter whose default is a number or a bool is tried; report types take no arguments
    for name, (call, params) in table.items():
        if name == "SolverConfig.method_params":
            assert set(params) == set(l1pca.solvers._METHOD_PARAMS)
            continue
        if call is None:
            continue
        signature = inspect.signature(getattr(l1pca, name)).parameters.values()
        assert set(params) <= {p.name for p in signature}
        assert {p.name for p in signature if isinstance(p.default, (int, float))} <= set(params)


class TestCertificateArguments:
    """check_alpha_condition and criticality_report refuse a NaN or malformed alpha_star or zero_tol.

    On NaN, check_alpha_condition answered (False, threshold), and criticality_report called
    the certificate vacuous, both without an error."""

    @staticmethod
    def _pair():
        X = np.random.default_rng(0).standard_normal((20, 40))
        inst = l1pca.ProblemInstance(X, 3)
        return X, *l1pca.draw_start(inst, 1)

    @pytest.mark.parametrize("value", [math.nan, "x", None], ids=["nan", "str", "none"])
    @pytest.mark.parametrize("argument", ["alpha_star", "zero_tol"])
    def test_refused(self, argument, value):
        X, P, Q = self._pair()
        kw = {"alpha_star": 1e-4, argument: value}
        with pytest.raises(errors.PreconditionError, match=f"check_alpha_condition needs a finite .*{argument}"):
            l1pca.check_alpha_condition(X, Q, **kw)
        with pytest.raises(errors.PreconditionError, match=f"criticality_report needs a finite .*{argument}"):
            l1pca.criticality_report(X, P, Q, **kw)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: l1pca.sandwich_probe(samples=0), "samples must be an integer of at least 1, got 0"),
     (lambda: l1pca.convergence_fit(l1pca.IterateTrace(), tail_fraction=2.0), r"tail_fraction must lie in \(0, 1\]")],
    ids=["sandwich_no_samples", "tail_fraction_above_one"],
)
def test_empty_or_overlong_request_refused(call, message):
    # sandwich_probe(samples=0) returned passed=False from no draw; tail_fraction=2.0 fit the whole run
    with pytest.raises(errors.PreconditionError, match=message):
        call()
