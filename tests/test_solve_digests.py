"""tools/solve_digests.py --compare: the identity gate for changes that may move results."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("solve_digests", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fields(objective=1.5, P="a" * 64):
    """A --fields file's content: one solve run and one metric run."""
    return {
        "solve/5x6x2/dense/start1/pame/gamma0.0": {
            "iterations": 7,
            "termination_reason": "fixed_point",
            "converged": True,
            "P_final": P,
            "Q_final": "b" * 64,
            "final_objective": objective.hex(),
        },
        "tev/gauss_300x600/dense/scale1": 0.75.hex(),
    }


def _with_extra_run():
    fields = _fields()
    fields["solve/8x8x8/dense/start1/fpm/gamma0.0"] = fields["solve/5x6x2/dense/start1/pame/gamma0.0"]
    return fields


@pytest.mark.parametrize(
    "change, status, summary",
    [
        (_fields(), 0, "2 runs compared, 0 differ"),
        (_fields(objective=1.5 * (1 + 1e-13)), 0, "final_objective 1, solve errors 0, metric values 0), 0 disagree"),
        (_fields(P="c" * 64), 1, "(P_final 1, Q_final 0,"),
        (_fields(objective=1.5 * (1 + 1e-11)), 1, "final_objective 1, solve errors 0, metric values 0), 1 disagree"),
        (_with_extra_run(), 1, "2 runs compared, 0 differ"),
    ],
    ids=["identical", "objective_1e-13", "P_final", "objective_1e-11", "key_in_one_file"],
)
def test_compare(tool, tmp_path, capsys, change, status, summary):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, fields in zip(paths, (_fields(), change)):
        path.write_text(json.dumps(fields))
    assert tool.main(["--compare", *map(str, paths)]) == status
    *runs, last = capsys.readouterr().out.splitlines()
    assert summary in last and last.endswith(f"{status} disagree")
    # one line for each run that disagrees, before the summary
    assert len(runs) == status
    if len(change) > len(_fields()):
        assert runs == ["solve/8x8x8/dense/start1/fpm/gamma0.0: only in change"]
