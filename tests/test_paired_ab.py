"""tools/paired_ab.py: two source trees side by side in one process, timed in alternating pairs."""

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import l1pca

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "paired_ab.py"
_SRC = str(_ROOT / "src")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("paired_ab", _TOOL)
    module = importlib.util.module_from_spec(spec)
    environ = os.environ.copy()
    spec.loader.exec_module(module)  # pins BLAS threads in os.environ for a process of its own
    os.environ.clear()
    os.environ.update(environ)
    return module


@pytest.fixture
def aliases():
    names = ["l1pca_parent", "l1pca_change", "l1pca_side"]
    yield names
    for name in [m for m in sys.modules if m.split(".")[0] in names]:
        del sys.modules[name]


def test_load_renames_the_package(tool, aliases):
    pkg = tool.load(_SRC, "l1pca_side")
    assert pkg.__name__ == "l1pca_side" and pkg.solvers.__name__ == "l1pca_side.solvers"
    # its own copy: classes and functions are not the plain package's
    assert pkg.SolverConfig is not l1pca.SolverConfig
    assert pkg.solvers.polar_factor is pkg.linalg.polar_factor is not l1pca.polar_factor
    # a second load replaces every submodule too
    again = tool.load(_SRC, "l1pca_side")
    assert again.solvers is not pkg.solvers and again.solvers.polar_factor is again.linalg.polar_factor


def test_paired_alternates_and_counts(tool):
    order = []
    result = tool.paired(lambda s: order.append(("p", s)), lambda s: order.append(("c", s)), calls=4, seed=7)
    # one warm-up call each, then parent first on even pairs and change first on odd ones
    assert order == [("p", 7), ("c", 7), ("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9), ("c", 10), ("p", 10)]
    assert result["calls"] == 4 and 0 <= result["change_won"] <= 4
    assert result["ratio_q1"] <= result["ratio_median"] <= result["ratio_q3"]
    assert 0 <= result["wall_change_won"] <= 4
    assert result["wall_ratio_q1"] <= result["wall_ratio_median"] <= result["wall_ratio_q3"]


def test_wall_ratios_see_waiting(tool):
    # a call that sleeps takes wall time but almost no CPU time: only the wall ratios see it
    result = tool.paired(lambda s: None, lambda s: time.sleep(0.02), calls=3)
    assert result["wall_ratio_q1"] > 10.0 and result["wall_change_won"] == 0


def test_main_prints_one_json_line(tool, aliases, capsys):
    assert tool.main([_SRC, _SRC, "--op", "oracle", "--calls", "2"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["op"] == "oracle" and out["calls"] == 2
    assert set(out) == {
        "op", "calls", "ratio_median", "ratio_q1", "ratio_q3", "change_won",
        "wall_ratio_median", "wall_ratio_q1", "wall_ratio_q3", "wall_change_won",
    }


def test_read_op_parses_the_cluster_file(tool, aliases, tmp_path):
    # the parse layer of the cluster op alone: the same seeded file, read whole
    pkg = tool.load(_SRC, "l1pca_side")
    read = tool.make_op(pkg, "read", tmp_path)
    inst = read(0)
    assert inst.X.shape == (1500, 3000) and inst.labels.shape == (3000,)
    assert set(np.unique(inst.labels)) == {1.0, 2.0, 3.0, 4.0, 5.0}
    result = tool.paired(read, read, calls=1)
    assert result["calls"] == 1 and 0 <= result["change_won"] <= 1


def test_spectrum_op_chooses_K_on_the_cluster_matrix(tool, aliases, tmp_path):
    # the Lanczos layer of the cluster op alone: K at thresholds 0.8 and 0.9 on the parsed file
    pkg = tool.load(_SRC, "l1pca_side")
    assert tool.make_op(pkg, "spectrum", tmp_path)(0) == [5, 51]
