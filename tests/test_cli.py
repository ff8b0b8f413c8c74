import json

import numpy as np
import scipy.sparse as sp

from l1pca.cli import main
from l1pca.data import read_dense_matrix, read_sparse_labeled, write_sparse_labeled
from l1pca.linalg import seeded_rng


def _generate(tmp_path, seed=7, extra=()):
    out = tmp_path / "inst"
    rc = main(
        [
            "generate",
            "--n", "50", "--d", "16", "--K", "3",
            "--sigma", "0.5", "--seed", str(seed),
            "--out", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


def _separable_dataset(path, n_per=30):
    rng = seeded_rng(123)
    pts = rng.standard_normal((4, 2 * n_per)) * 0.2
    pts[0, :n_per] += 4.0
    pts[0, n_per:] -= 4.0
    labels = np.array([1.0] * n_per + [-1.0] * n_per)
    write_sparse_labeled(path, sp.csc_matrix(pts), labels)
    return path


class TestGenerate:
    def test_writes_instance(self, tmp_path):
        out = _generate(tmp_path)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n"] == 50 and meta["d"] == 16 and meta["K"] == 3
        X = read_dense_matrix(out / "X.bin")
        U = read_dense_matrix(out / "U.bin")
        assert X.shape == (16, 50) and U.shape == (16, 3)

    def test_deterministic_files(self, tmp_path):
        out1 = _generate(tmp_path / "a")
        out2 = _generate(tmp_path / "b")
        assert (out1 / "X.bin").read_bytes() == (out2 / "X.bin").read_bytes()
        assert (out1 / "U.bin").read_bytes() == (out2 / "U.bin").read_bytes()

    def test_sigma_zero_matches_noiseless(self, tmp_path):
        out = tmp_path / "inst"
        rc = main(["generate", "--n", "20", "--d", "8", "--K", "2", "--sigma", "0.0",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "X.bin").read_bytes()[16:] == (out / "Z.bin").read_bytes()[16:]

    def test_missing_flags_exit_2(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x")]) == 2

    def test_sparse_format(self, tmp_path):
        out = tmp_path / "inst"
        rc = main(["generate", "--n", "15", "--d", "6", "--K", "2", "--sigma", "0.2",
                   "--seed", "9", "--out", str(out), "--format", "sparse"])
        assert rc == 0
        inst = read_sparse_labeled(out / "X.txt", n_features=6)
        assert inst.X.shape == (6, 15)
        # a sparse-format directory is solvable directly
        rc = main(["solve", "--method", "pam", "--alpha", "1e-4", "--beta", "1",
                   "--tol", "1e-8", "--max-iter", "2000", "--seed", "1",
                   "--input", str(out), "--out", str(tmp_path / "run")])
        assert rc == 0


class TestSolve:
    def test_converged_run(self, tmp_path):
        inst = _generate(tmp_path)
        out = tmp_path / "run"
        rc = main(["solve", "--method", "pame", "--alpha", "1e-4", "--beta", "1",
                   "--gamma", "0.5", "--tol", "1e-9", "--max-iter", "3000",
                   "--seed", "3", "--input", str(inst), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["converged"] is True
        assert payload["schema_version"] == 1
        assert "criticality" in payload and "l1_residual" in payload["criticality"]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("k,h_value")

    def test_max_iter_exit_3(self, tmp_path):
        inst = _generate(tmp_path)
        out = tmp_path / "run"
        rc = main(["solve", "--method", "pame", "--alpha", "1e-4", "--beta", "1",
                   "--tol", "1e-14", "--max-iter", "2",
                   "--seed", "3", "--input", str(inst), "--out", str(out)])
        assert rc == 3

    def test_theorem_mode_violation_exit_2(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        rc = main(["solve", "--method", "pame", "--theorem-mode",
                   "--alpha", "1e-5", "--beta", "1e3", "--gamma", "0.9",
                   "--input", str(inst), "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "extrapolation bound" in capsys.readouterr().err

    def test_infinite_beta_exit_2(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        rc = main(["solve", "--method", "pame", "--alpha", "1e-4", "--beta", "inf",
                   "--input", str(inst), "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "finite positive beta" in capsys.readouterr().err

    def test_paper_style_flags_run_outside_theorem_mode(self, tmp_path):
        inst = _generate(tmp_path)
        out = tmp_path / "run"
        rc = main(["solve", "--method", "pame", "--alpha", "1e-5", "--beta", "1e3",
                   "--gamma", "1.0", "--tol", "1e-7", "--max-iter", "4000",
                   "--seed", "2", "--input", str(inst), "--out", str(out)])
        assert rc in (0, 3)  # runs; convergence at gamma = 1 is not guaranteed

    def test_degenerate_update_exit_4(self, tmp_path, capsys):
        from l1pca.data import write_dense_matrix

        xfile = tmp_path / "zero.bin"
        write_dense_matrix(xfile, np.zeros((3, 4)))
        rc = main(["solve", "--method", "fpm", "--K", "1", "--input", str(xfile),
                   "--out", str(tmp_path / "run")])
        assert rc == 4
        assert "degenerate" in capsys.readouterr().err.lower()

    def test_config_file_defaults(self, tmp_path):
        inst = _generate(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"method": "pam", "alpha": 1e-4, "beta": 1.0,
                                       "tol": 1e-8, "max_iter": 2000, "seed": 5}))
        out = tmp_path / "run"
        rc = main(["solve", "--config", str(cfgfile), "--input", str(inst), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["method"] == "pam"


class TestCompare:
    def test_six_methods_and_determinism(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        out1 = tmp_path / "cmp1.csv"
        out2 = tmp_path / "cmp2.csv"
        args = ["compare", "--methods", "pame,pam,fpm,pdcae,ipalm,gipalm",
                "--alpha", "1e-4", "--beta", "1", "--gamma", "0.5",
                "--tol", "1e-9", "--max-iter", "3000", "--seed", "4",
                "--input", str(inst)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        t1 = out1.read_text()
        assert t1 == out2.read_text()
        lines = t1.splitlines()
        assert lines[0] == "method,iterations,objective_l1,tev,converged,error"
        assert len(lines) == 7
        assert [ln.split(",")[0] for ln in lines[1:]] == sorted(["pame", "pam", "fpm", "pdcae", "ipalm", "gipalm"])

    def test_errors_recorded_not_fatal(self, tmp_path, capsys):
        # zero data: fpm degenerates, pame converges trivially
        from l1pca.data import write_dense_matrix

        xfile = tmp_path / "X.bin"
        write_dense_matrix(xfile, np.zeros((4, 6)))
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--methods", "fpm,pame", "--K", "2", "--alpha", "1e-3",
                   "--beta", "1", "--tol", "1e-8", "--input", str(xfile), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert "DegenerateUpdateError" in rows[0]
        assert rows[1].startswith("pame")


class TestVerify:
    def test_sandwich_suite(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "sandwich", "--samples", "200", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] and payload["name"] == "sandwich"

    def test_critical_sets_suite(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "critical-sets", "--specs", "3", "--samples", "30", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_ratio"] >= 2.0 - 1e-9

    def test_oracle_suite_fixed_dims(self, capsys):
        rc = main(["verify", "--suite", "oracle", "--instances", "2", "--restarts", "6",
                   "--n", "3", "--d", "4", "--K", "2", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["match_rate"] == 1.0

    def test_error_bound_suite(self, capsys):
        rc = main(["verify", "--suite", "error-bound", "--samples", "200", "--seed", "0"])
        assert rc == 0

    def test_kl_suite(self, capsys):
        rc = main(["verify", "--suite", "kl", "--instances", "2", "--samples", "80", "--seed", "0"])
        assert rc == 0

    def test_audit_suite(self, capsys):
        rc = main(["verify", "--suite", "audit", "--instances", "1", "--n", "80", "--d", "30",
                   "--K", "3", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        assert payload["runs"][0]["audit"]["violations_decrease"] == 0


class TestCluster:
    def test_separable_accuracy_one(self, tmp_path, capsys):
        data = _separable_dataset(tmp_path / "sep.txt")
        rc = main(["cluster", "--input", str(data), "--method", "pame", "--K", "1",
                   "--alpha", "1e-4", "--beta", "1", "--tol", "1e-8",
                   "--max-iter", "2000", "--restarts", "5", "--seed", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0
        assert payload["clusters"] == 2

    def test_auto_K(self, tmp_path, capsys):
        data = _separable_dataset(tmp_path / "sep.txt")
        rc = main(["cluster", "--input", str(data), "--method", "pam", "--auto-K",
                   "--alpha", "1e-4", "--beta", "1", "--seed", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] >= 1

    def test_deterministic(self, tmp_path, capsys):
        data = _separable_dataset(tmp_path / "sep.txt")
        args = ["cluster", "--input", str(data), "--method", "pame", "--K", "1",
                "--alpha", "1e-4", "--beta", "1", "--restarts", "4", "--seed", "3"]
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_missing_labels_exit_2(self, tmp_path, capsys):
        from l1pca.data import write_dense_matrix

        xfile = tmp_path / "X.bin"
        write_dense_matrix(xfile, np.eye(4))
        rc = main(["cluster", "--input", str(xfile), "--K", "1", "--method", "pame"])
        assert rc == 2


def test_no_command_exit_2(capsys):
    assert main([]) == 2
