import json
import struct
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import variance_K_reference
from l1pca import cli, metrics
from l1pca.cli import main
from l1pca.data import read_dense_matrix, read_sparse_labeled, write_sparse_labeled
from l1pca.linalg import seeded_rng
from l1pca.metrics import choose_K_by_variance, tev
from l1pca.model import ProblemInstance
from l1pca.solvers import METHODS, SolverConfig, draw_start, solve


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
        capsys.readouterr()
        code, _, err = _outcome(["solve", "--method", "pame", "--alpha", "1e-4", "--beta", "inf",
                                 "--input", str(inst), "--out", str(tmp_path / "bad")], capsys)
        assert code == 2
        assert "argument --beta: this flag needs a finite number, got 'inf'" in err

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

    def test_overflow_exit_4(self, tmp_path, capsys):
        from l1pca.data import write_dense_matrix

        xfile = tmp_path / "huge.bin"
        write_dense_matrix(xfile, np.random.default_rng(0).standard_normal((20, 40)) * 1e305)
        rc = main(["solve", "--K", "3", "--seed", "1", "--input", str(xfile), "--out", str(tmp_path / "run")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("numerical failure: overflow at iteration 0")

    def test_dense_file_cut_in_header_exit_2(self, tmp_path, capsys):
        xfile = tmp_path / "cut.bin"
        xfile.write_bytes(b"L1PCABIN\x04\x00")
        assert main(["solve", "--K", "1", "--input", str(xfile), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: truncated dense matrix file\n"

    def test_dense_header_beyond_the_file_exit_2(self, tmp_path, capsys):
        xfile = tmp_path / "claim.bin"
        xfile.write_bytes(b"L1PCABIN" + struct.pack("<II", 2**31, 2**31) + bytes(8))
        assert main(["solve", "--K", "1", "--input", str(xfile), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: truncated dense matrix file\n"

    def test_meta_without_files_exit_2(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        meta = json.loads((inst / "meta.json").read_text())
        del meta["files"]
        (inst / "meta.json").write_text(json.dumps(meta))
        assert main(["solve", "--input", str(inst), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {inst / 'meta.json'} has no 'files' entry\n"

    @pytest.mark.parametrize("files", ["X.txt", ["X.txt"], None, {"X": 5}])
    def test_meta_files_not_an_object_exit_2(self, tmp_path, capsys, files):
        inst = tmp_path / "inst"
        assert main(["generate", "--n", "15", "--d", "6", "--K", "2", "--seed", "9",
                     "--out", str(inst), "--format", "sparse"]) == 0
        meta = json.loads((inst / "meta.json").read_text())
        meta["files"] = files
        (inst / "meta.json").write_text(json.dumps(meta))
        assert main(["cluster", "--input", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {inst / 'meta.json'}: 'files' must be an object naming the file 'X'\n"

    def test_config_file_not_json_exit_2(self, tmp_path, capsys):
        inst = _generate(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{bad")
        assert main(["solve", "--config", str(cfgfile), "--input", str(inst), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: line 1: {cfgfile}: Expecting property name")

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
    def test_config_file_defaults(self, tmp_path, capsys):
        # no method converges at this tol, so every row shows the iteration cap in force
        inst = _generate(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"method": "fpm", "max_iter": 2, "tol": 1e-300}))
        for extra, iterations in (([], "2"), (["--max-iter", "3"], "3")):
            out = tmp_path / f"cmp{iterations}.csv"
            assert main(["compare", "--config", str(cfgfile), "--input", str(inst), "--out", str(out), *extra]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert [row[0] for row in rows] == sorted(METHODS)  # compare ignores a "method" key
            assert all(row[1] == iterations and row[4] == "0" for row in rows)

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

    def test_norm_below_least_normal_exit_0(self, tmp_path, capsys):
        # frob(X) below 2^-1023: the spectral norm and tev prescale X by more than 2^1023
        from l1pca.data import write_dense_matrix

        xfile = tmp_path / "X.bin"
        write_dense_matrix(xfile, seeded_rng(3).integers(-9, 10, (6, 10)) * 2.0**-1040)
        flags = ["--K", "2", "--input", str(xfile)]
        assert main(["compare", *flags, "--out", str(tmp_path / "cmp.csv")]) == 0
        assert main(["solve", "--theorem-mode", *flags, "--out", str(tmp_path / "run")]) == 0

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

    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--max-iter", "0"], ["--methods", "bogus"]])
    def test_no_result_exit_2(self, tmp_path, capsys, flags):
        inst = _generate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--input", str(inst), "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        rows = out.read_text().splitlines()
        assert captured.out == out.read_text()
        assert rows[0] == "method,iterations,objective_l1,tev,converged,error"
        assert len(rows) > 1 and all("PreconditionError" in row for row in rows[1:])
        assert captured.err == "error: no method produced a result\n"


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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--suite", "oracle", "--instances", "1", "--n", "0"],
            ["--suite", "oracle", "--instances", "1", "--n", "-1"],
            ["--suite", "oracle", "--instances", "0"],
            ["--suite", "oracle", "--instances", "1", "--restarts", "0"],
            ["--suite", "critical-sets", "--samples", "0"],
            ["--suite", "critical-sets", "--specs", "0"],
            ["--suite", "kl", "--instances", "0"],
            ["--suite", "audit", "--instances", "1", "--n", "0"],
            ["--suite", "audit", "--instances", "1", "--d", "0"],
            ["--suite", "audit", "--instances", "1", "--K", "0"],
        ],
    )
    def test_counts_below_one_exit_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags])
        assert exc.value.code == 2
        assert "this flag must be an integer of at least 1, got " in capsys.readouterr().err

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

    def test_config_file_defaults(self, tmp_path, capsys):
        data = _separable_dataset(tmp_path / "sep.txt")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"method": "pam"}))
        assert main(["cluster", "--config", str(cfgfile), "--input", str(data), "--K", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "pam"

    @pytest.mark.parametrize("via_config", [False, True])
    def test_zero_restarts_exit_2(self, tmp_path, capsys, via_config):
        data = _separable_dataset(tmp_path / "sep.txt")
        argv = ["cluster", "--input", str(data), "--K", "2"]
        if via_config:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"restarts": 0}))
            argv += ["--config", str(cfgfile)]
        else:
            argv += ["--restarts", "0"]
        assert main(argv) == 2
        assert "restart" in capsys.readouterr().err

    def test_index_beyond_int64_exit_2(self, tmp_path, capsys):
        data = tmp_path / "big.txt"
        data.write_text("1 1:0.5 3:-2\n-1 99999999999999999999:1\n")
        rc = main(["cluster", "--input", str(data), "--K", "1"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_undecodable_byte_exit_2(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"1 1:0.5 3:-2\n1 1:2\xff\n")
        assert main(["cluster", "--input", str(data), "--K", "1"]) == 2
        assert capsys.readouterr().err == "error: line 2: byte 0xff is not UTF-8\n"

    def test_index_beyond_array_size_exit_2(self, tmp_path, capsys):
        # an index below 2^63 parses, but a d x K float64 frame would not fit numpy's size limit
        data = tmp_path / "huge.txt"
        data.write_text("-1 9223372036854775807:1\n1 1:2\n")
        rc = main(["cluster", "--input", str(data), "--K", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


#: one valid run of each command that takes a seed, without the seed
_SEEDED_COMMANDS = {
    "generate": lambda tmp: ["generate", "--n", "6", "--d", "4", "--K", "2", "--out", str(tmp / "gen")],
    "solve": lambda tmp: ["solve", "--input", str(_generate(tmp)), "--out", str(tmp / "run")],
    "cluster": lambda tmp: ["cluster", "--input", str(_separable_dataset(tmp / "sep.txt")), "--K", "1"],
    "verify": lambda tmp: ["verify", "--suite", "sandwich", "--samples", "10"],
}


class TestParserReuse:
    def test_one_parser_serves_each_command(self, tmp_path, capsys):
        # main builds its parser once per process: each command prints what it prints on a parser
        # built for it alone, after the shared parser has read other commands and a config file,
        # whose entries stay out of the cluster run after it
        data = _separable_dataset(tmp_path / "sep.txt")
        inst = _generate(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"method": "pam", "restarts": 3, "tol": 1e-7}))
        capsys.readouterr()
        runs = [
            ["cluster", "--input", str(data), "--K", "2", "--seed", "1"],
            ["cluster", "--config", str(cfgfile), "--input", str(data), "--auto-K", "--seed", "2"],
            ["solve", "--input", str(inst), "--out", str(tmp_path / "run"), "--seed", "3"],
            ["cluster", "--input", str(data), "--K", "2", "--seed", "1"],
        ]
        shared = []
        for argv in runs:
            shared.append((main(argv), capsys.readouterr().out))
        assert cli._parser() is cli._parser()
        with mock.patch.object(cli, "_parser", cli.build_parser):
            fresh = [(main(argv), capsys.readouterr().out) for argv in runs]
        assert fresh == shared
        assert [rc for rc, _ in shared] == [0] * 4 and all(out for _, out in shared)


class TestNegativeSeed:
    """A negative seed, by flag or from a --config file, is a precondition error (exit 2)."""

    @pytest.mark.parametrize("command", sorted(_SEEDED_COMMANDS))
    def test_flag_exit_2(self, tmp_path, capsys, command):
        assert main([*_SEEDED_COMMANDS[command](tmp_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer of at least 0, got -1")

    @pytest.mark.parametrize("command", ["generate", "solve", "cluster"])
    def test_config_file_exit_2(self, tmp_path, capsys, command):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": -1}))
        assert main([*_SEEDED_COMMANDS[command](tmp_path), "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer of at least 0, got -1")


class TestNonFiniteFloatFlags:
    """Every float flag takes a finite number: NaN or inf exits 2 and writes nothing.

    argparse refuses it through the library's finite-number converter, also
    where the method reads no such value (fpm reads none of alpha, beta and gamma)."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag",
        [("solve", "--alpha"), ("solve", "--beta"), ("solve", "--gamma"), ("solve", "--tol"),
         ("compare", "--alpha"), ("compare", "--tol"), ("cluster", "--gamma"), ("cluster", "--tol"),
         ("cluster", "--threshold"), ("generate", "--sigma"), ("verify", "--sigma")],
    )
    def test_flag_exit_2(self, tmp_path, capsys, command, flag, value):
        if command == "compare":
            argv = ["compare", "--methods", "fpm", "--input", str(_generate(tmp_path)),
                    "--out", str(tmp_path / "table.csv")]
        else:
            argv = _SEEDED_COMMANDS[command](tmp_path)
            if command in ("cluster", "verify"):
                argv += ["--out", str(tmp_path / "out.json")]
            if command in ("solve", "cluster"):
                argv += ["--method", "fpm"]
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        code, out, err = _outcome([*argv, f"{flag}={value}"], capsys)
        assert code == 2 and out == ""
        assert f"error: argument {flag}: this flag needs a finite number, got '{value}'" in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_entry_exit_2(self, tmp_path, capsys):
        argv = _SEEDED_COMMANDS["solve"](tmp_path)
        capsys.readouterr()
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"method": "fpm", "alpha": float("inf")}))
        code, _, err = _outcome([*argv, "--config", str(cfgfile)], capsys)
        assert code == 2 and "error: argument --alpha: this flag needs a finite number, got 'Infinity'" in err
        assert not (tmp_path / "run").exists()


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one CLI run, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigEntriesAreFlags:
    """A --config entry is the flag of its name given before the explicit flags, checked as that flag."""

    @pytest.mark.parametrize(
        ("command", "key", "value", "flag", "code"),
        [
            ("solve", "alpha", "x", ["--alpha", "x"], 2),
            ("solve", "tol", None, ["--tol", "null"], 2),
            ("solve", "seed", 1.5, ["--seed", "1.5"], 2),
            ("solve", "max_iter", 2.5, ["--max-iter", "2.5"], 2),
            ("solve", "max_iter", "5", ["--max-iter", "5"], 0),
            ("cluster", "threshold", "x", ["--threshold", "x"], 2),
            ("cluster", "restarts", "3", ["--restarts", "3"], 0),
        ],
        ids=["alpha_string", "tol_null", "seed_float", "max_iter_float", "max_iter_string", "threshold_string",
             "restarts_string"],
    )
    def test_entry_runs_as_its_flag(self, tmp_path, capsys, command, key, value, flag, code):
        argv = _SEEDED_COMMANDS[command](tmp_path)
        capsys.readouterr()
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: value}))
        by_flag = _outcome([*argv, *flag], capsys)
        by_config = _outcome([*argv, "--config", str(cfgfile)], capsys)
        assert by_config == by_flag
        assert by_config[0] == code
        if code == 2:
            # float flags take the library's finite-number converter, int flags argparse's int
            refusal = "this flag needs a finite number" if flag[0] in ("--alpha", "--tol", "--threshold") else "invalid"
            assert f"error: argument {flag[0]}: {refusal}" in by_config[2]

    def test_generate_bad_format_writes_nothing(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"format": "xml"}))
        code, _, err = _outcome([*_SEEDED_COMMANDS["generate"](tmp_path), "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "argument --format: invalid choice: 'xml'" in err
        assert not (tmp_path / "gen" / "meta.json").exists()

    def test_switch_key_ignored(self, tmp_path, capsys):
        # theorem mode would refuse these steps; the key is ignored and the alpha beside it is read
        inst = _generate(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"theorem_mode": True, "alpha": "1e-5", "beta": 1e3, "gamma": 0.9}))
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfgfile), "--max-iter", "5", "--input", str(inst), "--out", str(out)]) == 3
        config = json.loads((out / "result.json").read_text())["config"]
        assert config["theorem_mode"] is False and config["alpha"] == 1e-5

    def test_auto_K_key_ignored(self, tmp_path, capsys):
        data = _three_cluster_dataset(tmp_path / "three.txt")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"auto_K": True, "K": "2", "out": str(tmp_path / "elsewhere.json")}))
        assert main(["cluster", "--config", str(cfgfile), "--input", str(data)]) == 0
        assert json.loads(capsys.readouterr().out)["K"] == 2
        assert not (tmp_path / "elsewhere.json").exists()


class TestMetaCounts:
    @pytest.mark.parametrize(("key", "value"), [("d", "10"), ("K", "2"), ("K", None), ("K", True), ("d", 0), ("K", 1.0)])
    def test_bad_count_exit_2(self, tmp_path, capsys, key, value):
        inst = tmp_path / "inst"
        assert main(["generate", "--n", "15", "--d", "6", "--K", "2", "--seed", "9",
                     "--out", str(inst), "--format", "sparse"]) == 0
        capsys.readouterr()
        meta = json.loads((inst / "meta.json").read_text())
        meta[key] = value
        (inst / "meta.json").write_text(json.dumps(meta))
        assert main(["cluster", "--input", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {inst / 'meta.json'}: {key!r} must be an integer >= 1, got {value!r}\n"

    def test_K_flag_overrides_meta(self, tmp_path, capsys):
        # meta.json's K is not read when --K is given
        inst = _generate(tmp_path)
        meta = json.loads((inst / "meta.json").read_text())
        meta["K"] = "3"
        (inst / "meta.json").write_text(json.dumps(meta))
        assert main(["solve", "--K", "2", "--max-iter", "3", "--input", str(inst), "--out", str(tmp_path / "run")]) == 3


def _three_cluster_dataset(path, n_per=30):
    rng = seeded_rng(321)
    pts = rng.standard_normal((6, 3 * n_per)) * 0.3
    for c in range(3):
        pts[c, c * n_per:(c + 1) * n_per] += 4.0
    pts[np.abs(pts) < 0.2] = 0.0
    write_sparse_labeled(path, sp.csc_matrix(pts), np.repeat([0.0, 1.0, 2.0], n_per))
    return path


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes of the matrices whose X X^T spectrum is taken, in call order."""
    calls = []
    real = metrics._top_eigenvalues

    def counting(X, k, *memo):
        calls.append(X.shape)
        return real(X, k, *memo)

    monkeypatch.setattr(metrics, "_top_eigenvalues", counting)
    return calls


class TestOneSpectrum:
    """cluster and compare take the covariance spectrum once and report what the public metrics give."""

    def test_auto_K_matches_direct_metrics(self, tmp_path, capsys):
        data = _three_cluster_dataset(tmp_path / "three.txt")
        assert main(["cluster", "--input", str(data), "--auto-K", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        inst = read_sparse_labeled(data)
        K = choose_K_by_variance(inst.X, 0.8)
        inst = ProblemInstance(inst.X, K, labels=inst.labels)
        cfg = SolverConfig(method="pame", alpha=1e-4, beta=1.0, gamma=0.0, tol=1e-6, max_iter=1000, seed=5)
        res = solve(inst, cfg, *draw_start(inst, 5))
        assert K == 3
        assert payload["K"] == K
        assert payload["tev"] == tev(inst.X, res.Q_final)

    @pytest.mark.parametrize("flags", [["--auto-K"], ["--K", "2"]])
    def test_cluster_takes_one_spectrum(self, tmp_path, capsys, eig_calls, flags):
        data = _three_cluster_dataset(tmp_path / "three.txt")
        assert main(["cluster", "--input", str(data), "--seed", "1", *flags]) == 0
        assert eig_calls == [(6, 90)]

    def test_compare_takes_one_spectrum(self, tmp_path, capsys, eig_calls):
        inst = _generate(tmp_path)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--methods", ",".join(METHODS), "--max-iter", "3000", "--seed", "4",
                     "--input", str(inst), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.split(",")[3] for row in rows)
        assert eig_calls == [(16, 50)]


def _wide_sparse_dataset(path, d=300, n_per=100):
    """Three labeled clusters on disjoint features of a d-feature sparse file, d above the dense-solve size."""
    rng = seeded_rng(322)
    pts = np.where(rng.random((d, 3 * n_per)) < 0.05, rng.random((d, 3 * n_per)) * 0.3, 0.0)
    for c in range(3):
        pts[4 * c:4 * c + 4, c * n_per:(c + 1) * n_per] += 2.0 + rng.random((4, n_per))
    write_sparse_labeled(path, sp.csc_matrix(pts), np.repeat([0.0, 1.0, 2.0], n_per))
    return path


class TestSparsePath:
    """Above the dense-solve size, cluster --auto-K neither densifies X nor takes a full spectrum."""

    def test_auto_K_stays_sparse(self, tmp_path, capsys, monkeypatch):
        from l1pca import linalg

        data = _wide_sparse_dataset(tmp_path / "wide.txt")
        K = variance_K_reference(read_sparse_labeled(data).X, 0.8)
        argv = ["cluster", "--input", str(data), "--auto-K", "--seed", "3"]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigendecomposition taken")

        real_as_dense = linalg.as_dense

        def as_dense_unless_sparse(M):
            assert not sp.issparse(M), "sparse X densified"
            return real_as_dense(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(linalg, "as_dense", as_dense_unless_sparse)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected
        assert json.loads(out)["K"] == K == 3


def test_no_command_exit_2(capsys):
    assert main([]) == 2
