import filecmp
import json

import pytest

from bayes_screen import cli


def run(args):
    return cli.main(args)


class TestSimulate:
    def test_byte_deterministic(self, tmp_path):
        argv = ["simulate", "--example", "1", "--n", "30", "--p", "8", "--s", "2",
                "--rho", "0.3", "--seed", "11"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("dataset.csv", "truth.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_meta_written(self, tmp_path):
        run(["simulate", "--example", "2", "--setting", "I", "--n", "20", "--p", "5",
             "--s", "2", "--seed", "4", "--out", str(tmp_path)])
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["seed"] == 4
        assert meta["config"]["example"] == 2


class TestExact:
    @pytest.fixture
    def data_path(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "40", "--p", "15", "--s", "2",
             "--seed", "5", "--out", str(tmp_path)])
        return tmp_path / "dataset.csv"

    def test_row_count_p15_tn4(self, tmp_path, data_path):
        out = tmp_path / "exact"
        assert run(["exact", "--data", str(data_path), "--tn", "4",
                    "--c-preset", "bic", "--out", str(out)]) == 0
        lines = (out / "enumeration.csv").read_text().splitlines()
        assert len(lines) - 1 == 1 + 15 + 105 + 455 + 1365

    def test_map_agrees_with_fit(self, tmp_path, data_path, capsys):
        out = tmp_path / "exact"
        run(["exact", "--data", str(data_path), "--tn", "3", "--c", "40",
             "--out", str(out)])
        top = (out / "enumeration.csv").read_text().splitlines()[1].split(",")[0]
        assert run(["fit", "--data", str(data_path), "--prior", "fixed", "--c", "40",
                    "--iters", "3000", "--burn", "500", "--seed", "2",
                    "--out", str(tmp_path / "fit")]) == 0
        text = capsys.readouterr().out
        assert f"MAP model: {{{top}}}" in text

    def test_guard_suggests_fit(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "30", "--p", "60", "--s", "2",
             "--seed", "1", "--out", str(tmp_path / "big")])
        code = run(["exact", "--data", str(tmp_path / "big" / "dataset.csv"),
                    "--tn", "15", "--c", "10", "--out", str(tmp_path / "e")])
        assert code == 2

    def test_negative_tn_rejected(self, tmp_path, data_path):
        out = tmp_path / "exact"
        assert run(["exact", "--data", str(data_path), "--tn", "-1", "--c", "10",
                    "--out", str(out)]) == 2
        assert not out.exists()


@pytest.fixture
def small_data(tmp_path):
    run(["simulate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
         "--seed", "7", "--out", str(tmp_path)])
    return str(tmp_path / "dataset.csv")


class TestFit:
    def test_bit_identical_reruns(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "40", "--p", "10", "--s", "2",
             "--seed", "6", "--out", str(tmp_path)])
        argv = ["fit", "--data", str(tmp_path / "dataset.csv"), "--prior", "gzs",
                "--d", "3", "--iters", "1200", "--burn", "400", "--chains", "2",
                "--record-beta", "--seed", "13"]
        run(argv + ["--out", str(tmp_path / "f1")])
        run(argv + ["--out", str(tmp_path / "f2")])
        for name in ("models_chain0.csv", "models_chain1.csv", "scalars_chain0.csv",
                     "scalars_chain1.csv", "beta_chain0.csv", "diagnostics.csv"):
            assert filecmp.cmp(tmp_path / "f1" / name, tmp_path / "f2" / name,
                               shallow=False), name

    def test_too_short_chain_rejected_before_running(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
             "--seed", "7", "--out", str(tmp_path)])
        argv = ["fit", "--data", str(tmp_path / "dataset.csv"), "--burn", "10",
                "--chains", "2"]
        # ceil((15 - 10) / 1) = 5 draws per chain: rejected, nothing written
        assert run(argv + ["--iters", "15", "--out", str(tmp_path / "short")]) == 2
        assert not (tmp_path / "short").exists()
        # ceil((29 - 10) / 2) = 10 draws per chain: enough
        assert run(argv + ["--iters", "29", "--thin", "2", "--out", str(tmp_path / "ok")]) == 0
        assert (tmp_path / "ok" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("alpha", ["1.5", "0", "-0.1", "nan"])
    def test_alpha_rejected_before_running(self, tmp_path, small_data, alpha):
        # --c 1e-6 leaves the modal model empty, where no interval is built
        for prior in (["--prior", "gzs"], ["--prior", "fixed", "--c", "1e-6"]):
            out = tmp_path / "f"
            assert run(["fit", "--data", small_data, *prior, "--iters", "100", "--burn", "10",
                        "--alpha", alpha, "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("prior", [
        ["--prior", "ghg", "--sigma-kappa", "nan"],
        ["--prior", "gzs", "--d", "nan"],
        ["--prior", "gzs", "--gzs-a", "nan"],
        ["--prior", "ghg", "--d", "nan"],
        ["--prior", "ghg", "--ghg-b", "nan"],
        ["--prior", "fixed", "--c", "5", "--nu", "nan"],
    ], ids=["sigma-kappa", "gzs-d", "gzs-a", "ghg-d", "ghg-b", "nu"])
    def test_nan_prior_rejected_before_running(self, tmp_path, small_data, prior):
        out = tmp_path / "f"
        assert run(["fit", "--data", small_data, *prior, "--iters", "100", "--burn", "10",
                    "--out", str(out)]) == 2
        assert not (out / "models_chain0.csv").exists()

    def test_fixed_prior_requires_c(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
             "--seed", "7", "--out", str(tmp_path)])
        code = run(["fit", "--data", str(tmp_path / "dataset.csv"), "--prior", "fixed",
                    "--iters", "100", "--burn", "10", "--out", str(tmp_path / "f")])
        assert code == 2


class TestReplicate:
    def test_threads_do_not_change_results(self, tmp_path):
        argv = ["replicate", "--example", "1", "--n", "40", "--p", "8", "--s", "2",
                "--prior", "gzs", "--d", "3", "--iters", "800", "--burn", "200",
                "--reps", "4", "--record-beta", "--seed", "21"]
        assert run(argv + ["--threads", "1", "--out", str(tmp_path / "t1")]) == 0
        assert run(argv + ["--threads", "4", "--out", str(tmp_path / "t4")]) == 0
        for name in ("summary.csv", "aggregate.csv"):
            assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t4" / name,
                               shallow=False), name

    def test_summary_format(self, tmp_path):
        run(["replicate", "--example", "2", "--setting", "I", "--n", "40", "--p", "8",
             "--s", "2", "--prior", "fixed", "--c-preset", "bic", "--iters", "500",
             "--burn", "100", "--reps", "2", "--seed", "3", "--out", str(tmp_path)])
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "rep,selected_gamma,freq_true,fcr,mean_ci_len,size,err"
        assert len(lines) == 3

    @pytest.mark.parametrize("option", [["--reps", "0"], ["--threads", "0"], ["--threads", "-1"]],
                             ids=["reps-0", "threads-0", "threads-neg"])
    def test_reps_and_threads_below_one_rejected(self, tmp_path, option):
        out = tmp_path / "r"
        assert run(["replicate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
                    "--iters", "100", "--burn", "10", *option, "--out", str(out)]) == 2
        assert not out.exists()

    def test_alpha_rejected_before_running(self, tmp_path):
        out = tmp_path / "r"
        assert run(["replicate", "--example", "1", "--n", "20", "--p", "5", "--s", "2",
                    "--iters", "100", "--burn", "10", "--reps", "2", "--alpha", "1.5",
                    "--out", str(out)]) == 2
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        run(["simulate", "--example", "1", "--n", "30", "--p", "6", "--s", "2",
             "--seed", "8", "--out", str(tmp_path)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters = 400\nburn = 100\nprior = fixed\nc-preset = bic\n")
        out1 = tmp_path / "c1"
        assert run(["fit", "--data", str(tmp_path / "dataset.csv"),
                    "--config", str(cfg), "--seed", "1", "--out", str(out1)]) == 0
        meta = json.loads((out1 / "meta.json").read_text())
        assert meta["config"]["iters"] == 400
        assert meta["config"]["c_preset"] == "bic"
        out2 = tmp_path / "c2"
        assert run(["fit", "--data", str(tmp_path / "dataset.csv"),
                    "--config", str(cfg), "--iters", "200", "--seed", "1",
                    "--out", str(out2)]) == 0
        meta2 = json.loads((out2 / "meta.json").read_text())
        assert meta2["config"]["iters"] == 200  # flag wins over file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option = 1\n")
        code = run(["fit", "--data", "x.csv", "--config", str(cfg)])
        assert code == 2

    def test_config_equals_form(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "30", "--p", "6", "--s", "2",
             "--seed", "8", "--out", str(tmp_path)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters = 400\nburn = 100\nprior = fixed\nc-preset = bic\n")
        out = tmp_path / "eq"
        assert run(["fit", "--data", str(tmp_path / "dataset.csv"), f"--config={cfg}",
                    "--seed", "1", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["iters"] == 400

    @pytest.mark.parametrize("line", ["prior = bogus", "iters = ten", "c-preset = aic"])
    def test_config_values_checked_by_argparse(self, tmp_path, small_data, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", small_data, "--config", str(cfg), "--out", str(tmp_path / "f")])
        assert exc.value.code == 2
        assert not (tmp_path / "f").exists()

    def test_config_supplies_required_option_and_flag(self, tmp_path, small_data):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {small_data}\niters = 60\nburn = 10\nrecord-beta = yes\n")
        out = tmp_path / "f"
        assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "beta_chain0.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["data"] == small_data
        assert meta["config"]["record_beta"] is True
        cfg.write_text(f"data = {small_data}\nrecord-beta = maybe\n")
        assert run(["fit", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2

    def test_config_list_option(self, tmp_path, small_data):
        run(["fit", "--data", small_data, "--iters", "100", "--burn", "10", "--chains", "2",
             "--out", str(tmp_path / "f")])
        cfg = tmp_path / "diag.cfg"
        cfg.write_text(f"scalars = {tmp_path / 'f' / 'scalars_chain0.csv'} {tmp_path / 'f' / 'scalars_chain1.csv'}\n")
        assert run(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "diagnostics.csv").read_text() == (tmp_path / "f" / "diagnostics.csv").read_text()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["fit", "--data", "d.csv", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_trailing_config_without_path(self):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--data", "d.csv", "--config"])
        assert exc.value.code == 2


class TestDiagnoseAndRiesz:
    def test_diagnose(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "30", "--p", "5", "--s", "2",
             "--seed", "9", "--out", str(tmp_path)])
        run(["fit", "--data", str(tmp_path / "dataset.csv"), "--prior", "gzs",
             "--iters", "600", "--burn", "100", "--chains", "2", "--seed", "2",
             "--out", str(tmp_path / "f")])
        code = run(["diagnose",
                    "--scalars", str(tmp_path / "f" / "scalars_chain0.csv"),
                    str(tmp_path / "f" / "scalars_chain1.csv"),
                    "--out", str(tmp_path / "d")])
        assert code == 0
        lines = (tmp_path / "d" / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "quantity,rhat,ess_min"
        assert len(lines) == 3

    def test_check_riesz(self, tmp_path, capsys):
        run(["simulate", "--example", "1", "--n", "30", "--p", "6", "--s", "2",
             "--seed", "10", "--out", str(tmp_path)])
        code = run(["check-riesz", "--data", str(tmp_path / "dataset.csv"),
                    "--r", "2", "--mode", "exact"])
        assert code == 0
        assert "c0_estimate" in capsys.readouterr().out

    def test_check_riesz_budget_must_be_positive(self, tmp_path):
        run(["simulate", "--example", "1", "--n", "30", "--p", "6", "--s", "2",
             "--seed", "10", "--out", str(tmp_path)])
        for mode in ("sampled", "exact"):
            assert run(["check-riesz", "--data", str(tmp_path / "dataset.csv"),
                        "--r", "2", "--mode", mode, "--budget", "0"]) == 2


class TestMissingInput:
    @pytest.mark.parametrize("argv", [
        ["fit", "--prior", "fixed", "--c", "5", "--data"],
        ["exact", "--tn", "2", "--c", "5", "--data"],
        ["check-riesz", "--r", "1", "--data"],
        ["diagnose", "--scalars"],
    ], ids=["fit", "exact", "check-riesz", "diagnose"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, argv):
        missing = tmp_path / "nope.csv"
        assert run(argv + [str(missing), "--out", str(tmp_path / "o")]) == 2
        assert "nope.csv" in capsys.readouterr().err


class TestInputsCheckedBeforeOut:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--example", "1", "--n", "20", "--p", "5", "--s", "3"],
        ["fit", "--data", "{data}", "--prior", "fixed", "--c", "5", "--nu", "nan", "--iters", "100", "--burn", "10"],
        ["fit", "--data", "{data}", "--prior", "gzs", "--mn", "21", "--iters", "100", "--burn", "10"],
        ["fit", "--data", "{missing}", "--prior", "gzs", "--iters", "100", "--burn", "10"],
        ["replicate", "--example", "1", "--n", "20", "--p", "5", "--s", "2", "--prior", "ghg", "--ghg-b", "nan",
         "--iters", "100", "--burn", "10"],
        ["replicate", "--example", "1", "--n", "20", "--p", "5", "--s", "2", "--mn", "21",
         "--iters", "100", "--burn", "10"],
        ["diagnose", "--scalars", "{missing}"],
    ], ids=["simulate-odd-s", "fit-nan-nu", "fit-mn-above-n", "fit-missing-data", "replicate-nan-ghg-b",
            "replicate-mn-above-n", "diagnose-missing-scalars"])
    def test_exit_2_leaves_no_out_directory(self, tmp_path, small_data, argv):
        out = tmp_path / "o"
        argv = [a.format(data=small_data, missing=tmp_path / "missing.csv") for a in argv]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()


class TestNoColumns:
    """A dataset file holding only y."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--prior", "gzs", "--iters", "100", "--burn", "10"],
        ["fit", "--prior", "ghg", "--iters", "100", "--burn", "10"],
        ["fit", "--prior", "fixed", "--c", "5", "--iters", "100", "--burn", "10"],
        ["exact", "--tn", "1", "--c", "5"],
        ["check-riesz", "--r", "1"],
        ["check-riesz", "--r", "1", "--mode", "sampled"],
    ], ids=["fit-gzs", "fit-ghg", "fit-fixed", "exact", "check-riesz", "check-riesz-sampled"])
    def test_exits_2(self, tmp_path, capsys, argv):
        data = tmp_path / "y_only.csv"
        data.write_text("y\n1.0\n-2.0\n0.5\n")
        out = tmp_path / "o"
        assert run(argv + ["--data", str(data), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "at least one row and one column" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestMalformedCsv:
    """A CSV that numpy cannot parse exits 2 and names the file."""

    @pytest.mark.parametrize("argv, flag, text", [
        (["fit", "--prior", "fixed", "--c", "5", "--iters", "100", "--burn", "10"], "--data",
         "y,x1,x2\n1,2,3\n4,5\n"),
        (["exact", "--tn", "1", "--c", "5"], "--data", "y,x1,x2\n1,2,3\n4,abc,6\n"),
        (["check-riesz", "--r", "1"], "--data", "y,x1,x2\n1,2,3\n4,abc,6\n"),
        (["diagnose"], "--scalars", "iter,sigma_sq,c,t_n\n0,1.5,abc,2\n"),
        (["diagnose"], "--scalars", "iter\n0\n1\n"),
    ], ids=["fit-ragged", "exact-non-numeric", "check-riesz-non-numeric",
            "diagnose-non-numeric", "diagnose-one-column"])
    def test_exits_2(self, tmp_path, capsys, argv, flag, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "o"
        assert run(argv + [flag, str(bad), "--out", str(out)]) == 2
        assert "bad.csv" in capsys.readouterr().err
        assert not out.exists()
