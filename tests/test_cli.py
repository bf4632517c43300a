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
