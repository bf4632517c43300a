import json

import numpy as np
import pytest

from bayes_screen import io
from bayes_screen.data import ValidationError, derive_ground_truth
from bayes_screen.exact import EnumeratedPosterior
from bayes_screen.gibbs import ChainConfig, ChainOutput, run_chain

from conftest import fixed_prior, make_dataset


class TestDatasetRoundtrip:
    def test_bitwise_roundtrip(self, tmp_path):
        d, _ = make_dataset(n=15, p=4, s=2, seed=1)
        path = tmp_path / "data.csv"
        io.write_dataset(path, d)
        d2 = io.read_dataset(path)
        np.testing.assert_array_equal(d.y, d2.y)
        np.testing.assert_array_equal(d.x, d2.x)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError, match="header"):
            io.read_dataset(path)


class TestGroundTruthRoundtrip:
    def test_roundtrip(self, tmp_path):
        truth = derive_ground_truth([0.0, 2.5, -1.25, 0.0, 0.1], 1.75)
        path = tmp_path / "truth.csv"
        io.write_ground_truth(path, truth)
        t2 = io.read_ground_truth(path, p=5)
        np.testing.assert_array_equal(truth.beta0, t2.beta0)
        assert t2.sigma0_sq == 1.75
        assert t2.gamma0 == truth.gamma0

    def test_missing_sigma_rejected(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("j,beta0_j\n1,2.0\n")
        with pytest.raises(ValidationError, match="sigma0_sq"):
            io.read_ground_truth(path, p=3)


class TestChainOutputFiles:
    def test_files_written(self, tmp_path):
        d, _ = make_dataset(n=20, p=4, s=1, seed=2)
        out = run_chain(d, fixed_prior(20.0, m_n=4),
                        ChainConfig(n_iter=200, n_burn=50, thin=2, seed=1, record_beta=True))
        io.write_chain_output(tmp_path, out, thin=2, label="c0")
        models = (tmp_path / "models_c0.csv").read_text().splitlines()
        assert models[0] == "gamma,count"
        counts = sum(int(line.rsplit(",", 1)[1]) for line in models[1:])
        assert counts == 150
        scalars = (tmp_path / "scalars_c0.csv").read_text().splitlines()
        assert scalars[0] == "iter,sigma_sq,c,t_n"
        assert len(scalars) - 1 == out.sigma_sq_draws.shape[0]
        assert (tmp_path / "beta_c0.csv").exists()

    def test_models_with_tied_counts_sorted_by_indices(self, tmp_path):
        counts = {(2,): 5, (0, 1, 2): 2, (1,): 5, (): 2, (0, 3): 5, (0,): 9}
        out = ChainOutput(model_counts=counts, sigma_sq_draws=np.ones(2), c_draws=np.ones(2),
                          t_n_draws=np.ones(2, dtype=np.int64), beta_draws=None, mh_accept_rate=None,
                          c_update_skips=0, seed=0, p=4, n_kept=28)
        io.write_chain_output(tmp_path, out, thin=1)
        # (-count, indices): a larger model with smaller indices comes first
        assert (tmp_path / "models.csv").read_text().splitlines() == [
            "gamma,count", "1,9", "1+4,5", "2,5", "3,5", ",2", "1+2+3,2"]
        assert out.modal_model() == (0,)

    def test_enumeration_format(self, tmp_path):
        post = EnumeratedPosterior(entries=((0,), ()), log_scores=np.array([-2.0, -3.0]),
                                   probs=np.array([0.75, 0.25]), t_n=1, c=1.0)
        path = tmp_path / "enum.csv"
        io.write_enumeration(path, post)
        lines = path.read_text().splitlines()
        assert lines == ["gamma,log_score,prob", "1,-2.0,0.75", ",-3.0,0.25"]  # null model labeled by empty string

    def test_meta_json(self, tmp_path):
        path = tmp_path / "meta.json"
        io.write_meta(path, {"iters": 10}, seed=42)
        meta = json.loads(path.read_text())
        assert meta["seed"] == 42
        assert meta["config"]["iters"] == 10
        assert "version" in meta


def test_format_float():
    assert io.format_float(None) == ""
    assert io.format_float(0.1) == "0.1"
    assert float(io.format_float(np.float64(1 / 3))) == 1 / 3
