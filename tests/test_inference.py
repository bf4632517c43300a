import numpy as np
import pytest
from scipy.special import ndtri

from bayes_screen.data import Dataset, ValidationError, derive_ground_truth
from bayes_screen.gibbs import ChainOutput
from bayes_screen.inference import (
    CredibleIntervalSet,
    aggregate_records,
    credible_intervals,
    f_eta,
    fcr,
    RunRecord,
    summarize_run,
)

from conftest import make_dataset


def orthonormal_dataset(n=16, k=3, seed=0):
    rngen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rngen.standard_normal((n, k)))
    y = rngen.standard_normal(n)
    return Dataset(y, q), q, y


class TestCredibleIntervals:
    def test_orthonormal_algebra(self):
        d, q, y = orthonormal_dataset()
        gamma = (0, 1, 2)
        cis = credible_intervals(gamma, c=1.0, sigma_sq=2.0, d=d, alpha=0.05)
        # U = 2I: centers X'Y/2, sigma_j^2 = 2/2 = 1
        z = ndtri(0.975)
        want_centers = q.T @ y / 2.0
        for (j, center, hw), want in zip(cis.entries, want_centers):
            assert center == pytest.approx(want, rel=1e-12)
            assert hw == pytest.approx(z * 1.0, rel=1e-12)

    def test_dense_inverse_oracle(self):
        d, _ = make_dataset(n=50, p=12, s=4, seed=3)
        gamma = tuple(range(10))
        c, s2 = 17.0, 1.7
        cis = credible_intervals(gamma, c=c, sigma_sq=s2, d=d, alpha=0.1)
        xg = d.x[:, :10]
        u = xg.T @ xg + np.eye(10) / c
        uinv = np.linalg.inv(u)
        xi = uinv @ xg.T @ d.y
        z = ndtri(0.95)
        for (j, center, hw), want_c, want_v in zip(cis.entries, xi, np.diag(uinv)):
            assert center == pytest.approx(want_c, rel=1e-10)
            assert hw == pytest.approx(z * np.sqrt(s2 * want_v), rel=1e-10)

    def test_halfwidths_scale_with_sigma(self):
        d, _ = make_dataset(n=30, p=5, s=2, seed=4)
        gamma = (0, 1)
        a = credible_intervals(gamma, c=10.0, sigma_sq=1.0, d=d, alpha=0.05)
        b = credible_intervals(gamma, c=10.0, sigma_sq=4.0, d=d, alpha=0.05)
        np.testing.assert_allclose(b.lengths(), 2.0 * a.lengths(), rtol=1e-12)

    def test_empty_model_rejected(self):
        d, _ = make_dataset(p=3)
        with pytest.raises(ValidationError, match="no selected"):
            credible_intervals((), 1.0, 1.0, d, 0.05)
        with pytest.raises(ValidationError):
            credible_intervals((0,), 1.0, 1.0, d, 1.5)


class TestFcr:
    def _intervals(self, entries):
        return CredibleIntervalSet(entries=tuple(entries), alpha=0.05,
                                   gamma=tuple(e[0] for e in entries))

    def test_all_cover(self):
        truth = derive_ground_truth([1.0, 2.0] + [0.0] * 8, 1.0)
        cis = self._intervals([(0, 1.1, 0.5), (1, 1.8, 0.5)])
        assert fcr(cis, truth) == 0.0

    def test_one_miss_of_four(self):
        truth = derive_ground_truth([1.0, 2.0, 3.0, 4.0] + [0.0] * 6, 1.0)
        cis = self._intervals([(0, 1.0, 0.1), (1, 2.0, 0.1), (2, 3.0, 0.1), (3, 9.0, 0.1)])
        assert fcr(cis, truth) == pytest.approx(0.25)

    def test_empty_selection_is_zero(self):
        truth = derive_ground_truth([1.0] + [0.0] * 9, 1.0)
        assert fcr(self._intervals([]), truth) == 0.0

    def test_noise_coordinate_counts_against_coverage(self):
        # interval on a truly-zero coefficient covers iff it contains 0
        truth = derive_ground_truth([1.0] + [0.0] * 9, 1.0)
        assert fcr(self._intervals([(5, 3.0, 0.5)]), truth) == 1.0
        assert fcr(self._intervals([(5, 0.2, 0.5)]), truth) == 0.0


class TestFEta:
    def test_strictly_greater(self):
        assert f_eta([0.5, 0.6], 0.5) == pytest.approx(0.5)
        assert f_eta([0.4, 0.6, 0.95], 0.5) == pytest.approx(2 / 3)
        assert f_eta([1.0, 1.0], 0.9) == 1.0

    def test_monotone_in_eta(self):
        freqs = np.random.default_rng(5).random(50)
        vals = [f_eta(freqs, e) for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            f_eta([], 0.5)
        with pytest.raises(ValidationError):
            f_eta([0.5], 1.0)
        with pytest.raises(ValidationError):
            f_eta([1.5], 0.5)


def fake_output(p, counts, beta_rows=None, c=10.0, s2=1.0):
    n_kept = sum(counts.values())
    return ChainOutput(
        model_counts=counts,
        sigma_sq_draws=np.full(n_kept, s2),
        c_draws=np.full(n_kept, c),
        t_n_draws=np.full(n_kept, 3, dtype=np.int64),
        beta_draws=None if beta_rows is None else np.asarray(beta_rows, dtype=float),
        mh_accept_rate=None,
        c_update_skips=0,
        seed=0,
        p=p,
        n_kept=n_kept,
    )


class TestSummaries:
    def test_perfect_recovery(self):
        d, beta0 = make_dataset(n=40, p=5, s=2, seed=6)
        truth = derive_ground_truth(beta0, 1.0)
        counts = {truth.gamma0: 90, (0,): 10}
        out = fake_output(5, counts, beta_rows=[beta0] * 100)
        rec = summarize_run(out, truth, d)
        assert rec.selected == truth.gamma0
        assert rec.freq_true == pytest.approx(0.9)
        assert rec.size == 2
        assert rec.err == pytest.approx(0.0)
        assert rec.interval_lengths.shape == (2,)

    def test_empty_selection(self):
        d, beta0 = make_dataset(n=40, p=5, s=2, seed=6)
        truth = derive_ground_truth(beta0, 1.0)
        out = fake_output(5, {(): 100})
        rec = summarize_run(out, truth, d)
        assert rec.fcr == 0.0 and rec.interval_lengths.size == 0

    def test_aggregate_permutation_invariant(self):
        recs = [
            RunRecord((0, 1), 0.95, 2, 0.3, 0.0, np.array([0.4, 0.5])),
            RunRecord((0,), 0.40, 1, 0.6, 0.5, np.array([0.7])),
            RunRecord((0, 1, 2), 0.80, 3, 0.2, 0.0, np.array([0.3, 0.2, 0.4])),
        ]
        a = aggregate_records(recs)
        b = aggregate_records(recs[::-1])
        assert a.f_values == b.f_values
        assert a.mssm == b.mssm == 2.0
        assert a.me == b.me == pytest.approx(0.3)
        assert a.mean_fcr == b.mean_fcr
        assert a.mean_ci_length == pytest.approx(np.mean([0.4, 0.5, 0.7, 0.3, 0.2, 0.4]))

    def test_mixed_beta_recording_rejected(self):
        recs = [
            RunRecord((0,), 0.9, 1, 0.1, 0.0, np.array([0.4])),
            RunRecord((0,), 0.9, 1, None, 0.0, np.array([0.4])),
        ]
        with pytest.raises(ValidationError, match="beta recording"):
            aggregate_records(recs)

    def test_summarize_replications_end_to_end(self):
        d, beta0 = make_dataset(n=40, p=5, s=2, seed=7)
        truth = derive_ground_truth(beta0, 1.0)
        outs = [fake_output(5, {truth.gamma0: 100}, beta_rows=[beta0] * 10)
                for _ in range(3)]
        summary = aggregate_records(summarize_run(out, truth, d) for out in outs)
        assert summary.f_values[0.5] == 1.0 and summary.f_values[0.9] == 1.0
        assert summary.mssm == 2.0
        assert summary.me == 0.0
