import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy import stats

from bayes_screen.data import (
    GHG,
    GZS,
    Dataset,
    FixedC,
    ModelIndicator,
    Precomputed,
    PriorConfig,
    ValidationError,
)
from bayes_screen.exact import (
    LogScore,
    check_sparse_riesz,
    enumerate_posterior,
    enumerate_posterior_with_tn_prior,
    iter_models,
    log_unnorm_posterior,
    log_unnorm_posterior_g,
    map_model,
    model_space_size,
)

from conftest import make_dataset


def direct_score(gamma, c, d, nu):
    """Dense-linear-algebra oracle for the log posterior kernel."""
    yty = float(d.y @ d.y)
    k = len(gamma)
    if k == 0:
        return -0.5 * (d.n + nu) * math.log1p(yty)
    xg = d.x[:, list(gamma.included)]
    u = xg.T @ xg + np.eye(k) / c
    sign, logdet_u = np.linalg.slogdet(u)
    assert sign > 0
    b = xg.T @ d.y
    quad = yty - float(b @ np.linalg.solve(u, b))
    return -0.5 * (k * math.log(c) + logdet_u) - 0.5 * (d.n + nu) * math.log1p(quad)


class TestFixedCScore:
    def test_hand_example_single_column(self):
        # y = (1,0,0), one column (1,0,0), c = 1, nu = 6
        d = Dataset.from_arrays([1.0, 0.0, 0.0], [[1.0], [0.0], [0.0]])
        prior = PriorConfig(nu=6.0, m_n=1, c_prior=FixedC(1.0))
        null = log_unnorm_posterior(ModelIndicator((), p=1), 1.0, d, prior, t_n=1)
        assert null.value == pytest.approx(-4.5 * math.log(2.0), rel=1e-14)
        one = log_unnorm_posterior(ModelIndicator((0,), p=1), 1.0, d, prior, t_n=1)
        expected = -0.5 * math.log(2.0) - 4.5 * math.log(1.5)
        assert one.value == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_oracle(self):
        d, _ = make_dataset(n=30, p=8, s=3, seed=4)
        prior = PriorConfig(nu=6.0, m_n=8, c_prior=FixedC(25.0))
        rngen = np.random.default_rng(9)
        for _ in range(20):
            k = int(rngen.integers(0, 6))
            gamma = ModelIndicator(tuple(rngen.choice(8, size=k, replace=False)), p=8)
            got = log_unnorm_posterior(gamma, 25.0, d, prior, t_n=8).value
            want = direct_score(gamma, 25.0, d, prior.nu)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_none_above_size_cap(self):
        d, _ = make_dataset(p=5)
        prior = PriorConfig(m_n=5, c_prior=FixedC(10.0))
        assert log_unnorm_posterior(ModelIndicator((0, 1, 2), p=5), 10.0, d, prior, t_n=2) is None

    def test_rejects_nonpositive_c(self):
        d, _ = make_dataset(p=3)
        prior = PriorConfig(m_n=3, c_prior=FixedC(1.0))
        with pytest.raises(ValidationError):
            log_unnorm_posterior(ModelIndicator((), p=3), 0.0, d, prior, t_n=2)


class TestEnumeration:
    def test_model_space_size(self):
        assert model_space_size(15, 4) == 1 + 15 + 105 + 455 + 1365
        assert len(list(iter_models(5, 2))) == model_space_size(5, 2)

    def test_probabilities_normalize_and_order(self):
        d, _ = make_dataset(n=30, p=5, s=2, seed=1)
        prior = PriorConfig(m_n=3, c_prior=FixedC(30.0))
        post = enumerate_posterior(d, prior, 30.0, t_n=3)
        probs = np.array(list(post.entries.values()))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # probability ratios reproduce score differences
        g1 = ModelIndicator((0, 1), p=5)
        g2 = ModelIndicator((0,), p=5)
        s1 = direct_score(g1, 30.0, d, prior.nu)
        s2 = direct_score(g2, 30.0, d, prior.nu)
        assert math.log(post.prob(g1) / post.prob(g2)) == pytest.approx(s1 - s2, abs=1e-9)
        assert post.log_scores.keys() == post.entries.keys()
        for g, v in post.log_scores.items():
            assert v == log_unnorm_posterior(g, 30.0, d, prior, 3).value

    def test_enumeration_guard(self):
        d, _ = make_dataset(n=20, p=60, s=2)
        prior = PriorConfig(m_n=10, c_prior=FixedC(10.0))
        with pytest.raises(ValidationError, match="too large"):
            enumerate_posterior(d, prior, 10.0, t_n=10)

    def test_tn_marginal_weights(self):
        d, _ = make_dataset(n=20, p=3, s=1, seed=2)
        m_n = 3
        prior = PriorConfig(m_n=m_n, c_prior=FixedC(20.0))
        got = enumerate_posterior_with_tn_prior(d, prior, 20.0)
        scores, gammas = [], []
        for k in range(0, m_n + 1):
            for combo in itertools.combinations(range(3), k):
                g = ModelIndicator(combo, p=3)
                gammas.append(g)
                scores.append(direct_score(g, 20.0, d, prior.nu)
                              + math.log(m_n - max(k, 1) + 1))
        probs = np.exp(scores - logsumexp(scores))
        for g, pr in zip(gammas, probs):
            assert got[g] == pytest.approx(pr, rel=1e-9)


class TestGPriorMarginal:
    def _scalar_scores(self, d, c_vals, nu):
        # closed-form single-column score, vectorized over c
        x = d.x[:, 0]
        yty = float(d.y @ d.y)
        xx = float(x @ x)
        xy = float(x @ d.y)
        u = xx + 1.0 / c_vals
        quad = yty - xy * xy / u
        return -0.5 * (np.log(c_vals) + np.log(u)) - 0.5 * (d.n + nu) * np.log1p(quad)

    def test_gzs_matches_monte_carlo(self):
        d, _ = make_dataset(n=25, p=4, s=1, seed=3)
        prior = PriorConfig(nu=6.0, m_n=4, c_prior=GZS(a=1.0, b_n=2.0))
        gamma = ModelIndicator((0,), p=4)
        got = log_unnorm_posterior_g(gamma, d, prior, t_n=4).value
        rngen = np.random.default_rng(7)
        c_draws = stats.invgamma(1.0, scale=4.0**2.0).rvs(size=2_000_000, random_state=rngen)
        mc = logsumexp(self._scalar_scores(d, c_draws, prior.nu)) - math.log(c_draws.size)
        assert got == pytest.approx(mc, abs=0.01)

    def test_ghg_matches_monte_carlo(self):
        d, _ = make_dataset(n=25, p=4, s=1, seed=3)
        prior = PriorConfig(nu=6.0, m_n=4, c_prior=GHG(d=1.0, b=2.0))
        gamma = ModelIndicator((0,), p=4)
        got = log_unnorm_posterior_g(gamma, d, prior, t_n=4).value
        rngen = np.random.default_rng(8)
        s = stats.beta(4.0 + 1.0, 2.0).rvs(size=2_000_000, random_state=rngen)
        c_draws = s / (1.0 - s)
        mc = logsumexp(self._scalar_scores(d, c_draws, prior.nu)) - math.log(c_draws.size)
        assert got == pytest.approx(mc, abs=0.01)

    def test_node_doubling_converged(self):
        d, _ = make_dataset(n=25, p=4, s=2, seed=5)
        prior = PriorConfig(nu=6.0, m_n=4, c_prior=GZS(a=2.0, b_n=2.0))
        gamma = ModelIndicator((0, 1), p=4)
        v128 = log_unnorm_posterior_g(gamma, d, prior, t_n=4, n_nodes=128).value
        v512 = log_unnorm_posterior_g(gamma, d, prior, t_n=4, n_nodes=512).value
        assert v128 == pytest.approx(v512, abs=1e-8)

    def test_n_nodes_honoured(self):
        d, _ = make_dataset(n=30, p=5, s=2, seed=5)
        prior = PriorConfig(nu=6.0, m_n=5, c_prior=GHG(d=1.0, b=1.0))
        gamma = ModelIndicator((0, 1), p=5)
        v8 = log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=8).value
        v128 = log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=128).value
        assert v8 != v128
        with pytest.raises(ValidationError, match="n_nodes"):
            log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=0)

    def test_improper_priors_rejected(self):
        d, _ = make_dataset(n=20, p=3, s=1)
        gamma = ModelIndicator((0,), p=3)
        for cp in (GZS(a=0.0, b_n=3.0), GHG(d=1.0, b=0.0)):
            prior = PriorConfig(m_n=3, c_prior=cp)
            with pytest.raises(ValidationError, match="proper"):
                log_unnorm_posterior_g(gamma, d, prior, t_n=3)

    def test_none_above_cap(self):
        d, _ = make_dataset(n=20, p=3, s=1)
        prior = PriorConfig(m_n=3, c_prior=GZS(a=1.0, b_n=2.0))
        assert log_unnorm_posterior_g(ModelIndicator((0, 1), p=3), d, prior, t_n=1) is None


class TestMapModel:
    def test_tie_break_smaller_then_lexicographic(self):
        g_small = ModelIndicator((0,), p=4)
        g_big = ModelIndicator((0, 1), p=4)
        g_lex = ModelIndicator((1,), p=4)
        assert map_model([LogScore(1.0, g_big), LogScore(1.0, g_small)]) == g_small
        assert map_model([LogScore(1.0, g_lex), LogScore(1.0, g_small)]) == g_small
        assert map_model([LogScore(2.0, g_big), LogScore(1.0, g_small), None]) == g_big

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            map_model([None])


class TestSparseRiesz:
    def test_matches_dense_oracle(self):
        rngen = np.random.default_rng(11)
        x = rngen.standard_normal((12, 6))
        report = check_sparse_riesz(x, r=2, mode="exact", budget=10**5)
        lam_min, lam_max = np.inf, -np.inf
        n = 12
        count = 0
        for k in range(1, 5):
            for combo in itertools.combinations(range(6), k):
                ev = np.linalg.eigvalsh(x[:, list(combo)].T @ x[:, list(combo)] / n)
                lam_min = min(lam_min, ev[0])
                lam_max = max(lam_max, ev[-1])
                count += 1
        assert report.n_models == count
        assert report.lambda_min == pytest.approx(lam_min, rel=1e-12)
        assert report.lambda_max == pytest.approx(lam_max, rel=1e-12)
        assert report.c0_estimate == pytest.approx(max(1.0 / lam_min, lam_max), rel=1e-12)
        assert not report.condition_violated

    def test_sampled_mode_bounds_exact(self):
        rngen = np.random.default_rng(12)
        x = rngen.standard_normal((15, 8))
        exact = check_sparse_riesz(x, r=2, mode="exact", budget=10**5)
        sampled = check_sparse_riesz(x, r=2, mode="sampled", budget=500, seed=3)
        assert sampled.lower_bound_only
        assert sampled.lambda_min >= exact.lambda_min - 1e-12
        assert sampled.lambda_max <= exact.lambda_max + 1e-12

    def test_singular_submatrix_flagged(self):
        x = np.ones((10, 3))  # duplicate columns: any 2-subset is singular
        report = check_sparse_riesz(x, r=1, mode="exact")
        assert report.condition_violated
        assert report.c0_estimate == math.inf

    def test_exact_budget_enforced(self):
        x = np.random.default_rng(0).standard_normal((10, 30))
        with pytest.raises(ValidationError, match="budget"):
            check_sparse_riesz(x, r=3, mode="exact", budget=10)
