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
    PriorConfig,
    ValidationError,
    model_label,
)
from bayes_screen import exact, io
from bayes_screen.exact import (
    SingularModelError,
    check_sparse_riesz,
    enumerate_posterior,
    enumerate_posterior_with_tn_prior,
    log_unnorm_posterior,
    log_unnorm_posterior_g,
    model_space_size,
)

from conftest import make_dataset


def all_models(p, t_n):
    for k in range(t_n + 1):
        yield from itertools.combinations(range(p), k)


def by_model(post, values):
    """An enumeration's ``values`` (log_scores or probs) keyed by index tuple."""
    return dict(zip(post.entries, values.tolist()))


def direct_score(gamma, c, d, nu):
    """Dense-linear-algebra oracle for the log posterior kernel."""
    yty = float(d.y @ d.y)
    k = len(gamma)
    if k == 0:
        return -0.5 * (d.n + nu) * math.log1p(yty)
    xg = d.x[:, list(gamma)]
    u = xg.T @ xg + np.eye(k) / c
    sign, logdet_u = np.linalg.slogdet(u)
    assert sign > 0
    b = xg.T @ d.y
    quad = yty - float(b @ np.linalg.solve(u, b))
    return -0.5 * (k * math.log(c) + logdet_u) - 0.5 * (d.n + nu) * math.log1p(quad)


class TestFixedCScore:
    def test_hand_example_single_column(self):
        # y = (1,0,0), one column (1,0,0), c = 1, nu = 6
        d = Dataset([1.0, 0.0, 0.0], [[1.0], [0.0], [0.0]])
        prior = PriorConfig(nu=6.0, m_n=1, c_prior=FixedC(1.0))
        null = log_unnorm_posterior((), 1.0, d, prior, t_n=1)
        assert null == pytest.approx(-4.5 * math.log(2.0), rel=1e-14)
        one = log_unnorm_posterior((0,), 1.0, d, prior, t_n=1)
        expected = -0.5 * math.log(2.0) - 4.5 * math.log(1.5)
        assert one == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_oracle(self):
        d, _ = make_dataset(n=30, p=8, s=3, seed=4)
        prior = PriorConfig(nu=6.0, m_n=8, c_prior=FixedC(25.0))
        rngen = np.random.default_rng(9)
        for _ in range(20):
            k = int(rngen.integers(0, 6))
            gamma = tuple(sorted(rngen.choice(8, size=k, replace=False).tolist()))
            got = log_unnorm_posterior(gamma, 25.0, d, prior, t_n=8)
            want = direct_score(gamma, 25.0, d, prior.nu)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_none_above_size_cap(self):
        d, _ = make_dataset(p=5)
        prior = PriorConfig(m_n=5, c_prior=FixedC(10.0))
        assert log_unnorm_posterior((0, 1, 2), 10.0, d, prior, t_n=2) is None

    def test_rejects_nonpositive_c(self):
        d, _ = make_dataset(p=3)
        prior = PriorConfig(m_n=3, c_prior=FixedC(1.0))
        with pytest.raises(ValidationError):
            log_unnorm_posterior((), 0.0, d, prior, t_n=2)


class TestEnumeration:
    def test_model_space_size(self):
        assert model_space_size(15, 4) == 1 + 15 + 105 + 455 + 1365
        d, _ = make_dataset(n=20, p=5, s=2)
        post = enumerate_posterior(d, PriorConfig(m_n=2, c_prior=FixedC(10.0)), 10.0, t_n=2)
        assert len(post.entries) == len(set(post.entries)) == model_space_size(5, 2)

    def test_probabilities_normalize_and_order(self):
        d, _ = make_dataset(n=30, p=5, s=2, seed=1)
        prior = PriorConfig(m_n=3, c_prior=FixedC(30.0))
        post = enumerate_posterior(d, prior, 30.0, t_n=3)
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(post.entries) == len(post.log_scores) == len(post.probs)
        # probability ratios reproduce score differences
        probs = by_model(post, post.probs)
        s1 = direct_score((0, 1), 30.0, d, prior.nu)
        s2 = direct_score((0,), 30.0, d, prior.nu)
        assert math.log(probs[(0, 1)] / probs[(0,)]) == pytest.approx(s1 - s2, abs=1e-9)
        for g, v in zip(post.entries, post.log_scores):
            assert v == log_unnorm_posterior(g, 30.0, d, prior, 3)

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
                gammas.append(combo)
                scores.append(direct_score(combo, 20.0, d, prior.nu)
                              + math.log(m_n - max(k, 1) + 1))
        probs = np.exp(scores - logsumexp(scores))
        for g, pr in zip(gammas, probs):
            assert got[g] == pytest.approx(pr, rel=1e-9)


def ar_dataset(n=40, p=7, rho=0.99, seed=3):
    """AR(1) columns with correlation rho, the last column a copy of column 2."""
    rngen = np.random.default_rng(seed)
    z = rngen.standard_normal((n, p - 1))
    x = np.empty((n, p))
    x[:, 0] = z[:, 0]
    for j in range(1, p - 1):
        x[:, j] = rho * x[:, j - 1] + math.sqrt(1.0 - rho * rho) * z[:, j]
    x[:, p - 1] = x[:, 2]
    y = x[:, 0] - x[:, 3] + rngen.standard_normal(n)
    return Dataset(y, x)


def guard_zero_size_lapack(monkeypatch):
    """Make the numpy LAPACK wrappers that the exact layer calls fail on an
    empty stack."""
    for name in ("cholesky", "eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def guarded(a, *args, _orig=orig, **kwargs):
            assert np.asarray(a).size > 0, "LAPACK called on a zero-size stack"
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)


class TestBatchedScorer:
    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e12])
    def test_ar_columns_and_duplicate_match_oracle(self, c):
        d = ar_dataset()
        prior = PriorConfig(m_n=4, c_prior=FixedC(c))
        post = enumerate_posterior(d, prior, c, t_n=4)
        checked = 0
        for g, v in zip(post.entries, post.log_scores):
            # At c = 1e12 a model holding both copies has U = X_g'X_g + 1e-12 I
            # with X_g'X_g exactly singular; rounding s + 1e-12 at s ~ 40
            # already moves det U by about 1e-3, so no method reaches 1e-12.
            if c == 1e12 and {2, 6} <= set(g):
                assert math.isfinite(v)
                continue
            assert v == pytest.approx(direct_score(g, c, d, prior.nu), rel=1e-12)
            checked += 1
        assert checked > 0.8 * len(post.log_scores)

    def test_failing_cholesky_retries_only_that_model(self):
        # Columns 0 and 1 are both all ones: with 1/c below half an ulp of
        # n = 100, U of the pair is [[100, 100], [100, 100]] exactly, and its
        # Cholesky fails in the same stack as every other pair.
        rngen = np.random.default_rng(21)
        n, c = 100, 1e16
        x = np.column_stack([np.ones(n), np.ones(n), rngen.standard_normal((n, 3))])
        d = Dataset(x[:, 2] + rngen.standard_normal(n), x)
        prior = PriorConfig(m_n=2, c_prior=FixedC(c))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(x[:, :2].T @ x[:, :2] + np.eye(2) / c)
        post = enumerate_posterior(d, prior, c, t_n=2)
        pair = (0, 1)
        for g, v in zip(post.entries, post.log_scores):
            assert v == log_unnorm_posterior(g, c, d, prior, 2)
            if g != pair:
                assert v == pytest.approx(direct_score(g, c, d, prior.nu), rel=1e-12)
        # The retry factors U + j I with j = 1e-10 trace(U) / 2 = 1e-8. Its
        # eigenvalues are a + 100 and a - 100, a = fl(100 + j), along (1, 1)
        # and (1, -1), and b = X_g'y lies along (1, 1). That matrix has
        # condition number 2e10, so the factor's small pivot carries a
        # relative rounding error near 2e10 * 2^-53 = 2e-6, and the score one
        # of about 1e-6: the bound below is that, not 1e-12.
        a = 100.0 + 1e-10 * (2 * n) / 2
        t = float(x[:, 0] @ d.y)
        quad = float(d.y @ d.y) - 2.0 * t * t / (a + n)
        retry = (-0.5 * (2 * math.log(c) + math.log(a - n) + math.log(a + n))
                 - 0.5 * (n + prior.nu) * math.log1p(quad))
        assert by_model(post, post.log_scores)[pair] == pytest.approx(retry, abs=1e-5)

    def test_chol_stack_isolates_failures(self):
        good = np.array([[4.0, 1.0], [1.0, 3.0]])
        ones = np.full((2, 2), 100.0)
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        low = exact._chol_stack(np.stack([good, ones, 2.0 * good]))
        assert np.array_equal(low[0], np.linalg.cholesky(good))
        assert np.array_equal(low[2], np.linalg.cholesky(2.0 * good))
        assert np.array_equal(low[1], np.linalg.cholesky(ones + 1e-8 * np.eye(2)))
        with pytest.raises(SingularModelError):
            exact._chol_stack(np.stack([good, indefinite, good]))

    def test_chunks_do_not_change_bits(self, monkeypatch):
        d, _ = make_dataset(n=30, p=7, s=2, seed=6)
        prior = PriorConfig(m_n=4, c_prior=FixedC(15.0))
        whole = enumerate_posterior(d, prior, 15.0, t_n=4)
        shapes = []
        score = exact._score_given_c

        def recording(combos, *args):
            shapes.append(combos.shape)
            return score(combos, *args)

        monkeypatch.setattr(exact, "_score_given_c", recording)
        monkeypatch.setattr(exact, "CHUNK_BYTES", 8 * d.n * 7)
        post = enumerate_posterior(d, prior, 15.0, t_n=4)
        assert (3, 2) in shapes and (2, 3) in shapes  # sizes 2 and 3 span many chunks
        assert post.entries == whole.entries
        assert np.array_equal(post.log_scores, whole.log_scores)
        assert np.array_equal(post.probs, whole.probs)
        for g, v in zip(post.entries, post.log_scores):
            assert v == log_unnorm_posterior(g, 15.0, d, prior, 4)

    def test_tn_marginal_is_reweighted_enumeration(self):
        d, _ = make_dataset(n=25, p=6, s=2, seed=8)
        prior = PriorConfig(m_n=3, c_prior=FixedC(25.0))
        got = enumerate_posterior_with_tn_prior(d, prior, 25.0)
        post = enumerate_posterior(d, prior, 25.0, t_n=3)
        weighted = {g: v + math.log(3 - max(len(g), 1) + 1) for g, v in zip(post.entries, post.log_scores)}
        norm = logsumexp(list(weighted.values()))
        assert list(got) == list(all_models(6, 3))  # enumeration order
        for g, v in weighted.items():
            assert got[g] == pytest.approx(math.exp(v - norm), rel=1e-12)

    def test_null_model_and_empty_sizes_skip_lapack(self, monkeypatch):
        guard_zero_size_lapack(monkeypatch)
        d, _ = make_dataset(n=20, p=3, s=1, seed=2)
        prior = PriorConfig(nu=6.0, m_n=5, c_prior=GZS(a=1.0, b_n=2.0))
        null = ()
        want = -0.5 * (d.n + prior.nu) * math.log1p(float(d.y @ d.y))
        assert log_unnorm_posterior(null, 7.0, d, prior, 5) == want
        post = enumerate_posterior(d, prior, 7.0, t_n=5)  # sizes 4 and 5 are empty
        assert len(post.entries) == 2**3
        assert by_model(post, post.log_scores)[()] == want
        assert exact._score_given_c(np.empty((0, 2), dtype=np.intp), 7.0, d, 6.0).shape == (0,)
        # the null model's marginal does not depend on c: the prior integrates to ~1
        g_null = log_unnorm_posterior_g(null, d, prior, t_n=5)
        assert g_null == pytest.approx(want, abs=1e-6)


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
        gamma = (0,)
        got = log_unnorm_posterior_g(gamma, d, prior, t_n=4)
        rngen = np.random.default_rng(7)
        c_draws = stats.invgamma(1.0, scale=4.0**2.0).rvs(size=2_000_000, random_state=rngen)
        mc = logsumexp(self._scalar_scores(d, c_draws, prior.nu)) - math.log(c_draws.size)
        assert got == pytest.approx(mc, abs=0.01)

    def test_ghg_matches_monte_carlo(self):
        d, _ = make_dataset(n=25, p=4, s=1, seed=3)
        prior = PriorConfig(nu=6.0, m_n=4, c_prior=GHG(d=1.0, b=2.0))
        gamma = (0,)
        got = log_unnorm_posterior_g(gamma, d, prior, t_n=4)
        rngen = np.random.default_rng(8)
        s = stats.beta(4.0 + 1.0, 2.0).rvs(size=2_000_000, random_state=rngen)
        c_draws = s / (1.0 - s)
        mc = logsumexp(self._scalar_scores(d, c_draws, prior.nu)) - math.log(c_draws.size)
        assert got == pytest.approx(mc, abs=0.01)

    def test_node_doubling_converged(self):
        d, _ = make_dataset(n=25, p=4, s=2, seed=5)
        prior = PriorConfig(nu=6.0, m_n=4, c_prior=GZS(a=2.0, b_n=2.0))
        gamma = (0, 1)
        v128 = log_unnorm_posterior_g(gamma, d, prior, t_n=4, n_nodes=128)
        v512 = log_unnorm_posterior_g(gamma, d, prior, t_n=4, n_nodes=512)
        assert v128 == pytest.approx(v512, abs=1e-8)

    def test_n_nodes_honoured(self):
        d, _ = make_dataset(n=30, p=5, s=2, seed=5)
        prior = PriorConfig(nu=6.0, m_n=5, c_prior=GHG(d=1.0, b=1.0))
        gamma = (0, 1)
        v8 = log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=8)
        v128 = log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=128)
        assert v8 != v128
        with pytest.raises(ValidationError, match="n_nodes"):
            log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=0)

    @pytest.mark.parametrize("c_prior", [GZS(a=1.0, b_n=2.0), GHG(d=1.0, b=2.0)], ids=["gzs", "ghg"])
    def test_eigh_quadrature_matches_per_node_cholesky(self, c_prior):
        d, _ = make_dataset(n=25, p=5, s=2, seed=5)
        prior = PriorConfig(nu=6.0, m_n=5, c_prior=c_prior)
        logpdf, c_lo, c_hi = exact._c_prior_logpdf_and_bounds(c_prior, d.p)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        k_lo, k_hi = math.log(c_lo), math.log(c_hi)
        kappa = 0.5 * (k_hi - k_lo) * nodes + 0.5 * (k_hi + k_lo)
        for gamma in all_models(5, 3):
            per_node = np.array([log_unnorm_posterior(gamma, float(c), d, prior, 5)
                                 for c in np.exp(kappa)])
            want = logsumexp(per_node + logpdf(np.exp(kappa)) + kappa, b=weights * 0.5 * (k_hi - k_lo))
            got = log_unnorm_posterior_g(gamma, d, prior, t_n=5, n_nodes=64)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("c_prior", [GZS(a=1.0, b_n=2.0), GHG(d=1.0, b=2.0), GHG(d=3.0, b=0.5)],
                             ids=["gzs", "ghg", "ghg-d3"])
    @pytest.mark.parametrize("n,p,seed", [(20, 6, 0), (15, 5, 1), (20, 6, 2)])
    def test_128_and_256_nodes_agree(self, c_prior, n, p, seed):
        d, _ = make_dataset(n=n, p=p, s=2, seed=seed)
        prior = PriorConfig(nu=6.0, m_n=p, c_prior=c_prior)
        for gamma in all_models(p, 3):
            v128 = log_unnorm_posterior_g(gamma, d, prior, t_n=3, n_nodes=128)
            v256 = log_unnorm_posterior_g(gamma, d, prior, t_n=3, n_nodes=256)
            assert v128 == pytest.approx(v256, abs=1e-10)

    def test_ghg_upper_bound_from_the_complementary_beta(self):
        # c/(1+c) ~ Beta(217, 0.5) at p = 6: its 1 - 1e-9 quantile rounds to 1,
        # so the bound comes from 1/(1+c) ~ Beta(0.5, 217) instead
        ghg = GHG(d=3.0, b=0.5)
        _, lo, hi = exact._c_prior_logpdf_and_bounds(ghg, 6)
        t = stats.beta(0.5, ghg.alpha_n(6)).ppf(1e-9)
        assert hi == (1.0 - t) / t
        assert 1e20 < hi < 1e21 and 0 < lo < hi

    def test_improper_priors_rejected(self):
        d, _ = make_dataset(n=20, p=3, s=1)
        gamma = (0,)
        for cp in (GZS(a=0.0, b_n=3.0), GHG(d=1.0, b=0.0)):
            prior = PriorConfig(m_n=3, c_prior=cp)
            with pytest.raises(ValidationError, match="proper"):
                log_unnorm_posterior_g(gamma, d, prior, t_n=3)

    def test_none_above_cap(self):
        d, _ = make_dataset(n=20, p=3, s=1)
        prior = PriorConfig(m_n=3, c_prior=GZS(a=1.0, b_n=2.0))
        assert log_unnorm_posterior_g((0, 1), d, prior, t_n=1) is None


class TestOneOrder:
    """The enumeration comes in one order: decreasing probability, then
    smaller size, then lexicographic indices, and nothing re-sorts it."""

    @pytest.fixture
    def post(self):
        # y loads on column 2 alone, which column 6 duplicates: two models
        # that differ only by 2 <-> 6 score the same bits, so the top pair
        # ties, and every model without either has probability 0.
        rngen = np.random.default_rng(4)
        x = rngen.standard_normal((100, 7))
        x[:, 6] = x[:, 2]
        d = Dataset(1e4 * x[:, 2] + rngen.standard_normal(100), x)
        return enumerate_posterior(d, PriorConfig(m_n=3, c_prior=FixedC(1e8)), 1e8, t_n=3)

    def test_entries_sorted_by_prob_size_indices(self, post):
        assert len(post.entries) == model_space_size(7, 3)
        keyed = sorted(zip(post.entries, post.probs.tolist()), key=lambda e: (-e[1], len(e[0]), e[0]))
        assert list(post.entries) == [g for g, _ in keyed]
        assert post.entries[:2] == ((2,), (6,))
        assert post.probs[0] == post.probs[1] > 0.0
        zero = [g for g, pr in zip(post.entries, post.probs) if pr == 0.0]
        assert {len(g) for g in zero} == {0, 1, 2, 3}  # zero-probability ties span sizes
        assert zero == sorted(zero, key=lambda g: (len(g), g))

    def test_write_enumeration_keeps_the_order(self, post, tmp_path):
        path = tmp_path / "enumeration.csv"
        io.write_enumeration(path, post)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,log_score,prob"
        assert len(lines) == 1 + len(post.entries)
        for line, g, v, pr in zip(lines[1:], post.entries, post.log_scores, post.probs):
            label, score, prob = line.split(",")
            assert label == model_label(g)
            assert float(score) == v and float(prob) == pr

    def test_negative_tn_rejected(self):
        d, _ = make_dataset(n=20, p=3, s=1)
        with pytest.raises(ValidationError, match="t_n"):
            enumerate_posterior(d, PriorConfig(m_n=3, c_prior=FixedC(5.0)), 5.0, t_n=-1)


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

    def test_sampled_mode_matches_per_draw_loop(self):
        rngen = np.random.default_rng(13)
        x = rngen.standard_normal((15, 9))
        report = check_sparse_riesz(x, r=2, mode="sampled", budget=300, seed=5)
        draws = np.random.default_rng(5)
        evals = []
        for _ in range(300):
            k = int(draws.integers(1, 5))
            xg = x[:, draws.choice(9, size=k, replace=False)]
            evals.append(np.linalg.eigvalsh(xg.T @ xg / 15))
        assert report.n_models == 300
        assert report.lambda_min == pytest.approx(min(e[0] for e in evals), rel=1e-12)
        assert report.lambda_max == pytest.approx(max(e[-1] for e in evals), rel=1e-12)

    def test_singular_submatrix_flagged(self):
        x = np.ones((10, 3))  # duplicate columns: any 2-subset is singular
        report = check_sparse_riesz(x, r=1, mode="exact")
        assert report.condition_violated
        assert report.c0_estimate == math.inf

    def test_x_without_columns_rejected(self):
        with pytest.raises(ValidationError, match="one column"):
            check_sparse_riesz(np.empty((5, 0)), r=1)

    def test_non_finite_x_rejected(self):
        # min(inf, nan) is inf, so an all-NaN x once reported a healthy design
        with pytest.raises(ValidationError, match="non-finite"):
            check_sparse_riesz(np.full((5, 2), np.nan), r=1)

    def test_one_dimensional_x_rejected(self):
        with pytest.raises(ValidationError, match="2-d"):
            check_sparse_riesz(np.ones(5), r=1)

    def test_exact_budget_enforced(self):
        x = np.random.default_rng(0).standard_normal((10, 30))
        with pytest.raises(ValidationError, match="budget"):
            check_sparse_riesz(x, r=3, mode="exact", budget=10)
