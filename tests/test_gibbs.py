import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayes_screen.data import (
    GZS,
    Dataset,
    FixedC,
    ModelIndicator,
    Precomputed,
    PriorConfig,
    SamplerState,
    ValidationError,
)
from bayes_screen.exact import enumerate_posterior_with_tn_prior
from bayes_screen.gibbs import (
    ChainConfig,
    ChainOutput,
    chain_seed,
    default_initial_state,
    get_sweep_kernel,
    gibbs_sweep,
    initial_c,
    merge_chains,
    run_chain,
    update_sigma_sq,
    update_t_n,
)
from bayes_screen.kernel import sweep_blocks

from conftest import empirical_models, fixed_prior, make_dataset, tv_distance


class TestConfig:
    def test_burn_bounds(self):
        with pytest.raises(ValidationError):
            ChainConfig(n_iter=10, n_burn=10)
        with pytest.raises(ValidationError):
            ChainConfig(n_iter=10, n_burn=2, thin=0)

    def test_initial_c_values(self):
        assert initial_c(PriorConfig(m_n=2, c_prior=FixedC(7.0)), p=5) == 7.0
        gzs = PriorConfig(m_n=2, c_prior=GZS(a=1.0, b_n=2.0))
        assert initial_c(gzs, p=5) == pytest.approx(25.0 / 2.0)

    def test_default_initial_state(self):
        d, _ = make_dataset(n=20, p=4)
        prior = fixed_prior(10.0, m_n=5)
        s = default_initial_state(d, prior, np.random.default_rng(0))
        assert s.n_active == 0
        assert 0.5 <= s.sigma_sq <= 2.0
        assert 1 <= s.t_n <= 5
        np.testing.assert_array_equal(s.residual, d.y)
        s.check_invariants(d, m_n=5)


def sweep(state, d, pre, rngen):
    """One sweep_blocks call on ``state`` with fresh variates from ``rngen``."""
    return sweep_blocks(d.x, pre.col_sq_norms, state.beta, state.gamma_mask, state.residual,
                        state.sigma_sq, state.c, state.t_n, rngen.random(d.p),
                        rngen.standard_normal(d.p))


class TestBlockUpdate:
    def test_forced_exclusion_when_cap_saturated(self):
        d, _ = make_dataset(n=20, p=3, s=1, seed=1)
        pre = Precomputed.from_dataset(d)
        beta = np.array([1.0, 2.0, 0.0])
        mask = np.array([1, 1, 0], dtype=np.uint8)
        state = SamplerState(beta=beta, gamma_mask=mask, sigma_sq=1.0, t_n=1,
                             c=20.0, residual=d.y - d.x @ beta)
        # coordinate 0: the other active coordinate already fills t_n = 1
        k = sweep(state, d, pre, np.random.default_rng(0))
        assert state.gamma_mask[0] == 0 and state.beta[0] == 0.0
        assert k == state.n_active
        state.check_invariants(d, m_n=2)

    def test_strong_signal_always_included(self):
        d, _ = make_dataset(n=100, p=2, s=1, seed=2, beta_scale=10.0, sigma=0.1)
        pre = Precomputed.from_dataset(d)
        prior = fixed_prior(100.0, m_n=2)
        rngen = np.random.default_rng(3)
        state = default_initial_state(d, prior, rngen)
        state.t_n = 2
        for _ in range(50):
            sweep(state, d, pre, rngen)
        assert state.gamma_mask[0] == 1

    def test_huge_c_shrinks_inclusion(self):
        # pure-noise response with astronomically large c: inclusion odds ~ c^(-1/2)
        rngen = np.random.default_rng(4)
        x = rngen.standard_normal((50, 1))
        y = rngen.standard_normal(50)
        d = Dataset.from_arrays(y, x)
        pre = Precomputed.from_dataset(d)
        prior = fixed_prior(1e12, m_n=1)
        state = default_initial_state(d, prior, rngen)
        state.t_n = 1
        included = 0
        for _ in range(500):
            sweep(state, d, pre, rngen)
            included += int(state.gamma_mask[0])
        assert included < 25

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 20),
        p=st.integers(2, 12),
        log10_c=st.floats(-8.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_sweep_keeps_size_cap_and_invariants(self, n, p, log10_c, seed, data):
        # start saturated (|gamma| = t_n) with column dup a copy of column 0
        rngen = np.random.default_rng(seed)
        x = rngen.standard_normal((n, p))
        x[:, data.draw(st.integers(1, p - 1), label="dup")] = x[:, 0]
        d = Dataset.from_arrays(rngen.standard_normal(n), x)
        t_n = data.draw(st.integers(1, p), label="t_n")
        active = rngen.choice(p, size=t_n, replace=False)
        beta = np.zeros(p)
        beta[active] = rngen.standard_normal(t_n)
        mask = (beta != 0.0).astype(np.uint8)
        state = SamplerState(beta=beta, gamma_mask=mask, sigma_sq=float(rngen.uniform(0.1, 10.0)),
                             t_n=t_n, c=10.0**log10_c, residual=d.y - d.x @ beta)
        k = sweep(state, d, Precomputed.from_dataset(d), rngen)
        assert k == np.count_nonzero(state.gamma_mask)
        assert k <= t_n
        state.check_invariants(d, m_n=p)


class TestSweepKernels:
    def _setup(self, seed=0, n=30, p=6):
        d, _ = make_dataset(n=n, p=p, s=2, seed=seed)
        pre = Precomputed.from_dataset(d)
        prior = fixed_prior(float(n), m_n=p)
        return d, pre, prior

    def test_same_kernel_deterministic(self):
        d, pre, prior = self._setup()
        results = []
        for _ in range(2):
            rngen = np.random.default_rng(99)
            state = default_initial_state(d, prior, rngen)
            for _ in range(200):
                gibbs_sweep(state, d, pre, prior, rngen)
            results.append((state.beta.copy(), state.sigma_sq, state.t_n))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_residual_cache_stays_consistent(self):
        d, pre, prior = self._setup(seed=6)
        rngen = np.random.default_rng(8)
        state = default_initial_state(d, prior, rngen)
        for _ in range(1500):
            gibbs_sweep(state, d, pre, prior, rngen)
        state.check_invariants(d, m_n=prior.m_n)

    def test_get_sweep_kernel_has_one_kernel(self):
        assert get_sweep_kernel() is sweep_blocks
        with pytest.raises(ValueError):
            get_sweep_kernel("python")


class TestScalarUpdates:
    def test_sigma_sq_conjugate_moments(self):
        d, _ = make_dataset(n=40, p=4, s=2, seed=9)
        prior = fixed_prior(40.0, m_n=4)
        rngen = np.random.default_rng(10)
        state = default_initial_state(d, prior, rngen)
        state.beta[:2] = [1.0, -1.0]
        state.gamma_mask[:2] = 1
        state.residual = d.y - d.x @ state.beta
        k = 2
        rss = float(state.residual @ state.residual)
        bsq = 2.0
        shape = 0.5 * (d.n + k + prior.nu)
        scale = 0.5 * (rss + bsq / state.c + 1.0)
        draws = []
        for _ in range(20000):
            s = state.copy()
            update_sigma_sq(s, d, prior, rngen)
            draws.append(s.sigma_sq)
        # inverse-gamma mean scale/(shape-1)
        assert np.mean(draws) == pytest.approx(scale / (shape - 1), rel=0.05)

    def test_t_n_uniform_range(self):
        d, _ = make_dataset(n=20, p=4, s=2)
        prior = fixed_prior(20.0, m_n=8)
        rngen = np.random.default_rng(11)
        state = default_initial_state(d, prior, rngen)
        state.gamma_mask[:3] = 1
        state.beta[:3] = 1.0
        seen = set()
        for _ in range(2000):
            update_t_n(state, prior, rngen)
            assert 3 <= state.t_n <= 8
            seen.add(state.t_n)
        assert seen == {3, 4, 5, 6, 7, 8}


class TestRunChain:
    def test_counts_sum_and_thinning(self):
        d, _ = make_dataset(n=25, p=4, s=1, seed=12)
        prior = fixed_prior(25.0, m_n=4)
        out = run_chain(d, prior, ChainConfig(n_iter=500, n_burn=100, thin=7, seed=1,
                                              record_beta=True))
        assert sum(out.model_counts.values()) == 400
        expected_kept = math.ceil(400 / 7)
        assert out.sigma_sq_draws.shape == (expected_kept,)
        assert out.beta_draws.shape == (expected_kept, 4)
        assert out.n_kept == 400
        assert out.mh_accept_rate is None

    def test_single_recorded_state(self):
        d, _ = make_dataset(n=25, p=4, s=1, seed=12)
        prior = fixed_prior(25.0, m_n=4)
        out = run_chain(d, prior, ChainConfig(n_iter=11, n_burn=10, seed=1))
        assert sum(out.model_counts.values()) == 1
        assert out.sigma_sq_draws.shape == (1,)

    def test_size_cap_respected(self):
        d, _ = make_dataset(n=30, p=8, s=4, seed=13, beta_scale=3.0)
        prior = fixed_prior(30.0, m_n=3)  # cap below the true size
        out = run_chain(d, prior, ChainConfig(n_iter=2000, n_burn=200, seed=2))
        assert max(len(g) for g in out.model_counts) <= 3

    def test_bitwise_reproducible(self):
        d, _ = make_dataset(n=30, p=5, s=2, seed=14)
        prior = PriorConfig(m_n=10, c_prior=GZS(a=0.0, b_n=3.0))
        cfg = ChainConfig(n_iter=800, n_burn=100, seed=77, record_beta=True)
        a, b = run_chain(d, prior, cfg), run_chain(d, prior, cfg)
        assert a.model_counts == b.model_counts
        np.testing.assert_array_equal(a.sigma_sq_draws, b.sigma_sq_draws)
        np.testing.assert_array_equal(a.c_draws, b.c_draws)
        np.testing.assert_array_equal(a.beta_draws, b.beta_draws)

    def test_gzs_skips_counted(self):
        d, _ = make_dataset(n=30, p=5, s=0, seed=15, beta_scale=0.0)
        prior = PriorConfig(m_n=10, c_prior=GZS(a=0.0, b_n=3.0))
        out = run_chain(d, prior, ChainConfig(n_iter=300, n_burn=50, seed=3))
        assert out.c_update_skips > 0  # pure noise: empty model visited

    def test_python_kernel_matches_enumeration(self):
        d, _ = make_dataset(n=20, p=4, s=1, seed=16)
        prior = fixed_prior(20.0, m_n=4)
        out = run_chain(d, prior, ChainConfig(n_iter=60000, n_burn=5000, seed=4))
        ref = enumerate_posterior_with_tn_prior(d, prior, 20.0)
        assert tv_distance(empirical_models(out), ref) < 0.02

    def test_merge_chains_pools(self):
        d, _ = make_dataset(n=20, p=3, s=1, seed=17)
        prior = fixed_prior(20.0, m_n=3)
        outs = [run_chain(d, prior, ChainConfig(n_iter=300, n_burn=100, seed=s))
                for s in (1, 2, 3)]
        merged = merge_chains(outs)
        assert merged.n_kept == 600
        assert sum(merged.model_counts.values()) == 600
        assert merged.sigma_sq_draws.shape == (600,)
        with pytest.raises(ValidationError):
            merge_chains([])

    def test_merge_chains_weights_mh_rate_by_draws(self):
        def chain(rate, n_kept):
            return ChainOutput(model_counts={}, sigma_sq_draws=np.ones(n_kept),
                               c_draws=np.ones(n_kept), t_n_draws=np.ones(n_kept, dtype=np.int64),
                               beta_draws=None, mh_accept_rate=rate, c_update_skips=0,
                               seed=0, p=3, n_kept=n_kept)

        merged = merge_chains([chain(1.0, 10), chain(0.0, 1000)])
        assert merged.mh_accept_rate == pytest.approx(10 / 1010)
        assert merge_chains([chain(None, 10), chain(None, 20)]).mh_accept_rate is None

    def test_derived_seeds_distinct_and_stable(self):
        s1, s2, s3 = chain_seed(9, 0, 0), chain_seed(9, 0, 1), chain_seed(9, 1, 0)
        assert len({s1, s2, s3}) == 3
        # the derivation is part of the output format: seeded runs must not move
        assert s1 == 18364911077201671484
        d, _ = make_dataset(n=20, p=3, s=1, seed=18)
        prior = fixed_prior(20.0, m_n=3)
        a = run_chain(d, prior, ChainConfig(n_iter=200, n_burn=50, seed=s1))
        b = run_chain(d, prior, ChainConfig(n_iter=200, n_burn=50, seed=s2))
        assert not np.array_equal(a.sigma_sq_draws, b.sigma_sq_draws)

    def test_validation_failures_raised(self):
        d, _ = make_dataset(n=10, p=3, s=1)
        with pytest.raises(ValidationError, match="exceeds"):
            run_chain(d, fixed_prior(10.0, m_n=50), ChainConfig(n_iter=10, n_burn=1))
