import math

import numpy as np
import pytest
from scipy import stats

from bayes_screen.data import GHG, GZS, SamplerState, ValidationError
from bayes_screen.hyperc import (
    MhTuning,
    ghg_log_target,
    gzs_conditional_params,
    preset_c,
    update_c_ghg_mh,
    update_c_gzs,
)


def frozen_state(p=6, active=(0, 2), beta_vals=(1.5, -2.0), sigma_sq=1.3, c=10.0):
    beta = np.zeros(p)
    mask = np.zeros(p, dtype=np.uint8)
    for j, b in zip(active, beta_vals):
        beta[j] = b
        mask[j] = 1
    return SamplerState(
        beta=beta, gamma_mask=mask, sigma_sq=sigma_sq, t_n=3, c=c,
        residual=np.zeros(4),
    )


class TestPresets:
    def test_values(self):
        assert preset_c("bic", 100, 15) == 100.0
        assert preset_c("ric", 100, 15) == 225.0
        assert preset_c("benchmark", 100, 15) == 225.0
        assert preset_c("benchmark", 300, 15) == 300.0

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            preset_c("aic", 10, 10)
        with pytest.raises(ValidationError):
            preset_c("bic", 0, 10)


class TestGzsUpdate:
    def test_conditional_params_by_hand(self):
        state = frozen_state()
        shape, scale = gzs_conditional_params(state, GZS(a=1.0, b_n=2.0), p=6)
        assert shape == pytest.approx(1.0 + 1.0)  # a + k/2, k = 2
        bsq = 1.5**2 + 2.0**2
        assert scale == pytest.approx(36.0 + bsq / (2 * 1.3))

    def test_skip_on_degenerate_shape(self):
        state = frozen_state(active=(), beta_vals=())
        rngen = np.random.default_rng(0)
        c_before = state.c
        assert update_c_gzs(state, GZS(a=0.0, b_n=2.0), p=6, rng=rngen) is False
        assert state.c == c_before

    def test_draws_match_inverse_gamma_law(self):
        state = frozen_state()
        prior = GZS(a=1.5, b_n=2.0)
        shape, scale = gzs_conditional_params(state, prior, p=6)
        rngen = np.random.default_rng(42)
        draws = []
        for _ in range(5000):
            s = state.copy()
            update_c_gzs(s, prior, p=6, rng=rngen)
            draws.append(s.c)
        _, pval = stats.kstest(draws, stats.invgamma(shape, scale=scale).cdf)
        assert pval > 0.01

    def test_density_ratio_oracle(self):
        # drawn-c log-density ratios reproduce the conditional kernel:
        # log f(c1) - log f(c2) = -(shape+1) log(c1/c2) - scale (1/c1 - 1/c2)
        state = frozen_state()
        prior = GZS(a=1.5, b_n=2.0)
        shape, scale = gzs_conditional_params(state, prior, p=6)
        dist = stats.invgamma(shape, scale=scale)
        for c1, c2 in [(5.0, 7.0), (20.0, 3.0)]:
            want = -(shape + 1) * math.log(c1 / c2) - scale * (1 / c1 - 1 / c2)
            got = dist.logpdf(c1) - dist.logpdf(c2)
            assert got == pytest.approx(want, rel=1e-12)


class TestGhgTarget:
    def test_matches_naive_formula(self):
        alpha, b, k, bsq, s2 = 4.0, 1.0, 2, 3.5, 1.2
        for kappa in (-3.0, -0.5, 0.0, 1.2, 4.0):
            naive = (-0.5 * k * kappa - bsq * math.exp(-kappa) / (2 * s2)
                     + (alpha - 1) * kappa - (alpha + b) * math.log(1 + math.exp(kappa))
                     + kappa)
            assert ghg_log_target(kappa, bsq, k, s2, alpha, b) == pytest.approx(naive, rel=1e-12)

    def test_stable_at_extreme_kappa(self):
        assert math.isfinite(ghg_log_target(600.0, 1.0, 2, 1.0, 4.0, 1.0))
        v = ghg_log_target(-600.0, 1.0, 2, 1.0, 4.0, 1.0)
        assert v == -math.inf or v < -1e100  # dominated by the e^{-kappa} term

    def test_jacobian_term_is_plus_kappa(self):
        # target minus the log prior-times-likelihood kernel must equal kappa
        alpha, b, k, bsq, s2 = 5.0, 2.0, 1, 2.0, 0.8
        for kappa in (-2.0, 0.3, 1.7):
            c = math.exp(kappa)
            log_kernel = (-0.5 * k * math.log(c) - bsq / (2 * s2 * c)
                          + (alpha - 1) * math.log(c) - (alpha + b) * math.log1p(c))
            assert ghg_log_target(kappa, bsq, k, s2, alpha, b) - log_kernel == pytest.approx(
                kappa, abs=1e-10)


class TestGhgMh:
    def test_zero_step_always_accepts(self):
        state = frozen_state()
        tuning = MhTuning(sigma_kappa=1e-300)  # proposal ~ current
        rngen = np.random.default_rng(1)
        accepts = [update_c_ghg_mh(state.copy(), GHG(d=1.0, b=1.0), 6, tuning, rngen)
                   for _ in range(200)]
        assert all(accepts)

    def test_acceptance_rate_sane_band(self):
        state = frozen_state()
        prior = GHG(d=1.0, b=1.0)
        tuning = MhTuning(sigma_kappa=0.5)
        rngen = np.random.default_rng(2)
        s = state.copy()
        acc = sum(update_c_ghg_mh(s, prior, 6, tuning, rngen) for _ in range(20000))
        assert 0.1 < acc / 20000 < 0.9

    def test_chain_mean_matches_quadrature(self):
        state = frozen_state()
        prior = GHG(d=1.0, b=1.0)
        alpha = prior.alpha_n(6)
        bsq = float(state.beta @ state.beta)
        kappas = np.linspace(-20, 20, 20001)
        logf = np.array([ghg_log_target(k, bsq, state.n_active, state.sigma_sq, alpha, prior.b)
                         for k in kappas])
        w = np.exp(logf - logf.max())
        target_mean = float(np.sum(kappas * w) / np.sum(w))

        rngen = np.random.default_rng(3)
        s = state.copy()
        draws = np.empty(60000)
        for i in range(draws.size):
            update_c_ghg_mh(s, prior, 6, MhTuning(sigma_kappa=0.8), rngen)
            draws[i] = math.log(s.c)
        assert np.mean(draws[5000:]) == pytest.approx(target_mean, abs=0.05)

    def test_tuning_validation(self):
        with pytest.raises(ValidationError):
            MhTuning(sigma_kappa=0.0)
        with pytest.raises(ValidationError):
            MhTuning(sigma_kappa=float("nan"))
