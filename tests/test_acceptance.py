"""Acceptance suite: one test per criterion, each ending in a single
printed PASS/FAIL line (visible with pytest -s or on failure)."""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from bayes_screen import cli
from bayes_screen.data import (
    GHG,
    GZS,
    FixedC,
    PriorConfig,
    SamplerState,
)
from bayes_screen.exact import enumerate_posterior_with_tn_prior, log_unnorm_posterior
from bayes_screen.gibbs import ChainConfig, chain_seed, run_chain
from bayes_screen.hyperc import (
    MhTuning,
    ghg_log_target,
    gzs_conditional_params,
    update_c_ghg_mh,
    update_c_gzs,
)
from bayes_screen.inference import aggregate_records, summarize_run
from bayes_screen.simgen import Example1Spec, Example2Spec, gen_example1, gen_example2

from conftest import empirical_models, tv_distance


def verdict(num, name, passed, detail):
    line = f"criterion {num} ({name}): {detail} -> {'PASS' if passed else 'FAIL'}"
    print(line)
    assert passed, line


def replicate_example1(n, p, s, prior, n_reps, n_iter, n_burn, master_seed,
                       record_beta=False, alpha=0.05):
    records = []
    for rep in range(n_reps):
        spec = Example1Spec(n=n, p=p, s_n=s, rho=0.0, sigma_sq=1.0,
                            seed=chain_seed(master_seed, rep, 2**31))
        dataset, truth = gen_example1(spec)
        cfg = ChainConfig(n_iter=n_iter, n_burn=n_burn,
                          seed=chain_seed(master_seed, rep, 0),
                          record_beta=record_beta)
        out = run_chain(dataset, prior, cfg)
        records.append(summarize_run(out, truth, dataset, alpha=alpha))
    return aggregate_records(records)


def test_criterion_01_sampler_exactness_vs_enumeration():
    # 5 seeded datasets, p = 3..8, n = 10..30, Fixed(c in {n, p^2}), m_n = p
    configs = [(3, 12), (4, 15), (6, 20), (7, 25), (8, 30)]
    worst_tv, worst_time = 0.0, 0.0
    for i, (p, n) in enumerate(configs):
        spec = Example1Spec(n=n, p=p, s_n=2, rho=0.3, sigma_sq=1.0, seed=100 + i)
        dataset, _ = gen_example1(spec)
        c = float(n) if i % 2 == 0 else float(p * p)
        prior = PriorConfig(m_n=p, c_prior=FixedC(c))
        start = time.perf_counter()
        out = run_chain(dataset, prior,
                        ChainConfig(n_iter=220_000, n_burn=20_000, seed=500 + i))
        elapsed = time.perf_counter() - start
        ref = enumerate_posterior_with_tn_prior(dataset, prior, c)
        tv = tv_distance(empirical_models(out), ref)
        worst_tv = max(worst_tv, tv)
        worst_time = max(worst_time, elapsed)
    verdict(1, "sampler exactness",
            worst_tv < 0.03 and worst_time < 60.0,
            f"max TV {worst_tv:.4f} (< 0.03), max runtime {worst_time:.1f}s (< 60s)")


def test_criterion_02_selection_frequency_low_dimensional():
    prior = PriorConfig(m_n=50, c_prior=GZS(a=0.0, b_n=3.0))
    summary = replicate_example1(100, 15, 2, prior, n_reps=20,
                                 n_iter=10_000, n_burn=5_000, master_seed=201)
    f5, f9 = summary.f_values[0.5], summary.f_values[0.9]
    verdict(2, "selection frequency, (100, 15, 2)",
            f5 >= 0.90 and f9 >= 0.70,
            f"F(0.5)={f5:.2f} (>= 0.90), F(0.9)={f9:.2f} (>= 0.70)")


def test_criterion_03_selection_frequency_high_dimensional():
    prior = PriorConfig(m_n=50, c_prior=GZS(a=0.0, b_n=3.0))
    summary = replicate_example1(100, 1000, 10, prior, n_reps=10,
                                 n_iter=10_000, n_burn=5_000, master_seed=301)
    f5 = summary.f_values[0.5]
    verdict(3, "selection frequency, (100, 1000, 10)",
            f5 >= 0.85, f"F(0.5)={f5:.2f} (>= 0.85)")


def test_criterion_04_false_coverage_rate_and_interval_length():
    prior = PriorConfig(m_n=50, c_prior=GZS(a=0.0, b_n=2.8))
    summary = replicate_example1(100, 15, 2, prior, n_reps=50,
                                 n_iter=10_000, n_burn=5_000, master_seed=401,
                                 alpha=0.05)
    fcr_val = summary.mean_fcr
    length = summary.mean_ci_length
    ok = fcr_val <= 0.10 and 0.75 * 0.389 <= length <= 1.25 * 0.389
    verdict(4, "FCR and interval length, (100, 15, 2)",
            ok, f"pooled FCR {fcr_val:.3f} (<= 0.10), "
                f"mean length {length:.3f} (in [{0.75 * 0.389:.3f}, {1.25 * 0.389:.3f}])")


def test_criterion_05_model_size_and_estimation_error():
    prior = PriorConfig(m_n=100, c_prior=GZS(a=0.0, b_n=3.0))
    n, p, s = 200, 1000, 8
    a = 4.0 * math.log(n) / math.sqrt(n)
    records = []
    for rep in range(10):
        spec = Example2Spec(setting="I", n=n, p=p, s_n=s, sigma=1.5, a=a,
                            seed=chain_seed(501, rep, 2**31))
        dataset, truth = gen_example2(spec)
        cfg = ChainConfig(n_iter=4_000, n_burn=2_000,
                          seed=chain_seed(501, rep, 0), record_beta=True)
        out = run_chain(dataset, prior, cfg)
        records.append(summarize_run(out, truth, dataset))
    summary = aggregate_records(records)
    ok = summary.mssm == 8.0 and 0.20 <= summary.me <= 0.40
    verdict(5, "median size and error, (200, 1000, 8)",
            ok, f"MSSM {summary.mssm:.0f} (= 8), ME {summary.me:.3f} (in [0.20, 0.40])")


def test_criterion_06_conjugate_c_update_distribution():
    frozen = [
        dict(p=6, active=(0, 2), beta=(1.5, -2.0), s2=1.3, a=1.0, b_n=2.0),
        dict(p=10, active=(1, 3, 7), beta=(0.5, 3.0, -0.2), s2=0.4, a=0.5, b_n=1.5),
        dict(p=4, active=(0,), beta=(4.0,), s2=2.5, a=2.0, b_n=1.0),
    ]
    pvals = []
    rngen = np.random.default_rng(601)
    for case in frozen:
        p = case["p"]
        beta = np.zeros(p)
        mask = np.zeros(p, dtype=np.uint8)
        for j, b in zip(case["active"], case["beta"]):
            beta[j] = b
            mask[j] = 1
        state = SamplerState(beta=beta, gamma_mask=mask, sigma_sq=case["s2"],
                             t_n=p // 2, c=5.0, residual=np.zeros(3))
        prior = GZS(a=case["a"], b_n=case["b_n"])
        shape, scale = gzs_conditional_params(state, prior, p)
        draws = np.empty(10_000)
        for i in range(draws.size):
            s = state.copy()
            update_c_gzs(s, prior, p, rngen)
            draws[i] = s.c
        _, pval = stats.kstest(draws, stats.invgamma(shape, scale=scale).cdf)
        pvals.append(pval)
    ok = all(pv > 0.01 for pv in pvals)
    verdict(6, "conjugate c draws match inverse-gamma law",
            ok, "KS p-values " + ", ".join(f"{pv:.3f}" for pv in pvals) + " (all > 0.01)")


def test_criterion_07_mh_stationarity_vs_quadrature_target():
    p = 3
    prior = GHG(d=1.0, b=1.0)  # proper, small alpha_n = p + 1
    alpha_n = prior.alpha_n(p)
    beta = np.array([1.2, -0.8, 0.0])
    mask = np.array([1, 1, 0], dtype=np.uint8)
    state = SamplerState(beta=beta, gamma_mask=mask, sigma_sq=1.1, t_n=2,
                         c=1.0, residual=np.zeros(3))
    bsq = float(beta @ beta)

    # quadrature oracle of the 1-D target over kappa
    grid = np.linspace(-30.0, 30.0, 240_001)
    logf = np.array([ghg_log_target(k, bsq, 2, state.sigma_sq, alpha_n, prior.b)
                     for k in grid])
    dens = np.exp(logf - logf.max())
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)])
    cdf /= cdf[-1]
    n_bins = 50
    edges = np.interp(np.linspace(0.0, 1.0, n_bins + 1)[1:-1], cdf, grid)

    rngen = np.random.default_rng(701)
    tuning = MhTuning(sigma_kappa=0.5)
    n_steps, burn, thin = 1_000_000, 10_000, 100
    kept = []
    for i in range(n_steps):
        update_c_ghg_mh(state, prior, p, tuning, rngen)
        if i >= burn and (i - burn) % thin == 0:
            kept.append(math.log(state.c))
    kept = np.asarray(kept)
    counts = np.histogram(kept, bins=np.concatenate([[-np.inf], edges, [np.inf]]))[0]
    chi2, pval = stats.chisquare(counts)  # equiprobable bins by construction
    verdict(7, "MH stationarity on log c",
            pval > 0.01,
            f"chi-square p = {pval:.3f} (> 0.01) over {n_bins} bins, "
            f"{kept.size} thinned draws from 1e6 steps")


def _joint_log_density(gamma, d, c, nu):
    """Log joint of (Y, beta_gamma, tau = 1/sigma^2) up to gamma-free
    constants, as a function of (tau, beta_gamma) for a model of size <= 2.

    The residual sum of squares comes from X_g'X_g, X_g'y and y'y, worked out
    once here, so each of the quadrature's many calls is scalar arithmetic.
    """
    k = len(gamma)
    xg = d.x[:, list(gamma)]
    gram = np.zeros((2, 2))
    xty = np.zeros(2)
    gram[:k, :k] = xg.T @ xg
    xty[:k] = xg.T @ d.y
    (g11, g12), (_, g22) = gram.tolist()
    h1, h2 = xty.tolist()
    yty = float(d.y @ d.y)
    half_df = 0.5 * (d.n + k + nu - 2)
    const = -0.5 * k * math.log(2.0 * math.pi * c)

    def log_density(tau, b1=0.0, b2=0.0):
        rss = yty - 2.0 * (b1 * h1 + b2 * h2) + g11 * b1 * b1 + 2.0 * g12 * b1 * b2 + g22 * b2 * b2
        return half_df * math.log(tau) - 0.5 * tau * (rss + (b1 * b1 + b2 * b2) / c + 1.0) + const

    return log_density


def test_criterion_08_kernel_matches_numerical_integration():
    rngen = np.random.default_rng(801)
    n, p, c, nu = 6, 3, 2.0, 6.0
    x = rngen.standard_normal((n, p))
    beta0 = np.array([1.0, -0.5, 0.0])
    y = x @ beta0 + 0.5 * rngen.standard_normal(n)
    from bayes_screen.data import Dataset
    d = Dataset(y, x)
    prior = PriorConfig(nu=nu, m_n=3, c_prior=FixedC(c))

    def numeric_log_integral(gamma):
        k = len(gamma)
        log_density = _joint_log_density(gamma, d, c, nu)
        if k == 0:
            val, _ = integrate.quad(
                lambda tau: math.exp(log_density(tau)),
                0.0, np.inf, limit=400)
            return math.log(val)
        # center and scale from the closed-form conditional posterior
        idx = list(gamma)
        xg = d.x[:, idx]
        u = xg.T @ xg + np.eye(k) / c
        center = np.linalg.solve(u, xg.T @ d.y)
        sd = np.sqrt(np.diag(np.linalg.inv(u)))
        shift = log_density(1.0, *center.tolist())

        if k == 1:
            val, _ = integrate.dblquad(
                lambda b, tau: math.exp(log_density(tau, b) - shift),
                0.0, 40.0,
                lambda _: center[0] - 12 * sd[0], lambda _: center[0] + 12 * sd[0],
                epsabs=1e-12, epsrel=1e-10)
        else:
            val, _ = integrate.tplquad(
                lambda b2, b1, tau: math.exp(log_density(tau, b1, b2) - shift),
                0.0, 40.0,
                lambda _: center[0] - 10 * sd[0], lambda _: center[0] + 10 * sd[0],
                lambda *_: center[1] - 10 * sd[1], lambda *_: center[1] + 10 * sd[1],
                epsabs=1e-11, epsrel=1e-9)
        return math.log(val) + shift

    gammas = [(), (0,), (1,), (0, 1), (0, 2)]
    numeric = {g: numeric_log_integral(g) for g in gammas}
    base = gammas[0]
    max_rel = 0.0
    for g in gammas[1:]:
        want = numeric[g] - numeric[base]
        got = (log_unnorm_posterior(g, c, d, prior, 3)
               - log_unnorm_posterior(base, c, d, prior, 3))
        max_rel = max(max_rel, abs(got - want) / abs(want))

    # determinant and quadratic-form identities against dense linear algebra
    max_id_err = 0.0
    d2_rng = np.random.default_rng(802)
    x2 = d2_rng.standard_normal((25, 10))
    y2 = d2_rng.standard_normal(25)
    d2 = Dataset(y2, x2)
    prior2 = PriorConfig(nu=nu, m_n=10, c_prior=FixedC(9.0))
    for _ in range(30):
        k = int(d2_rng.integers(1, 8))
        g = tuple(sorted(d2_rng.choice(10, size=k, replace=False).tolist()))
        xg = d2.x[:, list(g)]
        u = xg.T @ xg + np.eye(k) / 9.0
        sign, logdet = np.linalg.slogdet(u)
        quad = float(d2.y @ d2.y) - float((xg.T @ d2.y) @ np.linalg.solve(u, xg.T @ d2.y))
        want = -0.5 * (k * math.log(9.0) + logdet) - 0.5 * (25 + nu) * math.log1p(quad)
        got = log_unnorm_posterior(g, 9.0, d2, prior2, 10)
        max_id_err = max(max_id_err, abs(got - want) / max(abs(want), 1.0))

    verdict(8, "kernel vs numerical integration",
            max_rel < 1e-5 and max_id_err < 1e-9,
            f"max score-difference rel err {max_rel:.2e} (< 1e-5), "
            f"max identity rel err {max_id_err:.2e} (< 1e-9)")


def test_criterion_09_bit_identical_determinism(tmp_path):
    sim = ["simulate", "--example", "1", "--n", "40", "--p", "10", "--s", "2",
           "--rho", "0.2", "--seed", "31"]
    assert cli.main(sim + ["--out", str(tmp_path / "s1")]) == 0
    assert cli.main(sim + ["--out", str(tmp_path / "s2")]) == 0
    rep = ["replicate", "--example", "1", "--n", "40", "--p", "10", "--s", "2",
           "--prior", "gzs", "--d", "3", "--iters", "600", "--burn", "200",
           "--reps", "4", "--record-beta", "--seed", "32"]
    assert cli.main(rep + ["--threads", "1", "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(rep + ["--threads", "4", "--out", str(tmp_path / "r4")]) == 0
    assert cli.main(rep + ["--threads", "4", "--out", str(tmp_path / "r4b")]) == 0
    fit = ["fit", "--data", str(tmp_path / "s1" / "dataset.csv"), "--prior", "ghg",
           "--d", "3", "--iters", "500", "--burn", "100", "--chains", "2",
           "--seed", "33"]
    assert cli.main(fit + ["--out", str(tmp_path / "f1")]) == 0
    assert cli.main(fit + ["--out", str(tmp_path / "f2")]) == 0

    same = []
    for a, b, names in [
        ("s1", "s2", ["dataset.csv", "truth.csv"]),
        ("r1", "r4", ["summary.csv", "aggregate.csv"]),
        ("r4", "r4b", ["summary.csv", "aggregate.csv"]),
        ("f1", "f2", ["models_chain0.csv", "models_chain1.csv",
                      "scalars_chain0.csv", "scalars_chain1.csv"]),
    ]:
        for name in names:
            same.append((tmp_path / a / name).read_bytes()
                        == (tmp_path / b / name).read_bytes())
    verdict(9, "bit-identical outputs under identical seeds",
            all(same), f"{sum(same)}/{len(same)} file comparisons identical "
            "(simulate reruns, 1 vs 4 threads, threaded reruns, fit reruns)")


def test_criterion_10_workstation_scale_smoke(tmp_path):
    # (800, 20000, 18) must be accepted and run end to end; iteration count
    # reduced to keep this a smoke test
    code = cli.main(["replicate", "--example", "2", "--setting", "I",
                     "--n", "800", "--p", "20000", "--s", "18",
                     "--prior", "gzs", "--d", "3", "--iters", "30", "--burn", "10",
                     "--reps", "1", "--seed", "41", "--out", str(tmp_path)])
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    ok = code == 0 and len(summary) == 2 and "FAILED" not in summary[1]
    verdict(10, "(800, 20000, 18) smoke run",
            ok, f"exit code {code}, 1 replication completed (reduced iterations)")
