"""Exact log-domain posterior model scores and the full-enumeration oracle.

All scores are natural-log unnormalized posterior masses. Models larger
than the size cap carry no score (represented as ``None``), never as -inf
arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, stats
from scipy.special import logsumexp

from .data import GHG, GZS, Dataset, ModelIndicator, Precomputed, PriorConfig, ValidationError

ENUMERATION_GUARD = 10**6


class SingularModelError(ValueError):
    """The model's information matrix could not be factorized."""


@dataclass(frozen=True)
class LogScore:
    value: float
    gamma: ModelIndicator


@dataclass(frozen=True)
class EnumeratedPosterior:
    """Normalized posterior over all models with size <= t_n. ``entries``
    maps each model to its probability, ``log_scores`` to its unnormalized
    log posterior mass (the value ``log_unnorm_posterior`` returns)."""

    entries: dict
    log_scores: dict
    t_n: int
    c: float

    def prob(self, gamma: ModelIndicator) -> float:
        return self.entries.get(gamma, 0.0)


def _chol_factor(u: np.ndarray):
    """Cholesky with a single jitter retry; u is positive definite in exact
    arithmetic, so failures are numerical only."""
    try:
        return linalg.cholesky(u, lower=True)
    except linalg.LinAlgError:
        k = u.shape[0]
        jitter = 1e-10 * np.trace(u) / k
        try:
            return linalg.cholesky(u + jitter * np.eye(k), lower=True)
        except linalg.LinAlgError as exc:
            raise SingularModelError("singular model") from exc


def _score_given_c(gamma: ModelIndicator, c: float, d: Dataset, pre: Precomputed, nu: float) -> float:
    """log[ det(W)^(-1/2) (1 + Y'(I - X U^-1 X')Y)^(-(n+nu)/2) ] with the
    indifference model prior folded in as a constant 0."""
    k = len(gamma)
    if k == 0:
        return -0.5 * (d.n + nu) * math.log1p(pre.yty)
    idx = list(gamma.included)
    xg = d.x[:, idx]
    u = xg.T @ xg + (1.0 / c) * np.eye(k)
    low = _chol_factor(u)
    logdet_u = 2.0 * float(np.sum(np.log(np.diag(low))))
    logdet_w = k * math.log(c) + logdet_u
    b = xg.T @ d.y
    z = linalg.solve_triangular(low, b, lower=True)
    quad = pre.yty - float(z @ z)
    return -0.5 * logdet_w - 0.5 * (d.n + nu) * math.log1p(quad)


def log_unnorm_posterior(
    gamma: ModelIndicator,
    c: float,
    d: Dataset,
    prior: PriorConfig,
    t_n: int,
    pre: Precomputed | None = None,
) -> LogScore | None:
    """Exact unnormalized log posterior mass of one model at fixed c.

    Returns ``None`` (absent score) for models exceeding the size cap.
    """
    if c <= 0:
        raise ValidationError("c must be positive")
    if len(gamma) > t_n:
        return None
    if pre is None:
        pre = Precomputed.from_dataset(d)
    return LogScore(value=_score_given_c(gamma, c, d, pre, prior.nu), gamma=gamma)


def model_space_size(p: int, t_n: int) -> int:
    return sum(math.comb(p, k) for k in range(0, t_n + 1))


def iter_models(p: int, t_n: int):
    for k in range(0, t_n + 1):
        for combo in itertools.combinations(range(p), k):
            yield ModelIndicator(combo, p=p)


def enumerate_posterior(d: Dataset, prior: PriorConfig, c: float, t_n: int) -> EnumeratedPosterior:
    """Full enumeration of the posterior over models with size <= t_n."""
    if model_space_size(d.p, t_n) > ENUMERATION_GUARD:
        raise ValidationError("model space too large for enumeration")
    pre = Precomputed.from_dataset(d)
    gammas = list(iter_models(d.p, t_n))
    scores = [_score_given_c(g, c, d, pre, prior.nu) for g in gammas]
    arr = np.array(scores)
    probs = np.exp(arr - logsumexp(arr))
    return EnumeratedPosterior(
        entries=dict(zip(gammas, probs)), log_scores=dict(zip(gammas, scores)), t_n=t_n, c=c
    )


def enumerate_posterior_with_tn_prior(d: Dataset, prior: PriorConfig, c: float) -> dict:
    """Marginal model posterior under the uniform t_n prior on [1, m_n].

    The joint over (gamma, t_n) puts mass q(gamma) on every t_n in
    [max(|gamma|, 1), m_n], so the gamma marginal weights each model score
    by the number of admissible t_n values. This is the stationary
    gamma-marginal of the sampler with Fixed(c).
    """
    m_n = prior.m_n
    if model_space_size(d.p, m_n) > ENUMERATION_GUARD:
        raise ValidationError("model space too large for enumeration")
    pre = Precomputed.from_dataset(d)
    gammas, scores = [], []
    for g in iter_models(d.p, m_n):
        n_tn = m_n - max(len(g), 1) + 1
        gammas.append(g)
        scores.append(_score_given_c(g, c, d, pre, prior.nu) + math.log(n_tn))
    scores = np.array(scores)
    probs = np.exp(scores - logsumexp(scores))
    return dict(zip(gammas, probs))


# --- g-prior marginal via quadrature -----------------------------------------

def _c_prior_logpdf_and_bounds(c_prior, p: int):
    """Log-density of g(c) and quantile-based integration bounds in c."""
    if isinstance(c_prior, GZS):
        if c_prior.a <= 0:
            raise ValidationError("quadrature requires proper g-prior (GZS a > 0)")
        scale = math.exp(c_prior.log_scale(p))
        dist = stats.invgamma(c_prior.a, scale=scale)

        def logpdf(c):
            return dist.logpdf(c)

        lo, hi = dist.ppf(1e-9), dist.ppf(1 - 1e-9)
    elif isinstance(c_prior, GHG):
        if c_prior.b <= 0:
            raise ValidationError("quadrature requires proper g-prior (GHG b > 0)")
        alpha = c_prior.alpha_n(p)
        b = c_prior.b
        lognorm = math.lgamma(alpha + b) - math.lgamma(alpha) - math.lgamma(b)

        def logpdf(c):
            return lognorm + (alpha - 1.0) * np.log(c) - (alpha + b) * np.log1p(c)

        sdist = stats.beta(alpha, b)
        s_lo, s_hi = sdist.ppf(1e-9), sdist.ppf(1 - 1e-9)
        lo, hi = s_lo / (1.0 - s_lo), s_hi / (1.0 - s_hi)
    else:
        raise ValidationError("g-prior marginal requires a GZS or GHG c-prior")
    lo = min(max(lo, 1e-12), 1e300)
    hi = min(max(hi, 1e-12), 1e300)
    if not hi > lo:
        raise ValidationError("degenerate quadrature bounds for g-prior")
    return logpdf, lo, hi


def log_unnorm_posterior_g(
    gamma: ModelIndicator,
    d: Dataset,
    prior: PriorConfig,
    t_n: int,
    n_nodes: int = 128,
) -> LogScore | None:
    """log of the g-prior marginal score: integral of the fixed-c kernel
    against g(c), by Gauss-Legendre quadrature in kappa = log c.

    Integrates the unnormalized kernel (the proportionality form), which is
    the quantity whose ratios drive selection.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    if len(gamma) > t_n:
        return None
    logpdf, c_lo, c_hi = _c_prior_logpdf_and_bounds(prior.c_prior, d.p)
    pre = Precomputed.from_dataset(d)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    k_lo, k_hi = math.log(c_lo), math.log(c_hi)
    kappa = 0.5 * (k_hi - k_lo) * nodes + 0.5 * (k_hi + k_lo)
    c_vals = np.exp(kappa)
    # integrand in kappa: q(gamma | c, Z) g(c) c  (Jacobian dc = c dkappa)
    logf = np.array(
        [_score_given_c(gamma, c, d, pre, prior.nu) for c in c_vals]
    ) + logpdf(c_vals) + kappa
    value = logsumexp(logf, b=weights * 0.5 * (k_hi - k_lo))
    return LogScore(value=float(value), gamma=gamma)


def map_model(scores) -> ModelIndicator:
    """Highest-scoring model; ties broken by smaller size, then
    lexicographically smallest index set."""
    scores = [s for s in scores if s is not None]
    if not scores:
        raise ValidationError("no scores to maximize over")
    return min(scores, key=lambda s: (-s.value, len(s.gamma), s.gamma.included)).gamma


# --- numerical assumption checker ---------------------------------------------

@dataclass(frozen=True)
class RieszReport:
    lambda_min: float
    lambda_max: float
    c0_estimate: float
    mode: str
    n_models: int
    condition_violated: bool
    lower_bound_only: bool


def check_sparse_riesz(
    x: np.ndarray,
    r: int,
    mode: str = "exact",
    budget: int = 10**5,
    seed: int = 0,
) -> RieszReport:
    """Extreme eigenvalues of (1/n) X_g' X_g over submodels of size <= 2r.

    Exact mode enumerates every model; sampled mode draws ``budget``
    uniform models and therefore only reports a lower bound on c0.
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    if r < 1:
        raise ValidationError("r must be >= 1")
    size_cap = min(2 * r, p)
    lam_min, lam_max = np.inf, -np.inf
    count = 0

    def visit(idx):
        nonlocal lam_min, lam_max, count
        xg = x[:, list(idx)]
        evals = np.linalg.eigvalsh(xg.T @ xg / n)
        lam_min = min(lam_min, float(evals[0]))
        lam_max = max(lam_max, float(evals[-1]))
        count += 1

    if mode == "exact":
        total = sum(math.comb(p, k) for k in range(1, size_cap + 1))
        if total > budget:
            raise ValidationError(f"exact mode needs {total} models, budget is {budget}")
        for k in range(1, size_cap + 1):
            for combo in itertools.combinations(range(p), k):
                visit(combo)
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            k = int(rng.integers(1, size_cap + 1))
            visit(rng.choice(p, size=k, replace=False))
    else:
        raise ValidationError("mode must be 'exact' or 'sampled'")

    violated = lam_min <= 1e-12
    reported_min = 0.0 if violated else lam_min
    c0 = math.inf if violated else max(1.0 / lam_min, lam_max)
    return RieszReport(
        lambda_min=reported_min,
        lambda_max=lam_max,
        c0_estimate=c0,
        mode=mode,
        n_models=count,
        condition_violated=violated,
        lower_bound_only=(mode == "sampled"),
    )
