"""Exact log-domain posterior model scores and the full-enumeration oracle.

All scores are natural-log unnormalized posterior masses. A model is a
sorted tuple of 0-based column indices. Models larger than the size cap
carry no score (represented as ``None``), never as -inf arithmetic.
``scipy.stats`` is imported only by the g-prior quadrature behind
``log_unnorm_posterior_g``, so importing this module does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data import GHG, GZS, Dataset, PriorConfig, ValidationError, check_model

ENUMERATION_GUARD = 10**6
CHUNK_BYTES = 2**20  # model columns per stacked call; bounds each chunk's working set


class SingularModelError(ValueError):
    """The model's information matrix could not be factorized."""


@dataclass(frozen=True, eq=False)
class EnumeratedPosterior:
    """Normalized posterior over all models with size <= t_n, in output
    order: decreasing probability, then smaller size, then lexicographic
    index order. ``entries`` holds each model's 0-based index tuple;
    ``log_scores`` (the value ``log_unnorm_posterior`` returns) and
    ``probs`` are aligned with it, and ``entries[0]`` is the MAP model."""

    entries: tuple
    log_scores: np.ndarray
    probs: np.ndarray
    t_n: int
    c: float


def _chol_factor(u: np.ndarray):
    """Cholesky of one matrix with a single jitter retry; u is positive
    definite in exact arithmetic, so failures are numerical only."""
    try:
        return np.linalg.cholesky(u)
    except np.linalg.LinAlgError:
        k = u.shape[0]
        jitter = 1e-10 * np.trace(u) / k
        try:
            return np.linalg.cholesky(u + jitter * np.eye(k))
        except np.linalg.LinAlgError as exc:
            raise SingularModelError("singular model") from exc


def _chol_stack(u: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of matrices. LAPACK factors each
    matrix on its own, so when the stacked call fails, refactoring one at a
    time gives every other matrix the same bits and sends only the failing
    ones through ``_chol_factor``'s retry."""
    try:
        return np.linalg.cholesky(u)
    except np.linalg.LinAlgError:
        return np.stack([_chol_factor(ui) for ui in u])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums of the rows of a 2-d array, added left to right, so that each
    row's sum does not depend on the other rows."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _score_given_c(combos: np.ndarray, c: float, d: Dataset, nu: float) -> np.ndarray:
    """log[ det(W)^(-1/2) (1 + Y'(I - X U^-1 X')Y)^(-(n+nu)/2) ] of every
    model whose column indices are a row of ``combos`` (shape (m, k), one
    size k), with the indifference model prior folded in as a constant 0.

    U = X_g'X_g + I/c and b = X_g'y come from stacked products of each
    model's own columns; every step after them is per model or elementwise,
    so a model's score has the same bits in any batch.
    """
    m, k = combos.shape
    null = -0.5 * (d.n + nu) * math.log1p(d.yty)
    if k == 0 or m == 0:
        return np.full(m, null)
    xt = d.x.T[combos]  # (m, k, n): each model's X_g', one contiguous block
    u = xt @ xt.transpose(0, 2, 1)
    diag = np.arange(k)
    u[:, diag, diag] += 1.0 / c
    b = xt @ d.y
    low = _chol_stack(u)
    logdet_u = 2.0 * _row_sums(np.log(low[:, diag, diag]))
    z = np.empty((m, k))  # forward substitution: L z = b
    for i in range(k):
        acc = b[:, i].copy()
        for j in range(i):
            acc -= low[:, i, j] * z[:, j]
        z[:, i] = acc / low[:, i, i]
    quad = d.yty - _row_sums(z * z)
    logdet_w = k * math.log(c) + logdet_u
    return -0.5 * logdet_w - 0.5 * (d.n + nu) * np.log1p(quad)


def log_unnorm_posterior(
    gamma,
    c: float,
    d: Dataset,
    prior: PriorConfig,
    t_n: int,
) -> float | None:
    """Exact unnormalized log posterior mass of one model at fixed c.

    Returns ``None`` (absent score) for models exceeding the size cap.
    """
    if c <= 0:
        raise ValidationError("c must be positive")
    gamma = check_model(gamma, d.p)
    if len(gamma) > t_n:
        return None
    combos = np.array([gamma], dtype=np.intp)  # shape (1, k), (1, 0) for the null model
    return float(_score_given_c(combos, c, d, prior.nu)[0])


def model_space_size(p: int, t_n: int) -> int:
    return sum(math.comb(p, k) for k in range(0, t_n + 1))


def _chunks(combos, k: int, n: int):
    """Stack an iterable of size-k index tuples into (m, k) int arrays whose
    model columns (m k n floats) fit in CHUNK_BYTES."""
    m = max(1, CHUNK_BYTES // (8 * n * k))
    combos = iter(combos)
    while block := list(itertools.islice(combos, m)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)


def _enumerate_scores(d: Dataset, nu: float, c: float, t_n: int):
    """(0-based index tuples, log scores) of every model of size <= t_n, by
    size and then lexicographically, scored one size at a time in chunks."""
    if t_n < 0:
        raise ValidationError("t_n must be >= 0")
    if model_space_size(d.p, t_n) > ENUMERATION_GUARD:
        raise ValidationError("model space too large for enumeration")
    models = [()]
    scores = [_score_given_c(np.empty((1, 0), dtype=np.intp), c, d, nu)]
    for k in range(1, t_n + 1):
        combos = list(itertools.combinations(range(d.p), k))
        models += combos
        scores += [_score_given_c(chunk, c, d, nu) for chunk in _chunks(combos, k, d.n)]
    return models, np.concatenate(scores)


def enumerate_posterior(d: Dataset, prior: PriorConfig, c: float, t_n: int) -> EnumeratedPosterior:
    """Full enumeration of the posterior over models with size <= t_n.

    The enumeration comes by size and then lexicographically, so one stable
    sort on the probability puts ties in that order."""
    models, scores = _enumerate_scores(d, prior.nu, c, t_n)
    probs = np.exp(scores - logsumexp(scores))
    order = np.argsort(-probs, kind="stable")
    return EnumeratedPosterior(
        entries=tuple(models[i] for i in order.tolist()),
        log_scores=scores[order],
        probs=probs[order],
        t_n=t_n,
        c=c,
    )


def enumerate_posterior_with_tn_prior(d: Dataset, prior: PriorConfig, c: float) -> dict:
    """Marginal model posterior under the joint (gamma, t_n) prior
    p(gamma, t_n) proportional to 1{max(|gamma|, 1) <= t_n <= m_n}.

    The t_n marginal of that prior is not uniform on [1, m_n]: it is
    proportional to the number of models of size <= t_n. The joint
    posterior puts mass q(gamma) on every t_n in [max(|gamma|, 1), m_n], so
    the gamma marginal weights each model score by the number of
    admissible t_n values. This is the stationary gamma-marginal of the
    sampler with Fixed(c). Keyed by index tuple, in enumeration order.
    """
    m_n = prior.m_n
    models, scores = _enumerate_scores(d, prior.nu, c, m_n)
    n_tn = np.array([m_n - max(len(g), 1) + 1 for g in models])
    scores = scores + np.log(n_tn)
    probs = np.exp(scores - logsumexp(scores))
    return dict(zip(models, probs))


# --- g-prior marginal via quadrature -----------------------------------------

@functools.cache
def _leggauss(n_nodes: int):
    """Gauss-Legendre nodes and weights, computed once per n_nodes and
    read-only because every call shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _c_prior_logpdf_and_bounds(c_prior, p: int):
    """Log-density of g(c) and quantile-based integration bounds in c,
    computed once per (prior, p): both prior classes are frozen."""
    # imported here, not at module level: scipy.stats is slow and large to
    # import, and no CLI command reaches this function
    from scipy import stats

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

        # c/(1+c) ~ Beta(alpha, b) bounds c from below; the upper bound comes
        # from 1/(1+c) ~ Beta(b, alpha), whose small quantile stays off 0
        # where Beta(alpha, b)'s upper one would round to 1
        s_lo = stats.beta(alpha, b).ppf(1e-9)
        t_lo = stats.beta(b, alpha).ppf(1e-9)
        lo, hi = s_lo / (1.0 - s_lo), (1.0 - t_lo) / t_lo
    else:
        raise ValidationError("g-prior marginal requires a GZS or GHG c-prior")
    lo = min(max(lo, 1e-12), 1e300)
    hi = min(max(hi, 1e-12), 1e300)
    if not hi > lo:
        raise ValidationError("degenerate quadrature bounds for g-prior")
    return logpdf, lo, hi


def log_unnorm_posterior_g(
    gamma,
    d: Dataset,
    prior: PriorConfig,
    t_n: int,
    n_nodes: int = 128,
) -> float | None:
    """log of the g-prior marginal score: integral of the fixed-c kernel
    against g(c), by Gauss-Legendre quadrature in kappa = log c.

    Integrates the unnormalized kernel (the proportionality form), which is
    the quantity whose ratios drive selection.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    gamma = check_model(gamma, d.p)
    if len(gamma) > t_n:
        return None
    logpdf, c_lo, c_hi = _c_prior_logpdf_and_bounds(prior.c_prior, d.p)
    nodes, weights = _leggauss(n_nodes)
    k_lo, k_hi = math.log(c_lo), math.log(c_hi)
    kappa = 0.5 * (k_hi - k_lo) * nodes + 0.5 * (k_hi + k_lo)
    c_vals = np.exp(kappa)
    # One eigendecomposition X_g'X_g = V diag(lam) V' serves every node:
    # log det U = sum log(lam + 1/c) and b'U^-1 b = sum a^2 / (lam + 1/c), a = V'X_g'y.
    k = len(gamma)
    lam, a = np.zeros(0), np.zeros(0)
    if k:
        xg = d.x[:, list(gamma)]
        lam, vecs = np.linalg.eigh(xg.T @ xg)
        lam = np.maximum(lam, 0.0)  # X_g'X_g is semi-definite; drop rounding below 0
        a = vecs.T @ (xg.T @ d.y)
    shifted = lam[:, None] + 1.0 / c_vals
    logdet_w = k * np.log(c_vals) + np.log(shifted).sum(axis=0)
    quad = d.yty - (a[:, None] ** 2 / shifted).sum(axis=0)
    scores = -0.5 * logdet_w - 0.5 * (d.n + prior.nu) * np.log1p(quad)
    # integrand in kappa: q(gamma | c, Z) g(c) c  (Jacobian dc = c dkappa)
    logf = scores + logpdf(c_vals) + kappa
    return float(logsumexp(logf, b=weights * 0.5 * (k_hi - k_lo)))


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
    uniform models and therefore only reports a lower bound on c0. x must
    be 2-d, with at least one row and one column, and finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or 0 in x.shape:
        raise ValidationError(f"x must be 2-d with at least one row and one column, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite entries in x")
    n, p = x.shape
    if r < 1:
        raise ValidationError("r must be >= 1")
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    size_cap = min(2 * r, p)
    if mode == "exact":
        total = sum(math.comb(p, k) for k in range(1, size_cap + 1))
        if total > budget:
            raise ValidationError(f"exact mode needs {total} models, budget is {budget}")
        by_size = {k: itertools.combinations(range(p), k) for k in range(1, size_cap + 1)}
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        by_size = {k: [] for k in range(1, size_cap + 1)}
        for _ in range(budget):
            k = int(rng.integers(1, size_cap + 1))
            by_size[k].append(rng.choice(p, size=k, replace=False))
    else:
        raise ValidationError("mode must be 'exact' or 'sampled'")

    lam_min, lam_max = np.inf, -np.inf
    count = 0
    for k, combos in by_size.items():
        for chunk in _chunks(combos, k, n):
            xt = x.T[chunk]
            evals = np.linalg.eigvalsh(xt @ xt.transpose(0, 2, 1) / n)
            lam_min = min(lam_min, float(evals[:, 0].min()))
            lam_max = max(lam_max, float(evals[:, -1].max()))
            count += chunk.shape[0]

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
