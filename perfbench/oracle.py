"""The benchmark's own inputs and reference computations.

Nothing here calls into ``bayes_screen``: the datasets are drawn with plain
numpy from the benchmark seed, and every quantity the checks compare the
program's CSV outputs against is recomputed here with plain numpy.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np


# --- inputs -------------------------------------------------------------------

def example1(rng, n, p, s, rho):
    """AR(1) design with unit marginals and corr rho^|i-j|; the first s/2
    coefficients ~ U(1, 5), the next s/2 ~ U(-5, -1); unit error variance."""
    z = rng.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + scale * z[:, j]
    beta = np.zeros(p)
    beta[: s // 2] = rng.uniform(1.0, 5.0, s // 2)
    beta[s // 2 : s] = rng.uniform(-5.0, -1.0, s // 2)
    return x, x @ beta + rng.standard_normal(n), beta


def example2_setting1(rng, n, p, s, sigma=1.5):
    """iid N(0, 1) design; beta_j = (-1)^u (a + |z|) on the first s columns,
    u ~ Bernoulli(0.4), a = 4 log n / sqrt(n)."""
    x = rng.standard_normal((n, p))
    a = 4.0 * math.log(n) / math.sqrt(n)
    beta = np.zeros(p)
    beta[:s] = np.where(rng.random(s) < 0.4, -1.0, 1.0) * (a + np.abs(rng.standard_normal(s)))
    return x, x @ beta + sigma * rng.standard_normal(n), beta


def write_csv(path, x, y) -> None:
    """The program's dataset format: header y,x1..xp, one row per observation."""
    header = "y," + ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    np.savetxt(path, np.column_stack([y, x]), fmt="%.17g", delimiter=",", header=header, comments="")


# --- exact posterior ----------------------------------------------------------

def model_scores(x, y, c, nu, max_size):
    """Unnormalised log posterior of every model of size <= max_size at fixed c:
    -1/2 log det(c U) - (n + nu)/2 log(1 + y'y - b'U^-1 b), U = X'X + I/c,
    b = X'y, by batched slogdet and solve. Returns {label: score}."""
    n, p = x.shape
    xtx, xty, yty = x.T @ x, x.T @ y, float(y @ y)
    scores = {"": -0.5 * (n + nu) * math.log1p(yty)}
    for k in range(1, max_size + 1):
        combos = np.array(list(itertools.combinations(range(p), k)))
        u = xtx[combos[:, :, None], combos[:, None, :]] + np.eye(k) / c
        b = xty[combos]
        sign, logdet = np.linalg.slogdet(u)
        if np.any(sign <= 0):
            raise ValueError("non-positive-definite model matrix")
        quad = yty - np.einsum("mi,mi->m", b, np.linalg.solve(u, b[:, :, None])[:, :, 0])
        vals = -0.5 * (k * math.log(c) + logdet) - 0.5 * (n + nu) * np.log1p(quad)
        for combo, v in zip(combos, vals):
            scores["+".join(str(j + 1) for j in combo)] = float(v)
    return scores


def normalise(log_weights: dict) -> dict:
    labels = list(log_weights)
    w = np.array([log_weights[g] for g in labels])
    w = np.exp(w - w.max())
    return dict(zip(labels, w / w.sum()))


def size_of(label: str) -> int:
    return 0 if label == "" else label.count("+") + 1


def tn_marginal(scores: dict, m_n: int) -> dict:
    """Stationary gamma-marginal of the chain with t_n ~ U{1..m_n}: each model
    weighted by the number of t_n values that admit it."""
    return normalise({g: v + math.log(m_n - max(size_of(g), 1) + 1) for g, v in scores.items()})


# --- file readers and summaries -----------------------------------------------

def read_counts(path) -> dict:
    """gamma,count rows of a models_*.csv file."""
    rows = Path(path).read_text().splitlines()[1:]
    return {g: int(cnt) for g, cnt in (r.rsplit(",", 1) for r in rows)}


def read_table(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def ess(chain) -> float:
    """Geyer initial-positive-sequence effective sample size."""
    x = np.asarray(chain, dtype=float) - np.mean(chain)
    n = x.size
    if not np.any(x):
        return float(n)
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    tau = -1.0
    for k in range(n // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / max(tau, 1.0))


def tv_distance(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(g, 0.0) - q.get(g, 0.0)) for g in set(p) | set(q))


def aggregate(rows):
    """The replicate aggregate recomputed from summary.csv rows (dicts of
    strings): F(eta), median size, median/sd of the estimation error, mean
    FCR and the interval-length mean pooled over all selected coefficients."""
    freq = np.array([float(r["freq_true"]) for r in rows])
    size = np.array([int(r["size"]) for r in rows])
    err = np.array([float(r["err"]) for r in rows])
    fcr = np.array([float(r["fcr"]) for r in rows])
    has_ci = [r["mean_ci_len"] != "" for r in rows]
    ci_total = sum(float(r["mean_ci_len"]) * int(r["size"]) for r, h in zip(rows, has_ci) if h)
    ci_count = sum(int(r["size"]) for r, h in zip(rows, has_ci) if h)
    return {
        "F(0.5)": float(np.mean(freq > 0.5)),
        "F(0.9)": float(np.mean(freq > 0.9)),
        "MSSM": float(np.median(size)),
        "ME": float(np.median(err)),
        "err_sd": float(np.std(err, ddof=1)) if len(err) > 1 else 0.0,
        "FCR": float(np.mean(fcr)),
        "mean_ci_length": ci_total / ci_count if ci_count else None,
    }
