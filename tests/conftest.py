import numpy as np
import pytest

from bayes_screen.data import Dataset, FixedC, PriorConfig


def make_dataset(n=40, p=6, s=2, seed=0, beta_scale=2.0, sigma=1.0):
    """Small iid-Gaussian-design dataset with the first s coefficients active."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta0 = np.zeros(p)
    beta0[:s] = beta_scale
    y = x @ beta0 + sigma * rng.standard_normal(n)
    return Dataset(y, x), beta0


def fixed_prior(c, m_n):
    return PriorConfig(m_n=m_n, c_prior=FixedC(float(c)))


def tv_distance(emp: dict, ref: dict) -> float:
    keys = set(emp) | set(ref)
    return 0.5 * sum(abs(emp.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)


def empirical_models(output) -> dict:
    return {g: cnt / output.n_kept for g, cnt in output.model_counts.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
