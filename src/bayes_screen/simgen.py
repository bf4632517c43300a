"""Seeded generators for the two simulation designs used in the experiments.

Example 1: AR(1)-correlated Gaussian design with half-positive,
half-negative uniform coefficients. Example 2: the two sparse-recovery
settings (iid design; collinear design built from a conditioned base
block), coefficients (-1)^u (a + |z|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, GroundTruth, ValidationError, derive_ground_truth


@dataclass(frozen=True)
class Example1Spec:
    n: int
    p: int
    s_n: int
    rho: float = 0.0
    sigma_sq: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.s_n % 2 != 0 or self.s_n < 0:
            raise ValidationError("s_n must be a nonnegative even integer")
        if self.s_n > self.p:
            raise ValidationError("s_n must not exceed p")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("rho must be in [0, 1)")
        if self.sigma_sq <= 0:
            raise ValidationError("sigma_sq must be positive")


@dataclass(frozen=True)
class Example2Spec:
    setting: str  # "I" or "II"
    n: int
    p: int
    s_n: int
    sigma: float
    a: float
    r: float | None = None  # Setting II collinearity; None uses the default rule
    seed: int = 0

    def __post_init__(self):
        if self.setting not in ("I", "II"):
            raise ValidationError("setting must be 'I' or 'II'")
        if not 1 <= self.s_n <= self.p:
            raise ValidationError("need 1 <= s_n <= p")
        if self.sigma <= 0 or self.a < 0:
            raise ValidationError("sigma must be positive and a nonnegative")

    def collinearity(self) -> float:
        """Default r: 1 - 4 log n / p for s_n = 5, else 1 - 5 log n / p."""
        if self.r is not None:
            return self.r
        mult = 4.0 if self.s_n == 5 else 5.0
        return 1.0 - mult * math.log(self.n) / self.p


def signal_floor(n: int, multiplier: float) -> float:
    """The coefficient magnitude floor a = multiplier * log n / sqrt(n)."""
    return multiplier * math.log(n) / math.sqrt(n)


def gen_example1(spec: Example1Spec) -> tuple[Dataset, GroundTruth]:
    """AR(1) design via the recursion x_1 = z_1, x_j = rho x_{j-1} +
    sqrt(1-rho^2) z_j (unit marginals, corr rho^|j1-j2|)."""
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((spec.n, spec.p))
    x = np.empty((spec.n, spec.p), order="F")
    x[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - spec.rho**2)
    for j in range(1, spec.p):
        x[:, j] = spec.rho * x[:, j - 1] + scale * z[:, j]

    half = spec.s_n // 2
    beta0 = np.zeros(spec.p)
    beta0[:half] = rng.uniform(1.0, 5.0, size=half)
    beta0[half:spec.s_n] = rng.uniform(-5.0, -1.0, size=half)

    eps = math.sqrt(spec.sigma_sq) * rng.standard_normal(spec.n)
    y = x @ beta0 + eps
    return Dataset(y, x), derive_ground_truth(beta0, spec.sigma_sq)


def conditioned_covariance(s_n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random s_n x s_n covariance A = Q diag(d) Q' with condition number
    exactly ``cond``: Q from the QR of a Gaussian matrix, eigenvalues
    geometrically spaced from 1 to cond."""
    q, _ = np.linalg.qr(rng.standard_normal((s_n, s_n)))
    if s_n == 1:
        eigs = np.array([1.0])
    else:
        eigs = np.geomspace(1.0, cond, s_n)
    return (q * eigs) @ q.T


def gen_example2(spec: Example2Spec) -> tuple[Dataset, GroundTruth]:
    rng = np.random.default_rng(spec.seed)
    n, p, s_n = spec.n, spec.p, spec.s_n

    if spec.setting == "I":
        x = np.asfortranarray(rng.standard_normal((n, p)))
    else:
        x = np.empty((n, p), order="F")
        cond = math.sqrt(n) / math.log(n)
        a_mat = conditioned_covariance(s_n, cond, rng)
        chol = np.linalg.cholesky(a_mat)
        x[:, :s_n] = rng.standard_normal((n, s_n)) @ chol.T
        w = rng.standard_normal((n, p - s_n))
        r = spec.collinearity()
        for j in range(s_n, min(2 * s_n, p)):
            x[:, j] = w[:, j - s_n] + r * x[:, j - s_n]
        for j in range(2 * s_n, p):
            x[:, j] = w[:, j - s_n] + (1.0 - r) * x[:, 0]

    signs = np.where(rng.random(s_n) < 0.4, -1.0, 1.0)  # (-1)^u, u ~ Bernoulli(0.4)
    magnitudes = spec.a + np.abs(rng.standard_normal(s_n))
    beta0 = np.zeros(p)
    beta0[:s_n] = signs * magnitudes

    eps = spec.sigma * rng.standard_normal(n)
    y = x @ beta0 + eps
    return Dataset(y, x), derive_ground_truth(beta0, spec.sigma**2)
