"""Convergence monitoring: Gelman-Rubin potential scale reduction and an
autocorrelation-based effective sample size."""

from __future__ import annotations

import warnings

import numpy as np

from .data import ValidationError

MIN_ESS_LENGTH = 10


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor over m >= 2 equal-length chains.

    R-hat = sqrt(((L-1)/L * W + B/L) / W), with W the mean within-chain
    variance and B the between-chain variance of the chain means times L.
    Plain PSRF (no split), matching the classical formulation.
    """
    x = np.asarray(chains, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValidationError("need m >= 2 chains of equal length")
    m, length = x.shape
    if length < 2:
        raise ValidationError("chains must have length >= 2")
    w = float(np.mean(np.var(x, axis=1, ddof=1)))
    b = length * float(np.var(np.mean(x, axis=1), ddof=1))
    if w == 0.0:
        return math_inf_or_one(b)
    var_plus = (length - 1) / length * w + b / length
    return float(np.sqrt(var_plus / w))


def math_inf_or_one(b: float) -> float:
    # zero within-chain variance: identical constants are converged,
    # separated constants are flagged as +inf
    return 1.0 if b == 0.0 else float("inf")


def _autocorr(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    xc = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    fx = np.fft.rfft(xc, size)
    acov = np.fft.irfft(fx * np.conj(fx))[:n].real
    return acov / acov[0]


def ess(chain) -> float:
    """Effective sample size via the initial-positive-sequence truncation of
    the autocorrelation sum (Geyer). Constant chains are flagged with a
    warning and reported as the full length."""
    x = np.asarray(chain, dtype=np.float64).ravel()
    n = x.shape[0]
    if n < MIN_ESS_LENGTH:
        raise ValidationError(f"chain too short for ESS (need length >= {MIN_ESS_LENGTH})")
    if np.all(x == x[0]):
        warnings.warn("constant chain: ESS reported as chain length", stacklevel=2)
        return float(n)
    rho = _autocorr(x)
    tau = -1.0
    for k in range(0, n // 2):
        pair = rho[2 * k] + (rho[2 * k + 1] if 2 * k + 1 < n else 0.0)
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau = max(tau, 1.0)
    return float(min(n / tau, n))
