"""Updates of the variance-control parameter c.

Three routes: fixed presets (BIC/RIC/benchmark), a conjugate inverse-gamma
draw under the generalized Zellner-Siow prior, and a Metropolis-Hastings
step on kappa = log c under the generalized hyper-g prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GHG, GZS, SamplerState, ValidationError


@dataclass(frozen=True)
class MhTuning:
    """Random-walk proposal scale for the log-c Metropolis step."""

    sigma_kappa: float = 0.5

    def __post_init__(self):
        if not self.sigma_kappa > 0:  # NaN fails too
            raise ValidationError("sigma_kappa must be positive")


def preset_c(kind: str, n: int, p: int) -> float:
    """Fixed c presets: BIC -> n, RIC -> p^2, benchmark -> max(n, p^2)."""
    if n < 1 or p < 1:
        raise ValidationError("n and p must be >= 1")
    kind = kind.lower()
    if kind == "bic":
        return float(n)
    if kind == "ric":
        return float(p) ** 2
    if kind == "benchmark":
        return float(max(n, p * p))
    raise ValidationError(f"unknown preset {kind!r} (expected bic, ric or benchmark)")


def gzs_conditional_params(state: SamplerState, prior_c: GZS, p: int, k: int | None = None):
    """Shape/scale of the conjugate inverse-gamma full conditional of c.
    ``k`` is |gamma| when the caller already has it."""
    if k is None:
        k = state.n_active
    shape = prior_c.a + 0.5 * k
    bsq = float(state.beta @ state.beta)
    scale = math.exp(prior_c.log_scale(p)) + bsq / (2.0 * state.sigma_sq)
    return shape, scale


def update_c_gzs(state: SamplerState, prior_c: GZS, p: int, rng: np.random.Generator, k: int | None = None) -> bool:
    """Conjugate IG(a + |gamma|/2, p^b_n + ||beta_gamma||^2/(2 sigma^2)) draw.

    Returns False (update skipped, c unchanged) for the degenerate case
    a = 0 with an empty model.
    """
    shape, scale = gzs_conditional_params(state, prior_c, p, k)
    if shape <= 0:
        return False
    state.c = scale / rng.gamma(shape)
    return True


def ghg_log_target(kappa: float, bsq: float, k: int, sigma_sq: float, alpha_n: float, b: float) -> float:
    """Unnormalized log full conditional of kappa = log c under GHG.

    Equals log p_c(e^kappa | ...) + kappa (the change-of-variables term);
    the Beta normalizing constant is dropped as constant in kappa.
    """
    # log g(e^kappa) = (alpha_n - 1) kappa - (alpha_n + b) log(1 + e^kappa)
    if kappa > 0:
        log1pc = kappa + math.log1p(math.exp(-kappa))
    else:
        log1pc = math.log1p(math.exp(kappa))
    return (
        -0.5 * k * kappa
        - bsq * math.exp(-kappa) / (2.0 * sigma_sq)
        + (alpha_n - 1.0) * kappa
        - (alpha_n + b) * log1pc
        + kappa
    )


def update_c_ghg_mh(
    state: SamplerState,
    prior_c: GHG,
    p: int,
    tuning: MhTuning,
    rng: np.random.Generator,
    k: int | None = None,
) -> bool:
    """One random-walk MH step on kappa = log c. Returns the accept flag.
    ``k`` is |gamma| when the caller already has it.

    Non-finite log target at the proposal auto-rejects, which preserves
    detailed balance with respect to the restricted support.
    """
    alpha_n = prior_c.alpha_n(p)
    if k is None:
        k = state.n_active
    bsq = float(state.beta @ state.beta)
    kappa_old = math.log(state.c)
    kappa_new = kappa_old + tuning.sigma_kappa * rng.standard_normal()
    u = rng.random()
    ell_new = ghg_log_target(kappa_new, bsq, k, state.sigma_sq, alpha_n, prior_c.b)
    if not math.isfinite(ell_new):
        return False
    ell_old = ghg_log_target(kappa_old, bsq, k, state.sigma_sq, alpha_n, prior_c.b)
    if math.log(u) < ell_new - ell_old:
        state.c = math.exp(kappa_new)
        return True
    return False
