"""Domain types shared by the selection, sampling and inference code.

A :class:`Dataset` is checked when it is built and carries the squared
column norms and y'y that the sweep, the exact scorer and the g-prior
quadrature all read; no layer checks or caches it again.

A model is a sorted tuple of distinct 0-based column indices, everywhere
inside the package; :func:`check_model` validates one that comes in from a
caller. Conversion to the 1-based labels used in files and on the command
line (:func:`model_label`) happens only in :mod:`bayes_screen.io` and the CLI.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when a dataset, prior or config fails validation."""


def model_label(included) -> str:
    """1-based '+'-joined label of 0-based indices; empty for the null model."""
    return "+".join(str(j + 1) for j in included)


def check_model(indices, p: int) -> tuple:
    """A model given from outside the package, as the package holds every
    model: a sorted tuple of distinct 0-based Python ints in [0, p).
    Indices must be Python or numpy integers, not bools."""
    idx = tuple(indices)
    for j in idx:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise ValidationError(f"model index {j!r} is not an integer")
    idx = tuple(sorted(int(j) for j in idx))
    if len(set(idx)) != len(idx):
        raise ValidationError("duplicate indices in model")
    if idx and (idx[0] < 0 or idx[-1] >= p):
        raise ValidationError(f"index out of range [0, {p})")
    return idx


class Dataset:
    """Response vector y and design matrix x, checked when built, with the
    two by-products every layer reads: ``col_sq_norms`` (the squared
    column norms ||x_j||^2) and ``yty`` (y'y).

    y is held as a contiguous float64 vector and x as a Fortran-ordered
    float64 matrix, so that the sampler's column accesses are contiguous;
    an input already in that form is held without a copy. The caches are
    computed once, so the arrays must not be modified afterwards.
    """

    def __init__(self, y, x):
        y = np.ascontiguousarray(y, dtype=np.float64).ravel()
        x = np.asfortranarray(x, dtype=np.float64)
        if x.ndim != 2 or 0 in x.shape:
            raise ValidationError(f"x must be 2-d with at least one row and one column, got shape {x.shape}")
        n, p = x.shape
        problems = []
        if y.shape != (n,):
            problems.append(f"dimension mismatch: y has length {y.shape[0]}, n={n}")
        if not np.all(np.isfinite(y)):
            problems.append("non-finite entries in y")
        if not np.all(np.isfinite(x)):
            problems.append("non-finite entries in x")
        else:
            col_sq_norms = np.einsum("ij,ij->j", x, x)
            problems += [f"zero-norm column {j + 1}" for j in np.flatnonzero(col_sq_norms == 0.0)]
        if problems:
            raise ValidationError("; ".join(problems))
        self.y, self.x, self.n, self.p = y, x, n, p
        self.col_sq_norms = col_sq_norms
        self.yty = float(y @ y)


@dataclass(frozen=True)
class GroundTruth:
    """True coefficients and derived summaries used by the experiment metrics."""

    beta0: np.ndarray
    gamma0: tuple
    s_n: int
    sigma0_sq: float
    k_n: float
    psi_n: float | None


def derive_ground_truth(beta0, sigma0_sq: float) -> GroundTruth:
    """Build a GroundTruth from the true coefficient vector.

    The support of ``beta0`` defines the true model; ``psi_n`` is the
    smallest nonzero magnitude and is absent for an all-zero beta0.
    """
    beta0 = np.asarray(beta0, dtype=np.float64).ravel()
    if not np.all(np.isfinite(beta0)):
        raise ValidationError("non-finite entries in beta0")
    if sigma0_sq <= 0:
        raise ValidationError("sigma0_sq must be positive")
    support = np.flatnonzero(beta0)
    gamma0 = tuple(support.tolist())
    s_n = len(gamma0)
    if s_n == 0:
        warnings.warn("true model empty (all-zero beta0)", stacklevel=2)
        return GroundTruth(beta0, gamma0, 0, float(sigma0_sq), 0.0, None)
    nz = beta0[support]
    return GroundTruth(
        beta0=beta0,
        gamma0=gamma0,
        s_n=s_n,
        sigma0_sq=float(sigma0_sq),
        k_n=float(nz @ nz),
        psi_n=float(np.min(np.abs(nz))),
    )


# --- prior configuration ----------------------------------------------------

@dataclass(frozen=True)
class FixedC:
    """Fixed variance-control parameter (BIC/RIC/benchmark presets)."""

    c: float

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValidationError("Fixed c must be positive and finite")


@dataclass(frozen=True)
class GZS:
    """Inverse-gamma prior on c with scale p^b_n (size-adapted Zellner-Siow).

    a = 0 gives the improper variant used in the simulations; it is allowed
    in MCMC but rejected by the quadrature-based marginal.
    """

    a: float = 0.0
    b_n: float = 3.0

    def __post_init__(self):
        if not (self.a >= 0 and self.b_n > 0):  # NaN fails too
            raise ValidationError("GZS requires a >= 0 and b_n > 0")

    def log_scale(self, p: int) -> float:
        """log of the IG scale parameter p^b_n, with overflow guard."""
        ls = self.b_n * math.log(p)
        if ls > 700.0:
            raise ValidationError(f"p^b_n overflows double precision (log = {ls:.1f})")
        return ls


@dataclass(frozen=True)
class GHG:
    """Hyper-g style prior: c/(1+c) ~ Beta(p^d + 1, b). b = 0 is the
    improper variant, allowed only in the MH update."""

    d: float = 3.0
    b: float = 0.0

    def __post_init__(self):
        if not (self.d > 0 and self.b >= 0):  # NaN fails too
            raise ValidationError("GHG requires d > 0 and b >= 0")

    def alpha_n(self, p: int) -> float:
        la = self.d * math.log(p)
        if la > 700.0:
            raise ValidationError(f"p^d overflows double precision (log = {la:.1f})")
        return math.exp(la) + 1.0


@dataclass(frozen=True)
class PriorConfig:
    """Hyperpriors: inverse-chi^2 dof, size cap prior, and the c prior.

    The model-space prior is the indifference prior (constant over models
    with size <= t_n), so all prior ratios between admissible models are 1.
    """

    nu: float = 6.0
    m_n: int = 1
    c_prior: object = FixedC(1.0)

    def __post_init__(self):
        if not self.nu > 0:  # NaN fails too
            raise ValidationError("nu must be positive")
        if self.m_n < 1:
            raise ValidationError("m_n must be >= 1")

    def validate_for(self, n: int, p: int) -> None:
        """Check the prior against a dataset's shape (n, p)."""
        if self.m_n > n:
            raise ValidationError(f"m_n={self.m_n} exceeds n={n}")
        if isinstance(self.c_prior, GZS):
            self.c_prior.log_scale(p)
        elif isinstance(self.c_prior, GHG):
            self.c_prior.alpha_n(p)

    @staticmethod
    def default_m_n(n: int) -> int:
        return max(1, n // 2)


# --- sampler state -------------------------------------------------------------

@dataclass
class SamplerState:
    """One MCMC state. ``gamma_mask[j] != 0`` iff ``beta[j] != 0``; the
    residual cache equals y - x @ beta up to accumulated-update tolerance."""

    beta: np.ndarray
    gamma_mask: np.ndarray
    sigma_sq: float
    t_n: int
    c: float
    residual: np.ndarray

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.gamma_mask))

    @property
    def gamma(self) -> tuple:
        # gamma_mask is 1-d, so nonzero() is flatnonzero() without its ravel
        return tuple(self.gamma_mask.nonzero()[0].tolist())

    def copy(self) -> "SamplerState":
        return SamplerState(
            beta=self.beta.copy(),
            gamma_mask=self.gamma_mask.copy(),
            sigma_sq=self.sigma_sq,
            t_n=self.t_n,
            c=self.c,
            residual=self.residual.copy(),
        )

    def check_invariants(self, d: Dataset, m_n: int) -> None:
        support = np.flatnonzero(self.beta)
        active = np.flatnonzero(self.gamma_mask)
        if not np.array_equal(support, active):
            raise AssertionError("support(beta) != gamma")
        if not (self.n_active <= self.t_n <= m_n):
            raise AssertionError(f"size cap violated: |gamma|={self.n_active}, t_n={self.t_n}, m_n={m_n}")
        drift = np.max(np.abs(self.residual - (d.y - d.x @ self.beta)))
        if drift >= 1e-8 * (1.0 + np.max(np.abs(d.y))):
            raise AssertionError(f"residual cache drifted by {drift:.3e}")

