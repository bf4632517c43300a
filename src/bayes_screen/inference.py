"""Post-selection inference and experiment metrics: simultaneous credible
intervals for the selected coefficients, false coverage rate, F(eta),
median selected size and median estimation error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.special import ndtri

from .data import Dataset, GroundTruth, ValidationError, check_model
from .gibbs import ChainOutput


@dataclass(frozen=True)
class CredibleIntervalSet:
    """Per-coefficient centers and halfwidths for one selected model."""

    entries: tuple  # of (j, center, halfwidth), 0-based j
    alpha: float
    gamma: tuple

    def lengths(self) -> np.ndarray:
        return np.array([2.0 * hw for _, _, hw in self.entries])

    def covers(self, beta0: np.ndarray) -> np.ndarray:
        return np.array(
            [abs(beta0[j] - center) <= hw for j, center, hw in self.entries]
        )


def credible_intervals(
    gamma,
    c: float,
    sigma_sq: float,
    d: Dataset,
    alpha: float,
) -> CredibleIntervalSet:
    """Simultaneous credible intervals xi_j +/- z_{1-alpha/2} sigma_j for the
    selected coefficients, with xi = U^-1 X_g' Y and sigma_j^2 the j-th
    diagonal of sigma^2 U^-1."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    gamma = check_model(gamma, d.p)
    if len(gamma) == 0:
        raise ValidationError("no selected coefficients")
    idx = list(gamma)
    xg = d.x[:, idx]
    k = len(idx)
    u = xg.T @ xg + (1.0 / c) * np.eye(k)
    low = linalg.cholesky(u, lower=True)
    xi = linalg.cho_solve((low, True), xg.T @ d.y)
    # diag(U^-1) via triangular solves: squared column norms of L^-1
    linv = linalg.solve_triangular(low, np.eye(k), lower=True)
    diag_uinv = np.einsum("ij,ij->j", linv, linv)
    z = float(ndtri(1.0 - alpha / 2.0))
    halfwidths = z * np.sqrt(sigma_sq * diag_uinv)
    entries = tuple((j, float(xi_j), float(hw)) for j, xi_j, hw in zip(idx, xi, halfwidths))
    return CredibleIntervalSet(entries=entries, alpha=alpha, gamma=gamma)


def fcr(intervals: CredibleIntervalSet, truth: GroundTruth) -> float:
    """False coverage proportion V/r of one replication (0 when r = 0)."""
    r = len(intervals.entries)
    if r == 0:
        return 0.0
    misses = int(np.sum(~intervals.covers(truth.beta0)))
    return misses / r


def f_eta(replication_freqs, eta: float) -> float:
    """Fraction of replications whose true-model frequency strictly exceeds eta."""
    freqs = np.asarray(list(replication_freqs), dtype=np.float64)
    if freqs.size == 0:
        raise ValidationError("empty frequency sequence")
    if not 0.0 < eta < 1.0:
        raise ValidationError("eta must be in (0, 1)")
    if np.any((freqs < 0) | (freqs > 1)):
        raise ValidationError("frequencies must lie in [0, 1]")
    return float(np.mean(freqs > eta))


@dataclass(frozen=True)
class RunRecord:
    """Per-replication summary of one chain output."""

    selected: tuple
    freq_true: float
    size: int
    err: float | None
    fcr: float | None
    interval_lengths: np.ndarray | None


@dataclass(frozen=True)
class ReplicationSummary:
    f_values: dict  # eta -> F(eta)
    mssm: float
    me: float | None
    err_sd: float | None
    mean_fcr: float | None
    mean_ci_length: float | None


def summarize_run(
    output: ChainOutput,
    truth: GroundTruth,
    dataset: Dataset | None = None,
    alpha: float = 0.05,
) -> RunRecord:
    """Selected model (modal visit count), true-model frequency, estimation
    error of the posterior-mean coefficients, and FCR at the selected model.

    Interval construction plugs in the posterior averages of c and sigma^2
    and requires the dataset; it is skipped when the selection is empty.
    """
    selected = output.modal_model()
    freq_true = output.visit_frequency(truth.gamma0)
    err = None
    if output.beta_draws is not None:
        err = float(np.linalg.norm(output.beta_mean() - truth.beta0))
    fcr_val = lengths = None
    if dataset is not None:
        if len(selected) == 0:
            fcr_val, lengths = 0.0, np.array([])
        else:
            intervals = credible_intervals(
                selected,
                c=float(np.mean(output.c_draws)),
                sigma_sq=float(np.mean(output.sigma_sq_draws)),
                d=dataset,
                alpha=alpha,
            )
            fcr_val = fcr(intervals, truth)
            lengths = intervals.lengths()
    return RunRecord(
        selected=selected,
        freq_true=freq_true,
        size=len(selected),
        err=err,
        fcr=fcr_val,
        interval_lengths=lengths,
    )


def aggregate_records(records) -> ReplicationSummary:
    """Order-independent aggregation of per-replication records; F(eta) at
    eta = 0.5 and 0.9."""
    records = tuple(records)
    if not records:
        raise ValidationError("no records to aggregate")
    freqs = [r.freq_true for r in records]
    f_values = {eta: f_eta(freqs, eta) for eta in (0.5, 0.9)}
    mssm = float(np.median([r.size for r in records]))
    errs = [r.err for r in records if r.err is not None]
    if any(r.err is None for r in records) and not errs:
        me = err_sd = None
    elif any(r.err is None for r in records):
        raise ValidationError("beta recording disabled for some runs")
    else:
        me = float(np.median(errs))
        err_sd = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0
    fcrs = [r.fcr for r in records if r.fcr is not None]
    mean_fcr = float(np.mean(fcrs)) if fcrs else None
    pooled = [r.interval_lengths for r in records if r.interval_lengths is not None]
    if pooled:
        pooled = np.concatenate(pooled)
        mean_len = float(np.mean(pooled)) if pooled.size else None
    else:
        mean_len = None
    return ReplicationSummary(
        f_values=f_values,
        mssm=mssm,
        me=me,
        err_sd=err_sd,
        mean_fcr=mean_fcr,
        mean_ci_length=mean_len,
    )
