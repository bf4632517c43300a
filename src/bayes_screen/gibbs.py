"""Constrained blockwise Gibbs sampler: per-coordinate (beta_j, gamma_j)
block updates with the size-control branch, conjugate sigma^2 update, the
c update, and the t_n redraw, uniform on [max(|gamma|, 1), m_n].

The scan is systematic (ascending j) for reproducibility. Per sweep the
chain pre-draws one uniform and one normal per coordinate; forced blocks
leave theirs unused, so identical seeds give identical output regardless
of the path the chain takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperc
from .data import (
    GHG,
    GZS,
    Dataset,
    FixedC,
    PriorConfig,
    SamplerState,
    ValidationError,
    check_model,
)
from .kernel import sweep_blocks

RESIDUAL_REBUILD_EVERY = 1000


class ChainAbort(RuntimeError):
    """The chain reached a non-finite state and was stopped."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int
    n_burn: int
    thin: int = 1
    seed: int = 0
    record_beta: bool = False

    def __post_init__(self):
        if not (0 <= self.n_burn < self.n_iter):
            raise ValidationError("need 0 <= n_burn < n_iter")
        if self.thin < 1:
            raise ValidationError("thin must be >= 1")

    @property
    def n_draws(self) -> int:
        """Scalar (and beta) draws a chain records: ceil((n_iter - n_burn) / thin)."""
        return math.ceil((self.n_iter - self.n_burn) / self.thin)


@dataclass
class ChainOutput:
    """Recorded draws and visit counts from one chain. ``model_counts`` is
    keyed by model: a sorted tuple of 0-based column indices."""

    model_counts: dict
    sigma_sq_draws: np.ndarray
    c_draws: np.ndarray
    t_n_draws: np.ndarray
    beta_draws: np.ndarray | None
    mh_accept_rate: float | None
    c_update_skips: int
    seed: int
    p: int
    n_kept: int

    def modal_model(self) -> tuple:
        """Most-visited model; ties broken by smaller size then lexicographic."""
        return min(
            self.model_counts.items(),
            key=lambda kv: (-kv[1], len(kv[0]), kv[0]),
        )[0]

    def visit_frequency(self, gamma) -> float:
        return self.model_counts.get(check_model(gamma, self.p), 0) / self.n_kept

    def beta_mean(self) -> np.ndarray:
        if self.beta_draws is None:
            raise ValidationError("beta recording disabled")
        return self.beta_draws.mean(axis=0)


def initial_c(prior: PriorConfig, p: int) -> float:
    """Starting value of c: the fixed value, or the prior mode for g-priors."""
    cp = prior.c_prior
    if isinstance(cp, FixedC):
        return cp.c
    if isinstance(cp, GZS):
        return math.exp(cp.log_scale(p)) / (cp.a + 1.0)
    if isinstance(cp, GHG):
        return (cp.alpha_n(p) - 1.0) / (cp.b + 1.0)
    raise ValidationError(f"unknown c prior {cp!r}")


def default_initial_state(d: Dataset, prior: PriorConfig, rng: np.random.Generator) -> SamplerState:
    """Null model start: gamma = 0, beta = 0, sigma^2 ~ U(0.5, 2),
    t_n uniform on [1, m_n], c at its prior mode / fixed value."""
    return SamplerState(
        beta=np.zeros(d.p),
        gamma_mask=np.zeros(d.p, dtype=np.uint8),
        sigma_sq=float(rng.uniform(0.5, 2.0)),
        t_n=int(rng.integers(1, prior.m_n + 1)),
        c=initial_c(prior, d.p),
        residual=d.y.copy(),
    )


def update_sigma_sq(state: SamplerState, d: Dataset, prior: PriorConfig, rng: np.random.Generator,
                    k: int | None = None) -> None:
    """Conjugate inverse-gamma draw for the error variance. ``k`` is |gamma|
    when the caller already has it."""
    if k is None:
        k = state.n_active
    rss = float(state.residual @ state.residual)
    bsq = float(state.beta @ state.beta)  # off-support entries are exactly 0
    shape = 0.5 * (d.n + k + prior.nu)
    scale = 0.5 * (rss + bsq / state.c + 1.0)
    state.sigma_sq = scale / rng.gamma(shape)


def update_t_n(state: SamplerState, prior: PriorConfig, rng: np.random.Generator, k: int | None = None) -> None:
    """t_n uniform on the integer range [max(|gamma|, 1), m_n]: its full
    conditional under p(gamma, t_n) proportional to
    1{max(|gamma|, 1) <= t_n <= m_n}. ``k`` is |gamma| when the caller
    already has it."""
    if k is None:
        k = state.n_active
    lo = max(k, 1)
    state.t_n = int(rng.integers(lo, prior.m_n + 1))


def _update_c(state, prior, tuning, rng, k=None):
    """Returns (accepted flag or None, skipped flag). ``k`` is |gamma| when
    the caller already has it."""
    cp = prior.c_prior
    if isinstance(cp, FixedC):
        return None, False
    if isinstance(cp, GZS):
        updated = hyperc.update_c_gzs(state, cp, state.beta.shape[0], rng, k)
        return None, not updated
    if isinstance(cp, GHG):
        return hyperc.update_c_ghg_mh(state, cp, state.beta.shape[0], tuning, rng, k), False
    raise ValidationError(f"unknown c prior {cp!r}")


def get_sweep_kernel(impl=None):
    """The sweep kernel ``run_chain`` passes to ``gibbs_sweep``.

    ``run_chain`` looks it up here once per chain, so that perfbench's
    tracer can wrap it; there is one kernel, so ``impl`` must be None.
    """
    if impl is not None:
        raise ValueError(f"unknown kernel implementation {impl!r}")
    return sweep_blocks


def gibbs_sweep(
    state: SamplerState,
    d: Dataset,
    prior: PriorConfig,
    rng: np.random.Generator,
    sweep_kernel=sweep_blocks,
    tuning: hyperc.MhTuning = hyperc.MhTuning(),
):
    """One full sweep: blocks j = 1..p, then sigma^2, then c, then t_n.
    The later updates take |gamma| from the kernel."""
    uniforms = rng.random(d.p)
    normals = rng.standard_normal(d.p)
    k = sweep_kernel(
        d.x,
        d.col_sq_norms,
        state.beta,
        state.gamma_mask,
        state.residual,
        state.sigma_sq,
        state.c,
        state.t_n,
        uniforms,
        normals,
    )
    update_sigma_sq(state, d, prior, rng, k)
    accepted, skipped = _update_c(state, prior, tuning, rng, k)
    update_t_n(state, prior, rng, k)
    return accepted, skipped


def run_chain(
    d: Dataset,
    prior: PriorConfig,
    cfg: ChainConfig,
    tuning: hyperc.MhTuning = hyperc.MhTuning(),
) -> ChainOutput:
    """Run one chain and record post-burn-in draws.

    Model visit counts are per post-burn sweep (they sum to
    n_iter - n_burn); scalar and beta draws are thinned by ``cfg.thin``
    and written into arrays of ``cfg.n_draws`` rows made up front.
    """
    prior.validate_for(d.n, d.p)

    rng = np.random.default_rng(cfg.seed)
    state = default_initial_state(d, prior, rng)
    sweep_kernel = get_sweep_kernel()

    model_counts: dict = {}
    n_draws = cfg.n_draws
    sigma_draws, c_draws = np.empty(n_draws), np.empty(n_draws)
    tn_draws = np.empty(n_draws, dtype=np.int64)
    beta_draws = np.empty((n_draws, d.p)) if cfg.record_beta else None
    mh_accepts = mh_proposals = skips = 0

    for it in range(cfg.n_iter):
        try:
            accepted, skipped = gibbs_sweep(state, d, prior, rng, sweep_kernel, tuning)
        except FloatingPointError as exc:
            raise ChainAbort(str(exc), it) from exc
        if not (math.isfinite(state.sigma_sq) and math.isfinite(state.c)):
            raise ChainAbort("non-finite sigma^2 or c", it)
        if accepted is not None:
            mh_proposals += 1
            mh_accepts += int(accepted)
        skips += int(skipped)

        if (it + 1) % RESIDUAL_REBUILD_EVERY == 0:
            state.residual[:] = d.y - d.x @ state.beta

        if it < cfg.n_burn:
            continue
        kept = it - cfg.n_burn
        gamma = state.gamma
        model_counts[gamma] = model_counts.get(gamma, 0) + 1
        if kept % cfg.thin == 0:
            i = kept // cfg.thin
            sigma_draws[i] = state.sigma_sq
            c_draws[i] = state.c
            tn_draws[i] = state.t_n
            if beta_draws is not None:
                beta_draws[i] = state.beta

    return ChainOutput(
        model_counts=model_counts,
        sigma_sq_draws=sigma_draws,
        c_draws=c_draws,
        t_n_draws=tn_draws,
        beta_draws=beta_draws,
        mh_accept_rate=(mh_accepts / mh_proposals) if mh_proposals else None,
        c_update_skips=skips,
        seed=cfg.seed,
        p=d.p,
        n_kept=cfg.n_iter - cfg.n_burn,
    )


def merge_chains(outputs) -> ChainOutput:
    """Pool several chains over the same dataset into one output: merged
    visit counts, concatenated draws. MH statistics are draw-weighted."""
    outputs = list(outputs)
    if not outputs:
        raise ValidationError("no chains to merge")
    if len(outputs) == 1:
        return outputs[0]
    counts: dict = {}
    for out in outputs:
        for gamma, cnt in out.model_counts.items():
            counts[gamma] = counts.get(gamma, 0) + cnt
    mh = [(o.mh_accept_rate, o.n_kept) for o in outputs if o.mh_accept_rate is not None]
    has_beta = all(o.beta_draws is not None for o in outputs)
    return ChainOutput(
        model_counts=counts,
        sigma_sq_draws=np.concatenate([o.sigma_sq_draws for o in outputs]),
        c_draws=np.concatenate([o.c_draws for o in outputs]),
        t_n_draws=np.concatenate([o.t_n_draws for o in outputs]),
        beta_draws=np.concatenate([o.beta_draws for o in outputs]) if has_beta else None,
        mh_accept_rate=sum(r * n for r, n in mh) / sum(n for _, n in mh) if mh else None,
        c_update_skips=sum(o.c_update_skips for o in outputs),
        seed=outputs[0].seed,
        p=outputs[0].p,
        n_kept=sum(o.n_kept for o in outputs),
    )


def chain_seed(master_seed: int, replication: int = 0, chain: int = 0) -> int:
    """Fixed derivation of a per-chain seed from a master seed. Chain index
    2**31 is reserved for a replication's data-generation stream."""
    seq = np.random.SeedSequence([int(master_seed), int(replication), int(chain)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])
