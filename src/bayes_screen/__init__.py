"""Fully Bayesian variable selection for sparse linear models with p >> n:
size-capped model-space prior, exact posterior model scoring, constrained
blockwise Gibbs sampling, and g-priors on the slab scale."""

__version__ = "0.1.0"

from .data import (
    GHG,
    GZS,
    Dataset,
    FixedC,
    GroundTruth,
    PriorConfig,
    SamplerState,
    ValidationError,
    check_model,
    derive_ground_truth,
    model_label,
)
from .exact import (
    EnumeratedPosterior,
    check_sparse_riesz,
    enumerate_posterior,
    enumerate_posterior_with_tn_prior,
    log_unnorm_posterior,
    log_unnorm_posterior_g,
)
from .gibbs import ChainAbort, ChainConfig, ChainOutput, merge_chains, run_chain
from .hyperc import MhTuning, preset_c
from .inference import (
    CredibleIntervalSet,
    ReplicationSummary,
    credible_intervals,
    f_eta,
    fcr,
    summarize_run,
)
from .simgen import Example1Spec, Example2Spec, gen_example1, gen_example2

__all__ = [name for name in dir() if not name.startswith("_")]
