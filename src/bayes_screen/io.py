"""File formats: dataset CSV, ground-truth sidecar, chain output files,
enumeration tables and experiment summaries.

All indices written to files are 1-based; conversion happens here only.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import Dataset, GroundTruth, ValidationError, derive_ground_truth, model_label
from .gibbs import ChainOutput

_FLOAT_FMT = "%.17g"


def write_dataset(path, d: Dataset) -> None:
    """CSV with header y,x1,...,xp and one row per observation."""
    header = "y," + ",".join(f"x{j + 1}" for j in range(d.p))
    data = np.column_stack([d.y, d.x])
    np.savetxt(path, data, fmt=_FLOAT_FMT, delimiter=",", header=header, comments="")


def read_dataset(path) -> Dataset:
    try:
        fh = open(path)
    except OSError as exc:
        raise ValidationError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "y":
            raise ValidationError(f"{path}: expected header starting with 'y'")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValidationError(f"{path}: row width does not match header")
    return Dataset(data[:, 0], data[:, 1:])


def write_ground_truth(path, truth: GroundTruth) -> None:
    """Sidecar CSV: j,beta0_j rows for nonzero entries, then one metadata
    line sigma0_sq=<value>."""
    lines = ["j,beta0_j"]
    for j in truth.gamma0:
        lines.append(f"{j + 1},{format_float(truth.beta0[j])}")
    lines.append(f"sigma0_sq={format_float(truth.sigma0_sq)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_ground_truth(path, p: int) -> GroundTruth:
    beta0 = np.zeros(p)
    sigma0_sq = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line == "j,beta0_j":
            continue
        if line.startswith("sigma0_sq="):
            sigma0_sq = float(line.split("=", 1)[1])
            continue
        j_str, val = line.split(",")
        beta0[int(j_str) - 1] = float(val)
    if sigma0_sq is None:
        raise ValidationError(f"{path}: missing sigma0_sq metadata line")
    return derive_ground_truth(beta0, sigma0_sq)


def write_enumeration(path, post) -> None:
    """gamma,log_score,prob rows of an EnumeratedPosterior, in its order."""
    lines = ["gamma,log_score,prob"]
    for idx, score, prob in zip(post.entries, post.log_scores.tolist(), post.probs.tolist()):
        lines.append(f"{model_label(idx)},{format_float(score)},{format_float(prob)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_chain_output(outdir, output: ChainOutput, thin: int, label: str = "") -> None:
    """models.csv, scalars.csv and optional beta.csv for one chain."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    suffix = f"_{label}" if label else ""

    rows = sorted(output.model_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = ["gamma,count"] + [f"{model_label(g)},{cnt}" for g, cnt in rows]
    (outdir / f"models{suffix}.csv").write_text("\n".join(lines) + "\n")

    lines = ["iter,sigma_sq,c,t_n"]
    for i in range(output.sigma_sq_draws.shape[0]):
        lines.append(
            f"{i * thin},{format_float(output.sigma_sq_draws[i])},"
            f"{format_float(output.c_draws[i])},{output.t_n_draws[i]}"
        )
    (outdir / f"scalars{suffix}.csv").write_text("\n".join(lines) + "\n")

    if output.beta_draws is not None:
        nonzero_cols = np.flatnonzero(np.any(output.beta_draws != 0.0, axis=0))
        header = ",".join(f"beta{j + 1}" for j in nonzero_cols)
        np.savetxt(
            outdir / f"beta{suffix}.csv",
            output.beta_draws[:, nonzero_cols],
            fmt=_FLOAT_FMT,
            delimiter=",",
            header=header,
            comments="",
        )


def write_meta(path, config: dict, seed: int) -> None:
    from . import __version__

    meta = {"seed": seed, "config": config, "version": __version__}
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def format_float(v) -> str:
    return "" if v is None else repr(float(v))
