"""The sweep kernel: the per-coordinate (beta_j, gamma_j) block update of
the constrained Gibbs sampler, applied to j = 0..p-1 in turn.

The kernel consumes the pre-drawn variate arrays positionally (uniforms[j]
and normals[j] belong to coordinate j), so a chain's random stream does not
depend on the path it takes.
"""

from __future__ import annotations

import math

import numpy as np


def sweep_blocks(x, col_sq, beta, gamma_mask, residual, sigma_sq, c, t_n, uniforms, normals) -> int:
    """Update every block j = 0..p-1 in place; returns the new model size."""
    p = x.shape[1]
    k = int(np.count_nonzero(gamma_mask))
    inv_c = 1.0 / c
    half_log_c = 0.5 * math.log(c)

    for j in range(p):
        col = x[:, j]
        if k - (1 if gamma_mask[j] else 0) == t_n:
            if gamma_mask[j]:
                residual += col * beta[j]
                beta[j] = 0.0
                gamma_mask[j] = 0
                k -= 1
            continue

        u = float(residual @ col) + beta[j] * col_sq[j]
        if not math.isfinite(u):
            raise FloatingPointError(f"non-finite u at coordinate {j}")

        v2 = col_sq[j] + inv_c
        log_theta = -half_log_c - 0.5 * math.log(v2) + u * u / (2.0 * sigma_sq * v2)
        if log_theta >= 0.0:
            e = math.exp(-log_theta)
            p0 = e / (1.0 + e)
        else:
            p0 = 1.0 / (1.0 + math.exp(log_theta))

        if uniforms[j] < p0:
            b_new = 0.0
            if gamma_mask[j]:
                gamma_mask[j] = 0
                k -= 1
        else:
            b_new = u / v2 + math.sqrt(sigma_sq / v2) * normals[j]
            if not gamma_mask[j]:
                gamma_mask[j] = 1
                k += 1

        diff = b_new - beta[j]
        if diff != 0.0:
            residual -= col * diff
            beta[j] = b_new

    return k


def active_kernel_name() -> str:
    """Name of the sweep kernel, recorded in perfbench trace files."""
    return "python"
