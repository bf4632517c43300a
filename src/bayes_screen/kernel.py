"""The sweep kernel: the per-coordinate (beta_j, gamma_j) block update of
the constrained Gibbs sampler, applied to j = 0..p-1 in turn.

The kernel consumes the pre-drawn variate arrays positionally (uniforms[j]
and normals[j] belong to coordinate j), so a chain's random stream does not
depend on the path it takes.

The update rule is written once, in ``_update_range``. At small p it runs
over every coordinate, as a lean loop: the sweep hands it Python lists of
beta, gamma, ||x_j||^2 and the variates, made once per sweep, and it
walks the rows of ``x.T`` (the columns of the Fortran-ordered x) with one
bound ``residual.dot``. Python floats and numpy float64 scalars round
alike, so this is the same IEEE arithmetic in the same order as indexing
arrays, at less interpreter cost per coordinate. ``residual -= col * diff``
stays two rounded operations; a fused BLAS axpy would change the bits.

At larger p the sweep is screened: most coordinates are excluded and stay
excluded, and for those the rule is a no-op (beta_j stays 0 and the
residual is untouched). One gemv per chunk of columns scores every
excluded coordinate, and a coordinate is skipped only when the scores
prove that the scalar rule would reject it, with a margin that bounds the
rounding of both the gemv and the rule's own dot product. So the screened
sweep returns the same state as the full scan, bit for bit. It runs the
rule on the arrays themselves, one event at a time.
"""

from __future__ import annotations

import math

import numpy as np

# Below this many columns the sweep runs the rule over every coordinate: the
# gemv and the per-chunk vector operations cost more than they save there.
SCREEN_MIN_P = 32
# A chunk starts at CHUNK_MIN columns after each event and doubles on every
# clean chunk, up to CHUNK_MAX.
CHUNK_MIN = 32
CHUNK_MAX = 512
# Slack in log-odds units, relative to the size of the terms, that absorbs
# the rounding of log/exp and of the few products in the rule and the screen.
LOG_SLACK = 1e-9
# Relative slack on p0: the screen proves U_j < p0 * (1 - P0_SLACK), so a
# computed p0 that is a few ulps low still exceeds U_j.
P0_SLACK = 1e-12


def _update_range(x, col_sq, beta, gamma_mask, residual, sigma_sq, c, t_n, uniforms, normals, j0, j1, k) -> int:
    """Apply the block update to j = j0..j1-1 in place, starting from model
    size ``k``; returns the new model size.

    ``col_sq``, ``beta``, ``gamma_mask``, ``uniforms`` and ``normals`` may be
    arrays or Python lists: the rule only indexes them.
    """
    inv_c = 1.0 / c
    half_log_c = 0.5 * math.log(c)
    dot = residual.dot

    for j, col in zip(range(j0, j1), x.T[j0:j1]):
        bj = beta[j]
        if k - (1 if gamma_mask[j] else 0) == t_n:
            if gamma_mask[j]:
                residual += col * bj
                beta[j] = 0.0
                gamma_mask[j] = 0
                k -= 1
            continue

        cj = col_sq[j]
        u = float(dot(col)) + bj * cj
        if not math.isfinite(u):
            raise FloatingPointError(f"non-finite u at coordinate {j}")

        v2 = cj + inv_c
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

        diff = b_new - bj
        if diff != 0.0:
            residual -= col * diff
            beta[j] = b_new

    return k


def sweep_scalar(x, col_sq, beta, gamma_mask, residual, sigma_sq, c, t_n, uniforms, normals) -> int:
    """The unscreened sweep: the rule at every j = 0..p-1; returns the new
    model size. ``sweep_blocks`` gives the same result.

    The rule runs on Python lists made once per sweep, which it indexes
    faster than arrays; ``beta`` and ``gamma_mask`` are written back even
    when the rule raises, so an abort leaves the same partial state.
    """
    b, g = beta.tolist(), gamma_mask.tolist()
    try:
        return _update_range(x, col_sq.tolist(), b, g, residual, sigma_sq, c, t_n,
                             uniforms.tolist(), normals.tolist(), 0, x.shape[1], int(np.count_nonzero(gamma_mask)))
    finally:
        beta[:] = b
        gamma_mask[:] = g


def _reject_thresholds(col_sq, sigma_sq, c, uniforms):
    """q_j such that u_j^2 < q_j, for the rule's own u_j, proves that the
    rule rejects an excluded coordinate j.

    The rule rejects when U_j < p0 = 1 / (1 + exp(log_theta)), that is when
    log_theta < log((1 - U_j) / U_j), where log_theta is
    -log(c)/2 - log(v2_j)/2 + u_j^2 / (2 sigma^2 v2_j). U_j is raised by
    P0_SLACK and the bound lowered by LOG_SLACK; a q_j that is not finite
    (U_j = 0, overflow) is -inf, so that coordinate is always run by the rule.
    """
    v2 = col_sq + 1.0 / c
    half_log_c = 0.5 * math.log(c)
    half_log_v2 = 0.5 * np.log(v2)
    with np.errstate(all="ignore"):
        w = uniforms * (1.0 + P0_SLACK)
        log_odds = np.log((1.0 - w) / w)
        slack = LOG_SLACK * (1.0 + abs(half_log_c) + np.abs(half_log_v2) + np.abs(log_odds))
        q = (log_odds + half_log_c + half_log_v2 - slack) * (2.0 * sigma_sq * v2)
    q[~np.isfinite(q)] = -np.inf
    return q


def sweep_blocks(x, col_sq, beta, gamma_mask, residual, sigma_sq, c, t_n, uniforms, normals) -> int:
    """Update every block j = 0..p-1 in place; returns the new model size.

    Screened when p >= SCREEN_MIN_P. An event is a coordinate that is
    active, or excluded but not provably rejected; the rule runs at each
    event, and the scan resumes after it. While |gamma| == t_n every
    excluded coordinate is forced out, so the scan jumps to the next
    active one.
    """
    n, p = x.shape
    if p < SCREEN_MIN_P:
        return sweep_scalar(x, col_sq, beta, gamma_mask, residual, sigma_sq, c, t_n, uniforms, normals)

    k = int(np.count_nonzero(gamma_mask))
    q = _reject_thresholds(col_sq, sigma_sq, c, uniforms)
    # |fl(x_j'r) - x_j'r| <= g_n |x_j| |r| for any summation order, with
    # g_n = n eps / (1 - n eps), for the gemv and for the rule's dot product
    # alike; twice that bounds their difference, and twice again covers the
    # rounding of the norms. The absolute term covers underflow.
    eps = 2.0**-53
    err = 4.0 * n * eps / (1.0 - n * eps) * np.sqrt(col_sq)
    tiny = 4.0 * n * 2.0**-1074
    # coordinates where beta_j != 0 run the rule too, though gamma_j = 0
    active = np.flatnonzero((gamma_mask != 0) | (beta != 0.0))
    a = 0  # active[a] is the next active coordinate at or after j
    r_norm = math.sqrt(float(residual @ residual))

    j = 0
    chunk = CHUNK_MIN
    while j < p:
        nxt = int(active[a]) if a < len(active) else p
        event = nxt
        if k != t_n and j < nxt:
            end = min(j + chunk, nxt)
            u = x[:, j:end].T @ residual
            bound = np.abs(u) + (err[j:end] * r_norm + tiny)
            open_ = np.flatnonzero(~(bound * bound < q[j:end]))
            if open_.size == 0:
                j = end
                chunk = min(2 * chunk, CHUNK_MAX)
                continue
            event = j + int(open_[0])
        if event >= p:
            break
        if event == nxt:
            a += 1
        b_old = beta[event]
        k = _update_range(x, col_sq, beta, gamma_mask, residual, sigma_sq, c, t_n, uniforms, normals,
                          event, event + 1, k)
        if beta[event] != b_old:
            r_norm = math.sqrt(float(residual @ residual))
        j = event + 1
        chunk = CHUNK_MIN
    return k


def active_kernel_name() -> str:
    """Name of the sweep kernel, recorded in perfbench trace files."""
    return "python"
