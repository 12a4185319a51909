"""Quadratic variation along a partition sequence, with the
continuous/jump decomposition, the polarization matrix for several
coordinates, p-variation, and the alternative interval / uniform forms used
for cross-equivalence checks.

All level sums use the t-truncated convention

    A_n(t) = sum_i (x(t_{i+1} ^ t) - x(t_i ^ t))^2

which is defined for every t; the classical sum over t_i <= t of full
increments differs from it by two incomplete-cell terms only (an exact
algebraic identity checked in :func:`vovk_uniform_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .convergence import ConvergenceConfig, assess
from .partitions import refine_onto


def default_probe_times(seq, path=None, probe_level=6):
    """Level-``probe_level`` grid plus the path's jump times."""
    jumps = () if path is None else path.jump_times
    return np.union1d(seq.level(min(probe_level, seq.top)), jumps)


def _cell_index(li, probe_idx):
    """Cell j of each grid index p in ``[0, li[-1]]``: ``li[j] <= p <
    li[j+1]``, and j = m at ``p = li[m]``.  It is ``p // k`` when ``li`` is
    ``arange(0, k * li.size, k)`` and there are no fewer probes than level
    times (checking the stride costs more than a search over few probes)."""
    m = li.size - 1
    if probe_idx.size > m:
        k = li[-1] // m
        if np.array_equal(li, np.arange(0, k * li.size, k)):
            return probe_idx // k
    return np.searchsorted(li, probe_idx, side="right") - 1


def _truncated_sq_sums(x, li, probe_idx):
    """A_n at probe grid indices for one scalar coordinate.

    ``x``: finest-grid values; ``li``: level-time indices into the finest
    grid; ``probe_idx``: finest-grid indices of the probe times.
    """
    lx = x[li]
    a = np.diff(lx)
    prefix = np.concatenate(([0.0], np.cumsum(a * a)))
    jstar = _cell_index(li, probe_idx)
    boundary = (x[probe_idx] - lx[jstar]) ** 2
    return prefix[jstar] + boundary


def _polarized_sq_sums(values, li, probe_idx):
    """(probes, d, d) level sums: each coordinate's squared-increment sum on
    the diagonal, and off it half the excess of the sum of x_i + x_j over
    the sums of x_i and x_j."""
    d = values.shape[1]
    out = np.empty((probe_idx.size, d, d))
    for i in range(d):
        out[:, i, i] = _truncated_sq_sums(values[:, i], li, probe_idx)
    for i, j in combinations(range(d), 2):
        pair = _truncated_sq_sums(values[:, i] + values[:, j], li, probe_idx)
        out[:, i, j] = out[:, j, i] = 0.5 * (pair - out[:, i, i] - out[:, j, j])
    return out


def _continuous_qv_increments(path, seq):
    """d[x]^c between consecutive top-level times, as (m, d, d) outer
    products of the increments with the exact jump mass removed."""
    level = seq.level(seq.top)
    a = np.diff(path.values[path.grid_indices(level)], axis=0)
    out = a[:, :, None] * a[:, None, :]
    for tj, dlt in path.jumps:
        k = int(np.searchsorted(level, tj)) - 1  # cell (t_k, t_{k+1}] contains tj
        out[k] -= dlt[:, None] * dlt[None, :]
    return out


def _probe_times(seq, path, probes):
    """``probes`` as a float array (by default :func:`default_probe_times`);
    raises unless they are strictly increasing."""
    if probes is None:
        probes = default_probe_times(seq, path)
    probes = np.asarray(probes, dtype=float)
    if np.any(np.diff(probes) <= 0):
        raise ValueError("probe times must be strictly increasing")
    return probes


def _level_sums(path, seq, probes, levels, level_sum):
    """The one driver of the per-level partition sums read at probe times.

    Refines ``seq`` onto the path's jump times, defaults and checks the
    probes, maps the probes and each level (all by default) onto the path
    grid once, and returns ``(seq, refined, probes, sums)`` with
    ``sums[n] = level_sum(seq, n, li, probe_idx)`` on the refined ``seq``.
    """
    seq, refined = refine_onto(seq, path.jump_times)
    probes = _probe_times(seq, path, probes)
    probe_idx = path.grid_indices(probes)
    if levels is None:
        levels = range(seq.num_levels)
    if len(levels) == 0:
        raise ValueError("levels must list at least one level")
    sums = {
        n: level_sum(seq, n, path.grid_indices(seq.level(n)), probe_idx)
        for n in levels
    }
    return seq, refined, probes, sums


@dataclass
class QVReport:
    probe_times: np.ndarray
    levels: list
    approx: dict
    limit: np.ndarray
    continuous_part: np.ndarray
    jump_part: np.ndarray
    converged: bool
    convergence_metric: float
    scale: float
    refined: bool
    dim: int = 1


def _qv(path, seq, probe_times, config, levels):
    """Polarization QV report of a d-dimensional path; a scalar path is the
    1x1 case, reported with (probes,) arrays."""
    if seq.num_levels < 2:
        raise ValueError("need at least two levels to talk about a limit")
    d = path.dim
    seq, refined, probes, approx = _level_sums(
        path, seq, probe_times, levels,
        lambda _seq, _n, li, probe_idx: _polarized_sq_sums(path.values, li, probe_idx),
    )
    # sum_{s <= t} dx(s) dx(s)^T: a running sum over the jumps in time order
    # (cumsum adds them one at a time), read at the count of jumps up to t.
    dx = np.array([dlt for _, dlt in path.jumps]).reshape(-1, d)
    running = np.cumsum(
        np.concatenate((np.zeros((1, d, d)), dx[:, :, None] * dx[:, None, :])), axis=0
    )
    jump = running[np.searchsorted(np.asarray(path.jump_times, dtype=float), probes, "right")]
    if d == 1:
        approx = {n: a[:, 0, 0] for n, a in approx.items()}
        jump = jump[:, 0, 0]
    levels = sorted(approx)
    limit = approx[levels[-1]]
    scale = max(float(np.max(np.ptp(path.values, axis=0))) ** 2, 1e-300)
    converged, metric = assess(approx, scale, config)
    return QVReport(
        probe_times=probes,
        levels=levels,
        approx=approx,
        limit=limit,
        continuous_part=limit - jump,
        jump_part=jump,
        converged=converged,
        convergence_metric=metric,
        scale=scale,
        refined=refined,
        dim=d,
    )


def qv_along(path, seq, probe_times=None, config=None, levels=None):
    """Squared-increment sums of a scalar path along the listed levels
    (default: every level).

    The report carries per-level values at the probe times, the finest
    listed level as the limit estimate, the exact jump part and the
    continuous remainder, plus the shared Cauchy convergence verdict.
    """
    if path.dim != 1:
        raise ValueError("qv_along expects a scalar path; use qv_matrix for d > 1")
    return _qv(path, seq, probe_times, config, levels)


def qv_matrix(path, seq, probe_times=None, config=None, levels=None):
    """Matrix quadratic variation for d >= 2 coordinates.

    Diagonal entries are the scalar sums of each coordinate; off-diagonals
    come from the polarization of pairwise sums, which makes the matrix
    symmetric by construction.
    """
    if path.dim < 2:
        raise ValueError("qv_matrix expects at least two coordinates")
    return _qv(path, seq, probe_times, config, levels)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------

DP_POINT_LIMIT = 4096


def p_variation(path, p):
    """p-variation of a scalar path.

    Solves the sup over all subsets of sample points by an O(n^2) dynamic
    program (grids up to 4096 points).  p < 1 is rejected: the sup
    degenerates under refinement there.
    """
    if path.dim != 1:
        raise ValueError("p_variation expects a scalar path")
    if p < 1:
        raise ValueError("p must be >= 1")
    v = path.values[:, 0]
    n = v.size
    if n > DP_POINT_LIMIT:
        raise ValueError(
            f"p_variation is limited to {DP_POINT_LIMIT} points, got {n}"
        )
    best = np.zeros(n)
    for j in range(1, n):
        best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** p)
    return float(best[-1])


# ---------------------------------------------------------------------------
# Interval (Norvaisa) and uniform (Vovk) forms
# ---------------------------------------------------------------------------


@dataclass
class NorvaisaReport:
    intervals: list
    per_level: dict
    top_values: list
    cauchy_gaps: list
    jump_checks: list
    additivity_gaps: list


def _interval_grid(path, level, u, v):
    """Knots of the ``level`` grid restricted to [u, v] with both endpoints
    added, and the scalar path's values there, read with the step
    convention of :meth:`SampledPath.value`."""
    if not 0 <= u < v <= path.T:
        raise ValueError(f"bad interval [{u}, {v}]")
    kappa = np.concatenate(([u], level[(level > u) & (level < v)], [v]))
    return kappa, path.values[np.searchsorted(path.times, kappa, side="right") - 1, 0]


def _interval_sq_sum(path, level, s, t):
    """s_2 over (level grid restricted to [s, t]) with both endpoints added."""
    d = np.diff(_interval_grid(path, level, s, t)[1])
    return float(np.sum(d * d))


def norvaisa_qv_check(path, seq, intervals):
    """Interval form of the squared-increment limit on a nested sequence.

    For each [s, t] the report carries the level sums and the top-level
    Cauchy gap; at each path jump the left jump of the limit candidate is
    compared with the squared path jump, and additivity across a midpoint
    split is checked at the top level.
    """
    if not seq.nested:
        raise ValueError("the interval form requires a nested sequence")
    if path.dim != 1:
        raise ValueError("norvaisa_qv_check expects a scalar path")
    per_level = {}
    top_values = []
    cauchy_gaps = []
    additivity_gaps = []
    for k, (s, t) in enumerate(intervals):
        sums = [
            _interval_sq_sum(path, seq.level(n), s, t) for n in range(seq.num_levels)
        ]
        per_level[k] = sums
        top_values.append(sums[-1])
        cauchy_gaps.append(abs(sums[-1] - sums[-2]) if len(sums) > 1 else float("nan"))
        mid_idx = path.index_at((s + t) / 2.0)
        mid = float(path.times[mid_idx])
        if s < mid < t:
            top = seq.level(seq.top)
            split = (
                _interval_sq_sum(path, top, s, mid)
                + _interval_sq_sum(path, top, mid, t)
                - _interval_sq_sum(path, top, s, t)
            )
            additivity_gaps.append(split)
        else:
            additivity_gaps.append(0.0)
    jump_checks = []
    top = seq.level(seq.top)
    for tj, d in path.jumps:
        prev_idx = path.grid_indices([tj])[0] - 1
        prev = float(path.times[prev_idx])
        est = _interval_sq_sum(path, top, prev, tj)
        exact = float(d[0] * d[0])
        jump_checks.append(
            {"time": tj, "left_jump_estimate": est, "squared_jump": exact,
             "gap": est - exact, "right_jump": 0.0}
        )
    return NorvaisaReport(
        intervals=list(intervals),
        per_level=per_level,
        top_values=top_values,
        cauchy_gaps=cauchy_gaps,
        jump_checks=jump_checks,
        additivity_gaps=additivity_gaps,
    )


@dataclass
class VovkReport:
    levels: list
    sup_gaps: list
    uniform: bool
    boundary_max_gap: float
    scale: float


def vovk_uniform_check(path, seq, n_boundary_samples=8):
    """Uniform-in-time comparison of the level sums (default convergence
    config), plus an exact check of the two-incomplete-cell identity linking
    the truncated and untruncated conventions at seeded sample times."""
    if not seq.nested:
        raise ValueError("the uniform form requires a nested sequence")
    if path.dim != 1:
        raise ValueError("vovk_uniform_check expects a scalar path")
    config = ConvergenceConfig()
    x = path.values[:, 0]
    all_idx = np.arange(path.times.size)
    per_level = []
    cells = []
    for n in range(seq.num_levels):
        level = seq.level(n)
        li = path.grid_indices(level)
        per_level.append(_truncated_sq_sums(x, li, all_idx))
        lx = x[li]
        cells.append((level, lx, np.diff(lx)))
    top_vals = per_level[-1]
    sup_gaps = [float(np.max(np.abs(vals - top_vals))) for vals in per_level]
    scale = max(float(np.ptp(x)) ** 2, 1e-300)
    tail = sup_gaps[-(config.window + 1):-1]
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    uniform = monotone and (
        len(sup_gaps) < 2 or sup_gaps[-2] <= config.tol * scale
    )

    rng = np.random.default_rng(0)
    samples = list(rng.uniform(0.0, path.T, size=n_boundary_samples))
    samples += [float(path.times[k]) for k in
                rng.integers(0, path.times.size, size=n_boundary_samples)]
    boundary_gap = 0.0
    for t in samples:
        it = path.index_at(t)
        xt = x[it]
        for (level, lx, a), trunc in zip(cells, per_level):
            kbar = min(int(np.searchsorted(level, t, side="right")) - 1, level.size - 2)
            untrunc = float(np.sum(a[: kbar + 1] ** 2))
            rhs = (xt - lx[kbar]) ** 2 - (lx[kbar + 1] - lx[kbar]) ** 2
            boundary_gap = max(boundary_gap, abs((float(trunc[it]) - untrunc) - rhs))
    return VovkReport(
        levels=list(range(seq.num_levels)),
        sup_gaps=sup_gaps,
        uniform=uniform,
        boundary_max_gap=boundary_gap,
        scale=scale,
    )
