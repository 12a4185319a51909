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

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .convergence import assess, verdict
from .partitions import (
    _equal, blocks, cell_index, merge_times, refine_onto, require_count, require_finite, strictly_increasing)
from .paths import _running_sums


def default_probe_times(seq, path, probe_level=6):
    """Level-``probe_level`` grid plus the path's jump times."""
    return merge_times(seq.level(min(probe_level, seq.top)), path.times[path.jump_index])


def _running_sums_at(terms, m, cells):
    """``np.concatenate(([0.0], np.cumsum(t)))[cells]`` for m terms t and the
    sorted ``cells`` in 0..m, bit for bit, with no (m+1)-float buffer:
    ``terms(a, b)`` returns t[a:b] as a new array, and each block of terms is
    summed in place after its first term takes the last sum of the block
    before (the first block takes none, so a sum of -0.0 terms stays -0.0)."""
    out = np.zeros(len(cells))
    for a, b in blocks(m):
        run = terms(a, b)
        if a:
            run[0] += last
        run.cumsum(out=run)
        last = run[-1]
        lo, hi = cells.searchsorted((a + 1, b + 1))
        out[lo:hi] = run[cells[lo:hi] - (a + 1)]
        del run  # before the next block is made
    return out


def _truncated_sq_sums(x, li, probe_idx, y=None):
    """A_n at probe grid indices for one scalar coordinate: ``x``, or ``x + y``
    added a block at a time, so that no grid-sized sum is formed.

    ``x``, ``y``: finest-grid values; ``li``: level-time positions in the
    finest grid; ``probe_idx``: sorted finest-grid positions of the probe times.
    """
    lx, ly = x[li], (None if y is None else y[li])

    def coordinate(u, v, rows):
        return u[rows] if v is None else u[rows] + v[rows]

    def squared_increments(a, b):
        if ly is None:
            inc = lx[a + 1:b + 1] - lx[a:b]
        else:  # the increments overwrite the block of sums they are taken from
            level = lx[a:b + 1] + ly[a:b + 1]
            inc = np.subtract(level[1:], level[:-1], out=level[:-1])
        inc *= inc
        return inc

    jstar = cell_index(li, probe_idx)
    with np.errstate(over="ignore"):  # a sum past the float range is named below
        prefix = _running_sums_at(squared_increments, lx.size - 1, jstar)
        sums = prefix + (coordinate(x, y, probe_idx) - coordinate(lx, ly, jstar)) ** 2
    return _finite_sq_sums(sums, lx.size - 1)


def _finite_sq_sums(sums, cells):
    """``sums``, squared-increment sums along a level of ``cells`` cells, once they are finite."""
    if not np.isfinite(sums).all():
        raise ValueError(f"the squared increments along a level of {cells} cells sum past the largest float")
    return sums


def _polarized_sq_sums(values, li, probe_idx):
    """(probes, d, d) level sums: each coordinate's squared-increment sum on
    the diagonal, and off it half the excess of the sum of x_i + x_j over
    the sums of x_i and x_j."""
    d = values.shape[1]
    out = np.empty((len(values[probe_idx]), d, d))
    for i in range(d):
        out[:, i, i] = _truncated_sq_sums(values[:, i], li, probe_idx)
    for i, j in combinations(range(d), 2):
        pair = _truncated_sq_sums(values[:, i], li, probe_idx, values[:, j])
        out[:, i, j] = out[:, j, i] = 0.5 * (pair - out[:, i, i] - out[:, j, j])
    return out


def _qv_scale(path):
    """``max(range ** 2, 1e-300)`` of the path's widest coordinate range: the QV
    verdicts' scale, once neither that range nor a jump size has a square that overflows."""
    big = np.sqrt(np.finfo(float).max)  # the largest float with a finite square
    ptp = float(np.max(np.ptp(path.values, axis=0)))
    if not ptp <= big:
        raise ValueError(f"path values range over {ptp!r}, whose square, the QV scale, overflows")
    jump = float(np.max(np.abs(path.jump_sizes), initial=0.0))
    if not jump <= big:
        raise ValueError(f"a path jump of size {jump!r} has a square that overflows")
    return max(ptp ** 2, 1e-300)


def _continuous_qv_increments(path, seq):
    """d[x]^c between consecutive top-level times, as (m, d, d) outer
    products of the increments with the exact jump mass removed."""
    _qv_scale(path)  # names a range or a jump whose squares overflow, before any is taken
    li = path.grid_indices(seq.level(seq.top))
    a = np.diff(path.values[li], axis=0)
    out = a[:, :, None] * a[:, None, :]
    # cell (t_k, t_{k+1}] holds the jump; ufunc.at subtracts two jumps in one
    # cell in time order
    dx = path.jump_sizes
    np.subtract.at(out, cell_index(li, path.jump_index - 1), dx[:, :, None] * dx[:, None, :])
    return out


def _check_horizon(seq, path):
    if seq.T != path.T:
        raise ValueError(f"the partition horizon {seq.T} is not the path's horizon {path.T}")


def _check_two_levels(seq):
    if seq.num_levels < 2:
        raise ValueError("need at least two levels to talk about a limit")


_Run = namedtuple("_Run", "path seq refined probes probe_idx each")  # read by every sum of one call


def _level_sums(path, seq, probes=None):
    """The one check-and-refine step, made once by each library call ahead of
    all its partition sums: checks the probe times (by default
    :func:`default_probe_times`) and that ``seq`` spans the path's horizon with
    at least two levels, refines ``seq`` onto the path's jump times and maps the
    probes onto the path grid.  ``each(levels)`` checks ``levels`` (all by
    default) and yields ``(n, li)``, level n mapped onto the path grid only when
    a sum reaches it (as the sequence places it in its top, when the path's
    times equal that top)."""
    if probes is None:
        probes = default_probe_times(seq, path)
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 1 or probes.size == 0:
        raise ValueError(f"probe times must be a non-empty list of times, got shape {probes.shape}")
    require_finite(probes, "probe times")
    if not strictly_increasing(probes):
        raise ValueError("probe times must be strictly increasing")
    _check_horizon(seq, path)
    _check_two_levels(seq)
    try:
        seq, refined = refine_onto(seq, path.jump_times)
    except ValueError as exc:  # the refined levels fail a dense sequence's mesh check
        raise ValueError(f"partition refined onto the path's {len(path.jump_times)} jump times: {exc}") from None
    top = seq.level(seq.top)
    on_top = seq.nested and path.times.size == top.size and _equal(path.times, top)

    def each(levels=None):
        levels = range(seq.num_levels) if levels is None else levels
        if len(levels) == 0:
            raise ValueError("levels must list at least one level")
        return ((n, seq.positions(n) if on_top else path.grid_indices(seq.level(n))) for n in levels)

    return _Run(path, seq, refined, probes, path.grid_indices(probes), each)


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


def _qv_sums(run, config, levels=None):
    """``(approx, scale, (converged, metric))`` of the polarization QV along
    ``levels`` of ``run`` (all by default), its level sums (probes,) arrays on
    a scalar path."""
    path = run.path
    scale = _qv_scale(path)
    approx = {n: _polarized_sq_sums(path.values, li, run.probe_idx) for n, li in run.each(levels)}
    if path.dim == 1:
        approx = {n: a[:, 0, 0] for n, a in approx.items()}
    return approx, scale, assess(approx, scale, config)


def _qv(path, seq, probe_times, config):
    """Polarization QV report of a d-dimensional path; a scalar path is the
    1x1 case, reported with (probes,) arrays."""
    d = path.dim
    run = _level_sums(path, seq, probe_times)
    approx, scale, (converged, metric) = _qv_sums(run, config)
    # sum_{s <= t} dx(s) dx(s)^T: a running sum over the jumps in time order,
    # read at the count of jumps up to t.
    dx = path.jump_sizes
    running = _running_sums(dx[:, :, None] * dx[:, None, :])
    jump = running[np.searchsorted(path.times[path.jump_index], run.probes, "right")]
    if d == 1:
        jump = jump[:, 0, 0]
    levels = sorted(approx)
    limit = approx[levels[-1]]
    return QVReport(
        probe_times=run.probes,
        levels=levels,
        approx=approx,
        limit=limit,
        continuous_part=limit - jump,
        jump_part=jump,
        converged=converged,
        convergence_metric=metric,
        scale=scale,
        refined=run.refined,
        dim=d,
    )


def qv_along(path, seq, probe_times=None, config=None):
    """Squared-increment sums of a scalar path along every level.

    The report carries per-level values at the probe times, the finest
    level as the limit estimate, the exact jump part and the
    continuous remainder, plus the shared Cauchy convergence verdict.
    """
    if path.dim != 1:
        raise ValueError("qv_along expects a scalar path; use qv_matrix for d > 1")
    return _qv(path, seq, probe_times, config)


def qv_matrix(path, seq, probe_times=None, config=None):
    """Matrix quadratic variation for d >= 2 coordinates.

    Diagonal entries are the scalar sums of each coordinate; off-diagonals
    come from the polarization of pairwise sums, which makes the matrix
    symmetric by construction.
    """
    if path.dim < 2:
        raise ValueError("qv_matrix expects at least two coordinates")
    return _qv(path, seq, probe_times, config)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------

DP_POINT_LIMIT = 4096


def p_variation(path, p):
    """p-variation of a scalar path.

    Solves the sup over all subsets of sample points by an O(n^2) dynamic
    program (grids up to 4096 points).  p < 1 is rejected: the sup
    degenerates under refinement there; so are NaN and infinity.
    """
    if path.dim != 1:
        raise ValueError("p_variation expects a scalar path")
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p!r}")
    v = path.values[:, 0]
    n = v.size
    if n > DP_POINT_LIMIT:
        raise ValueError(f"p_variation is limited to {DP_POINT_LIMIT} points, got {n}")
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
    inside = level[level.searchsorted(u, "right"):level.searchsorted(v, "left")]  # a view
    kappa = np.concatenate(([u], inside, [v]))
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
    _check_horizon(seq, path)
    _check_two_levels(seq)
    per_level = {}
    top_values = []
    cauchy_gaps = []
    additivity_gaps = []
    top = seq.level(seq.top)
    for k, (s, t) in enumerate(intervals):
        sums = [_interval_sq_sum(path, seq.level(n), s, t) for n in range(seq.num_levels)]
        per_level[k] = sums
        top_values.append(sums[-1])
        cauchy_gaps.append(abs(sums[-1] - sums[-2]))
        mid_idx = path.index_at((s + t) / 2.0)
        mid = float(path.times[mid_idx])
        if s < mid < t:
            split = (
                _interval_sq_sum(path, top, s, mid)
                + _interval_sq_sum(path, top, mid, t)
                - sums[-1]
            )
            additivity_gaps.append(split)
        else:
            additivity_gaps.append(0.0)
    jump_checks = []
    prevs = path.times[path.jump_index - 1].tolist()
    for tj, prev, d in zip(path.jump_times, prevs, path.jump_sizes[:, 0].tolist()):
        est = _interval_sq_sum(path, top, prev, tj)
        exact = d * d
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
    the truncated and untruncated conventions at ``2 * n_boundary_samples``
    seeded sample times.  The sums at every grid time are held one level at a
    time, beside the top level's."""
    if not seq.nested:
        raise ValueError("the uniform form requires a nested sequence")
    if path.dim != 1:
        raise ValueError("vovk_uniform_check expects a scalar path")
    _check_horizon(seq, path)
    _check_two_levels(seq)
    require_count(n_boundary_samples, "n_boundary_samples", 0)
    x = path.values[:, 0]
    scale = _qv_scale(path)
    every = slice(0, x.size)  # the sums at every grid time
    top = _truncated_sq_sums(x, path.grid_indices(seq.level(seq.top)), every)
    rng = np.random.default_rng(0)
    samples = list(rng.uniform(0.0, path.T, size=n_boundary_samples))
    samples += [float(path.times[k]) for k in
                rng.integers(0, path.times.size, size=n_boundary_samples)]
    sample_idx = [path.index_at(t) for t in samples]
    sup_gaps = []
    boundary = np.empty((len(samples), seq.num_levels))  # each sample's gap at each level
    for n in range(seq.num_levels):
        level = seq.level(n)
        li = path.grid_indices(level)
        trunc = top if n == seq.top else _truncated_sq_sums(x, li, every)
        sup_gaps.append(float(np.max(np.abs(trunc - top))))
        lx = x[li]
        a = np.diff(lx)
        for k, (t, it) in enumerate(zip(samples, sample_idx)):
            kbar = min(int(np.searchsorted(level, t, side="right")) - 1, level.size - 2)
            untrunc = float(np.sum(a[: kbar + 1] ** 2))
            rhs = (x[it] - lx[kbar]) ** 2 - (lx[kbar + 1] - lx[kbar]) ** 2
            boundary[k, n] = abs((float(trunc[it]) - untrunc) - rhs)
        del trunc, a  # before the next level is summed
    uniform = verdict(sup_gaps[:-1], scale)
    # Python's max from 0.0, sample by sample: it passes over a NaN
    boundary_gap = max((0.0, *boundary.flat))
    return VovkReport(
        levels=list(range(seq.num_levels)),
        sup_gaps=sup_gaps,
        uniform=uniform,
        boundary_max_gap=boundary_gap,
        scale=scale,
    )
