"""Pathwise integrals as partition-limit Riemann sums.

The central object is the non-anticipative sum

    S_n(t) = sum_i  grad F(t_i, state_i) . (x(t_{i+1} ^ t) - x(t_i ^ t))

where ``state_i`` is the piecewise-constant approximation of the path along
level n, frozen at the left limit of t_i and vertically shifted by the jump
at t_i.  The current value of that composite state is exactly x(t_i), which
is what makes the batched fast path on built-in functionals legitimate: when
the gradient depends on the path only through (t, omega(t)) both routes
produce the same numbers (tested).

Also here: the residuals of the change-of-variable identity, in its
functional form and in Follmer's classical form f(x(t)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convergence import ConvergenceConfig, assess
from .partitions import refine_onto
from .paths import StoppedPath, stepwise_approximation, stop
from .quadvar import (
    _cell_index,
    _continuous_qv_increments,
    _level_sums,
    qv_along,
    qv_matrix,
)


def _truncated_dot_sums(x, li, g, probe_idx):
    """S_n at probe grid indices.  ``g``: integrand rows per level cell."""
    lx = x[li]
    a = np.diff(lx, axis=0)
    prefix = np.concatenate(([0.0], np.cumsum(np.sum(g * a, axis=1))))
    jstar = _cell_index(li, probe_idx)
    safe = np.minimum(jstar, g.shape[0] - 1)
    boundary = np.sum(g[safe] * (x[probe_idx] - lx[jstar]), axis=1)
    return prefix[jstar] + np.where(jstar >= g.shape[0], 0.0, boundary)


def follmer_integrand(F, path, seq, n):
    """Gradient rows of F at the level-n summation states: the frozen left
    limit perturbed by the jump at each grid time t_i, so that the current
    value is x(t_i) (the composite argument of the cadlag summation)."""
    level = seq.level(n)
    li = path.grid_indices(level)
    m = level.size - 1
    if F.pointwise_grad is not None:
        g = np.asarray(F.pointwise_grad(level[:-1], path.values[li[:-1]], path.T), dtype=float)
        return g.reshape(m, path.dim)
    xn = stepwise_approximation(path, seq, n)
    g = np.empty((m, path.dim))
    for i in range(m):
        t_i = float(level[i])
        g[i] = F.gradient(StoppedPath(xn, t_i, t_i, path.values[li[i]]))
    return g


@dataclass
class IntegralReport:
    probe_times: np.ndarray
    levels: list
    sums: dict
    limit: np.ndarray
    converged: bool
    convergence_metric: float
    integrand_kind: str
    refined: bool = False
    # level -> integrand rows the sums were built from; not serialised
    integrands: dict = field(default_factory=dict, repr=False)


def _make_report(path, seq, probes, levels, integrand_at, kind, config):
    """Report of the sums of ``integrand_at(seq, n, li)`` rows against the
    path's increments, on the sequence refined onto the jump times."""
    integrands = {}

    def level_sum(seq, n, li, probe_idx):
        integrands[n] = integrand_at(seq, n, li)
        return _truncated_dot_sums(path.values, li, integrands[n], probe_idx)

    _, refined, probes, sums = _level_sums(path, seq, probes, levels, level_sum)
    levels = sorted(sums)
    limit = sums[levels[-1]]
    scale = max(float(np.max(np.abs(limit))), 1e-300)
    converged, metric = assess(sums, scale, config)
    return IntegralReport(
        probe_times=probes,
        levels=levels,
        sums=sums,
        limit=limit,
        converged=converged,
        convergence_metric=metric,
        integrand_kind=kind,
        refined=refined,
        integrands=integrands,
    )


def _gradient_rows(F, path):
    """The level-n gradient rows ``rows(seq, n, li)`` of F: a pointwise gradient
    is evaluated once, at every grid time before T, and each level reads the
    rows of its cell starts; otherwise they come from :func:`follmer_integrand`."""
    if F.pointwise_grad is None:
        return lambda seq, n, li: follmer_integrand(F, path, seq, n)
    g = np.asarray(
        F.pointwise_grad(path.times[:-1], path.values[:-1], path.T), dtype=float
    ).reshape(path.times.size - 1, path.dim)
    return lambda seq, n, li: g[li[:-1]]


def follmer_integral_functional(F, path, seq, probes=None, levels=None, config=None):
    """Riemann sums of grad F against the path, per level."""
    F.require_dim(path)
    rows = _gradient_rows(F, path)
    return _make_report(path, seq, probes, levels, rows, "functional-gradient", config)


def follmer_integral_cylinder(f_prime, path, seq, probes=None, levels=None, config=None):
    """Riemann sums of f'(x(t_i)) . increments; the integrand reads the
    path value at the cell's left endpoint (never ahead of it).

    This is the integral of Follmer's classical change-of-variable formula,
    whose residual :func:`ito_residual_cylinder` reports (acceptance
    criterion 4) from the same left-endpoint sum on the finest level."""
    def integrand(_seq, _n, li):
        pts = path.values[li[:-1]]
        if path.dim == 1:
            try:
                vals = np.asarray(f_prime(pts[:, 0]), dtype=float)
                if vals.shape != (pts.shape[0],):
                    raise TypeError
            except Exception:
                vals = np.array([float(f_prime(float(v))) for v in pts[:, 0]])
            return vals[:, None]
        return np.array([np.asarray(f_prime(v), dtype=float) for v in pts])

    return _make_report(path, seq, probes, levels, integrand, "cylinder-gradient", config)


# ---------------------------------------------------------------------------
# Change-of-variable residuals
# ---------------------------------------------------------------------------


@dataclass
class ItoReport:
    residual: float
    lhs: float
    initial: float
    follmer_term: float
    drift_term: float
    qv_term: float
    jump_term: float
    qv_converged: bool
    qv_metric: float
    residual_by_level: dict = field(default_factory=dict)


def _qv_flags(path, seq, config):
    """The QV convergence verdict, summed on only the ``window + 1`` finest
    levels: :func:`assess` reads no gap below them."""
    window = (config or ConvergenceConfig()).window
    levels = range(max(seq.num_levels - window - 1, 0), seq.num_levels)
    qv = qv_along if path.dim == 1 else qv_matrix
    rep = qv(path, seq, config=config, levels=levels)
    return rep.converged, rep.convergence_metric


def _time_ordered_sum(terms):
    """0.0 + terms[0] + terms[1] + ... like ``+=`` (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _ito_report(path, seq, levels, rows, lhs, initial, drift, hess, jump_term, config):
    """Residuals of a change-of-variable form from its own terms: ``hess`` at the
    finest cell starts in the form's limit convention, ``rows`` as from
    :func:`_gradient_rows`, ``seq`` refined onto the jumps."""
    if levels is None:
        levels = [seq.top]
    if len(levels) == 0:
        raise ValueError("levels must list at least one level")
    dqv = _continuous_qv_increments(path, seq)
    qv_term = _time_ordered_sum(0.5 * np.trace(np.matmul(hess, dqv), axis1=1, axis2=2))
    qv_ok, qv_metric = _qv_flags(path, seq, config)
    residual_by_level = {}
    for n in sorted(levels):
        li = path.grid_indices(seq.level(n))
        follmer = float(np.sum(rows(seq, n, li) * np.diff(path.values[li], axis=0)))
        residual_by_level[n] = abs(lhs - (initial + follmer + drift + qv_term + jump_term))
    return ItoReport(  # the loop ends on the finest listed level
        residual=residual_by_level[n],
        lhs=lhs,
        initial=initial,
        follmer_term=follmer,
        drift_term=drift,
        qv_term=qv_term,
        jump_term=jump_term,
        qv_converged=qv_ok,
        qv_metric=qv_metric,
        residual_by_level=residual_by_level,
    )


def ito_residual_functional(F, path, seq, levels=None, config=None):
    """Gap between F(T, x_T) and the four-term right-hand side of the
    functional change-of-variable identity.

    ``levels`` lists the Riemann-sum levels (default: the finest); the time
    integral, the quadratic term and the jump sum always use the finest
    grid, so they are computed once and only the non-anticipative sum is
    redone per level, which exposes how those sums close the identity.
    ``residual_by_level`` holds every listed level's residual; ``residual``
    and ``follmer_term`` are those of the finest listed level.  Time
    integrals use the left endpoint; both the drift and the second
    derivative read the left-stopped path.  A non-converged quadratic
    variation does not abort the computation - it is reported alongside.
    """
    F.require_dim(path)
    seq, _ = refine_onto(seq, path.jump_times)
    lhs = F.value(stop(path, path.T))
    initial = F.value(stop(path, 0.0))

    fine = seq.level(seq.top)
    left = path.values[path.grid_indices(fine)[:-1]]  # x(t_k-) at each cell start
    for tj, dlt in path.jumps:
        if tj < path.T:  # a jump at T starts no cell
            left[np.searchsorted(fine, tj)] -= dlt
    horiz = np.empty(left.shape[0])
    hess = np.empty((left.shape[0], path.dim, path.dim))
    for k in range(left.shape[0]):
        sp = StoppedPath(path, fine[k], fine[k], left[k])
        horiz[k] = F.horizontal(sp)
        hess[k] = F.hessian(sp)
    drift = _time_ordered_sum(horiz * np.diff(fine))

    jump_term = 0.0
    for tj, dlt in path.jumps:
        left = stop(path, tj, side="left")
        right = stop(path, tj, side="right")
        jump_term += F.value(right) - F.value(left) - float(F.gradient(left) @ dlt)
    return _ito_report(path, seq, levels, _gradient_rows(F, path), lhs, initial, drift,
                       hess, jump_term, config)


def ito_residual_cylinder(f, f_prime, f_second, path, seq, config=None):
    """Classical form: f(x(T)) against integral, quadratic and jump terms.

    The second-derivative integrand reads the right limit x(s), matching the
    decomposition in which the jump correction omits the second-order term.
    The Riemann sum is taken on the finest level.
    """
    seq, _ = refine_onto(seq, path.jump_times)
    d = path.dim

    def as_vec(v):
        return np.asarray(v, dtype=float).reshape(d)

    def arg(v):
        return float(v[0]) if d == 1 else v

    lhs = float(f(arg(path.values[-1])))
    initial = float(f(arg(path.values[0])))
    fx = path.values[path.grid_indices(seq.level(seq.top))[:-1]]  # x(t_k) at each cell start
    hess = np.array([np.reshape(f_second(arg(v)), (d, d)) for v in fx], dtype=float)

    jump_term = 0.0
    for tj, dlt in path.jumps:
        xr = path.value(tj)
        xl = xr - dlt
        jump_term += (
            float(f(arg(xr))) - float(f(arg(xl))) - float(as_vec(f_prime(arg(xl))) @ dlt)
        )

    def rows(_seq, _n, li):
        return np.array([as_vec(f_prime(arg(v))) for v in path.values[li[:-1]]])

    return _ito_report(path, seq, None, rows, lhs, initial, 0.0, hess, jump_term, config)
