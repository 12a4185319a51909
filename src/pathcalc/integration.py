"""Pathwise integrals as partition-limit Riemann sums.

The central object is the non-anticipative sum

    S_n(t) = sum_i  grad F(t_i, state_i) . (x(t_{i+1} ^ t) - x(t_i ^ t))

where ``state_i`` is the piecewise-constant approximation of the path along
level n, frozen at the left limit of t_i and vertically shifted by the jump
at t_i.  The current value of that composite state is exactly x(t_i), which
is what makes the batched fast path on built-in functionals legitimate: when
the gradient depends on the path only through (t, omega(t)) both routes
produce the same numbers (tested).

Also here: residuals of the change-of-variable identities (functional and
classical forms) and the left Cauchy interval integral with its chain rule.
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
    _interval_grid,
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
    path value at the cell's left endpoint (never ahead of it)."""
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


# ---------------------------------------------------------------------------
# Left Cauchy interval integral and its chain rule
# ---------------------------------------------------------------------------


@dataclass
class LeftCauchyReport:
    intervals: list
    per_level: dict
    top_values: list
    cauchy_gaps: list
    follmer_gap: float | None = None


def _left_cauchy_sum(phi_v, vals):
    """sum_i phi(g(kappa_i)) (g(kappa_{i+1}) - g(kappa_i)) over knot values."""
    return float(np.sum(phi_v(vals[:-1]) * np.diff(vals)))


def left_cauchy_integral(phi, path, seq, intervals):
    """Interval sums of phi(g(t_i)) (g(t_{i+1}) - g(t_i)) along nested
    levels restricted to each [u, v].  When [0, T] is among the intervals
    the top value is cross-checked against the cylinder Riemann sums."""
    if not seq.nested:
        raise ValueError("the interval integral requires a nested sequence")
    if path.dim != 1:
        raise ValueError("left_cauchy_integral expects a scalar path")
    phi_v = np.vectorize(phi, otypes=[float])
    per_level = {}
    top_values = []
    gaps = []
    follmer_gap = None
    for k, (u, v) in enumerate(intervals):
        sums = [
            _left_cauchy_sum(phi_v, _interval_grid(path, seq.level(n), u, v)[1])
            for n in range(seq.num_levels)
        ]
        per_level[k] = sums
        top_values.append(sums[-1])
        gaps.append(abs(sums[-1] - sums[-2]) if len(sums) > 1 else float("nan"))
        if u == 0.0 and v == path.T:
            rep = follmer_integral_cylinder(
                phi, path, seq, probes=[path.T], levels=[seq.top]
            )
            follmer_gap = abs(float(rep.limit[0]) - sums[-1])
    return LeftCauchyReport(
        intervals=list(intervals),
        per_level=per_level,
        top_values=top_values,
        cauchy_gaps=gaps,
        follmer_gap=follmer_gap,
    )


@dataclass
class ChainRuleReport:
    residual: float
    lhs: float
    lc_term: float
    qv_term: float
    left_jump_sum: float
    right_jump_sum: float


def left_cauchy_chain_rule(Phi, phi, phi_prime, path, seq, interval):
    """Residual of the interval chain rule for Phi (an antiderivative of
    phi) composed with the path, evaluated at the top level.

    The right-jump sum is identically zero for cadlag paths; jumps placed
    exactly at the interval endpoints follow the literal summation ranges
    [u, v) and (u, v].
    """
    u, v = interval
    kappa, vals = _interval_grid(path, seq.level(seq.top), u, v)
    phi_v = np.vectorize(phi, otypes=[float])
    lhs = float(Phi(float(vals[-1]))) - float(Phi(float(vals[0])))
    lc = _left_cauchy_sum(phi_v, vals)
    d2 = np.diff(vals) ** 2
    for tj, dlt in path.jumps:
        if u < tj <= v:
            k = int(np.searchsorted(kappa, tj)) - 1  # cell (kappa_k, kappa_{k+1}] holds tj
            d2[k] -= float(dlt[0]) ** 2
    phi_prime_v = np.vectorize(phi_prime, otypes=[float])
    qv_term = 0.5 * float(np.sum(phi_prime_v(vals[:-1]) * d2))

    left_jump = 0.0
    for tj, dlt in path.jumps:
        if u <= tj < v:
            xr = float(path.value(tj)[0])
            xl = xr - float(dlt[0])
            left_jump += float(Phi(xr)) - float(Phi(xl)) - float(phi(xl)) * (xr - xl)
    right_jump = 0.0  # cadlag: no right jumps
    rhs = lc + qv_term + left_jump + right_jump
    return ChainRuleReport(
        residual=abs(lhs - rhs),
        lhs=lhs,
        lc_term=lc,
        qv_term=qv_term,
        left_jump_sum=left_jump,
        right_jump_sum=right_jump,
    )
