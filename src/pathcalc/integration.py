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

from .convergence import assess
from .functionals import CapabilityError
from .partitions import refine_onto
from .paths import StoppedPath, stepwise_approximation, stop
from .quadvar import (
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
    jstar = np.searchsorted(li, probe_idx, side="right") - 1
    safe = np.minimum(jstar, g.shape[0] - 1)
    boundary = np.sum(g[safe] * (x[probe_idx] - lx[jstar]), axis=1)
    return prefix[jstar] + np.where(jstar >= g.shape[0], 0.0, boundary)


def follmer_integrand(F, path, seq, n, mode="cadlag", allow_fd=True, bump=None):
    """Gradient rows of F at the level-n summation states.

    ``mode='cadlag'`` perturbs the frozen left limit by the jump at each
    grid time (the composite argument of the cadlag summation); for a
    continuous path both modes coincide.
    """
    level = seq.level(n)
    li = path.grid_indices(level)
    m = level.size - 1
    if F.pointwise_grad is not None:
        ts = level[:-1]
        if mode == "cadlag":
            s = path.values[li[:-1]]
        else:
            s = np.array([path.left_limit(t) for t in level[:-1]])
        g = np.asarray(F.pointwise_grad(ts, s, path.T), dtype=float)
        return g.reshape(m, path.dim)
    xn = stepwise_approximation(path, seq, n)
    g = np.empty((m, path.dim))
    for i in range(m):
        t_i = float(level[i])
        if mode == "cadlag":
            current = path.values[li[i]]
        else:
            current = path.left_limit(t_i)
        state = StoppedPath(xn, t_i, t_i, current)
        g[i] = F.gradient(state, allow_fd=allow_fd, bump=bump)
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


def follmer_integral_functional(
    F, path, seq, probes=None, levels=None, mode="cadlag",
    config=None, allow_fd=True, bump=None,
):
    """Riemann sums of grad F against the path, per level."""
    F.require_dim(path)
    if F.pointwise_grad is None and not (F.has_gradient or allow_fd):
        raise CapabilityError(f"{F.name} provides no vertical gradient")
    return _make_report(
        path, seq, probes, levels,
        lambda seq, n, li: follmer_integrand(F, path, seq, n, mode, allow_fd, bump),
        "functional-gradient", config,
    )


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
    rep = qv_along(path, seq, config=config) if path.dim == 1 else qv_matrix(
        path, seq, config=config
    )
    return rep.converged, rep.convergence_metric


def ito_residual_functional(
    F, path, seq, levels=None, config=None, allow_fd=True, bump=None, step=None,
):
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
    if levels is None:
        levels = [seq.top]
    if len(levels) == 0:
        raise ValueError("levels must list at least one level")
    lhs = F.value(stop(path, path.T))
    initial = F.value(stop(path, 0.0))

    fine = seq.level(seq.top)
    dt = np.diff(fine)
    dqv = _continuous_qv_increments(path, seq)
    drift = 0.0
    qv_term = 0.0
    for k in range(fine.size - 1):
        sp = stop(path, float(fine[k]), side="left")
        drift += F.horizontal(sp, allow_fd=allow_fd, step=step) * dt[k]
        hess = F.hessian(sp, allow_fd=allow_fd, bump=bump)
        qv_term += 0.5 * float(np.trace(hess @ dqv[k]))

    jump_term = 0.0
    for tj, dlt in path.jumps:
        left = stop(path, tj, side="left")
        right = stop(path, tj, side="right")
        grad_left = F.gradient(left, allow_fd=allow_fd, bump=bump)
        jump_term += F.value(right) - F.value(left) - float(grad_left @ dlt)

    qv_ok, qv_metric = _qv_flags(path, seq, config)
    residual_by_level = {}
    for n in sorted(levels):
        g = follmer_integrand(F, path, seq, n, "cadlag", allow_fd, bump)
        lx = path.values[path.grid_indices(seq.level(n))]
        follmer = float(np.sum(g * np.diff(lx, axis=0)))
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


def ito_residual_cylinder(f, f_prime, f_second, path, seq, level=None, config=None):
    """Classical form: f(x(T)) against integral, quadratic and jump terms.

    The second-derivative integrand reads the right limit x(s), matching the
    decomposition in which the jump correction omits the second-order term.
    ``level`` selects the Riemann-sum level as in the functional form.
    """
    seq, _ = refine_onto(seq, path.jump_times)
    if level is None:
        level = seq.top
    d = path.dim

    def as_vec(v):
        return np.asarray(v, dtype=float).reshape(d)

    def as_mat(v):
        return np.asarray(v, dtype=float).reshape(d, d)

    def arg(v):
        return float(v[0]) if d == 1 else v

    lhs = float(f(arg(path.values[-1])))
    initial = float(f(arg(path.values[0])))

    sum_grid = seq.level(level)
    lx = path.values[path.grid_indices(sum_grid)]
    a = np.diff(lx, axis=0)
    g = np.array([as_vec(f_prime(arg(v))) for v in lx[:-1]])
    follmer_term = float(np.sum(g * a))

    fine = seq.level(seq.top)
    fx = path.values[path.grid_indices(fine)]
    dqv = _continuous_qv_increments(path, seq)
    qv_term = 0.0
    for k in range(fine.size - 1):
        hess = as_mat(f_second(arg(fx[k])))
        qv_term += 0.5 * float(np.trace(hess @ dqv[k]))

    jump_term = 0.0
    for tj, dlt in path.jumps:
        xr = path.value(tj)
        xl = xr - dlt
        jump_term += (
            float(f(arg(xr))) - float(f(arg(xl))) - float(as_vec(f_prime(arg(xl))) @ dlt)
        )

    qv_ok, qv_metric = _qv_flags(path, seq, config)
    rhs = initial + follmer_term + qv_term + jump_term
    return ItoReport(
        residual=abs(lhs - rhs),
        lhs=lhs,
        initial=initial,
        follmer_term=follmer_term,
        drift_term=0.0,
        qv_term=qv_term,
        jump_term=jump_term,
        qv_converged=qv_ok,
        qv_metric=qv_metric,
    )


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
