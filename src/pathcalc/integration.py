"""Pathwise integrals as partition-limit Riemann sums.

The central object is the non-anticipative sum

    S_n(t) = sum_i  grad F(t_i, state_i) . (x(t_{i+1} ^ t) - x(t_i ^ t))

where ``state_i`` is the piecewise-constant approximation of the path along
level n, frozen at the left limit of t_i and vertically shifted by the jump
at t_i.  The current value of that composite state is exactly x(t_i), which
is what makes the array route on built-in functionals legitimate: when the
gradient depends on the path only through (t, omega(t)) both routes produce
the same numbers (tested).

Also here: the residuals of the change-of-variable identity, in its
functional form and in Follmer's classical form f(x(t)).  States are read
through ``Functional.at``, the one place that picks the hook or stopped paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convergence import ConvergenceConfig, assess
from .functionals import cylinder
from .partitions import cell_index
from .paths import _running_sums, stepwise_approximation, stop
from .quadvar import _continuous_qv_increments, _level_sums, _qv_sums, _running_sums_at


def _truncated_dot_sums(x, li, g, probe_idx=None):
    """S_n at the sorted probe grid indices, by default at every grid index.
    ``g``: integrand rows per level cell."""
    lx = x[li]
    m = g.shape[0]

    # np.sum(a, axis=1); a one-term sum is 0.0 + t, here taken in place
    row_sums = lambda a: np.sum(a, axis=1) if a.shape[1] > 1 else np.add(a, 0.0, out=a)[:, 0]

    def dot_increments(a, b):
        inc = lx[a + 1:b + 1] - lx[a:b]
        inc *= g[a:b]
        return row_sums(inc)

    if probe_idx is None and m + 1 == len(x):
        # no cell is open on the whole grid; the probe route's partial term
        # g . 0.0 stays, NaN where g is not finite (np.sum makes no -0.0)
        sums = np.concatenate(([0.0], np.cumsum(dot_increments(0, m))))
        sums[:m] += row_sums(g * 0.0)
        return sums
    probe_idx = slice(0, len(x)) if probe_idx is None else probe_idx
    jstar = cell_index(li, probe_idx)
    safe = np.minimum(jstar, m - 1)
    boundary = np.sum(g[safe] * (x[probe_idx] - lx[jstar]), axis=1)
    prefix = _running_sums_at(dot_increments, m, jstar)
    return prefix + np.where(jstar >= m, 0.0, boundary)


def follmer_integrand(F, path, seq, n):
    """Gradient rows of F at the level-n summation states: the frozen left
    limit perturbed by the jump at each grid time t_i, so that the current
    value is x(t_i) (the composite argument of the cadlag summation).  The
    stopped-path route of :func:`_gradient_rows`."""
    level = seq.level(n)
    xn = stepwise_approximation(path, seq, n)
    return F.at(xn, level[:-1], path.values[path.grid_indices(level)][:-1], ("grad",))[0]


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


def _make_report(run, levels, integrand_at, config):
    """Report of the sums of ``integrand_at(seq, n, li)`` rows against the
    path's increments at the probes of ``run``, along its refined sequence."""
    integrands, sums = {}, {}
    for n, li in run.each(levels):
        integrands[n] = integrand_at(run.seq, n, li)
        sums[n] = _truncated_dot_sums(run.path.values, li, integrands[n], run.probe_idx)
    levels = sorted(sums)
    limit = sums[levels[-1]]
    scale = max(float(np.max(np.abs(limit))), 1e-300)
    converged, metric = assess(sums, scale, config)
    return IntegralReport(
        probe_times=run.probes,
        levels=levels,
        sums=sums,
        limit=limit,
        converged=converged,
        convergence_metric=metric,
        integrand_kind="functional-gradient",
        refined=run.refined,
        integrands=integrands,
    )


def _gradient_rows(F, path, g=None):
    """The level-n gradient rows ``rows(seq, n, li)`` of F, and the one place
    that picks their route: a pointwise gradient is evaluated once, at every
    grid time, and each level reads the rows of its cell starts;
    otherwise they come from :func:`follmer_integrand`.
    ``g``: that pointwise gradient, when the caller has evaluated it already."""
    if g is None and F.pointwise is not None:
        (g,) = F.pointwise(path, path.times, path.values, ("grad",))
    if g is None:
        return lambda seq, n, li: follmer_integrand(F, path, seq, n)
    g = np.asarray(g, dtype=float).reshape(path.times.size, path.dim)
    return lambda seq, n, li: g[li][:-1]


def follmer_integral_functional(F, path, seq, probes=None, config=None):
    """Riemann sums of grad F against the path, on every level."""
    F.require_dim(path)
    rows = _gradient_rows(F, path)
    return _make_report(_level_sums(path, seq, probes), None, rows, config)


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


def _qv_flags(run, config):
    """The QV report's verdict at the probes of ``run``, summed on only the
    ``window + 1`` finest levels: :func:`assess` reads no gap below them."""
    window, top = (config or ConvergenceConfig()).window, run.seq.top
    return _qv_sums(run, config, range(max(top - window, 0), top + 1))[-1]


def _follmer_terms(rows, run, levels):
    """``{n: Föllmer term}`` on ``levels`` (by default the finest) of ``run``: the
    gradient rows ``rows(seq, n, li)`` against the increments."""
    return {n: float(np.sum(rows(run.seq, n, li) * np.diff(run.path.values[li], axis=0)))
            for n, li in run.each([run.seq.top] if levels is None else levels)}


def _ito_report(F, run, follmer, drift, hess, config):
    """Residuals of a change-of-variable form of F along ``run``: F(T), F(0) and
    the jump sum read here, ``follmer`` from :func:`_follmer_terms`, ``hess`` at
    the finest cell starts in the form's limit convention."""
    path = run.path
    lhs, initial, jump_term = F.value(stop(path, path.T)), F.value(stop(path, 0.0)), _jump_term(F, path)
    dqv = _continuous_qv_increments(path, run.seq)
    qv_term = float(_running_sums(0.5 * np.trace(np.matmul(hess, dqv), axis1=1, axis2=2))[-1])
    qv_ok, qv_metric = _qv_flags(run, config)
    residual_by_level = {n: abs(lhs - (initial + follmer[n] + drift + qv_term + jump_term))
                         for n in sorted(follmer)}
    top = max(follmer)  # the finest listed level
    return ItoReport(
        residual=residual_by_level[top],
        lhs=lhs,
        initial=initial,
        follmer_term=follmer[top],
        drift_term=drift,
        qv_term=qv_term,
        jump_term=jump_term,
        qv_converged=qv_ok,
        qv_metric=qv_metric,
        residual_by_level=residual_by_level,
    )


def _jump_term(F, path):
    """The sum over the jumps of F(right) - F(left) - grad F(left) . jump."""
    jump_term = 0.0
    for tj, dlt in path.jumps:
        left, right = stop(path, tj, side="left"), stop(path, tj, side="right")
        jump_term += F.value(right) - F.value(left) - float(F.gradient(left) @ dlt)
    return jump_term


def ito_residual_functional(F, path, seq, levels=None, config=None, *, _rows=None):
    """Gap between F(T, x_T) and the four-term right-hand side of the
    functional change-of-variable identity.

    ``levels`` lists the Riemann-sum levels (default: the finest).  The time
    integral, the quadratic term and the jump sum use the finest grid, once;
    only the non-anticipative sum is redone per level, which exposes how those
    sums close the identity, as the pairwise ``np.sum`` of the level's gradient
    rows times its increments.  It may differ in the last bits from the
    time-ordered sum at T of :func:`follmer_integral_functional`, whose rows
    ``integrate`` hands over, so that one run evaluates the gradient once.
    ``residual_by_level`` holds every listed level's residual; ``residual``
    and ``follmer_term`` are those of the finest listed level.  Time integrals
    use the left endpoint; the drift and the second derivative read the
    left-stopped path through ``F.at``, bit-equal to one scalar call per cell.
    A non-converged quadratic variation is reported, not fatal.
    """
    F.require_dim(path)
    rows = _rows or _gradient_rows(F, path)
    run = _level_sums(path, seq)
    follmer = _follmer_terms(rows, run, levels)
    fine = run.seq.level(run.seq.top)
    li = path.grid_indices(fine)
    left = path.values[li][:-1].copy()  # x(t_k-) at each cell start
    cells = path.jump_index < path.times.size - 1  # a jump at T starts no cell
    np.subtract.at(left, cell_index(li, path.jump_index[cells]), path.jump_sizes[cells])
    horiz, hess = F.at(path, fine[:-1], left, ("horiz", "hess"))
    drift = float(_running_sums(horiz * np.diff(fine))[-1])
    return _ito_report(F, run, follmer, drift, hess, config)


def ito_residual_cylinder(f, f_prime, f_second, path, seq):
    """Classical form: f(x(T)) against integral, quadratic and jump terms,
    the functional form of the cylinder F(t, omega) = f(omega(t)) with its
    zero drift left out.  Its QV verdict takes the default convergence config.

    The second-derivative integrand reads the right limit x(s), matching the
    decomposition in which the jump correction omits the second-order term.
    The Riemann sum is taken on the finest level.
    """
    F = cylinder(f, f_prime, f_second, dim=path.dim)
    rows = _gradient_rows(F, path)
    run = _level_sums(path, seq)
    follmer = _follmer_terms(rows, run, None)
    level = run.seq.level(run.seq.top)
    (hess,) = F.at(path, level[:-1], path.values[path.grid_indices(level)][:-1], ("hess",))
    return _ito_report(F, run, follmer, 0.0, hess, None)
