"""Self-financing trading strategies, pathwise gains, delta-hedging and the
hedging-error identity, plus the monotone-strategy diagnostics that motivate
working on paths of finite quadratic variation.

Conventions.  A simple strategy at level n holds lambda_i over the interval
(t_i, t_{i+1}]; holdings callables receive the path stopped at t_i, which
enforces non-anticipativity structurally.  Bond holdings follow the
rebalancing identity, so by Abel summation the ledger satisfies

    V(t) = V0 + G(t) = phi(t) . omega(t) + psi(t)

exactly (up to float roundoff) at every time; tests include tampered ledgers
to show the checks can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convergence import cauchy_gaps, verdict
from .functionals import _elementwise, density_matrix
from .integration import (
    _gradient_rows,
    _jump_term,
    _make_report,
    _qv_flags,
    _truncated_dot_sums,
)
from .partitions import cell_index, index_array
from .paths import _running_sums, stop
from .quadvar import (
    _check_horizon,
    _check_two_levels,
    _continuous_qv_increments,
    _level_sums,
    _truncated_sq_sums,
    default_probe_times,
)


class SimpleStrategy:
    """Finitely many rebalances at the times of one partition level."""

    def __init__(self, level, holdings, initial_capital=0.0):
        self.level = int(level)
        self.holdings = list(holdings)
        self.initial_capital = float(initial_capital)

    @classmethod
    def constant(cls, level, value, n_cells, initial_capital=0.0):
        return cls.from_values(level, np.full(n_cells, float(value)), initial_capital)

    @classmethod
    def from_values(cls, level, values, initial_capital=0.0):
        values = np.atleast_2d(np.asarray(values, dtype=float).T).T
        return cls(
            level,
            [lambda sp, v=values[i]: v for i in range(values.shape[0])],
            initial_capital,
        )

    def holding_values(self, path, seq):
        """Evaluate every lambda_i on the path stopped at its trading time."""
        level = seq.level(self.level)
        m = level.size - 1
        if len(self.holdings) != m:
            raise ValueError(
                f"strategy has {len(self.holdings)} holdings for {m} cells"
            )
        out = np.empty((m, path.dim))
        for i in range(m):
            out[i] = np.asarray(
                self.holdings[i](stop(path, float(level[i]))), dtype=float
            ).reshape(path.dim)
        return out


@dataclass
class StrategyLedger:
    times: np.ndarray
    value: np.ndarray
    gain: np.ndarray
    bond: np.ndarray
    position: np.ndarray
    initial_capital: float
    level: int
    level_times: np.ndarray
    holdings_values: np.ndarray
    level_gains: dict
    path: object = field(repr=False, default=None)


def _bond_column(level, lx, lam, v0, times):
    """Bond holdings at ``times`` by the rebalancing identity, and the
    strict cell index k (t_k < t <= t_{k+1}, t = 0 in cell 0) of each time.

    ``lx``: path values at the ``level`` times; ``lam``: holdings per cell.
    """
    rebal = _running_sums(np.sum(lx[1:-1] * np.diff(lam, axis=0), axis=1))
    ks = np.maximum(np.searchsorted(level, times, side="left") - 1, 0)
    return v0 - float(lam[0] @ lx[0]) - rebal[ks], ks


def _ledger_from_holdings(path, seq, level_n, lam, v0, probes, gains, level_gains):
    """Ledger of the level-``level_n`` holdings ``lam`` whose gains at the
    ``probes`` are ``gains``."""
    level = seq.level(level_n)
    bond, ks = _bond_column(level, path.values[path.grid_indices(level)], lam, v0, probes)
    return StrategyLedger(
        times=probes,
        value=v0 + gains,
        gain=gains,
        bond=bond,
        position=lam[ks],
        initial_capital=v0,
        level=level_n,
        level_times=level,
        holdings_values=lam,
        level_gains=level_gains,
        path=path,
    )


def simple_ledger(strategy, path, seq):
    """Gain/bond/value/position columns of a simple strategy at the
    :func:`default_probe_times`."""
    _check_horizon(seq, path)
    probes = default_probe_times(seq, path)
    lam = strategy.holding_values(path, seq)
    li = path.grid_indices(seq.level(strategy.level))
    gains = _truncated_dot_sums(path.values, li, lam, path.grid_indices(probes))
    return _ledger_from_holdings(
        path, seq, strategy.level, lam, strategy.initial_capital, probes, gains, {})


def strategy_from_functional(F, path, seq, n):
    """The explicit approximating simple strategy at level n: holdings are
    the gradient of F at the piecewise-constant summation states, and the
    initial capital is F at time 0."""
    lam = _gradient_rows(F, path)(seq, n, path.grid_indices(seq.level(n)))
    return SimpleStrategy.from_values(n, lam, F.value(stop(path, 0.0)))


def gain_from_vertical_form(F, path, seq, initial_capital=None):
    """Ledger of the limit strategy built from a vertical 1-form, at the
    :func:`default_probe_times`.

    Gains of the approximating simple strategies are computed at every
    level of ``seq`` (their Riemann sums *are* the simple gains); the ledger
    columns come from the finest level so that the self-financing identities
    hold to roundoff, and the per-level gains stay attached for the
    convergence check.  The initial capital is F at time 0 unless given.
    """
    F.require_dim(path)
    rows = _gradient_rows(F, path)
    run = _level_sums(path, seq)  # the ledger's level lies on the refined sequence
    rep = _make_report(run, None, rows, None)
    top = rep.levels[-1]
    v0 = F.value(stop(path, 0.0)) if initial_capital is None else float(initial_capital)
    return _ledger_from_holdings(
        path, run.seq, top, rep.integrands[top], v0, rep.probe_times, rep.sums[top], rep.sums,
    )


@dataclass
class SelfFinancingReport:
    portfolio_identity_max: float
    budget_identity_max: float
    bond_recompute_max: float
    jump_condition_max: float
    gain_cauchy_gaps: list
    gain_converged: bool
    scale: float
    passed: bool


def self_financing_check(ledger):
    """Verify the ledger identities and the jump condition to 1e-10 of the
    value scale, and the convergence of the per-level gains if retained."""
    path = ledger.path
    probe_idx = path.grid_indices(ledger.times)
    omega = path.values[probe_idx]
    scale = max(1.0, float(np.max(np.abs(ledger.value))))
    portfolio = float(
        np.max(np.abs(ledger.value - np.sum(ledger.position * omega, axis=1) - ledger.bond))
    )
    budget = float(
        np.max(np.abs(ledger.value - ledger.initial_capital - ledger.gain))
    )
    lam = ledger.holdings_values
    level = ledger.level_times
    li = path.grid_indices(level)
    lx = path.values[li]
    bond_again, _ = _bond_column(level, lx, lam, ledger.initial_capital, ledger.times)
    bond_gap = float(np.max(np.abs(ledger.bond - bond_again)))

    k = cell_index(li, path.jump_index - 1)  # cell (t_k, t_{k+1}] holds the jump
    xr, dlt = path.values[path.jump_index], path.jump_sizes
    v_right = np.sum(lam[k] * (xr - lx[k]), axis=1)
    v_left = np.sum(lam[k] * (xr - dlt - lx[k]), axis=1)
    jump_gap = float(np.max(np.abs(v_right - v_left - np.sum(lam[k] * dlt, axis=1)), initial=0.0))

    gaps = cauchy_gaps(ledger.level_gains)
    converged = not ledger.level_gains or verdict(gaps, max(1.0, float(np.max(np.abs(ledger.gain)))))
    passed = max(portfolio, budget, bond_gap, jump_gap) <= 1e-10 * scale
    return SelfFinancingReport(
        portfolio_identity_max=portfolio,
        budget_identity_max=budget,
        bond_recompute_max=bond_gap,
        jump_condition_max=jump_gap,
        gain_cauchy_gaps=gaps,
        gain_converged=converged,
        scale=scale,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Delta-hedging
# ---------------------------------------------------------------------------


def call_payoff(strike):
    return lambda path: max(float(path.values[-1, 0]) - strike, 0.0)


def put_payoff(strike):
    return lambda path: max(strike - float(path.values[-1, 0]), 0.0)


def integral_payoff(rule="left"):
    """Time integral of the path as a payoff; the rule picks the endpoint
    convention of the quadrature (the limit strategy's terminal value is an
    exact right-endpoint quadrature, see the replication tests)."""
    if rule not in ("left", "right"):
        raise ValueError("rule must be 'left' or 'right'")

    def payoff(path):
        dt = np.diff(path.times)
        v = path.values[:, 0]
        return float(_running_sums((v[:-1] if rule == "left" else v[1:]) * dt)[-1])

    return payoff


@dataclass
class HedgeReport:
    realized_pnl: float
    predicted_error: float
    residual: float
    jump_term: float
    probe_times: np.ndarray
    value_curve: np.ndarray
    functional_curve: np.ndarray
    track_error: float
    track_error_by_level: dict
    fpde_max_residual: float
    fpde_flag: bool
    qv_converged: bool
    qv_metric: float
    realized_density: str
    warnings: list


def _density_cells(A, ts, rows):
    """A density-spec on the cell left endpoints, as (m, d, d) matrices."""
    m, d = rows.shape
    if not callable(A):
        return np.broadcast_to(density_matrix(A, 0.0, rows[0], d), (m, d, d))
    if d == 1:
        return _elementwise(A, ts, rows[:, 0]).reshape(m, 1, 1)
    return np.array([density_matrix(A, float(t), x, d) for t, x in zip(ts, rows)])


def _smooth_cells(dens, window):
    """Centered moving average along the first axis; edge windows shrink,
    also when the window is wider than the grid."""
    if not window or window <= 1:
        return dens
    kernel = np.ones(int(window))
    m = dens.shape[0]
    # The centred m values of the full convolution; mode="same" would give
    # max(m, window) values.
    lo = (kernel.size - 1) // 2
    cnt = np.convolve(np.ones(m), kernel)[lo:lo + m]
    out = np.empty_like(dens)
    for idx in np.ndindex(dens.shape[1:]):
        col = (slice(None), *idx)
        out[col] = np.convolve(dens[col], kernel)[lo:lo + m] / cnt
    return out


def estimate_qv_density(path, seq, window=64):
    """Realized quadratic-variation density per top-level cell.

    Raw per-cell ratios of squared increments to time steps (outer products
    over time steps for several coordinates), optionally smoothed by a
    centered moving average.  Exact jump mass is removed before dividing.
    Returns an (m,) array for scalar paths, (m, d, d) otherwise.
    """
    dt = np.diff(seq.level(seq.top))
    dqv = _continuous_qv_increments(path, seq)
    if path.dim == 1:
        return _smooth_cells(dqv[:, 0, 0] / dt, window)
    return _smooth_cells(dqv / dt[:, None, None], window)


def hedge(
    F, payoff, density, path, seq, realized_density="estimate",
    levels=None, config=None, fpde_tol=1e-6, smooth_window=64,
):
    """Delta-hedge F against the claim and compare the realized shortfall
    with the explicit error formula: the second-order integral
    ``0.5 * int (A - A_realized) Gamma dt`` less the jump sum ``J`` of
    :func:`~pathcalc.integration._jump_term` (0.0 on a continuous path).

    ``density`` is the diffusion density the functional was built for;
    ``realized_density`` is either a density-spec for the path's actual
    quadratic-variation density or ``"estimate"`` to read it off the path.
    Densities are (d, d) matrices per cell and the error integral is the
    trace form, for every dimension d.  A large pricing-equation residual
    is flagged, not fatal: the error integral is still evaluated, its
    interpretation is just void.  The value and functional curves are read
    at :func:`default_probe_times`, which end at T.  The gains are summed
    along ``levels`` (by default the top level alone), and
    ``track_error_by_level`` holds one entry per summed level.
    """
    if not fpde_tol >= 0:
        raise ValueError(f"fpde_tol must be >= 0, got {fpde_tol!r}")
    F.require_dim(path)
    notes = []
    if np.any(path.values <= 0.0):
        notes.append("path reaches non-positive values; market semantics caveat")

    probes = default_probe_times(seq, path)
    interior = probes[(probes > 0) & (probes < path.T)]
    sample = interior[:: max(1, interior.size // 8)]
    fpde_max = 0.0  # the pricing equation at the sampled probes, read as the Ito drift is
    if sample.size:
        x = path.values[path.grid_indices(sample)]
        df, d2f = F.at(path, sample, x, ("horiz", "hess"))
        a = _density_cells(density, sample, x)
        # Python's max, as in a loop over the probes: it passes over a NaN
        fpde_max = float(max(0.0, *np.abs(df + 0.5 * np.einsum("kij,kji->k", a, d2f))))
    fpde_flag = fpde_max > fpde_tol
    if fpde_flag:
        notes.append(
            f"pricing-equation residual {fpde_max:.3e} above {fpde_tol:.1e}; "
            "replication conclusions void"
        )

    _check_horizon(seq, path)  # before the top level is looked up on the path grid

    d = path.dim
    level = seq.level(seq.top)  # unrefined onto the jumps, unlike the gains (ROADMAP item 2)
    li = path.grid_indices(level)
    ts = level[:-1]
    rows = path.values[li][:-1]
    dt = np.diff(level)
    estimate_requested = isinstance(realized_density, str) and realized_density == "estimate"
    realized_kind = "estimate" if estimate_requested else "supplied"
    a_cells = _density_cells(density, ts, rows)
    tilde_cells = (
        estimate_qv_density(path, seq, window=smooth_window).reshape(-1, d, d)
        if estimate_requested
        else _density_cells(realized_density, ts, rows)
    )
    # One pointwise evaluation on the whole grid serves the error integral, the
    # gains and the track error; what it lacks is read through ``F.at``.
    value, grad, hess = (None,) * 3 if F.pointwise is None else F.pointwise(
        path, path.times, path.values, ("value", "grad", "hess"))
    hess = F.at(path, ts, rows, ("hess",))[0] if hess is None else np.asarray(hess)[li][:-1]
    traces = np.einsum("kij,kji->k", a_cells - tilde_cells, hess)
    jump_term = _jump_term(F, path)  # 0.0 on a path without jumps
    # a BLAS dot, whose sum depends on the thread count: the recorded hedge
    # digests pin its bits, so it becomes time-ordered only with a re-record
    predicted = 0.5 * float(traces @ dt) - jump_term

    run = _level_sums(path, seq, probes)  # refined after the whole-grid request, not beside it
    qv_ok, qv_metric = _qv_flags(run, config)
    if not qv_ok:
        notes.append("quadratic variation not converged at the top level")

    # The gains at every grid time, summed once per level.  The track error
    # is taken at every grid time when F has a pointwise value, else at the probes.
    grad_rows = _gradient_rows(F, path, grad)
    gains = {n: _truncated_dot_sums(path.values, li, grad_rows(run.seq, n, li))
             for n, li in run.each([seq.top] if levels is None else levels)}
    levels = sorted(gains)
    f0 = F.value(stop(path, 0.0))
    realized = f0 + float(gains[levels[-1]][-1]) - float(payoff(path))

    track_idx = run.probe_idx if value is None else slice(None)
    f_track = (F.at(path, probes, path.values[run.probe_idx], ("value",))[0] if value is None
               else np.asarray(value, dtype=float))
    # a copy, so that the report keeps no grid-sized array alive
    f_curve = f_track if value is None else f_track[run.probe_idx].copy()
    track_by_level = {n: float(np.max(np.abs(f0 + gains[n][track_idx] - f_track)))
                      for n in levels}
    v_curve = f0 + gains[levels[-1]][run.probe_idx]
    track = track_by_level[levels[-1]]

    return HedgeReport(
        realized_pnl=realized,
        predicted_error=predicted,
        residual=abs(realized - predicted),
        jump_term=jump_term,
        probe_times=probes,
        value_curve=v_curve,
        functional_curve=f_curve,
        track_error=track,
        track_error_by_level=track_by_level,
        fpde_max_residual=fpde_max,
        fpde_flag=fpde_flag,
        qv_converged=qv_ok,
        qv_metric=qv_metric,
        realized_density=realized_kind,
        warnings=notes,
    )


# ---------------------------------------------------------------------------
# Plausibility diagnostics
# ---------------------------------------------------------------------------


@dataclass
class PlausibilityReport:
    levels: list
    identity_gaps: list
    k_values: list
    k_partial_sums: list
    negative_series_partial_max: list
    series_bounded: bool
    verdict: str


def _cross_term_sum(x, li_coarse, li_fine, it):
    """Direct double sum of distinct-pair products of truncated fine
    increments within each coarse cell (prefix-product form, not the
    squared-sum shortcut, so the identity check is a genuine cross-check)."""
    w = x[np.minimum(li_fine, it)]
    a = np.diff(w)
    cs_excl = _running_sums(a[:-1])
    starts = np.searchsorted(li_fine, li_coarse[:-1])
    per_cell = np.add.reduceat(a * cs_excl, starts) - cs_excl[starts] * np.add.reduceat(
        a, starts
    )
    return float(np.sum(per_cell))


def plausibility_diagnostic(path, seq):
    """Level-by-level diagnostics of the squared-increment refinement
    algebra: the exact cross-term identity, the minimal monotonicity
    corrections k_n, and the partial sums whose boundedness the
    finite-quadratic-variation hypothesis requires.

    The verdict looks at the tail of the k_n sequence: corrections that
    settle at a constant size (tail spread below a factor 2 while
    staying above rounding scale) signal a linearly growing correction
    series, the refinement-diverging signature."""
    if path.dim != 1:
        raise ValueError("plausibility diagnostics are scalar-path only")
    _check_two_levels(seq)
    _check_horizon(seq, path)
    probe_idx = index_array(path.grid_indices(default_probe_times(seq, path)))
    x = path.values[:, 0]
    level_idx = [index_array(path.grid_indices(seq.level(n))) for n in range(seq.num_levels)]
    approx = [
        _truncated_sq_sums(x, li, probe_idx) for li in level_idx
    ]
    levels = list(range(1, seq.num_levels))
    identity_gaps = []
    k_values = []
    neg_partial = np.zeros(probe_idx.size)
    neg_partial_max = []
    for n in levels:
        diff = approx[n] - approx[n - 1]
        gap = 0.0
        for p, it in enumerate(probe_idx):
            cross = _cross_term_sum(x, level_idx[n - 1], level_idx[n], it)
            gap = max(gap, abs(diff[p] + 2.0 * cross))
        identity_gaps.append(gap)
        neg = np.maximum(0.0, -diff)
        k_values.append(float(np.max(neg)))
        neg_partial += neg
        neg_partial_max.append(float(np.max(neg_partial)))
    k_partial = np.cumsum(k_values).tolist()
    scale = max(float(np.ptp(x)) ** 2, 1e-300)
    tail = np.array(k_values[-min(4, len(k_values)):])
    floor = 1e-9 * scale
    if np.min(tail) <= floor:
        bounded = True
    else:
        bounded = float(np.max(tail) / np.min(tail)) >= 2.0
    return PlausibilityReport(
        levels=levels,
        identity_gaps=identity_gaps,
        k_values=k_values,
        k_partial_sums=k_partial,
        negative_series_partial_max=neg_partial_max,
        series_bounded=bool(bounded),
        verdict="series-bounded" if bounded else "diverging",
    )
