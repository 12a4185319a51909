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

from .convergence import assess
from .functionals import density_matrix, fpde_residual
from .integration import (
    _qv_flags,
    _truncated_dot_sums,
    follmer_integral_functional,
    follmer_integrand,
)
from .partitions import refine_onto
from .paths import stop
from .quadvar import (
    _continuous_qv_increments,
    _truncated_sq_sums,
    default_probe_times,
)


class SimpleStrategy:
    """Finitely many rebalances at the times of one partition level."""

    def __init__(self, level, holdings, initial_capital=0.0):
        self.level = int(level)
        self.holdings = list(holdings)
        self.initial_capital = initial_capital

    @classmethod
    def constant(cls, level, value, n_cells, initial_capital=0.0, dim=1):
        vec = np.full(dim, float(value))
        return cls(level, [lambda sp, v=vec: v] * n_cells, initial_capital)

    @classmethod
    def from_values(cls, level, values, initial_capital=0.0):
        values = np.atleast_2d(np.asarray(values, dtype=float).T).T
        return cls(
            level,
            [lambda sp, v=values[i]: v for i in range(values.shape[0])],
            initial_capital,
        )

    def capital(self, path):
        v0 = self.initial_capital
        return float(v0(path.values[0])) if callable(v0) else float(v0)

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
    rebal = np.concatenate(
        ([0.0], np.cumsum(np.sum(lx[1:-1] * np.diff(lam, axis=0), axis=1)))
    )
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


def simple_ledger(strategy, path, seq, probes=None):
    """Gain/bond/value/position columns of a simple strategy."""
    if probes is None:
        probes = default_probe_times(seq, path)
    probes = np.asarray(probes, dtype=float)
    lam = strategy.holding_values(path, seq)
    v0 = strategy.capital(path)
    li = path.grid_indices(seq.level(strategy.level))
    gains = _truncated_dot_sums(path.values, li, lam, path.grid_indices(probes))
    return _ledger_from_holdings(path, seq, strategy.level, lam, v0, probes, gains, {})


def strategy_from_functional(F, path, seq, n):
    """The explicit approximating simple strategy at level n: holdings are
    the gradient of F at the piecewise-constant summation states, and the
    initial capital is F at time 0."""
    lam = follmer_integrand(F, path, seq, n)
    return SimpleStrategy.from_values(n, lam, F.value(stop(path, 0.0)))


def gain_from_vertical_form(
    F, path, seq, probes=None, initial_capital=None, levels=None, config=None,
):
    """Ledger of the limit strategy built from a vertical 1-form.

    Gains of the approximating simple strategies are computed at every
    requested level (their Riemann sums *are* the simple gains); the ledger
    columns come from the finest level so that the self-financing identities
    hold to roundoff, and the per-level gains stay attached for the
    convergence check.
    """
    seq = refine_onto(seq, path.jump_times)[0]
    rep = follmer_integral_functional(F, path, seq, probes=probes, levels=levels, config=config)
    top = rep.levels[-1]
    v0 = F.value(stop(path, 0.0)) if initial_capital is None else float(initial_capital)
    return _ledger_from_holdings(
        path, seq, top, rep.integrands[top], v0, rep.probe_times, rep.sums[top], rep.sums,
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
    lx = path.values[path.grid_indices(level)]
    bond_again, _ = _bond_column(level, lx, lam, ledger.initial_capital, ledger.times)
    bond_gap = float(np.max(np.abs(ledger.bond - bond_again)))

    jump_gap = 0.0
    for tj, dlt in path.jumps:
        k = int(np.searchsorted(level, tj)) - 1  # cell (t_k, t_{k+1}] holds tj > 0
        xr = path.value(tj)
        xl = xr - dlt
        v_right = float(lam[k] @ (xr - lx[k]))
        v_left = float(lam[k] @ (xl - lx[k]))
        jump_gap = max(jump_gap, abs((v_right - v_left) - float(lam[k] @ dlt)))

    gaps = []
    converged = True
    if ledger.level_gains:
        g_scale = max(1.0, float(np.max(np.abs(ledger.gain))))
        converged, _ = assess(ledger.level_gains, g_scale)
        keys = sorted(ledger.level_gains)
        gaps = [
            float(np.max(np.abs(ledger.level_gains[b] - ledger.level_gains[a])))
            for a, b in zip(keys, keys[1:])
        ]
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
        return float(v[:-1] @ dt) if rule == "left" else float(v[1:] @ dt)

    return payoff


@dataclass
class HedgeReport:
    realized_pnl: float
    predicted_error: float
    residual: float
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
    if d == 1 and getattr(A, "vectorized", False):
        return np.asarray(A(ts, rows[:, 0]), dtype=float).reshape(m, 1, 1)
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
    with the explicit second-order error integral.

    ``density`` is the diffusion density the functional was built for;
    ``realized_density`` is either a density-spec for the path's actual
    quadratic-variation density or ``"estimate"`` to read it off the path.
    Densities are (d, d) matrices per cell and the error integral is the
    trace form, for every dimension d.  A large pricing-equation residual
    is flagged, not fatal: the error integral is still evaluated, its
    interpretation is just void.  The value and functional curves are read
    at :func:`default_probe_times`, which end at T.
    """
    F.require_dim(path)
    if seq.T != path.T:
        raise ValueError(f"the partition horizon {seq.T} is not the path's horizon {path.T}")
    notes = []
    if np.any(path.values <= 0.0):
        notes.append("path reaches non-positive values; market semantics caveat")

    probes = default_probe_times(seq, path)
    interior = probes[(probes > 0) & (probes < path.T)]
    sample = interior[:: max(1, interior.size // 8)] if interior.size else []
    fpde_max = 0.0
    for t in sample:
        fpde_max = max(fpde_max, abs(fpde_residual(F, density, stop(path, float(t)))))
    fpde_flag = fpde_max > fpde_tol
    if fpde_flag:
        notes.append(
            f"pricing-equation residual {fpde_max:.3e} above {fpde_tol:.1e}; "
            "replication conclusions void"
        )

    qv_ok, qv_metric = _qv_flags(path, seq, config)
    if not qv_ok:
        notes.append("quadratic variation not converged at the top level")

    d = path.dim
    level = seq.level(seq.top)
    li = path.grid_indices(level)
    ts = level[:-1]
    rows = path.values[li[:-1]]
    dt = np.diff(level)
    estimate_requested = isinstance(realized_density, str) and realized_density == "estimate"
    realized_kind = "estimate" if estimate_requested else "supplied"
    a_cells = _density_cells(density, ts, rows)
    tilde_cells = (
        estimate_qv_density(path, seq, window=smooth_window).reshape(-1, d, d)
        if estimate_requested
        else _density_cells(realized_density, ts, rows)
    )
    if F.pointwise_hess is not None:
        hess = np.asarray(F.pointwise_hess(ts, rows, path.T))
    else:
        hess = np.array([F.hessian(stop(path, float(t))) for t in ts])
    traces = np.einsum("kij,kji->k", a_cells - tilde_cells, hess)
    predicted = 0.5 * float(traces @ dt)

    if levels is None:
        levels = sorted({max(seq.top - 1, 0), seq.top})
    # The gains at every grid time, summed once per level.  The track error
    # is taken at every grid time when F has a pointwise value, else at the
    # probes, where F is read off stopped paths.
    gain = follmer_integral_functional(
        F, path, seq, probes=path.times, levels=levels, config=config
    )
    f0 = F.value(stop(path, 0.0))
    realized = f0 + float(gain.limit[-1]) - float(payoff(path))

    probe_idx = path.grid_indices(probes)
    if F.pointwise_value is not None:
        f_track = np.asarray(F.pointwise_value(path.times, path.values, path.T), dtype=float)
        f_curve = f_track[probe_idx]
        track_idx = slice(None)
    else:
        f_track = f_curve = np.array([F.value(stop(path, float(t))) for t in probes])
        track_idx = probe_idx
    track_by_level = {
        n: float(np.max(np.abs(f0 + gain.sums[n][track_idx] - f_track)))
        for n in gain.levels
    }
    v_curve = f0 + gain.sums[gain.levels[-1]][probe_idx]
    track = track_by_level[gain.levels[-1]]

    return HedgeReport(
        realized_pnl=realized,
        predicted_error=predicted,
        residual=abs(realized - predicted),
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
    cs_excl = np.concatenate(([0.0], np.cumsum(a[:-1])))
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
    probe_idx = path.grid_indices(default_probe_times(seq, path))
    x = path.values[:, 0]
    level_idx = [path.grid_indices(seq.level(n)) for n in range(seq.num_levels)]
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
