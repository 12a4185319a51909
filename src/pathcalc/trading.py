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
from .partitions import last_index_before, refine_onto
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


def _strict_cell_index(level, t):
    """k with t_k < t <= t_{k+1}; t = 0 maps to cell 0 (the 0+ stance)."""
    if t <= 0.0:
        return 0
    return int(np.searchsorted(level, t, side="left")) - 1


def simple_gain(strategy, path, seq, t):
    """Accumulated gain sum_{i<=k} lambda_{i-1} . increments, with the last
    increment cut at t.  Empty sum (zero) at t = 0."""
    if t == 0.0:
        return 0.0
    k = last_index_before(seq, strategy.level, t)
    level = seq.level(strategy.level)
    lam = strategy.holding_values(path, seq)
    li = path.grid_indices(level)
    lx = path.values[li]
    total = 0.0
    for i in range(1, k + 1):
        total += float(lam[i - 1] @ (lx[i] - lx[i - 1]))
    total += float(lam[k] @ (path.value(t) - lx[k]))
    return total


def simple_bond_holdings(strategy, path, seq, t):
    """Bond account: V0 - lambda_0 . omega(0) - rebalancing cost sum up to
    the strict index k(t, n)."""
    level = seq.level(strategy.level)
    lam = strategy.holding_values(path, seq)
    li = path.grid_indices(level)
    lx = path.values[li]
    v0 = strategy.capital(path)
    k = _strict_cell_index(level, t)
    total = v0 - float(lam[0] @ lx[0])
    for i in range(1, k + 1):
        total -= float(lx[i] @ (lam[i] - lam[i - 1]))
    return total


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

    def rows(self):
        for k, t in enumerate(self.times):
            pos = self.position[k]
            yield (float(t), float(self.value[k]), float(self.gain[k]),
                   float(self.bond[k]), *map(float, pos))

    def to_json_dict(self):
        return {
            "times": self.times.tolist(),
            "value": self.value.tolist(),
            "gain": self.gain.tolist(),
            "bond": self.bond.tolist(),
            "position": self.position.tolist(),
            "initial_capital": self.initial_capital,
            "level": self.level,
        }


def _ledger_from_holdings(path, seq, level_n, lam, v0, probes, level_gains):
    level = seq.level(level_n)
    li = path.grid_indices(level)
    lx = path.values[li]
    probe_idx = path.grid_indices(probes)
    gains = _truncated_dot_sums(path.values, li, lam, probe_idx)
    rebal = np.concatenate(
        ([0.0], np.cumsum(np.sum(lx[1:-1] * np.diff(lam, axis=0), axis=1)))
    )
    ks = np.array([_strict_cell_index(level, float(t)) for t in probes])
    bond = v0 - float(lam[0] @ lx[0]) - rebal[ks]
    position = lam[ks]
    value = v0 + gains
    return StrategyLedger(
        times=probes,
        value=value,
        gain=gains,
        bond=bond,
        position=position,
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
    return _ledger_from_holdings(path, seq, strategy.level, lam, v0, probes, {})


def strategy_from_functional(F, path, seq, n, mode="cadlag", initial_capital=None,
                             allow_fd=True, bump=None):
    """The explicit approximating simple strategy at level n: holdings are
    the gradient of F at the piecewise-constant summation states."""
    lam = follmer_integrand(F, path, seq, n, mode, allow_fd, bump)
    v0 = F.value(stop(path, 0.0)) if initial_capital is None else initial_capital
    return SimpleStrategy.from_values(n, lam, v0)


def gain_from_vertical_form(
    F, path, seq, probes=None, mode="cadlag", initial_capital=None,
    levels=None, config=None, allow_fd=True, bump=None,
):
    """Ledger of the limit strategy built from a vertical 1-form.

    Gains of the approximating simple strategies are computed at every
    requested level (their Riemann sums *are* the simple gains); the ledger
    columns come from the finest level so that the self-financing identities
    hold to roundoff, and the per-level gains stay attached for the
    convergence check.
    """
    rep = follmer_integral_functional(
        F, path, seq, probes=probes, levels=levels, mode=mode, config=config,
        allow_fd=allow_fd, bump=bump,
    )
    top = rep.levels[-1]
    v0 = F.value(stop(path, 0.0)) if initial_capital is None else float(initial_capital)
    return _ledger_from_holdings(
        path, refine_onto(seq, path.jump_times)[0], top, rep.integrands[top], v0,
        rep.probe_times, rep.sums,
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


def self_financing_check(ledger, tol=1e-10, config=None):
    """Verify the ledger identities and the jump condition exactly, and the
    convergence of the per-level gains when they were retained."""
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
    rebal = np.concatenate(
        ([0.0], np.cumsum(np.sum(lx[1:-1] * np.diff(lam, axis=0), axis=1)))
    )
    ks = np.array([_strict_cell_index(level, float(t)) for t in ledger.times])
    bond_again = ledger.initial_capital - float(lam[0] @ lx[0]) - rebal[ks]
    bond_gap = float(np.max(np.abs(ledger.bond - bond_again)))

    jump_gap = 0.0
    for tj, dlt in path.jumps:
        k = _strict_cell_index(level, tj)
        xr = path.value(tj)
        xl = xr - dlt
        v_right = float(lam[k] @ (xr - lx[k]))
        v_left = float(lam[k] @ (xl - lx[k]))
        jump_gap = max(jump_gap, abs((v_right - v_left) - float(lam[k] @ dlt)))

    gaps = []
    converged = True
    if ledger.level_gains:
        g_scale = max(1.0, float(np.max(np.abs(ledger.gain))))
        converged, _ = assess(ledger.level_gains, g_scale, config)
        keys = sorted(ledger.level_gains)
        gaps = [
            float(np.max(np.abs(ledger.level_gains[b] - ledger.level_gains[a])))
            for a, b in zip(keys, keys[1:])
        ]
    passed = max(portfolio, budget, bond_gap, jump_gap) <= tol * scale
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

    def to_json_dict(self):
        return {
            "realized_pnl": self.realized_pnl,
            "predicted_error": self.predicted_error,
            "residual": self.residual,
            "track_error": self.track_error,
            "track_error_by_level": {str(k): v for k, v in self.track_error_by_level.items()},
            "fpde_max_residual": self.fpde_max_residual,
            "fpde_flag": bool(self.fpde_flag),
            "qv_converged": bool(self.qv_converged),
            "qv_metric": self.qv_metric,
            "realized_density": self.realized_density,
            "warnings": list(self.warnings),
        }


def _density_cells(A, ts, rows):
    """A density-spec on the cell left endpoints, as (m, d, d) matrices."""
    m, d = rows.shape
    if not callable(A):
        return np.broadcast_to(density_matrix(A, 0.0, rows[0], d), (m, d, d))
    if d == 1 and getattr(A, "vectorized", False):
        return np.asarray(A(ts, rows[:, 0]), dtype=float).reshape(m, 1, 1)
    return np.array([density_matrix(A, float(t), x, d) for t, x in zip(ts, rows)])


def _smooth_cells(dens, window):
    """Centered moving average along the first axis; edge windows shrink."""
    if not window or window <= 1:
        return dens
    kernel = np.ones(int(window))
    cnt = np.convolve(np.ones(dens.shape[0]), kernel, mode="same")
    if dens.ndim == 1:
        return np.convolve(dens, kernel, mode="same") / cnt
    out = np.empty_like(dens)
    for idx in np.ndindex(dens.shape[1:]):
        col = dens[(slice(None), *idx)]
        out[(slice(None), *idx)] = np.convolve(col, kernel, mode="same") / cnt
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
    probes=None, levels=None, config=None, fpde_tol=1e-6,
    smooth_window=64, allow_fd=True, bump=None, step=None,
):
    """Delta-hedge F against the claim and compare the realized shortfall
    with the explicit second-order error integral.

    ``density`` is the diffusion density the functional was built for;
    ``realized_density`` is either a density-spec for the path's actual
    quadratic-variation density or ``"estimate"`` to read it off the path.
    Densities are (d, d) matrices per cell and the error integral is the
    trace form, for every dimension d.  A large pricing-equation residual
    is flagged, not fatal: the error integral is still evaluated, its
    interpretation is just void.
    """
    notes = []
    if np.any(path.values <= 0.0):
        notes.append("path reaches non-positive values; market semantics caveat")

    if probes is None:
        probes = default_probe_times(seq, path)
    probes = np.asarray(probes, dtype=float)
    if probes[-1] != path.T:
        raise ValueError("probe times must include the horizon T")

    interior = probes[(probes > 0) & (probes < path.T)]
    sample = interior[:: max(1, interior.size // 8)] if interior.size else []
    fpde_max = 0.0
    for t in sample:
        r = fpde_residual(F, density, stop(path, float(t)), allow_fd=allow_fd,
                          bump=bump, step=step)
        fpde_max = max(fpde_max, abs(r))
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
        hess = np.array(
            [F.hessian(stop(path, float(t)), allow_fd=allow_fd, bump=bump) for t in ts]
        )
    traces = np.einsum("kij,kji->k", a_cells - tilde_cells, hess)
    predicted = 0.5 * float(traces @ dt)

    if levels is None:
        levels = sorted({max(seq.top - 1, 0), seq.top})
    gain = follmer_integral_functional(
        F, path, seq, probes=probes, levels=levels, config=config,
        allow_fd=allow_fd, bump=bump,
    )
    f0 = F.value(stop(path, 0.0))
    realized = f0 + float(gain.limit[-1]) - float(payoff(path))

    if F.pointwise_value is not None:
        all_idx = np.arange(path.times.size)
        f_curve_full = np.asarray(
            F.pointwise_value(path.times, path.values, path.T), dtype=float
        )
        track_by_level = {}
        seq_r, _ = refine_onto(seq, path.jump_times)  # the grids of gain.integrands
        for n in gain.levels:
            li_n = path.grid_indices(seq_r.level(n))
            s_full = _truncated_dot_sums(path.values, li_n, gain.integrands[n], all_idx)
            track_by_level[n] = float(np.max(np.abs(f0 + s_full - f_curve_full)))
        f_curve = f_curve_full[path.grid_indices(probes)]
    else:
        f_curve = np.array([F.value(stop(path, float(t))) for t in probes])
        track_by_level = {
            n: float(np.max(np.abs(f0 + gain.sums[n] - f_curve)))
            for n in gain.levels
        }
    v_curve = f0 + gain.sums[gain.levels[-1]]
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


def plausibility_diagnostic(path, seq, t_probes=None, flat_ratio=2.0):
    """Level-by-level diagnostics of the squared-increment refinement
    algebra: the exact cross-term identity, the minimal monotonicity
    corrections k_n, and the partial sums whose boundedness the
    finite-quadratic-variation hypothesis requires.

    The verdict looks at the tail of the k_n sequence: corrections that
    settle at a constant size (tail spread below ``flat_ratio`` while
    staying above rounding scale) signal a linearly growing correction
    series, the refinement-diverging signature."""
    if path.dim != 1:
        raise ValueError("plausibility diagnostics are scalar-path only")
    if t_probes is None:
        t_probes = default_probe_times(seq, path)
    t_probes = np.asarray(t_probes, dtype=float)
    if t_probes[-1] != path.T:
        t_probes = np.append(t_probes, path.T)
    probe_idx = path.grid_indices(t_probes)
    x = path.values[:, 0]
    level_idx = [path.grid_indices(seq.level(n)) for n in range(seq.num_levels)]
    approx = [
        _truncated_sq_sums(x, li, probe_idx) for li in level_idx
    ]
    levels = list(range(1, seq.num_levels))
    identity_gaps = []
    k_values = []
    neg_partial = np.zeros(t_probes.size)
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
        bounded = float(np.max(tail) / np.min(tail)) >= flat_ratio
    return PlausibilityReport(
        levels=levels,
        identity_gaps=identity_gaps,
        k_values=k_values,
        k_partial_sums=k_partial,
        negative_series_partial_max=neg_partial_max,
        series_bounded=bool(bounded),
        verdict="series-bounded" if bounded else "diverging",
    )
