import numpy as np
import pytest

from pathcalc import (
    SimpleStrategy,
    asian_forward,
    black_scholes,
    call_payoff,
    constant_density,
    diffusion_density,
    dyadic,
    follmer_integral_functional,
    generate,
    hedge,
    identity,
    integral_payoff,
    last_index_before,
    plausibility_diagnostic,
    self_financing_check,
    simple_ledger,
    stack,
    strategy_from_functional,
)
from pathcalc.trading import (
    _bond_column,
    _density_cells,
    estimate_qv_density,
    gain_from_vertical_form,
)


def walk(level, seed=7, sigma=1.0, x0=0.0):
    seq = dyadic(1.0, level)
    return generate(
        {"kind": "scaled_random_walk", "sigma": sigma, "x0": x0}, seed, seq
    ), seq


def geometric(level, seed=5, sigma=0.2):
    seq = dyadic(1.0, level)
    return generate(
        {"kind": "geometric_walk", "sigma": sigma, "x0": 1.0}, seed, seq
    ), seq


def simple_gain(strategy, path, seq, t):
    """Reference route of the ledger gains: the accumulated gain
    sum_{i<=k} lambda_{i-1} . increments, one cell at a time, with the last
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
    """Bond account at one time: V0 - lambda_0 . omega(0) - rebalancing cost
    sum up to the strict index k(t, n)."""
    level = seq.level(strategy.level)
    lam = strategy.holding_values(path, seq)
    lx = path.values[path.grid_indices(level)]
    return float(_bond_column(level, lx, lam, strategy.capital(path), [t])[0][0])


# ---------------------------------------------------------------------------
# simple strategies
# ---------------------------------------------------------------------------

def test_buy_and_hold_gain_telescopes():
    path, seq = walk(6, seed=1)
    s = SimpleStrategy.constant(6, 1.0, 64, initial_capital=0.0)
    for t in [0.25, 0.5, 1.0]:
        expect = float(path.value(t)[0] - path.values[0, 0])
        assert simple_gain(s, path, seq, t) == pytest.approx(expect, abs=1e-12)
    assert simple_gain(s, path, seq, 0.0) == 0.0


def test_zero_strategy():
    path, seq = walk(5, seed=2)
    s = SimpleStrategy.constant(5, 0.0, 32, initial_capital=3.0)
    assert simple_gain(s, path, seq, 1.0) == 0.0
    assert simple_bond_holdings(s, path, seq, 1.0) == 3.0


def test_two_period_strategy_hand_values():
    seq = dyadic(1.0, 1)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    s = SimpleStrategy.from_values(1, [[1.0], [2.0]], 0.0)
    assert simple_gain(s, path, seq, 1.0) == 1.5
    assert simple_bond_holdings(s, path, seq, 1.0) == -0.5
    # V = phi omega + psi = 2 * 1 - 0.5 = 1.5 = V0 + G
    assert 2.0 * 1.0 - 0.5 == 0.0 + simple_gain(s, path, seq, 1.0)


def test_buy_and_hold_fully_invested_bond_zero():
    path, seq = walk(5, seed=3, x0=2.0)
    s = SimpleStrategy.constant(5, 1.0, 32, initial_capital=2.0)
    for t in [0.0, 0.3, 1.0]:
        assert simple_bond_holdings(s, path, seq, t) == 0.0


def test_rebalance_identity_at_trading_times():
    path, seq = walk(4, seed=4)
    rng = np.random.default_rng(0)
    lam = rng.normal(size=(16, 1))
    s = SimpleStrategy.from_values(4, lam, 1.0)
    grid = seq.level(4)
    for i in range(1, 15):
        t = float(grid[i])
        psi_left = simple_bond_holdings(s, path, seq, t)
        psi_right = simple_bond_holdings(s, path, seq, t + 2.0**-6)
        phi_left, phi_right = lam[i - 1, 0], lam[i, 0]
        x = float(path.value(t)[0])
        assert psi_right - psi_left == pytest.approx(
            -x * (phi_right - phi_left), abs=1e-12
        )


def test_ledger_identities_and_negative_control():
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "scaled_random_walk", "sigma": 0.6, "x0": 1.0},
         "jumps": [[0.25, [0.5]]]},
        6, seq,
    )
    rng = np.random.default_rng(1)
    s = SimpleStrategy.from_values(8, rng.normal(size=(256, 1)), 2.0)
    ledger = simple_ledger(s, path, seq)
    rep = self_financing_check(ledger)
    assert rep.passed
    assert rep.jump_condition_max < 1e-12
    # tampering with the bond account must be caught
    ledger.bond[-3] += 1e-3
    rep2 = self_financing_check(ledger)
    assert not rep2.passed
    assert rep2.portfolio_identity_max > 1e-4


def test_bond_holdings_equal_ledger_bond_exactly():
    path, seq = walk(6, seed=8)
    rng = np.random.default_rng(2)
    s = SimpleStrategy.from_values(6, rng.normal(size=(64, 1)), 1.0)
    ledger = simple_ledger(s, path, seq)
    for t, bond in zip(ledger.times, ledger.bond):
        assert simple_bond_holdings(s, path, seq, float(t)) == bond


def test_holdings_receive_stopped_paths_only():
    seen = []

    def lam(sp):
        seen.append(sp.time)
        return [1.0]

    path, seq = walk(3, seed=5)
    s = SimpleStrategy(3, [lam] * 8, 0.0)
    simple_gain(s, path, seq, 1.0)
    assert seen == [float(t) for t in seq.level(3)[:-1]]


# ---------------------------------------------------------------------------
# vertical-form ledgers
# ---------------------------------------------------------------------------

def test_vertical_form_identity_exact_every_level():
    path, seq = walk(9, seed=8)
    ledger = gain_from_vertical_form(identity(), path, seq)
    probe_vals = path.values[path.grid_indices(ledger.times), 0]
    expected = probe_vals - path.values[0, 0]
    for n, gains in ledger.level_gains.items():
        # telescoping is algebraic; float association leaves eps-size dust
        assert np.max(np.abs(gains - expected)) < 1e-14
    assert np.array_equal(ledger.position[1:, 0], np.ones(len(ledger.times) - 1))


def test_vertical_form_asian_on_linear_path():
    seq = dyadic(1.0, 10)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    ledger = gain_from_vertical_form(asian_forward(), path, seq, initial_capital=0.0)
    assert ledger.gain[-1] == pytest.approx(0.5, abs=2.0**-10 + 1e-12)
    # position is T - t evaluated left-continuously
    mid = np.searchsorted(ledger.times, 0.5)
    assert ledger.position[mid, 0] == pytest.approx(0.5, abs=2.0**-9)


def test_vertical_form_bs_ledger_identities():
    path, seq = geometric(10, seed=11)
    F = black_scholes(0.2, 1.0)
    ledger = gain_from_vertical_form(F, path, seq)
    rep = self_financing_check(ledger)
    assert rep.passed
    assert rep.portfolio_identity_max < 1e-10 * rep.scale
    assert rep.budget_identity_max < 1e-10 * rep.scale


def test_vertical_form_matches_simple_gain_route():
    # the ledger's Riemann sums are exactly the gains of the constructed
    # approximating simple strategies
    path, seq = geometric(7, seed=12)
    F = black_scholes(0.25, 1.1)
    ledger = gain_from_vertical_form(F, path, seq)
    for n in [3, 5, 7]:
        s = strategy_from_functional(F, path, seq, n)
        for k, t in enumerate(ledger.times):
            if t == 0.0:
                continue
            assert simple_gain(s, path, seq, float(t)) == pytest.approx(
                ledger.level_gains[n][k], abs=1e-12
            )


def test_vertical_form_level_gains_are_the_integral_sums():
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0},
         "jumps": [[5 * 2.0**-8, [0.2]]]},
        3, seq,
    )
    F = black_scholes(0.2, 1.0)
    ledger = gain_from_vertical_form(F, path, seq)
    rep = follmer_integral_functional(F, path, seq)
    assert sorted(ledger.level_gains) == rep.levels
    for n in rep.levels:
        assert np.array_equal(ledger.level_gains[n], rep.sums[n])
    assert np.array_equal(ledger.holdings_values, rep.integrands[seq.top])
    assert np.array_equal(ledger.times, rep.probe_times)


def test_vertical_form_refines_once(monkeypatch):
    import pathcalc.partitions as partitions

    calls = []
    real = partitions.refine_with
    monkeypatch.setattr(
        partitions, "refine_with", lambda *a: calls.append(1) or real(*a)
    )
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0},
         "jumps": [[0.30078125, [0.2]]]},
        5, seq,
    )
    ledger = gain_from_vertical_form(black_scholes(0.2, 1.0), path, seq)
    assert len(calls) == 1
    assert np.array_equal(ledger.gain, ledger.level_gains[seq.top])


def test_vertical_form_jump_condition():
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0},
         "jumps": [[0.5, [0.3]]]},
        13, seq,
    )
    ledger = gain_from_vertical_form(black_scholes(0.2, 1.0), path, seq)
    rep = self_financing_check(ledger)
    assert rep.jump_condition_max < 1e-12


# ---------------------------------------------------------------------------
# hedging
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("window", [40, 64])
def test_qv_density_window_wider_than_grid(dim, window):
    # 32 cells; each smoothed value is the mean over the centred window
    # clipped to the grid (off-diagonal means cancel to ~1e-16)
    seq = dyadic(1.0, 5)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0, "dim": dim}, 4, seq)
    raw = estimate_qv_density(path, seq, window=1)
    dens = estimate_qv_density(path, seq, window=window)
    assert dens.shape == raw.shape and raw.shape[0] == 32
    lo = (window - 1) // 2
    for k in range(32):
        ref = raw[max(0, k - (window - 1 - lo)):k + lo + 1].mean(axis=0)
        np.testing.assert_allclose(dens[k], ref, rtol=1e-13, atol=1e-13)


def test_hedge_asian_exact_replication():
    seq = dyadic(1.0, 12)
    smooth = generate({"kind": "smooth", "name": "quadratic", "scale": 0.5,
                       "offset": 1.0}, 0, seq)
    rep = hedge(asian_forward(), integral_payoff("right"), constant_density(0.0),
                smooth, seq, realized_density=constant_density(0.0))
    assert abs(rep.realized_pnl) < 1e-10 * 2.0
    assert rep.predicted_error == 0.0
    assert not rep.fpde_flag


def test_hedge_asian_left_rule_mesh_gap():
    seq = dyadic(1.0, 12)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0, "x0": 2.0}, 21, seq)
    rep = hedge(asian_forward(), integral_payoff("left"), constant_density(0.0),
                path, seq, realized_density=constant_density(0.0))
    gap = 2.0**-12 * abs(path.values[-1, 0] - path.values[0, 0])
    assert abs(rep.realized_pnl) == pytest.approx(gap, rel=1e-9)


def test_hedge_bs_replication_tracks_price():
    path, seq = geometric(12, seed=31)
    F = black_scholes(0.2, 1.0)
    rep = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq,
                realized_density=diffusion_density(0.2), levels=[8, 12])
    assert rep.track_error < 1e-2
    assert rep.track_error_by_level[12] < rep.track_error_by_level[8]
    assert abs(rep.predicted_error) < 1e-15
    assert abs(rep.realized_pnl) < 5e-3


def test_hedge_misspecified_vol_sign_and_size():
    path, seq = geometric(12, seed=32, sigma=0.3)
    F = black_scholes(0.2, 1.0)
    rep = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq,
                realized_density=diffusion_density(0.3))
    # short gamma against higher realized volatility loses money
    assert rep.realized_pnl < 0
    assert rep.predicted_error < 0
    assert rep.residual < 0.02 * abs(rep.predicted_error)


def test_replication_two_term_bound():
    # |V(T) - H| is controlled by the change-of-variable residual plus the
    # pricing-equation residual against the realized per-cell density,
    # integrated over time; never asserted as an unconditional zero
    path, seq = geometric(12, seed=51, sigma=0.2)
    F = black_scholes(0.2, 1.0)
    rep = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq,
                realized_density=diffusion_density(0.2))
    from pathcalc import ito_residual_functional
    from pathcalc.paths import stop
    from pathcalc.trading import estimate_qv_density

    ito = ito_residual_functional(F, path, seq)
    grid = seq.level(seq.top)
    dens = estimate_qv_density(path, seq, window=1)
    eps = 0.0
    for k in range(0, grid.size - 1, 64):
        sp = stop(path, float(grid[k]))
        df = F.horizontal(sp)
        gamma = F.hessian(sp)[0, 0]
        eps = max(eps, abs(df + 0.5 * dens[k] * gamma))
    assert abs(rep.realized_pnl) <= ito.residual + eps * 1.0 + 1e-6


def test_hedge_super_strategy_sign():
    path, seq = geometric(12, seed=33, sigma=0.2)
    F = black_scholes(0.3, 1.0)
    rep = hedge(F, call_payoff(1.0), diffusion_density(0.3), path, seq,
                realized_density=diffusion_density(0.2))
    assert rep.realized_pnl >= -1e-4


def test_hedge_matches_independent_reimplementation():
    # plain-loop ledger and quadrature with scipy-based closed forms;
    # shares only the input path with the library
    import math

    from scipy.stats import norm

    seq = dyadic(1.0, 12)
    path = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 4242, seq)
    x = path.values[:, 0]
    t = path.times
    K, sig, T = 1.0, 0.2, 1.0

    def delta(s, tau):
        d1 = (math.log(s / K) + 0.5 * sig * sig * tau) / (sig * math.sqrt(tau))
        return norm.cdf(d1)

    def gamma(s, tau):
        d1 = (math.log(s / K) + 0.5 * sig * sig * tau) / (sig * math.sqrt(tau))
        return norm.pdf(d1) / (s * sig * math.sqrt(tau))

    def price(s, tau):
        d1 = (math.log(s / K) + 0.5 * sig * sig * tau) / (sig * math.sqrt(tau))
        return s * norm.cdf(d1) - K * norm.cdf(d1 - sig * math.sqrt(tau))

    value = price(x[0], T)
    for k in range(len(t) - 1):
        value += delta(x[k], T - t[k]) * (x[k + 1] - x[k])
    realized_oracle = value - max(x[-1] - K, 0.0)
    pred_oracle = sum(
        0.5 * (0.04 - 0.09) * x[k] ** 2 * gamma(x[k], T - t[k]) * (t[k + 1] - t[k])
        for k in range(len(t) - 1)
    )

    rep = hedge(black_scholes(0.2, 1.0), call_payoff(1.0), diffusion_density(0.2),
                path, seq, realized_density=diffusion_density(0.3))
    assert rep.realized_pnl == pytest.approx(realized_oracle, abs=1e-12)
    assert rep.predicted_error == pytest.approx(pred_oracle, abs=1e-12)


def test_hedge_estimated_density_close_to_supplied():
    path, seq = geometric(12, seed=34, sigma=0.3)
    F = black_scholes(0.2, 1.0)
    sup = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq,
                realized_density=diffusion_density(0.3))
    est = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq,
                realized_density="estimate", smooth_window=64)
    assert est.realized_density == "estimate"
    assert est.predicted_error == pytest.approx(sup.predicted_error, rel=0.05)


def test_hedge_fpde_violation_flagged_not_fatal():
    path, seq = geometric(10, seed=35)
    F = black_scholes(0.2, 1.0)
    rep = hedge(F, call_payoff(1.0), diffusion_density(0.35), path, seq,
                realized_density=diffusion_density(0.2))
    assert rep.fpde_flag
    assert any("pricing-equation" in w for w in rep.warnings)
    assert np.isfinite(rep.realized_pnl)


def test_hedge_warns_on_nonpositive_paths():
    path, seq = walk(9, seed=36, x0=0.0)  # starts at zero, goes negative
    F = black_scholes(0.2, 1.0)
    rep = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq)
    assert any("non-positive" in w for w in rep.warnings)


def test_hedge_rejects_a_partition_on_another_horizon():
    # every level of dyadic(1, 7) lies on the grid of a path on [0, 2]
    path = generate({"kind": "geometric_walk", "sigma": 0.3}, 1, dyadic(2.0, 8))
    with pytest.raises(ValueError, match="partition horizon 1.0 is not the path's horizon 2.0"):
        hedge(black_scholes(0.2, 1.0), call_payoff(1.0), diffusion_density(0.2), path,
              dyadic(1.0, 7))


def test_hedge_two_coordinates_product_functional_exact():
    # f(x, y) = x y has zero drift and constant cross hessian, so with the
    # raw per-cell realized density the error integral reproduces the
    # discrete product-rule defect exactly
    seq = dyadic(1.0, 12)
    a = generate({"kind": "scaled_random_walk", "sigma": 1.0, "x0": 2.0}, 61, seq)
    b = generate({"kind": "scaled_random_walk", "sigma": 1.0, "x0": 3.0}, 62, seq)
    both = stack([a, b])
    from pathcalc import cylinder

    F = cylinder(
        lambda v: v[0] * v[1],
        lambda v: np.array([v[1], v[0]]),
        lambda v: np.array([[0.0, 1.0], [1.0, 0.0]]),
        dim=2,
        name="product",
    )
    payoff = lambda path: float(path.values[-1, 0] * path.values[-1, 1])
    rep = hedge(F, payoff, np.zeros((2, 2)), both, seq,
                realized_density="estimate", smooth_window=1)
    dx = np.diff(a.values[:, 0])
    dy = np.diff(b.values[:, 0])
    cross = float(np.sum(dx * dy))
    assert rep.realized_pnl == pytest.approx(-cross, abs=1e-10)
    assert rep.predicted_error == pytest.approx(-cross, abs=1e-10)
    assert rep.residual < 1e-10
    assert not rep.fpde_flag


def test_density_cells_routes_agree_with_density_matrix():
    # the batched and broadcast routes give the per-cell density_matrix
    # values bit for bit
    from pathcalc.functionals import density_matrix

    path, seq = geometric(6, seed=37)
    level = seq.level(seq.top)
    ts, rows = level[:-1], path.values[:-1]
    for spec in (diffusion_density(0.3), lambda t, s: 0.09 * s * s, 0.04,
                 constant_density(0.04)):
        cells = _density_cells(spec, ts, rows)
        assert cells.shape == (ts.size, 1, 1)
        ref = np.array([density_matrix(spec, float(t), x, 1) for t, x in zip(ts, rows)])
        assert np.array_equal(cells, ref)
    both = stack([path, path])
    outer = lambda t, x: 0.09 * np.outer(x, x)
    outer.vectorized = True  # batched only for scalar paths
    for spec in (np.eye(2), outer):
        cells = _density_cells(spec, ts, both.values[:-1])
        assert cells.shape == (ts.size, 2, 2)
        ref = np.array([density_matrix(spec, float(t), x, 2)
                        for t, x in zip(ts, both.values[:-1])])
        assert np.array_equal(cells, ref)


# ---------------------------------------------------------------------------
# plausibility diagnostics
# ---------------------------------------------------------------------------

def test_plausibility_identity_exact_on_fuzzed_paths():
    seq = dyadic(1.0, 6)
    rng = np.random.default_rng(99)
    from pathcalc import SampledPath

    for _ in range(20):
        values = rng.normal(size=65)
        path = SampledPath(seq.level(6), values)
        rep = plausibility_diagnostic(path, seq)
        assert max(rep.identity_gaps) < 1e-12


def test_plausibility_k_equals_max_negative_part():
    path, seq = walk(8, seed=41)
    rep = plausibility_diagnostic(path, seq)
    # independent recomputation of the same maxima from level sums
    x = path.values[:, 0]
    probes = np.append(np.unique(np.concatenate([seq.level(6)])), [])
    for idx, n in enumerate(rep.levels):
        diffs = []
        for t in probes:
            def trunc_sum(level):
                lv = np.minimum(level, t)
                vals = np.array([float(path.value(u)[0]) for u in lv])
                return float(np.sum(np.diff(vals) ** 2))
            diffs.append(trunc_sum(seq.level(n)) - trunc_sum(seq.level(n - 1)))
        k_expected = max(max(0.0, -d) for d in diffs)
        assert rep.k_values[idx] == pytest.approx(k_expected, abs=1e-12)


def test_plausibility_three_scenarios():
    seq = dyadic(1.0, 10)
    smooth = generate({"kind": "smooth", "name": "quadratic", "scale": 0.5}, 0, seq)
    rep_s = plausibility_diagnostic(smooth, seq)
    assert rep_s.verdict == "series-bounded"
    assert rep_s.k_partial_sums[-1] < 0.3

    w = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 7, seq)
    rep_w = plausibility_diagnostic(w, seq)
    assert rep_w.verdict == "series-bounded"
    assert max(rep_w.identity_gaps) < 1e-12

    adv = generate({"kind": "qv_descent"}, 0, seq)
    rep_a = plausibility_diagnostic(adv, seq)
    assert rep_a.verdict == "diverging"
    tail = rep_a.k_values[-3:]
    assert max(tail) / min(tail) == pytest.approx(1.0, rel=1e-9)


def test_plausibility_rejects_multidim():
    path, seq = walk(4, seed=42)
    with pytest.raises(ValueError):
        plausibility_diagnostic(stack([path, path]), seq)
