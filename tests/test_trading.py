from dataclasses import fields

import numpy as np
import pytest

from pathcalc import (
    Functional,
    PartitionSequence,
    SimpleStrategy,
    asian_forward,
    black_scholes,
    call_payoff,
    constant_density,
    cylinder,
    default_probe_times,
    diffusion_density,
    dyadic,
    follmer_integral_functional,
    fpde_residual,
    generate,
    hedge,
    identity,
    integral_payoff,
    ito_residual_cylinder,
    ito_residual_functional,
    last_index_before,
    norvaisa_qv_check,
    plausibility_diagnostic,
    qv_along,
    qv_matrix,
    read_path_csv,
    self_financing_check,
    simple_ledger,
    stack,
    stop,
    strategy_from_functional,
    vovk_uniform_check,
    write_path_csv,
)
from pathcalc.functionals import _evaluator
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
    return float(_bond_column(level, lx, lam, strategy.initial_capital, [t])[0][0])


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


@pytest.mark.parametrize("rule", ["left", "right"])
def test_integral_payoff_is_a_time_ordered_sum(rule):
    # 16,384 cells, where a BLAS dot would split the sum by thread
    seq = dyadic(1.0, 14)
    path = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 3, seq)
    v = path.values[:-1, 0] if rule == "left" else path.values[1:, 0]
    total = 0.0
    for vk, dk in zip(v.tolist(), np.diff(path.times).tolist()):
        total += vk * dk
    got = integral_payoff(rule)(path)
    assert type(got) is float and got == total


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


def test_hedge_asian_reads_its_value_from_the_hook():
    # the hook's value serves the curve and the track error at every grid
    # time: eval_fn runs once per hedge, for F(0)
    path, seq = geometric(10, seed=3)
    F = asian_forward()
    evaluate, calls = F._eval, []
    F._eval = lambda sp: calls.append(sp.time) or evaluate(sp)
    rep = hedge(F, integral_payoff("right"), constant_density(0.0), path, seq,
                realized_density=constant_density(0.0))
    assert calls == [0.0]
    ref = np.array([evaluate(stop(path, float(t))) for t in rep.probe_times])
    assert np.array_equal(rep.functional_curve.view(np.int64), ref.view(np.int64))
    assert rep.track_error >= np.max(np.abs(rep.value_curve - rep.functional_curve)) > 0.0


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


@pytest.mark.parametrize("fpde_tol", [-1.0, float("nan")])
def test_hedge_rejects_a_negative_fpde_tolerance(fpde_tol):
    path, seq = geometric(6, seed=35)
    with pytest.raises(ValueError, match=f"fpde_tol must be >= 0, got {fpde_tol!r}"):
        hedge(black_scholes(0.2, 1.0), call_payoff(1.0), diffusion_density(0.2), path, seq,
              fpde_tol=fpde_tol)
    assert hedge(black_scholes(0.2, 1.0), call_payoff(1.0), diffusion_density(0.2), path, seq,
                 fpde_tol=float("inf")).fpde_flag is False


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


def jump_walk(level, seed, jumps, sigma=0.2):
    seq = dyadic(1.0, level)
    base = {"kind": "geometric_walk", "sigma": sigma, "x0": 1.0}
    return generate({"kind": "with_jumps", "base": base, "jumps": jumps}, seed, seq), seq


JUMPS = [[0.25, 0.1], [0.5, -0.15], [0.75, 0.08]]


def hedge_estimate(path, seq, strike=1.0):
    return hedge(black_scholes(0.2, strike), call_payoff(strike), diffusion_density(0.2),
                 path, seq, realized_density="estimate", smooth_window=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_hedge_residual_on_jump_paths_falls_with_the_level(seed):
    # without the jump sum the residual stays at 4e-2 to 5e-2 on these paths
    residuals = []
    for level in (10, 12, 14):
        path, seq = jump_walk(level, seed, JUMPS)
        rep = hedge_estimate(path, seq)
        assert abs(rep.jump_term) > 1e-3
        residuals.append(rep.residual)
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-5


def test_hedge_jump_at_maturity():
    # x(T-) is below the strike 1.1 and the jump lifts it above: J = x(T) - 1.1
    path, seq = jump_walk(12, 1, [[1.0, 0.2]], sigma=0.05)
    rep = hedge_estimate(path, seq, strike=1.1)
    assert rep.jump_term == pytest.approx(path.values[-1, 0] - 1.1, abs=1e-9)
    assert rep.jump_term > 0.05
    assert rep.residual < 1e-4
    ito = ito_residual_functional(black_scholes(0.2, 1.1), path, seq)
    assert ito.jump_term == rep.jump_term  # one formula for both identities


def test_hedge_jump_term_of_a_path_file_is_the_generators(tmp_path):
    path, seq = jump_walk(10, 0, JUMPS)
    write_path_csv(path, str(tmp_path / "jumps.csv"))
    from_file = read_path_csv(str(tmp_path / "jumps.csv"))
    generated, read = hedge_estimate(path, seq), hedge_estimate(from_file, seq)
    assert read.jump_term == generated.jump_term != 0.0
    assert read.predicted_error == generated.predicted_error
    assert read.residual == generated.residual


def test_hedge_evaluates_the_functional_once_per_path():
    path, seq = geometric(10, seed=11)
    F = black_scholes(0.2, 1.0)
    evaluate, calls = F.pointwise, []
    F.pointwise = lambda path, t, s, want: calls.append(want) or evaluate(path, t, s, want)
    once = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq)
    # one exact request for the pricing-equation probes, one for the grid
    assert calls == [("horiz", "hess"), ("value", "grad", "hess")]
    # the same quantities asked for one at a time (exact ones exactly) give
    # the same report
    split = black_scholes(0.2, 1.0)
    split.pointwise = lambda path, t, s, want: tuple(
        evaluate(path, t, s, (q, "horiz") if "horiz" in want else (q,))[0] for q in want)
    ref = hedge(split, call_payoff(1.0), diffusion_density(0.2), path, seq)
    for f in fields(once):
        a, b = getattr(once, f.name), getattr(ref, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


@pytest.mark.parametrize("F", [black_scholes(0.2, 1.0), asian_forward()], ids=lambda F: F.name)
def test_hedge_report_arrays_own_their_values(F):
    # a curve read off a grid-sized array through the probes' stride would
    # keep that whole array alive for as long as the report lives
    path, seq = geometric(10, seed=3)
    report = hedge(F, call_payoff(1.0), diffusion_density(0.2), path, seq)
    for name in ("probe_times", "value_curve", "functional_curve"):
        curve = getattr(report, name)
        assert curve.flags.owndata and curve.size == 65, name


def _sampled_fpde_max(F, A, path, seq):
    """Reference of ``fpde_max_residual``: the largest |fpde_residual| on one
    stopped path per sampled interior probe (about 8 of them), 0.0 if none."""
    probes = default_probe_times(seq, path)
    interior = probes[(probes > 0) & (probes < path.T)]
    sample = interior[:: max(1, interior.size // 8)]
    return max([0.0, *(abs(fpde_residual(F, A, stop(path, float(t)))) for t in sample)])


FPDE_CASES = {  # name -> (F, density, path maker); every residual but asian's is nonzero
    "black_scholes": (black_scholes(0.2, 1.0), diffusion_density(0.3), lambda: geometric(10)),
    "black_scholes_jumps": (black_scholes(0.2, 1.0), diffusion_density(0.25),
                            lambda: jump_walk(10, 2, JUMPS)),
    "asian_forward": (asian_forward(), 0.04, lambda: geometric(10, seed=3)),
    "cylinder": (cylinder(np.sin, np.cos, lambda x: -np.sin(x)), constant_density(0.09),
                 lambda: geometric(9, seed=4)),
    "callable_density": (black_scholes(0.25, 1.1, "put"), lambda t, s: 0.04 + t * s * s,
                         lambda: geometric(10, seed=6, sigma=0.3)),
}


@pytest.mark.parametrize("name", FPDE_CASES)
def test_hedge_fpde_max_is_the_largest_stopped_path_residual(name):
    F, A, make = FPDE_CASES[name]
    path, seq = make()
    rep = hedge(F, call_payoff(1.0), A, path, seq)
    ref = _sampled_fpde_max(F, A, path, seq)
    assert rep.fpde_max_residual == ref and type(rep.fpde_max_residual) is float
    assert (ref > 0.0) == (name != "asian_forward")


@pytest.mark.parametrize("F", [
    identity(0, dim=2),
    Functional(2, lambda sp: float(sp.current[0] * sp.current[1]), pointwise=_evaluator(
        hess=lambda path, t, s: np.tile([[0.0, 1.0], [1.0, 0.0]], (t.size, 1, 1)),
        horiz=lambda path, t, s: np.zeros(t.size))),
], ids=["identity", "product"])
def test_hedge_fpde_max_on_two_dimensions(F):
    # einsum may sum the trace in another order than trace(a @ hess)
    seq = dyadic(1.0, 8)
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0, "dim": 2}, 5, seq)
    A = np.array([[0.04, 0.013], [0.013, 0.09]])
    rep = hedge(F, lambda p: float(p.values[-1, 0]), A, path, seq)
    assert rep.fpde_max_residual == pytest.approx(_sampled_fpde_max(F, A, path, seq),
                                                  rel=1e-15, abs=0.0)


def test_hedge_without_interior_probes_reads_no_residual():
    # levels [0, 1] twice: the probes are 0 and T, so no state is sampled
    seq = PartitionSequence(1.0, [[0.0, 1.0], [0.0, 1.0]], dense=False)
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0}, 0, seq)
    rep = hedge(black_scholes(0.2, 1.0), call_payoff(1.0), constant_density(0.04), path, seq)
    assert rep.fpde_max_residual == 0.0 and not rep.fpde_flag


def test_hedge_on_scalar_only_cylinder_equals_its_array_twin():
    # each branch is arithmetic only, so the per-point calls of the scalar-only
    # cylinder and the one array call of its np.where twin give the same bits
    path, seq = geometric(9, seed=23, sigma=0.3)
    k = 1.05
    branchy = cylinder(lambda x: (x - k) * (x - k) if x > k else 0.0,
                       lambda x: 2.0 * (x - k) if x > k else 0.0,
                       lambda x: 2.0 if x > k else 0.0)
    twin = cylinder(lambda x: np.where(x > k, (x - k) * (x - k), 0.0),
                    lambda x: np.where(x > k, 2.0 * (x - k), 0.0),
                    lambda x: np.where(x > k, 2.0, 0.0))
    payoff = lambda path: branchy.value(stop(path, path.T))
    reports = [hedge(F, payoff, 0.04, path, seq, realized_density=diffusion_density(0.3))
               for F in (branchy, twin)]
    for f in fields(reports[0]):
        a, b = (getattr(r, f.name) for r in reports)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


SHORT_HORIZON_ENTRY_POINTS = {
    "qv_along": lambda path, seq: qv_along(path, seq),
    "qv_matrix": lambda path, seq: qv_matrix(stack([path, path]), seq),
    "follmer_integral_functional": lambda path, seq: follmer_integral_functional(
        identity(), path, seq),
    "ito_residual_functional": lambda path, seq: ito_residual_functional(
        cylinder(np.sin, np.cos, lambda x: -np.sin(x)), path, seq),
    "ito_residual_cylinder": lambda path, seq: ito_residual_cylinder(
        np.sin, np.cos, lambda x: -np.sin(x), path, seq),
    "plausibility_diagnostic": lambda path, seq: plausibility_diagnostic(path, seq),
    "vovk_uniform_check": lambda path, seq: vovk_uniform_check(path, seq),
    "norvaisa_qv_check": lambda path, seq: norvaisa_qv_check(path, seq, [(0.0, 0.5)]),
    "simple_ledger": lambda path, seq: simple_ledger(SimpleStrategy.constant(3, 1.0, 8), path, seq),
}


@pytest.mark.parametrize("entry", sorted(SHORT_HORIZON_ENTRY_POINTS))
def test_partition_on_another_horizon_is_rejected(entry):
    # every level of dyadic(1, 7) lies on the grid of a path on [0, 2], so
    # without the check each report would cover [0, 1] only
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 3, dyadic(2.0, 8))
    with pytest.raises(ValueError, match="partition horizon 1.0 is not the path's horizon 2.0"):
        SHORT_HORIZON_ENTRY_POINTS[entry](path, dyadic(1.0, 7))


LONG_HORIZON_ENTRY_POINTS = SHORT_HORIZON_ENTRY_POINTS | {
    "hedge": lambda path, seq: hedge(
        black_scholes(0.2, 1.0), call_payoff(1.0), diffusion_density(0.2), path, seq),
    "gain_from_vertical_form": lambda path, seq: gain_from_vertical_form(identity(), path, seq),
}


@pytest.mark.parametrize("entry", sorted(LONG_HORIZON_ENTRY_POINTS))
def test_partition_past_the_path_horizon_is_rejected(entry):
    # the horizons are compared before any time past the path's is looked up
    # on its grid, so the error names them, not a time missing from the grid
    path = generate({"kind": "geometric_walk", "sigma": 0.3}, 3, dyadic(1.0, 8))
    with pytest.raises(ValueError, match="^the partition horizon 2.0 is not the path's horizon 1.0$"):
        LONG_HORIZON_ENTRY_POINTS[entry](path, dyadic(2.0, 8))


@pytest.mark.parametrize("entry", ["qv_along", "qv_matrix", "follmer_integral_functional",
                                   "ito_residual_functional", "ito_residual_cylinder", "hedge",
                                   "gain_from_vertical_form"])
def test_each_library_call_refines_once(entry, monkeypatch):
    """One library call checks the partition, refines it onto the jump times and
    maps its probes once, and runs every partition sum along that refinement:
    ``hedge``'s QV verdict and gains, and each Itô form's Föllmer terms and
    verdict, read one driver result."""
    import pathcalc.integration as integration
    import pathcalc.partitions as partitions
    import pathcalc.quadvar as quadvar
    import pathcalc.trading as trading

    calls, drives = [], []
    real, driver = partitions.refine_with, quadvar._level_sums
    monkeypatch.setattr(partitions, "refine_with", lambda *a: calls.append(1) or real(*a))
    for module in (quadvar, integration, trading):
        monkeypatch.setattr(module, "_level_sums", lambda *a: drives.append(1) or driver(*a))
    seq = dyadic(1.0, 8)
    path = generate(  # a jump off every level but the top
        {"kind": "with_jumps",
         "base": {"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0},
         "jumps": [[0.30078125, [0.2]]]},
        5, seq,
    )
    report = LONG_HORIZON_ENTRY_POINTS[entry](path, seq)
    assert len(calls) == len(drives) == 1
    if entry == "gain_from_vertical_form":
        assert np.array_equal(report.gain, report.level_gains[seq.top])


@pytest.mark.parametrize("entry", ["qv_along", "qv_matrix", "follmer_integral_functional",
                                   "ito_residual_functional", "ito_residual_cylinder", "hedge",
                                   "gain_from_vertical_form"])
def test_a_failed_refinement_names_the_jumps(entry):
    # a jump at every interior time of level 6 puts every one of them in level
    # 0, so the refined top mesh no longer beats level 0's; the ledger's own
    # refinement once raised the bare message of the mesh check
    seq = dyadic(1.0, 6)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0},
         "jumps": [[k / 64, [0.01]] for k in range(1, 64)]},
        5, seq,
    )
    with pytest.raises(ValueError, match="^partition refined onto the path's 63 jump times: "
                                         "declared dense but top mesh does not beat level 0$"):
        LONG_HORIZON_ENTRY_POINTS[entry](path, seq)


ONE_LEVEL_ENTRY_POINTS = {
    name: entry for name, entry in LONG_HORIZON_ENTRY_POINTS.items() if name != "simple_ledger"}


@pytest.mark.parametrize("entry", sorted(ONE_LEVEL_ENTRY_POINTS))
def test_one_level_partition_is_rejected(entry):
    # a simple strategy trades on one level, but every other entry point takes
    # a limit along the levels: on one level Vovk's check once reported
    # uniform=True and Norvaisa's a NaN Cauchy gap
    path = generate({"kind": "geometric_walk", "sigma": 0.3}, 3, dyadic(1.0, 8))
    with pytest.raises(ValueError, match="^need at least two levels to talk about a limit$"):
        ONE_LEVEL_ENTRY_POINTS[entry](path, PartitionSequence(1.0, [dyadic(1.0, 8).level(8)]))


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
    # the elementwise and broadcast routes give the per-cell density_matrix
    # values bit for bit, for array-capable and scalar-only densities
    from pathcalc.functionals import density_matrix

    path, seq = geometric(6, seed=37)
    level = seq.level(seq.top)
    ts, rows = level[:-1], path.values[:-1]
    for spec in (diffusion_density(0.3), lambda t, s: 0.09 * s * s, 0.04,
                 constant_density(0.04), lambda t, s: 0.04 if t < 0.5 else 0.09 * s * s,
                 lambda t, s: np.array([[0.09 * s * s]])):
        cells = _density_cells(spec, ts, rows)
        assert cells.shape == (ts.size, 1, 1)
        ref = np.array([density_matrix(spec, float(t), x, 1) for t, x in zip(ts, rows)])
        assert np.array_equal(cells, ref)
    both = stack([path, path])
    outer = lambda t, x: 0.09 * np.outer(x, x)
    for spec in (np.eye(2), outer, constant_density(0.04)):
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
