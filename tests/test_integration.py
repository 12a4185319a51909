import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    Functional,
    SampledPath,
    asian_forward,
    black_scholes,
    cylinder,
    dyadic,
    follmer_integral_cylinder,
    follmer_integral_functional,
    generate,
    identity,
    ito_residual_cylinder,
    ito_residual_functional,
    monomial,
    qv_along,
    qv_matrix,
    stack,
    stop,
)
from pathcalc.convergence import ConvergenceConfig
from pathcalc.integration import _qv_flags, _truncated_dot_sums, follmer_integrand
from pathcalc.partitions import refine_onto
from pathcalc.quadvar import _continuous_qv_increments


def walk(level, seed=7, sigma=1.0):
    seq = dyadic(1.0, level)
    return generate({"kind": "scaled_random_walk", "sigma": sigma}, seed, seq), seq


def one_jump_step(level, t=0.5, height=1.0):
    seq = dyadic(1.0, level)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "smooth", "name": "linear", "scale": 0.0},
         "jumps": [[t, [height]]]},
        0, seq,
    )
    return path, seq


# ---------------------------------------------------------------------------
# Riemann sums
# ---------------------------------------------------------------------------

def test_identity_telescopes_exactly_at_every_level():
    path, seq = walk(10)
    rep = follmer_integral_functional(identity(), path, seq)
    probe_vals = path.values[path.grid_indices(rep.probe_times), 0]
    for n in rep.levels:
        # algebraic telescoping; allow eps-size float association dust
        assert np.max(np.abs(rep.sums[n] - (probe_vals - path.values[0, 0]))) < 1e-14
    assert rep.converged
    assert rep.limit[0] == 0.0  # value at t = 0


def test_constant_integrand_exact():
    path, seq = walk(8, seed=2)
    rep = follmer_integral_cylinder(lambda x: 3.0 + 0.0 * x, path, seq)
    probe_vals = path.values[path.grid_indices(rep.probe_times), 0]
    for n in rep.levels:
        assert np.allclose(rep.sums[n], 3.0 * (probe_vals - path.values[0, 0]), atol=1e-14)


def test_sums_are_linear_per_level():
    path, seq = walk(8, seed=4)
    f1 = follmer_integral_cylinder(lambda x: x, path, seq)
    f2 = follmer_integral_cylinder(lambda x: x * x, path, seq)
    combo = follmer_integral_cylinder(lambda x: 2.0 * x - 3.0 * x * x, path, seq)
    for n in combo.levels:
        assert np.allclose(combo.sums[n], 2.0 * f1.sums[n] - 3.0 * f2.sums[n], atol=1e-12)


def test_x_squared_ito_identity_limit():
    path, seq = walk(12)
    qv = qv_along(path, seq)
    rep = follmer_integral_functional(
        cylinder(lambda x: x * x, lambda x: 2 * x, vectorized=True), path, seq
    )
    lhs = path.values[-1, 0] ** 2 - path.values[0, 0] ** 2
    assert rep.limit[-1] == pytest.approx(lhs - qv.limit[-1], abs=1e-12)


def test_asian_gain_on_linear_path():
    seq = dyadic(1.0, 10)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    rep = follmer_integral_functional(asian_forward(), path, seq)
    # integral of (T - t) dt = T^2 / 2, up to one mesh of quadrature
    assert rep.limit[-1] == pytest.approx(0.5, abs=2.0**-10 + 1e-12)


def test_cylinder_step_path_left_evaluation():
    path, seq = one_jump_step(8)
    rep = follmer_integral_cylinder(lambda x: 2.0 * x, path, seq)
    # the only nonzero increment is the jump cell, weighted by 2 x(pre-jump) = 0
    for n in rep.levels:
        assert np.array_equal(rep.sums[n], np.zeros_like(rep.sums[n]))
    qv = qv_along(path, seq)
    lhs = path.values[-1, 0] ** 2 - path.values[0, 0] ** 2
    assert lhs == rep.limit[-1] + qv.limit[-1]  # the jump mass carries everything


def test_cylinder_smooth_riemann_stieltjes():
    seq = dyadic(1.0, 10)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    rep = follmer_integral_cylinder(lambda x: 2.0 * x, path, seq, probes=[0.5, 1.0])
    assert rep.limit[-1] == pytest.approx(1.0, abs=2.0**-9)
    assert rep.limit[0] == pytest.approx(0.25, abs=2.0**-9)


def test_wrong_evaluation_detector():
    # evaluating the integrand at the right endpoint instead of the left one
    # shifts the x^2 integral by twice the squared-increment sum
    path, seq = walk(10, seed=15)
    x = path.values[:, 0]
    rep = follmer_integral_cylinder(lambda v: 2.0 * v, path, seq, probes=[1.0])
    qv = qv_along(path, seq, probe_times=[1.0])
    for n in rep.levels:
        lv = x[path.grid_indices(seq.level(n))]
        wrong = float(np.sum(2.0 * lv[1:] * np.diff(lv)))
        assert wrong - rep.sums[n][0] == pytest.approx(2.0 * qv.approx[n][0], rel=1e-12)


def test_fast_and_loop_integrands_agree():
    seq = dyadic(1.0, 8)
    path = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 3, seq)
    F = black_scholes(0.2, 1.0)
    fast = follmer_integrand(F, path, seq, 6)
    F.pointwise_grad = None  # force the generic state-by-state route
    slow = follmer_integrand(F, path, seq, 6)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_integrand_uses_jump_perturbed_state():
    path, seq = one_jump_step(6)
    F = cylinder(lambda x: x * x, lambda x: 2 * x)
    g = follmer_integrand(F, path, seq, seq.top)
    i = int(np.searchsorted(seq.level(seq.top), 0.5))
    assert g[i, 0] == 2.0  # gradient at x(t_i) = left limit + jump = 1


def test_path_level_entry_points_have_one_derivative_policy():
    import inspect

    import pathcalc
    from pathcalc.functionals import fpde_residual
    from pathcalc.trading import gain_from_vertical_form, hedge, strategy_from_functional

    for fn in (follmer_integrand, follmer_integral_functional, strategy_from_functional,
               gain_from_vertical_form, ito_residual_functional, hedge, Functional.gradient,
               Functional.hessian, Functional.horizontal, fpde_residual):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"mode", "allow_fd", "bump", "step"}, fn.__name__
    assert not hasattr(pathcalc, "vertical_perturbation")


# ---------------------------------------------------------------------------
# change-of-variable residuals
# ---------------------------------------------------------------------------

def test_ito_functional_identity_is_exact():
    path, seq = walk(9, seed=5)
    rep = ito_residual_functional(identity(), path, seq)
    assert rep.residual == 0.0


def test_ito_functional_x_squared_small_and_decreasing():
    path, seq = walk(12, seed=7)
    F = cylinder(lambda x: x * x, lambda x: 2 * x, lambda x: 2.0 + 0.0 * x,
                 vectorized=True)
    residuals = {
        L: ito_residual_functional(F, path, seq, levels=[L]).residual
        for L in [4, 8, 12]
    }
    lhs_scale = abs(path.values[-1, 0] ** 2) + 1.0
    assert residuals[12] < 1e-2 * lhs_scale
    assert residuals[12] < residuals[8] < residuals[4]


def test_ito_residual_level_sweep_net_decrease():
    # the non-anticipative sums close the identity as the level grows
    path, seq = walk(14, seed=3)
    F = cylinder(lambda x: x * x, lambda x: 2 * x, lambda x: 2.0 + 0.0 * x,
                 vectorized=True)
    for L in [12, 14]:
        r_hi = ito_residual_functional(F, path, seq, levels=[L]).residual
        r_lo = ito_residual_functional(F, path, seq, levels=[L - 4]).residual
        assert r_hi < r_lo


def jump_walk(level, seed=4):
    # a jump on the finest level only, so every coarser level is refined
    seq = dyadic(1.0, level)
    spec = {"kind": "with_jumps",
            "base": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
            "jumps": [[3 * 2.0**-level, [0.1]]]}
    return generate(spec, seed, seq), seq


def test_ito_residual_sweep_equals_single_level_calls():
    path, seq = jump_walk(8)
    F = black_scholes(0.2, 1.0)
    sweep = ito_residual_functional(F, path, seq, levels=[6, 2, 8, 4])
    assert sorted(sweep.residual_by_level) == [2, 4, 6, 8]
    for n, residual in sweep.residual_by_level.items():
        single = ito_residual_functional(F, path, seq, levels=[n])
        assert residual == single.residual
        assert single.residual_by_level == {n: single.residual}
    top = ito_residual_functional(F, path, seq)
    assert sweep.residual == top.residual == sweep.residual_by_level[8]
    assert sweep.follmer_term == top.follmer_term
    with pytest.raises(ValueError, match="at least one level"):
        ito_residual_functional(F, path, seq, levels=[])


def test_ito_residual_sweep_evaluates_drift_once():
    path, seq = jump_walk(7)
    F = black_scholes(0.2, 1.0)
    calls = []
    horizontal = F.horizontal
    F.horizontal = lambda sp, **kw: calls.append(sp.time) or horizontal(sp, **kw)
    ito_residual_functional(F, path, seq, levels=[3, 5, 7])
    assert len(calls) == seq.level(seq.top).size - 1


def _per_cell_ito_terms(F, path, seq, levels):
    """Reference route: one left-stopped path per finest cell, the drift
    and quadratic terms added with ``+=`` in time order from 0.0."""
    seq = refine_onto(seq, path.jump_times)[0]
    fine = seq.level(seq.top)
    dt = np.diff(fine)
    dqv = _continuous_qv_increments(path, seq)
    drift = 0.0
    qv_term = 0.0
    for k in range(fine.size - 1):
        sp = stop(path, float(fine[k]), side="left")
        drift += F.horizontal(sp) * dt[k]
        qv_term += 0.5 * float(np.trace(F.hessian(sp) @ dqv[k]))
    lhs = F.value(stop(path, path.T))
    initial = F.value(stop(path, 0.0))
    jump_term = 0.0
    for tj, dlt in path.jumps:
        left, right = stop(path, tj, side="left"), stop(path, tj, side="right")
        jump_term += F.value(right) - F.value(left) - float(F.gradient(left) @ dlt)
    residuals = {}
    for n in levels:
        g = follmer_integrand(F, path, seq, n)
        lx = path.values[path.grid_indices(seq.level(n))]
        follmer = float(np.sum(g * np.diff(lx, axis=0)))
        residuals[n] = abs(lhs - (initial + follmer + drift + qv_term + jump_term))
    return drift, qv_term, residuals


def _fd_only(dim):
    # eval_fn alone: every derivative goes through perturb and extend_to
    w = np.array([1.0, 0.7, -0.4])[:dim]
    return Functional(dim, lambda sp: math.sin(float(sp.current @ w)) * (1.0 + sp.time**2),
                      name=f"fd_only_{dim}")


def _product_2d():
    return cylinder(lambda v: v[0] * v[1], lambda v: np.array([v[1], v[0]]),
                    lambda v: np.array([[0.0, 1.0], [1.0, 0.0]]), dim=2, name="product_2d")


def _negative_zero_drift():
    return Functional(1, lambda sp: float(sp.current[0]), hess=lambda sp: np.zeros((1, 1)),
                      horiz=lambda sp: -0.0, name="negative_zero_drift")


ITO_FUNCTIONALS = [
    monomial(3), black_scholes(0.3, 1.0), black_scholes(0.2, 1.1, "put"), identity(),
    _negative_zero_drift(), _fd_only(1), _product_2d(), identity(1, dim=2), _fd_only(2),
    identity(2, dim=3), _fd_only(3),
]


@st.composite
def ito_paths(draw, dim):
    """A path of dimension ``dim`` on a dyadic grid with jumps on a level,
    off every level (added to the grid) and at the horizon, each optional."""
    level = draw(st.integers(2, 6))
    grid = dyadic(1.0, level).level(level)
    jump_times = set()
    if draw(st.booleans()):  # on the finest level, or on coarser ones too
        jump_times.add(float(grid[draw(st.integers(1, grid.size - 2))]))
    if draw(st.booleans()):
        jump_times.add(draw(st.sampled_from([0.3, 1.0 / 3.0, 0.71])))
    if draw(st.booleans()):  # no cell starts at T
        jump_times.add(1.0)
    times = np.union1d(grid, sorted(jump_times))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = 1.0 + np.cumsum(0.1 * rng.standard_normal((times.size, dim)), axis=0)
    jumps = []
    for t in sorted(jump_times):
        jumps.append((t, rng.choice([-1.0, 1.0], dim) * rng.uniform(0.01, 0.2, dim)))
        values[np.searchsorted(times, t):] += jumps[-1][1]
    levels = sorted(draw(st.sets(st.integers(0, level), min_size=1)))
    return SampledPath(times, values, jumps), dyadic(1.0, level), levels


@pytest.mark.parametrize("F", ITO_FUNCTIONALS, ids=lambda F: F.name)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_ito_terms_bit_equal_per_cell_reference(F, data):
    path, seq, levels = data.draw(ito_paths(F.dim))
    rep = ito_residual_functional(F, path, seq, levels=levels)
    drift, qv_term, residuals = _per_cell_ito_terms(F, path, seq, levels)
    assert rep.drift_term == drift
    assert math.copysign(1.0, rep.drift_term) == math.copysign(1.0, drift)
    assert rep.qv_term == qv_term
    assert rep.residual_by_level == residuals
    if F.name in ("identity_1", "negative_zero_drift"):
        assert rep.drift_term == 0.0 and math.copysign(1.0, rep.drift_term) == 1.0


POINTWISE_GRAD_FUNCTIONALS = [
    identity(), identity(1, dim=2), identity(2, dim=3), monomial(3), monomial(2, 0.5),
    asian_forward(), black_scholes(0.3, 1.0), black_scholes(0.2, 1.1, "put"),
    cylinder(np.sin, np.cos, vectorized=True),
]


@pytest.mark.parametrize("F", POINTWISE_GRAD_FUNCTIONALS, ids=lambda F: F.name)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_single_gradient_evaluation_equals_per_level_integrands(F, data):
    assert F.pointwise_grad is not None
    path, seq, levels = data.draw(ito_paths(F.dim))
    if data.draw(st.booleans()):
        levels = None  # every level
    rep = follmer_integral_functional(F, path, seq, levels=levels)
    seq = refine_onto(seq, path.jump_times)[0]
    probe_idx = path.grid_indices(rep.probe_times)
    assert rep.levels == (list(range(seq.num_levels)) if levels is None else levels)
    for n in rep.levels:
        g = follmer_integrand(F, path, seq, n)
        assert np.array_equal(rep.integrands[n], g)
        li = path.grid_indices(seq.level(n))
        assert np.array_equal(rep.sums[n], _truncated_dot_sums(path.values, li, g, probe_idx))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2))
def test_qv_flags_from_trailing_levels_equal_all_levels(data, dim):
    path, seq, _ = data.draw(ito_paths(dim))
    # an infinite tolerance makes the verdict the monotone-tail test alone
    tol = data.draw(st.sampled_from([1e-3, 1.0, math.inf]))
    for window in range(1, seq.num_levels + 3):
        config = ConvergenceConfig(tol=tol, window=window)
        full = (qv_along if dim == 1 else qv_matrix)(path, seq, config=config)
        assert _qv_flags(path, seq, config) == (full.converged, full.convergence_metric)


def _per_cell_cylinder_terms(f, f_prime, f_second, path, seq):
    """Reference route: the classical form with the quadratic term added
    with ``+=`` one finest cell at a time, at the right limit x(t_k)."""
    seq, _ = refine_onto(seq, path.jump_times)
    d = path.dim

    def as_vec(v):
        return np.asarray(v, dtype=float).reshape(d)

    def as_mat(v):
        return np.asarray(v, dtype=float).reshape(d, d)

    def arg(v):
        return float(v[0]) if d == 1 else v

    lhs = float(f(arg(path.values[-1])))
    initial = float(f(arg(path.values[0])))
    fx = path.values[path.grid_indices(seq.level(seq.top))]
    g = np.array([as_vec(f_prime(arg(v))) for v in fx[:-1]])
    follmer_term = float(np.sum(g * np.diff(fx, axis=0)))
    dqv = _continuous_qv_increments(path, seq)
    qv_term = 0.0
    for k in range(fx.shape[0] - 1):
        qv_term += 0.5 * float(np.trace(as_mat(f_second(arg(fx[k]))) @ dqv[k]))
    jump_term = 0.0
    for tj, dlt in path.jumps:
        xr = path.value(tj)
        xl = xr - dlt
        jump_term += (
            float(f(arg(xr))) - float(f(arg(xl))) - float(as_vec(f_prime(arg(xl))) @ dlt)
        )
    residual = abs(lhs - (initial + follmer_term + qv_term + jump_term))
    return qv_term, jump_term, follmer_term, residual, seq.top


CYLINDER_FORMS = {  # name -> (dim, f, f', f'')
    "cube": (1, lambda x: x**3, lambda x: 3 * x * x, lambda x: 6 * x),
    "sin": (1, math.sin, math.cos, lambda x: -math.sin(x)),
    "product_2d": (2, lambda v: v[0] * v[1], lambda v: np.array([v[1], v[0]]),
                   lambda v: np.array([[0.0, 1.0], [1.0, 0.0]])),
    "product_3d": (3, lambda v: v[0] * v[1] * v[2],
                   lambda v: np.array([v[1] * v[2], v[0] * v[2], v[0] * v[1]]),
                   lambda v: np.array([[0.0, v[2], v[1]], [v[2], 0.0, v[0]],
                                       [v[1], v[0], 0.0]])),
}


@pytest.mark.parametrize("name", CYLINDER_FORMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ito_cylinder_bit_equal_per_cell_reference(name, data):
    dim, f, f_prime, f_second = CYLINDER_FORMS[name]
    path, seq, _ = data.draw(ito_paths(dim))
    rep = ito_residual_cylinder(f, f_prime, f_second, path, seq)
    qv_term, jump_term, follmer_term, residual, top = _per_cell_cylinder_terms(
        f, f_prime, f_second, path, seq
    )
    assert rep.qv_term == qv_term
    assert rep.jump_term == jump_term
    assert rep.follmer_term == follmer_term
    assert rep.residual == residual
    assert rep.drift_term == 0.0
    assert rep.residual_by_level == {top: residual}


@pytest.mark.parametrize("window", [0, -2])
def test_convergence_window_below_one_rejected(window):
    with pytest.raises(ValueError, match="window must be >= 1"):
        ConvergenceConfig(window=window)


def test_ito_functional_cubic_on_step_path_closed_form():
    path, seq = one_jump_step(8)
    F = cylinder(lambda x: x**3, lambda x: 3 * x * x, lambda x: 6 * x)
    rep = ito_residual_functional(F, path, seq)
    assert rep.residual < 1e-10
    assert rep.jump_term == pytest.approx(1.0, abs=1e-15)
    assert rep.follmer_term == 0.0


def test_ito_cylinder_linear_exact():
    path, seq = walk(8, seed=8)
    rep = ito_residual_cylinder(lambda x: x, lambda x: 1.0, lambda x: 0.0, path, seq)
    assert rep.residual == 0.0


def test_ito_cylinder_x_squared_bounded_by_qv_metric():
    path, seq = walk(12, seed=9)
    rep = ito_residual_cylinder(lambda x: x * x, lambda x: 2 * x, lambda x: 2.0,
                                path, seq)
    # identity is exact at the top level; the bound is generous
    assert rep.residual <= max(rep.qv_metric, 1e-12)


def test_ito_cylinder_two_dim_product():
    path, seq = walk(10, seed=10)
    both = stack([path, path])
    rep = ito_residual_cylinder(
        lambda v: v[0] * v[1],
        lambda v: np.array([v[1], v[0]]),
        lambda v: np.array([[0.0, 1.0], [1.0, 0.0]]),
        both, seq,
    )
    assert rep.residual < 1e-12
    assert rep.qv_term == pytest.approx(qv_along(path, seq).limit[-1], rel=1e-12)


def test_jump_localization():
    path, seq = one_jump_step(7, t=0.25, height=2.0)
    F = cylinder(lambda x: x**3, lambda x: 3 * x * x, lambda x: 6 * x)
    rep = ito_residual_functional(F, path, seq)
    # F(s, x_s) - F(s, x_{s-}) - grad . dx = 8 - 0 - 0
    assert rep.jump_term == pytest.approx(8.0, abs=1e-15)


def test_ito_reports_qv_caveat():
    path, seq = walk(10, seed=11)
    F = cylinder(lambda x: x * x, lambda x: 2 * x, lambda x: 2.0, vectorized=True)
    rep = ito_residual_functional(F, path, seq)
    assert rep.qv_converged in (True, False)
    assert rep.qv_metric > 0
