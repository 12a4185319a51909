import math

import numpy as np
import pytest
from scipy.stats import norm

from pathcalc import (
    Functional,
    asian_forward,
    black_scholes,
    builtin,
    constant_density,
    cylinder,
    diffusion_density,
    dyadic,
    fpde_residual,
    generate,
    horizontal_derivative_fd,
    identity,
    running_integral,
    stop,
    vertical_derivative_fd,
    vertical_hessian_fd,
)
from pathcalc.functionals import bs_delta, bs_gamma, bs_price, bs_theta


def scipy_bs_call(s, k, sigma, tau):
    """Independent closed forms for cross-checking the erf-based ones."""
    v = sigma * math.sqrt(tau)
    d1 = (math.log(s / k) + 0.5 * v * v) / v
    d2 = d1 - v
    price = s * norm.cdf(d1) - k * norm.cdf(d2)
    delta = norm.cdf(d1)
    gamma = norm.pdf(d1) / (s * v)
    theta = -s * norm.pdf(d1) * sigma / (2 * math.sqrt(tau))
    return price, delta, gamma, theta


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_vertical_fd_exact_on_quadratic():
    seq = dyadic(1.0, 4)
    path = generate({"kind": "smooth", "f": lambda t: 3.0}, 0, seq)
    F = cylinder(lambda x: x * x)
    fd = vertical_derivative_fd(F, stop(path, 0.5), bump=1e-5)
    assert fd[0] == pytest.approx(6.0, abs=1e-8)


def test_vertical_fd_zero_on_running_integral():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 3, seq)
    F = running_integral()
    fd = vertical_derivative_fd(F, stop(path, 0.5))
    assert fd[0] == 0.0


def test_vertical_fd_matches_bs_delta():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0}, 8, seq)
    F = black_scholes(0.2, 1.0)
    sp = stop(path, 0.5)
    spot = float(sp.current[0])
    fd = vertical_derivative_fd(F, sp, bump=1e-4 * spot)
    assert fd[0] == pytest.approx(bs_delta(spot, 1.0, 0.2, 0.5), abs=1e-6)


def test_horizontal_fd_examples():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0, "x0": 2.0}, 1, seq)
    sp = stop(path, 0.5)
    cur = float(sp.current[0])
    # F = omega(t): frozen extension is constant
    assert horizontal_derivative_fd(identity(), sp) == pytest.approx(0.0, abs=1e-12)
    # F = t * omega(t)
    Ft = Functional(1, lambda s: s.time * float(s.current[0]))
    assert horizontal_derivative_fd(Ft, sp) == pytest.approx(cur, rel=1e-9)
    # average-style functional: the two time terms cancel exactly
    assert horizontal_derivative_fd(asian_forward(), sp) == pytest.approx(0.0, abs=1e-9)


def test_horizontal_fd_refuses_horizon():
    seq = dyadic(1.0, 3)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    with pytest.raises(ValueError):
        horizontal_derivative_fd(identity(), stop(path, 1.0))


def test_fd_convergence_orders():
    # central vertical: halving the bump divides the error by about 4;
    # one-sided horizontal: by about 2
    seq = dyadic(1.0, 6)
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0}, 8, seq)
    F = black_scholes(0.2, 1.1)
    sp = stop(path, 0.5)
    s0 = float(sp.current[0])
    exact_d = bs_delta(s0, 1.1, 0.2, 0.5)
    e1 = abs(vertical_derivative_fd(F, sp, bump=2e-2)[0] - exact_d)
    e2 = abs(vertical_derivative_fd(F, sp, bump=1e-2)[0] - exact_d)
    assert 2.5 < e1 / e2 < 6.0
    exact_t = bs_theta(s0, 1.1, 0.2, 0.5)
    h1 = abs(horizontal_derivative_fd(F, sp, step=2e-3) - exact_t)
    h2 = abs(horizontal_derivative_fd(F, sp, step=1e-3) - exact_t)
    assert 1.5 < h1 / h2 < 3.0


def test_fd_hessian_symmetric_and_correct():
    seq = dyadic(1.0, 4)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0, "dim": 2}, 6, seq)
    F = Functional(2, lambda sp: float(sp.current[0] ** 2 * sp.current[1]))
    H = vertical_hessian_fd(F, stop(path, 0.5), bump=1e-3)
    assert np.max(np.abs(H - H.T)) == 0.0
    x, y = stop(path, 0.5).current
    assert H[0, 0] == pytest.approx(2 * y, abs=1e-5)
    assert H[0, 1] == pytest.approx(2 * x, abs=1e-5)


def test_bare_functional_derivatives_fall_back_to_fd():
    F = Functional(1, lambda sp: float(sp.current[0]))
    seq = dyadic(1.0, 3)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    sp = stop(path, 0.5)
    assert F.gradient(sp)[0] == pytest.approx(1.0, abs=1e-9)
    assert F.hessian(sp)[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert F.horizontal(sp) == 0.0


# ---------------------------------------------------------------------------
# non-anticipativity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    identity,
    running_integral,
    asian_forward,
    lambda: black_scholes(0.2, 1.0),
    lambda: cylinder(lambda x: math.sin(x), lambda x: math.cos(x)),
])
def test_non_anticipativity_exact(make):
    F = make()
    seq = dyadic(1.0, 6)
    base = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 10, seq)
    t = 0.5
    cut = base.index_at(t)
    rng = np.random.default_rng(0)
    tampered_values = base.values.copy()
    tampered_values[cut + 1:] += rng.normal(size=(base.values.shape[0] - cut - 1, 1))
    from pathcalc import SampledPath

    tampered = SampledPath(base.times, tampered_values)
    assert F.value(stop(base, t)) == F.value(stop(tampered, t))
    assert F.gradient(stop(base, t))[0] == F.gradient(stop(tampered, t))[0]


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_identity_builtin_example():
    seq = dyadic(1.0, 3)
    path = generate({"kind": "smooth", "f": lambda t: 5.0}, 0, seq)
    F = builtin("identity_1")
    sp = stop(path, 0.5)
    assert F.value(sp) == 5.0
    assert F.gradient(sp).tolist() == [1.0]
    assert F.hessian(sp).tolist() == [[0.0]]


def test_black_scholes_terminal_payoff():
    seq = dyadic(1.0, 4)
    path = generate({"kind": "smooth", "f": lambda t: 1.0 + 0.3 * t}, 0, seq)
    F = black_scholes(0.2, 1.0)
    assert F.value(stop(path, 1.0)) == pytest.approx(0.3, abs=1e-15)
    P = black_scholes(0.2, 1.5, kind="put")
    assert P.value(stop(path, 1.0)) == pytest.approx(0.2, abs=1e-15)


def test_black_scholes_matches_independent_formulas():
    F = black_scholes(0.25, 1.2)
    seq = dyadic(1.0, 5)
    path = generate({"kind": "smooth", "f": lambda t: 0.9 + 0.4 * t}, 0, seq)
    sp = stop(path, 0.25)
    s0 = float(sp.current[0])
    price, delta, gamma, theta = scipy_bs_call(s0, 1.2, 0.25, 0.75)
    assert F.value(sp) == pytest.approx(price, rel=1e-12)
    assert F.gradient(sp)[0] == pytest.approx(delta, rel=1e-12)
    assert F.hessian(sp)[0, 0] == pytest.approx(gamma, rel=1e-12)
    assert F.horizontal(sp) == pytest.approx(theta, rel=1e-12)


def test_black_scholes_vectorized_matches_scalar():
    F = black_scholes(0.2, 1.0)
    ts = np.array([0.0, 0.25, 0.5, 0.9, 1.0])
    ss = np.array([0.8, 1.0, 1.3, 1.05, 0.7])
    vals = F.pointwise_value(ts, ss[:, None], 1.0)
    deltas = F.pointwise_grad(ts, ss[:, None], 1.0)[:, 0]
    gammas = F.pointwise_hess(ts, ss[:, None], 1.0)[:, 0, 0]
    for k in range(ts.size):
        tau = 1.0 - ts[k]
        assert vals[k] == pytest.approx(bs_price(ss[k], 1.0, 0.2, tau), abs=1e-14)
        assert deltas[k] == pytest.approx(bs_delta(ss[k], 1.0, 0.2, tau), abs=1e-14)
        assert gammas[k] == pytest.approx(bs_gamma(ss[k], 1.0, 0.2, tau), abs=1e-14)


def test_asian_forward_at_horizon_is_integral():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    F = asian_forward()
    dt = np.diff(path.times)
    left_riemann = float(path.values[:-1, 0] @ dt)
    assert F.value(stop(path, 1.0)) == pytest.approx(left_riemann, abs=1e-15)


def test_monomial_matches_cylinder_closed_forms():
    from pathcalc import monomial

    seq = dyadic(1.0, 5)
    path = generate({"kind": "smooth", "f": lambda t: 1.5}, 0, seq)
    F = monomial(3, coeff=2.0)
    sp = stop(path, 0.5)
    assert F.value(sp) == 2.0 * 1.5**3
    assert F.gradient(sp)[0] == 6.0 * 1.5**2
    assert F.hessian(sp)[0, 0] == 12.0 * 1.5
    assert F.pointwise_grad is not None


def test_builtin_dispatch_and_validation():
    assert builtin("black_scholes", sigma=0.2, K=1.0).name == "black_scholes_call"
    assert builtin("asian_forward").name == "asian_forward"
    assert builtin("identity_2", dim=3).name == "identity_2"
    assert builtin("monomial", power=2).name == "monomial_2"
    with pytest.raises(ValueError):
        builtin("black_scholes", sigma=-0.2, strike=1.0)
    with pytest.raises(ValueError):
        builtin("black_scholes", sigma=0.2, strike=-1.0)
    with pytest.raises(ValueError):
        builtin("what_is_this")


# ---------------------------------------------------------------------------
# pricing-equation residual
# ---------------------------------------------------------------------------

def test_fpde_residual_black_scholes_is_zero():
    seq = dyadic(1.0, 8)
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0}, 2, seq)
    F = black_scholes(0.2, 1.0)
    A = diffusion_density(0.2)
    for t in [0.125, 0.5, 0.875]:
        assert fpde_residual(F, A, stop(path, t)) == pytest.approx(0.0, abs=1e-12)


def test_fpde_residual_asian_zero_for_any_density():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0, "x0": 3.0}, 5, seq)
    F = asian_forward()
    assert fpde_residual(F, constant_density(7.0), stop(path, 0.5)) == 0.0
    assert fpde_residual(F, diffusion_density(1.0), stop(path, 0.25)) == 0.0


def test_fpde_residual_misspecified_sigma_closed_form():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0}, 9, seq)
    F = black_scholes(0.2, 1.0)
    wrong = diffusion_density(0.3)
    sp = stop(path, 0.5)
    s0 = float(sp.current[0])
    expected = 0.5 * (0.09 - 0.04) * s0 * s0 * bs_gamma(s0, 1.0, 0.2, 0.5)
    assert fpde_residual(F, wrong, sp) == pytest.approx(expected, rel=1e-12)


def test_fpde_residual_rejects_horizon_and_falls_back_to_fd():
    seq = dyadic(1.0, 3)
    path = generate({"kind": "smooth", "name": "linear", "offset": 1.0}, 0, seq)
    F = black_scholes(0.2, 1.0)
    with pytest.raises(ValueError):
        fpde_residual(F, diffusion_density(0.2), stop(path, 1.0))
    bare = Functional(1, lambda sp: float(sp.current[0]))
    assert fpde_residual(bare, diffusion_density(0.2), stop(path, 0.5)) == pytest.approx(
        0.0, abs=1e-6
    )
