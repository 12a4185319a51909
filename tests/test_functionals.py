import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from pathcalc import (
    Functional,
    SampledPath,
    StoppedPath,
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
    monomial,
    running_integral,
    stop,
    vertical_derivative_fd,
    vertical_hessian_fd,
)
from pathcalc.functionals import _elementwise, bs_price

# A path on [0, 1] for the hooks that read only its horizon.
UNIT = SampledPath([0.0, 1.0], [0.0, 0.0])

# The scalar reference route of the Black-Scholes derivatives that the library
# defines only in its array kernel: libm's log and exp, one point at a time.

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _npdf(x):
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _d1(s, strike, sigma, tau):
    v = sigma * math.sqrt(tau)
    return (math.log(s / strike) + 0.5 * v * v) / v


def bs_delta(s, strike, sigma, tau, kind="call", cdf=None):
    """``cdf``: the normal distribution function, ``math.erfc``'s by default."""
    if tau <= 0.0 or s <= 0.0:
        if kind == "call":
            return 1.0 if s > strike else (0.5 if s == strike else 0.0)
        return -1.0 if s < strike else (-0.5 if s == strike else 0.0)
    n1 = (cdf or (lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))))(_d1(s, strike, sigma, tau))
    return n1 if kind == "call" else n1 - 1.0


def bs_gamma(s, strike, sigma, tau):
    if tau <= 0.0 or s <= 0.0:
        return 0.0
    den = s * (sigma * math.sqrt(tau))  # 0: a vanishing s
    return _npdf(_d1(s, strike, sigma, tau)) / den if den > 0.0 else 0.0


def bs_theta(s, strike, sigma, tau):
    """Derivative in calendar time t (time to maturity decreasing)."""
    if tau <= 0.0 or s <= 0.0:
        return 0.0
    return -s * _npdf(_d1(s, strike, sigma, tau)) * sigma / (2.0 * math.sqrt(tau))


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


def _hook(**answers):
    """A pointwise hook answering each named quantity with a constant."""
    return lambda path, t, s, want: tuple(
        None if q not in answers else np.full((t.size, *np.shape(answers[q])), answers[q])
        for q in want)


def test_scalar_methods_read_the_hook_only_from_a_whole_horiz_request():
    path = generate({"kind": "smooth", "name": "quadratic"}, 0, dyadic(1.0, 3))
    sp = stop(path, 0.5)
    square = lambda sp: float(sp.current[0]) ** 2
    # a hook without "horiz" is not exact: every derivative is a difference
    grad_only = Functional(1, square, pointwise=_hook(grad=[7.0]))
    assert np.array_equal(grad_only.gradient(sp), vertical_derivative_fd(grad_only, sp))
    assert grad_only.gradient(sp)[0] != 7.0
    assert grad_only.horizontal(sp) == horizontal_derivative_fd(grad_only, sp)
    # a hook answering the quantity and "horiz" gives both; the Hessian it
    # lacks is still a difference
    both = Functional(1, square, pointwise=_hook(grad=[7.0], horiz=0.5))
    assert both.gradient(sp).tolist() == [7.0]
    assert both.horizontal(sp) == 0.5
    assert np.array_equal(both.hessian(sp), vertical_hessian_fd(both, sp))


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
    vals, deltas, gammas = F.pointwise(UNIT, ts, ss[:, None], ("value", "grad", "hess"))
    deltas, gammas = deltas[:, 0], gammas[:, 0, 0]
    for k in range(ts.size):
        tau = 1.0 - ts[k]
        assert vals[k] == pytest.approx(bs_price(ss[k], 1.0, 0.2, tau), abs=1e-14)
        assert deltas[k] == pytest.approx(bs_delta(ss[k], 1.0, 0.2, tau), abs=1e-14)
        assert gammas[k] == pytest.approx(bs_gamma(ss[k], 1.0, 0.2, tau), abs=1e-14)


# Reference route of the Black-Scholes evaluator: one kernel per quantity,
# each working out its own d1 and ndtr values.


def _ref_d1(s, strike, sigma, tau):
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    live = (tau > 0.0) & (s > 0.0)
    safe_s = np.where(live, s, 1.0)
    safe_tau = np.where(live, tau, 1.0)
    v = sigma * np.sqrt(safe_tau)
    d1 = (np.log(safe_s / strike) + 0.5 * v * v) / v
    return s, live, safe_s, v, d1


def _bs_price_vec(s, strike, sigma, tau, kind):
    s, live, safe_s, v, d1 = _ref_d1(s, strike, sigma, tau)
    d2 = d1 - v
    if kind == "call":
        val = safe_s * ndtr(d1) - strike * ndtr(d2)
        dead = np.maximum(s - strike, 0.0)
    else:
        val = strike * ndtr(-d2) - safe_s * ndtr(-d1)
        dead = np.maximum(strike - s, 0.0)
    return np.where(live, val, dead)


def _bs_delta_vec(s, strike, sigma, tau, kind):
    s, live, safe_s, v, d1 = _ref_d1(s, strike, sigma, tau)
    if kind == "call":
        val = ndtr(d1)
        dead = np.where(s > strike, 1.0, np.where(s == strike, 0.5, 0.0))
    else:
        val = ndtr(d1) - 1.0
        dead = np.where(s < strike, -1.0, np.where(s == strike, -0.5, 0.0))
    return np.where(live, val, dead)


def _bs_gamma_vec(s, strike, sigma, tau):
    s, live, safe_s, v, d1 = _ref_d1(s, strike, sigma, tau)
    pdf = np.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI
    return np.where(live, pdf / (safe_s * v), 0.0)


# (t, s) of the first point: live, at the horizon (tau == 0), at s == 0,
# below zero, at the strike before T (live) and at the strike at T
FIRST_POINTS = [(0.3, 1.1), (1.0, 1.1), (0.3, 0.0), (0.3, -0.5), (0.3, 1.2), (1.0, 1.2)]


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("size", [1, 2, 16_385])
@pytest.mark.parametrize("first", FIRST_POINTS)
def test_black_scholes_evaluator_bit_equal_per_quantity_reference(kind, size, first):
    sigma, strike, T = 0.25, 1.2, 1.0
    rng = np.random.default_rng(size)
    t = np.sort(rng.uniform(0.0, T, size))
    s = 1.2 * np.exp(0.3 * rng.standard_normal(size))
    if size > 2:  # dead points throughout: at T, at and below zero, at the strike
        t[-1] = T
        s[1::97], s[2::89], s[3::83] = 0.0, -0.1, strike
        t[4::71] = T
        s[4::142] = strike
    t[0], s[0] = first
    F = black_scholes(sigma, strike, kind)
    ref = {
        "value": _bs_price_vec(s, strike, sigma, T - t, kind),
        "grad": _bs_delta_vec(s, strike, sigma, T - t, kind)[:, None],
        "hess": _bs_gamma_vec(s, strike, sigma, T - t)[:, None, None],
    }
    for want in [("value", "grad", "hess"), ("grad",), ("hess",), ("value",),
                 ("hess", "value")]:
        got = F.pointwise(UNIT, t, s[:, None], want)
        assert len(got) == len(want)
        for q, arr in zip(want, got):
            assert arr.shape == ref[q].shape
            assert np.array_equal(arr, ref[q]), (q, want)


def _as_bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _bs_closed_forms(sigma, strike, t, s, T):
    """Theta (n,) and gamma (n, 1, 1) from the scalar ``bs_theta``/``bs_gamma``."""
    states = [(float(sk), T - float(tk)) for tk, (sk,) in zip(t, s)]
    return (np.array([bs_theta(sk, strike, sigma, tau) for sk, tau in states]),
            np.array([[[bs_gamma(sk, strike, sigma, tau)]] for sk, tau in states]))


def _assert_batch_bit_equal(sigma, strike, kind, t, s):
    """The hook's answer to a "horiz" request against the scalar math route,
    compared as int64 so that the sign of a zero counts."""
    horiz, hess = black_scholes(sigma, strike, kind).pointwise(UNIT, t, s, ("horiz", "hess"))
    assert horiz.shape == (t.size,) and hess.shape == (t.size, 1, 1)
    ref_horiz, ref_hess = _bs_closed_forms(sigma, strike, t, s, 1.0)
    assert np.array_equal(_as_bits(horiz), _as_bits(ref_horiz))
    assert np.array_equal(_as_bits(hess), _as_bits(ref_hess))


BATCH_OPTIONS = [(kind, sigma, strike) for kind in ("call", "put")
                 for sigma, strike in ((0.2, 1.0), (0.35, 1.3), (1.5, 0.4))]
# Edge states: t anywhere in [0, T], at T (tau == 0) or just before it (tau
# near 1e-6 .. 1e-15); s live, subnormal (where s * sigma * sqrt(tau) can
# round to 0), at zero, below it or at the strike.
_BATCH_T = st.one_of(st.floats(0.0, 1.0), st.just(1.0),
                     st.integers(6, 15).map(lambda k: 1.0 - 10.0**-k))
_BATCH_S = st.one_of(st.floats(-2.0, 5.0),
                     st.sampled_from([0.0, -0.0, -0.5, 5e-324, 1e-310, "strike"]))


@pytest.mark.parametrize("kind, sigma, strike", BATCH_OPTIONS)
@settings(max_examples=25, deadline=None)
@given(states=st.lists(st.tuples(_BATCH_T, _BATCH_S), min_size=1, max_size=64))
def test_black_scholes_batch_bit_equal_scalar_route(kind, sigma, strike, states):
    t = np.array([tk for tk, _ in states])
    s = np.array([[strike if sk == "strike" else sk] for _, sk in states])
    _assert_batch_bit_equal(sigma, strike, kind, t, s)


@pytest.mark.parametrize("kind, sigma, strike", BATCH_OPTIONS)
def test_black_scholes_batch_bit_equal_scalar_route_on_a_walk(kind, sigma, strike):
    # 4,096 walk-like states, where numpy's SIMD log or exp would differ
    # from libm's on dozens of points
    rng = np.random.default_rng(4096)
    t = rng.uniform(0.0, 1.0, 4096)
    s = strike * np.exp(0.3 * rng.standard_normal((4096, 1)))
    _assert_batch_bit_equal(sigma, strike, kind, t, s)


def _identity_forms(index, dim):
    e = np.eye(dim)[index]
    return identity(index, dim=dim), lambda path, t, s: {
        "value": s[:, index], "grad": np.tile(e, (t.size, 1)),
        "hess": np.zeros((t.size, dim, dim)), "horiz": np.zeros(t.size)}


def _bs_forms(sigma, strike, kind):
    def forms(path, t, s):
        horiz, hess = _bs_closed_forms(sigma, strike, t, s, path.T)
        grad = [[bs_delta(float(sk), strike, sigma, path.T - float(tk), kind, cdf=ndtr)]
                for tk, (sk,) in zip(t, s)]
        return {"value": None, "grad": np.array(grad).reshape(-1, 1), "hess": hess,
                "horiz": horiz}
    return black_scholes(sigma, strike, kind), forms


def _monomial_forms(p):
    # numpy's x**p on an array, which may differ from x**p on one float in
    # the last bit: the hook and the derivative methods take the array one
    return monomial(p), lambda path, t, s: {
        "value": s[:, 0] ** p, "grad": (p * s[:, 0] ** (p - 1))[:, None],
        "hess": (p * (p - 1) * s[:, 0] ** (p - 2))[:, None, None], "horiz": np.zeros(t.size)}


def _cubic_2d():
    # f(v) = v0 v1^2, in products only
    f = cylinder(lambda v: v[0] * v[1] * v[1],
                 lambda v: np.array([v[1] * v[1], 2.0 * v[0] * v[1]]),
                 lambda v: np.array([[0.0, 2.0 * v[1]], [2.0 * v[1], 2.0 * v[0]]]),
                 dim=2, name="cubic_2d")
    return f, lambda path, t, s: {
        "value": s[:, 0] * s[:, 1] * s[:, 1],
        "grad": np.stack([s[:, 1] * s[:, 1], 2.0 * s[:, 0] * s[:, 1]], axis=1),
        "hess": np.stack([np.stack([np.zeros(t.size), 2.0 * s[:, 1]], axis=1),
                          np.stack([2.0 * s[:, 1], 2.0 * s[:, 0]], axis=1)], axis=1),
        "horiz": np.zeros(t.size)}


def _left_rule_integrals(path, t):
    """The left-rule integral of the path over [0, t_k] per t_k, added with
    ``+=`` in time order from 0.0."""
    out = []
    for tk in t:
        total, k = 0.0, 0
        while k + 1 < path.times.size and path.times[k + 1] <= tk:
            total += float(path.values[k, 0]) * float(path.times[k + 1] - path.times[k])
            k += 1
        out.append(total + float(path.values[k, 0]) * (float(tk) - float(path.times[k])))
    return np.array(out)


# (F, closed forms (path, t, s) -> {quantity: array, or None where the hook's
# "horiz" request leaves it to the scalar route}), written apart from the hooks
EXACT_HOOKS = [
    _identity_forms(0, 1), _identity_forms(1, 2), _identity_forms(2, 3),
    (running_integral(), lambda path, t, s: {
        "value": _left_rule_integrals(path, t), "grad": np.zeros((t.size, 1)),
        "hess": np.zeros((t.size, 1, 1)), "horiz": s[:, 0]}),
    (asian_forward(), lambda path, t, s: {
        "value": _left_rule_integrals(path, t) + s[:, 0] * (path.T - t),
        "grad": np.array([[path.T - tk] for tk in t]),
        "hess": np.zeros((t.size, 1, 1)), "horiz": np.zeros(t.size)}),
    _bs_forms(0.3, 1.0, "call"), _bs_forms(0.2, 1.1, "put"),
    _monomial_forms(3), _monomial_forms(5), _cubic_2d(),
]
SCALAR_METHODS = {"value": "value", "grad": "gradient", "hess": "hessian",
                  "horiz": "horizontal"}


@pytest.mark.parametrize("F, forms", [pytest.param(*case, id=case[0].name)
                                      for case in EXACT_HOOKS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_hooks_bit_equal_scalar_route(F, forms, data):
    # every quantity a hook gives in a "horiz" request is its closed form, bit
    # for bit, and so are Functional.at and the scalar methods on
    # StoppedPath(path, t_k, t_k, s_k); the values of the running integrals
    # read the path before t_k
    seq = dyadic(1.0, 4)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0, "dim": F.dim}, 1, seq)
    n = data.draw(st.integers(1, 12))
    times = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
    t = np.array(data.draw(st.lists(times, min_size=n, max_size=n)))
    spots = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, 1.1]))
    s = np.array(data.draw(st.lists(st.lists(spots, min_size=F.dim, max_size=F.dim),
                                    min_size=n, max_size=n)))
    rest = data.draw(st.permutations(["value", "grad", "hess"]))
    want = tuple(rest[:data.draw(st.integers(0, 3))]) + ("horiz",)
    ref = forms(path, t, s)
    stopped = [StoppedPath(path, tk, tk, sk) for tk, sk in zip(t, s)]
    for q, arr, at in zip(want, F.pointwise(path, t, s, want), F.at(path, t, s, want)):
        if ref[q] is None:
            assert arr is None, q
            continue
        assert arr.shape == ref[q].shape, q
        assert np.array_equal(_as_bits(arr), _as_bits(ref[q])), q
        assert np.array_equal(_as_bits(at), _as_bits(ref[q])), q
        if q == "value" and F.name in ("monomial_3", "monomial_5"):
            # F.value is eval_fn's x**p on one float, libm's pow, which may
            # differ from numpy's array x**p in the last bit (CHANGES.md: the
            # FOUND on cylinder's eval_fn)
            continue
        scalar = np.array([getattr(F, SCALAR_METHODS[q])(sp) for sp in stopped])
        assert np.array_equal(_as_bits(scalar), _as_bits(ref[q])), q


def test_evaluator_answers_none_where_there_is_no_pointwise_form():
    t, s = np.array([0.0, 0.5]), np.array([[1.0], [2.0]])
    # the Asian forward reads the path's history for its value
    path = SampledPath([0.0, 0.5, 1.0], [1.0, 3.0, 2.0])
    value, grad, hess = asian_forward().pointwise(path, t, s, ("value", "grad", "hess"))
    assert np.array_equal(value, [1.0, 1.5])
    assert np.array_equal(grad, [[1.0], [0.5]]) and np.array_equal(hess, np.zeros((2, 1, 1)))
    no_second = cylinder(np.sin, np.cos)
    value, grad, hess = no_second.pointwise(UNIT, t, s, ("value", "grad", "hess"))
    assert hess is None
    assert np.array_equal(value, np.sin(s[:, 0])) and np.array_equal(grad, np.cos(s))
    # a scalar-only cylinder is evaluated one point at a time
    scalar_only = cylinder(math.sin, math.cos, lambda x: -math.sin(x))
    value, grad, hess = scalar_only.pointwise(UNIT, t, s, ("value", "grad", "hess"))
    assert np.array_equal(value, [math.sin(1.0), math.sin(2.0)])
    assert np.array_equal(grad, [[math.cos(1.0)], [math.cos(2.0)]])
    assert np.array_equal(hess, [[[-math.sin(1.0)]], [[-math.sin(2.0)]]])
    # a vector argument is evaluated one row at a time; every cylinder
    # answers the drift
    rows = np.array([[1.0, 2.0], [0.5, -3.0]])
    value, grad, hess, horiz = cylinder(np.sum, dim=2).pointwise(
        UNIT, t, rows, ("value", "grad", "hess", "horiz"))
    assert np.array_equal(value, [3.0, -2.5]) and grad is None and hess is None
    assert np.array_equal(horiz, [0.0, 0.0])


def _elementwise_reference(fn, *arrays):
    return np.array([np.asarray(fn(*args), dtype=float).item() for args in zip(*arrays)])


ELEMENTWISE_FUNCTIONS = {  # name -> (arity, fn)
    "ufunc": (1, np.exp),
    "math": (1, math.atan),
    "constant": (1, lambda x: 2.0),
    "branchy": (1, lambda x: x * x if x > 0.5 else 1.0 - x),
    "density_1x1": (2, lambda t, s: np.array([[0.04 * s * s + t]])),
    "density": (2, diffusion_density(0.3)),
}


@pytest.mark.parametrize("name", ELEMENTWISE_FUNCTIONS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_elementwise_equals_per_element_loop(name, data):
    arity, fn = ELEMENTWISE_FUNCTIONS[name]
    n = data.draw(st.integers(0, 40))
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    arrays = [np.array(data.draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
              for _ in range(arity)]
    got = _elementwise(fn, *arrays)
    ref = _elementwise_reference(fn, *arrays)
    assert got.shape == (n,) and got.dtype == float
    assert np.array_equal(got, ref)


def test_asian_forward_at_horizon_is_integral():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    F = asian_forward()
    dt = np.diff(path.times)
    left_riemann = float(path.values[:-1, 0] @ dt)
    assert F.value(stop(path, 1.0)) == pytest.approx(left_riemann, abs=1e-15)


def test_monomial_matches_cylinder_closed_forms():
    seq = dyadic(1.0, 5)
    path = generate({"kind": "smooth", "f": lambda t: 1.5}, 0, seq)
    F = monomial(3, coeff=2.0)
    sp = stop(path, 0.5)
    assert F.value(sp) == 2.0 * 1.5**3
    assert F.gradient(sp)[0] == 6.0 * 1.5**2
    assert F.hessian(sp)[0, 0] == 12.0 * 1.5
    assert F.pointwise(UNIT, np.array([0.5]), np.array([[1.5]]), ("grad",))[0] is not None


def test_builtin_dispatch_and_validation():
    assert builtin("black_scholes", sigma=0.2, strike=1.0).name == "black_scholes_call"
    assert builtin("asian_forward").name == "asian_forward"
    assert builtin("identity_2", dim=3).name == "identity_2"
    assert builtin("monomial", power=2).name == "monomial_2"
    with pytest.raises(ValueError):
        builtin("black_scholes", sigma=-0.2, strike=1.0)
    with pytest.raises(ValueError):
        builtin("black_scholes", sigma=0.2, strike=-1.0)
    with pytest.raises(ValueError):
        builtin("what_is_this")
    with pytest.raises(ValueError, match="^black_scholes needs sigma and strike$"):
        builtin("black_scholes", sigma=0.2, K=1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: black_scholes(math.nan, 1.0), "sigma must be a finite number > 0, got nan"),
    (lambda: black_scholes(0.2, math.inf), "strike must be a finite number > 0, got inf"),
    (lambda: monomial(2.5), "power must be a nonnegative integer, got 2.5"),
    (lambda: identity(1.5, 2), "index must be an integer >= 0, got 1.5"),
    (lambda: identity(0, 2.5), "dim must be an integer >= 1, got 2.5"),
    (lambda: generate({"kind": "scaled_random_walk", "sigma": 1.0, "dim": 0}, 0, dyadic(1.0, 2)),
     "dim must be an integer >= 1, got 0"),
    (lambda: generate({"kind": "geometric_walk", "sigma": 0.1, "dim": 2.5}, 0, dyadic(1.0, 2)),
     "dim must be an integer >= 1, got 2.5"),
])
def test_factories_reject_bad_parameters_by_name(make, message):
    # NaN priced NaN, an infinite strike failed later in a math domain error,
    # a fractional power was truncated to monomial_2, a fractional index
    # failed in numpy's IndexError, and a walk of dim 0 had no coordinates
    # while one of dim 2.5 had 2
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


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
