"""Non-anticipative functionals F(t, omega_t) and their derivatives.

A functional evaluates stopped paths.  Derivatives come in two flavours:
analytic closures attached at construction time, or finite differences built
on vertical perturbations (central, second order) and on the frozen
horizontal extension (forward one-sided, matching the one-sided limit that
defines the time derivative).  Built-ins additionally carry ``pointwise_*``
fast paths - vectorized functions of (t, omega(t)) - that the integration
routines use when the derivative provably depends on the current value only.
The paper's hypotheses on F (continuity, boundedness-preserving) are the
caller's to meet: nothing here declares or checks them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr


def default_vertical_bump(sp):
    """Scale-aware default bump: 1e-4 * (1 + |omega(t)|)."""
    return 1e-4 * (1.0 + float(np.linalg.norm(sp.current)))


def default_horizontal_step(sp):
    return min(1e-4, (sp.T - sp.time) / 2.0)


class Functional:
    def __init__(
        self,
        dim,
        eval_fn,
        grad=None,
        hess=None,
        horiz=None,
        name="functional",
        pointwise_value=None,
        pointwise_grad=None,
        pointwise_hess=None,
    ):
        self.dim = int(dim)
        self._eval = eval_fn
        self._grad = grad
        self._hess = hess
        self._horiz = horiz
        self.name = name
        # Optional vectorized evaluators with signature (t, s, T) -> array,
        # valid only when the quantity depends on the path through (t, omega(t)).
        self.pointwise_value = pointwise_value
        self.pointwise_grad = pointwise_grad
        self.pointwise_hess = pointwise_hess

    def require_dim(self, path):
        if path.dim != self.dim:
            raise ValueError(f"functional {self.name!r} has dim {self.dim}, "
                             f"the path has dim {path.dim}")

    def value(self, sp):
        return float(self._eval(sp))

    def gradient(self, sp):
        if self._grad is not None:
            return np.asarray(self._grad(sp), dtype=float).reshape(self.dim)
        return vertical_derivative_fd(self, sp)

    def hessian(self, sp):
        if self._hess is not None:
            h = np.asarray(self._hess(sp), dtype=float).reshape(self.dim, self.dim)
            return h
        return vertical_hessian_fd(self, sp)

    def horizontal(self, sp):
        if self._horiz is not None:
            return float(self._horiz(sp))
        return horizontal_derivative_fd(self, sp)

    def __repr__(self):
        return f"Functional({self.name!r}, d={self.dim})"


def vertical_derivative_fd(F, sp, bump=None):
    """Central difference of F along vertical perturbations, one coordinate
    at a time."""
    h = default_vertical_bump(sp) if bump is None else float(bump)
    if h <= 0:
        raise ValueError("bump must be positive")
    out = np.empty(F.dim)
    for i in range(F.dim):
        e = np.zeros(F.dim)
        e[i] = h
        out[i] = (F.value(sp.perturb(e)) - F.value(sp.perturb(-e))) / (2.0 * h)
    return out


def vertical_hessian_fd(F, sp, bump=None):
    """Second-difference stencil; symmetric in (i, j) by construction."""
    h = default_vertical_bump(sp) if bump is None else float(bump)
    if h <= 0:
        raise ValueError("bump must be positive")
    d = F.dim
    out = np.empty((d, d))
    f0 = F.value(sp)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[i, i] = (F.value(sp.perturb(ei)) - 2.0 * f0 + F.value(sp.perturb(-ei))) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            mixed = (
                F.value(sp.perturb(ei + ej))
                - F.value(sp.perturb(ei - ej))
                - F.value(sp.perturb(-ei + ej))
                + F.value(sp.perturb(-ei - ej))
            ) / (4.0 * h * h)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def horizontal_derivative_fd(F, sp, step=None):
    """Forward one-sided difference along the frozen extension of the path.

    The definition is a right limit, so no Richardson trick is applied by
    default: at discontinuities in t a centered scheme would answer the
    wrong question.
    """
    if sp.time >= sp.T:
        raise ValueError("no horizontal extension past the horizon")
    h = default_horizontal_step(sp) if step is None else float(step)
    if h <= 0 or sp.time + h > sp.T:
        raise ValueError(f"step {h} not in (0, T - t]")
    return (F.value(sp.extend_to(sp.time + h)) - F.value(sp)) / h


# ---------------------------------------------------------------------------
# Black-Scholes closed forms (zero rate: forward values, bond numeraire)
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _ncdf(x):
    return 0.5 * math.erfc(-x / _SQRT2)


def _npdf(x):
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def bs_price(s, strike, sigma, tau, kind="call"):
    if tau <= 0.0 or s <= 0.0:
        if kind == "call":
            return max(s - strike, 0.0)
        return max(strike - s, 0.0)
    v = sigma * math.sqrt(tau)
    d1 = (math.log(s / strike) + 0.5 * v * v) / v
    d2 = d1 - v
    if kind == "call":
        return s * _ncdf(d1) - strike * _ncdf(d2)
    return strike * _ncdf(-d2) - s * _ncdf(-d1)


def bs_delta(s, strike, sigma, tau, kind="call"):
    if tau <= 0.0 or s <= 0.0:
        if kind == "call":
            return 1.0 if s > strike else (0.5 if s == strike else 0.0)
        return -1.0 if s < strike else (-0.5 if s == strike else 0.0)
    v = sigma * math.sqrt(tau)
    d1 = (math.log(s / strike) + 0.5 * v * v) / v
    return _ncdf(d1) if kind == "call" else _ncdf(d1) - 1.0


def bs_gamma(s, strike, sigma, tau):
    if tau <= 0.0 or s <= 0.0:
        return 0.0
    v = sigma * math.sqrt(tau)
    d1 = (math.log(s / strike) + 0.5 * v * v) / v
    return _npdf(d1) / (s * v)


def bs_theta(s, strike, sigma, tau):
    """Derivative in calendar time t (time to maturity decreasing)."""
    if tau <= 0.0 or s <= 0.0:
        return 0.0
    v = sigma * math.sqrt(tau)
    d1 = (math.log(s / strike) + 0.5 * v * v) / v
    return -s * _npdf(d1) * sigma / (2.0 * math.sqrt(tau))


def _bs_d1_vec(s, strike, sigma, tau):
    """Vector-kernel prelude: s, live mask, s with dead points at 1, sigma sqrt(tau), d1."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    live = (tau > 0.0) & (s > 0.0)
    safe_s = np.where(live, s, 1.0)
    safe_tau = np.where(live, tau, 1.0)
    v = sigma * np.sqrt(safe_tau)
    d1 = (np.log(safe_s / strike) + 0.5 * v * v) / v
    return s, live, safe_s, v, d1


def _bs_price_vec(s, strike, sigma, tau, kind):
    s, live, safe_s, v, d1 = _bs_d1_vec(s, strike, sigma, tau)
    d2 = d1 - v
    if kind == "call":
        val = safe_s * ndtr(d1) - strike * ndtr(d2)
        dead = np.maximum(s - strike, 0.0)
    else:
        val = strike * ndtr(-d2) - safe_s * ndtr(-d1)
        dead = np.maximum(strike - s, 0.0)
    return np.where(live, val, dead)


def _bs_delta_vec(s, strike, sigma, tau, kind):
    s, live, safe_s, v, d1 = _bs_d1_vec(s, strike, sigma, tau)
    if kind == "call":
        val = ndtr(d1)
        dead = np.where(s > strike, 1.0, np.where(s == strike, 0.5, 0.0))
    else:
        val = ndtr(d1) - 1.0
        dead = np.where(s < strike, -1.0, np.where(s == strike, -0.5, 0.0))
    return np.where(live, val, dead)


def _bs_gamma_vec(s, strike, sigma, tau):
    s, live, safe_s, v, d1 = _bs_d1_vec(s, strike, sigma, tau)
    pdf = np.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI
    return np.where(live, pdf / (safe_s * v), 0.0)


# ---------------------------------------------------------------------------
# Built-in functionals
# ---------------------------------------------------------------------------


def identity(index=0, dim=1):
    """F(t, omega) = omega_index(t)."""
    if not 0 <= index < dim:
        raise ValueError("index outside the path dimension")
    e = np.zeros(dim)
    e[index] = 1.0
    zero = np.zeros((dim, dim))

    return Functional(
        dim,
        lambda sp: sp.current[index],
        grad=lambda sp: e,
        hess=lambda sp: zero,
        horiz=lambda sp: 0.0,
        name=f"identity_{index + 1}",
        pointwise_value=lambda t, s, T: s[:, index],
        pointwise_grad=lambda t, s, T: np.broadcast_to(e, (t.size, dim)),
        pointwise_hess=lambda t, s, T: np.zeros((t.size, dim, dim)),
    )


def cylinder(f, f_prime=None, f_second=None, dim=1, vectorized=False, name="cylinder"):
    """F(t, omega) = f(omega(t)); scalar argument when dim == 1.

    ``vectorized=True`` declares that f_prime / f_second accept numpy arrays
    elementwise, enabling the batched integration fast path.
    """

    def current_arg(sp):
        return sp.current[0] if dim == 1 else sp.current

    F = Functional(
        dim,
        lambda sp: f(current_arg(sp)),
        grad=(lambda sp: f_prime(current_arg(sp))) if f_prime else None,
        hess=(lambda sp: f_second(current_arg(sp))) if f_second else None,
        horiz=lambda sp: 0.0,
        name=name,
    )
    if vectorized and dim == 1:
        if f_prime is not None:
            F.pointwise_grad = lambda t, s, T: np.asarray(f_prime(s[:, 0]))[:, None]
        if f_second is not None:
            F.pointwise_hess = lambda t, s, T: np.asarray(f_second(s[:, 0]))[:, None, None]
        F.pointwise_value = lambda t, s, T: np.asarray(f(s[:, 0]))
    return F


def monomial(power, coeff=1.0):
    """F(t, omega) = coeff * omega(t)**power; a config-friendly cylinder."""
    if power < 0:
        raise ValueError("power must be a nonnegative integer")
    p = int(power)

    def f(x):
        return coeff * x**p

    def f_prime(x):
        return coeff * p * x ** (p - 1) if p >= 1 else 0.0 * x

    def f_second(x):
        return coeff * p * (p - 1) * x ** (p - 2) if p >= 2 else 0.0 * x

    return cylinder(f, f_prime, f_second, vectorized=True, name=f"monomial_{p}")


def running_integral():
    """F(t, omega) = integral of omega over [0, t], left-endpoint rule.

    Left endpoints keep the value at t itself out of the sum, so the
    vertical gradient vanishes identically and the horizontal derivative is
    exactly omega(t) on sampled paths.
    """
    return Functional(
        1,
        lambda sp: float(sp.left_riemann_integral()[0]),
        grad=lambda sp: np.zeros(1),
        hess=lambda sp: np.zeros((1, 1)),
        horiz=lambda sp: float(sp.current[0]),
        name="running_integral",
    )


def asian_forward():
    """F(t, omega) = integral over [0, t] + omega(t) * (T - t).

    The two horizontal terms cancel exactly at grid resolution, so the time
    derivative is identically zero; the gradient is T - t and the second
    vertical derivative vanishes.  At t = T this is the average-style payoff
    functional itself.
    """
    return Functional(
        1,
        lambda sp: float(sp.left_riemann_integral()[0])
        + float(sp.current[0]) * (sp.T - sp.time),
        grad=lambda sp: np.array([sp.T - sp.time]),
        hess=lambda sp: np.zeros((1, 1)),
        horiz=lambda sp: 0.0,
        name="asian_forward",
        pointwise_grad=lambda t, s, T: (T - t)[:, None],
        pointwise_hess=lambda t, s, T: np.zeros((t.size, 1, 1)),
    )


def black_scholes(sigma, strike, kind="call"):
    """Price functional of a European option under a constant-volatility
    diffusion density, expressed in forward terms (zero rate).

    The horizontal derivative is the calendar-time theta; together with the
    closed-form gamma it satisfies the pricing equation against the density
    a(t, s) = sigma^2 s^2 identically.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if strike <= 0:
        raise ValueError("strike must be positive")
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")

    return Functional(
        1,
        lambda sp: bs_price(float(sp.current[0]), strike, sigma, sp.T - sp.time, kind),
        grad=lambda sp: np.array(
            [bs_delta(float(sp.current[0]), strike, sigma, sp.T - sp.time, kind)]
        ),
        hess=lambda sp: np.array(
            [[bs_gamma(float(sp.current[0]), strike, sigma, sp.T - sp.time)]]
        ),
        horiz=lambda sp: bs_theta(float(sp.current[0]), strike, sigma, sp.T - sp.time),
        name=f"black_scholes_{kind}",
        pointwise_value=lambda t, s, T: _bs_price_vec(s[:, 0], strike, sigma, T - t, kind),
        pointwise_grad=lambda t, s, T: _bs_delta_vec(s[:, 0], strike, sigma, T - t, kind)[:, None],
        pointwise_hess=lambda t, s, T: _bs_gamma_vec(s[:, 0], strike, sigma, T - t)[
            :, None, None
        ],
    )


def builtin(name, **params):
    """Factory for the built-in functional library."""
    if name.startswith("identity"):
        index = params.get("index")
        if index is None:
            _, _, tail = name.partition("_")
            index = int(tail) - 1 if tail else 0
        return identity(index=index, dim=params.get("dim", max(index + 1, 1)))
    if name == "cylinder":
        return cylinder(**params)
    if name == "monomial":
        return monomial(params["power"], params.get("coeff", 1.0))
    if name == "running_integral":
        return running_integral()
    if name == "asian_forward":
        return asian_forward()
    if name == "black_scholes":
        sigma = params.get("sigma")
        strike = params.get("strike", params.get("K"))
        if sigma is None or strike is None:
            raise ValueError("black_scholes needs sigma and strike")
        return black_scholes(sigma, strike, params.get("kind", "call"))
    raise ValueError(f"unknown builtin functional {name!r}")


def functional_from_descriptor(desc):
    desc = dict(desc)
    name = desc.pop("name")
    return builtin(name, **desc)


# ---------------------------------------------------------------------------
# Diffusion densities and the pricing-equation residual
# ---------------------------------------------------------------------------


def density_matrix(A, t, x, dim):
    """Normalize a density-spec to a (dim, dim) matrix at (t, x)."""
    if callable(A):
        a = A(t, x[0] if dim == 1 else x)
    else:
        a = A
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a * np.eye(dim)
    return a.reshape(dim, dim)


def diffusion_density(sigma):
    """a(t, s) = sigma^2 s^2, the density matched by the functional built by
    ``black_scholes(sigma, ...)``.  Accepts scalars or arrays."""
    fn = lambda t, s: (sigma * sigma) * np.square(s)
    fn.vectorized = True
    return fn


def constant_density(value):
    fn = lambda t, s: value + 0.0 * np.asarray(s)
    fn.vectorized = True
    return fn


def density_from_descriptor(desc):
    if callable(desc) or isinstance(desc, (int, float, np.ndarray)):
        return desc
    kind = desc["kind"]
    if kind == "bs":
        return diffusion_density(float(desc["sigma"]))
    if kind == "const":
        return constant_density(float(desc["value"]))
    raise ValueError(f"unknown density descriptor {kind!r}")


def fpde_residual(F, A, sp):
    """Residual of DF + 0.5 tr(A hess) at a stopped path (t < T)."""
    if sp.time >= sp.T:
        raise ValueError("the pricing equation is posed on t < T")
    df = F.horizontal(sp)
    hess = F.hessian(sp)
    a = density_matrix(A, sp.time, sp.current, F.dim)
    return df + 0.5 * float(np.trace(a @ hess))
