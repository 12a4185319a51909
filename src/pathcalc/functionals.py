"""Non-anticipative functionals F(t, omega_t) and their derivatives.

A functional evaluates stopped paths.  Built-ins carry a pointwise hook that
answers at many states stopped on one path: a value may read the path on
[0, t), a derivative depends on (t, omega(t)) only.  ``Functional.at`` reads
states from it where it answers, else from stopped paths, for every caller.
A derivative has two sources: the hook's exact answer (a request holding
"horiz"), where each built-in defines it once, for arrays and for one state
alike; else finite differences built on vertical perturbations (central,
second order) and on the frozen horizontal extension (forward one-sided,
matching the one-sided limit that defines the time derivative).
The paper's hypotheses on F (continuity, boundedness-preserving) are the
caller's to meet: nothing here declares or checks them.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import types

import numpy as np

from .partitions import require_count
from .paths import StoppedPath, _running_sums


def _scipy_ufuncs():
    """scipy's compiled ``scipy.special._ufuncs``, without the package's
    ``__init__`` (0.3 s, mostly an array-API layer importing ``numpy.f2py``):
    unless ``scipy.special`` is imported, it loads under a stand-in parent that
    is then removed, so a later ``import scipy.special`` runs the real
    ``__init__`` and finds this module.  Its OpenBLAS loads with a short idle
    spin unless the user set one (README, "CLI")."""
    if "scipy.special" in sys.modules:
        return importlib.import_module("scipy.special._ufuncs")
    import scipy

    parent = types.ModuleType("scipy.special")
    parent.__path__ = [os.path.join(scipy.__path__[0], "special")]
    sys.modules["scipy.special"] = parent
    # else scipy's OpenBLAS threads spin idle for about 0.1 s beside the first work
    preset = "OPENBLAS_THREAD_TIMEOUT" in os.environ
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        del sys.modules["scipy.special"]
        if not preset:
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]


_ufuncs = _scipy_ufuncs()
boxcox, inv_boxcox, ndtr = _ufuncs.boxcox, _ufuncs.inv_boxcox, _ufuncs.ndtr


def default_vertical_bump(sp):
    """Scale-aware default bump: 1e-4 * (1 + |omega(t)|)."""
    return 1e-4 * (1.0 + float(np.linalg.norm(sp.current)))


def default_horizontal_step(sp):
    return min(1e-4, (sp.T - sp.time) / 2.0)


class Functional:
    def __init__(self, dim, eval_fn, *, name="functional", pointwise=None):
        self.dim = int(dim)
        self._eval = eval_fn
        self.name = name
        # Optional (path, t, s, want) -> tuple: per name in ``want`` ("value",
        # "grad", "hess", "horiz") an (n,), (n, d), (n, d, d) or (n,) array at the
        # n states (t_k, s_k) stopped on ``path`` (horizon path.T), or None if F
        # has no pointwise form of it.  "value" may read the path on [0, t_k),
        # the others depend on (t_k, s_k) only.  A request holding "horiz" is
        # exact: its answers are those of the scalar methods at one state.
        self.pointwise = pointwise

    def require_dim(self, path):
        if path.dim != self.dim:
            raise ValueError(f"functional {self.name!r} has dim {self.dim}, "
                             f"the path has dim {path.dim}")

    def value(self, sp):
        return float(self._eval(sp))

    def _derivative(self, q, sp, fd):
        """``q`` at one state: the hook's answer to a request holding "horiz"
        if it is whole, else ``fd``."""
        if self.pointwise is not None:
            got = self.pointwise(sp.path, np.array([sp.time]), sp.current[None],
                                 (q,) if q == "horiz" else (q, "horiz"))
            if all(g is not None for g in got):
                return got[0][0]
        return fd(self, sp)

    def gradient(self, sp):
        grad = self._derivative("grad", sp, vertical_derivative_fd)
        return np.asarray(grad, dtype=float).reshape(self.dim)

    def hessian(self, sp):
        hess = self._derivative("hess", sp, vertical_hessian_fd)
        return np.asarray(hess, dtype=float).reshape(self.dim, self.dim)

    def horizontal(self, sp):
        return float(self._derivative("horiz", sp, horizontal_derivative_fd))

    def at(self, path, t, s, want):
        """The quantities named in ``want`` at the states (t_k, s_k) stopped on
        ``path``: each from ``pointwise`` where it answers it, else from the
        scalar method on StoppedPath(path, t_k, t_k, s_k), one state at a time.
        A request holding "horiz" is taken from the hook whole or not at all,
        so the Ito terms of a hook without an exact drift stay scalar."""
        got = (None,) * len(want) if self.pointwise is None else self.pointwise(path, t, s, want)
        if "horiz" in want and any(g is None for g in got):
            got = (None,) * len(want)
        states = [] if all(g is not None for g in got) else [
            StoppedPath(path, tk, tk, sk) for tk, sk in zip(t, s)]
        scalar = {"value": self.value, "grad": self.gradient, "hess": self.hessian,
                  "horiz": self.horizontal}
        return tuple(np.array([scalar[q](sp) for sp in states]) if g is None else g
                     for q, g in zip(want, got))

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


def _bs_vec(s, strike, sigma, tau, kind, want):
    """Price (n,), delta (n, 1), gamma (n, 1, 1) and theta (n,) (the derivative
    in calendar time t), those named in ``want`` in that order, from one d1.
    Dead points (tau <= 0 or s <= 0) take the payoff, its slope (half at the
    strike), 0 and 0, patched in after the live formula ran on s = tau = 1
    there.  A request holding "horiz" is exact and answers None for the value:
    numpy does only the correctly rounded + - * / sqrt, and log and exp are
    libm's, through scipy's C loops ``boxcox(x, 0)`` and ``inv_boxcox(y, 0)``,
    where numpy's SIMD ones may differ.  Other requests take numpy's log and
    exp.  Either takes one ``ndtr(d1)``.  Each step writes into a buffer it
    no longer needs, in the order of operations of the closed forms."""
    exact = "horiz" in want
    log, exp = np.log, np.exp
    if exact:
        log = lambda x, out: boxcox(x, 0.0, out=out)
        exp = lambda y, out: inv_boxcox(y, 0.0, out=out)
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    dead = np.flatnonzero(~((tau > 0.0) & (s > 0.0)))
    sd = s[dead]
    safe_s = s.copy()
    safe_s[dead] = 1.0
    root = tau.copy()
    root[dead] = 1.0
    np.sqrt(root, out=root)
    v = np.multiply(sigma, root)
    d1 = np.divide(safe_s, strike)
    log(d1, out=d1)
    buf = np.multiply(0.5, v)
    buf *= v
    d1 += buf
    d1 /= v
    out = {}
    if exact or "hess" in want:
        pdf = np.multiply(-0.5, d1, out=buf)
        pdf *= d1
        exp(pdf, out=pdf)
        pdf *= _INV_SQRT_2PI
        if exact:
            horiz = np.negative(safe_s)
            horiz *= pdf
            horiz *= sigma
            root *= 2.0
            horiz /= root
            horiz[dead] = 0.0
            out["horiz"] = horiz
        den = np.multiply(safe_s, v, out=root)
        den[~(den > 0.0)] = np.inf  # 0 at a subnormal s: gamma 0 there
        hess = np.divide(pdf, den, out=pdf)
        hess[dead] = 0.0
        out["hess"] = hess[:, None, None]
    call = kind == "call"
    value = "value" in want and not exact  # the exact value is ``bs_price``'s
    n1 = ndtr(d1) if "grad" in want or (call and value) else None
    if value:
        d2 = np.subtract(d1, v, out=v)
        if call:
            val = np.multiply(safe_s, n1)
            val -= np.multiply(strike, ndtr(d2, out=d2), out=d2)
        else:
            val = np.multiply(strike, ndtr(np.negative(d2, out=d2), out=d2), out=d2)
            val -= np.multiply(safe_s, ndtr(np.negative(d1, out=d1), out=d1), out=d1)
        val[dead] = np.maximum(sd - strike, 0.0) if call else np.maximum(strike - sd, 0.0)
        out["value"] = val
    if "grad" in want:  # a put's delta is the call's less 1, also at dead points
        n1[dead] = np.where(sd > strike, 1.0, np.where(sd == strike, 0.5, 0.0))
        if not call:
            n1 -= 1.0
        out["grad"] = n1[:, None]
    return tuple(out.get(q) for q in want)


# ---------------------------------------------------------------------------
# Built-in functionals
# ---------------------------------------------------------------------------


def _evaluator(**parts):
    """A pointwise evaluator from one (path, t, s) -> array callable per name;
    a name without one, or with None, answers None."""
    return lambda path, t, s, want: tuple(parts[q](path, t, s) if parts.get(q) else None
                                          for q in want)


def _zeros(*shape):
    """A pointwise part that answers zeros of ``shape`` at every point."""
    return lambda path, t, s: np.zeros((t.size, *shape))


def identity(index=0, dim=1):
    """F(t, omega) = omega_index(t)."""
    require_count(index, "index", 0)
    require_count(dim, "dim", 1)
    if index >= dim:
        raise ValueError("index outside the path dimension")
    e = np.zeros(dim)
    e[index] = 1.0

    return Functional(
        dim,
        lambda sp: sp.current[index],
        name=f"identity_{index + 1}",
        pointwise=_evaluator(value=lambda path, t, s: s[:, index], hess=_zeros(dim, dim),
                             grad=lambda path, t, s: np.broadcast_to(e, (t.size, dim)),
                             horiz=_zeros()),
    )


def _elementwise(fn, *arrays):
    """``fn`` applied to equal-length 1-d arrays element by element: one call
    on the whole arrays, kept when it gives one value per element, else one
    call per element.  The one rule for a scalar user function on a grid."""
    try:
        out = np.asarray(fn(*arrays), dtype=float)
        if out.shape == arrays[0].shape:
            return out
    except Exception:
        pass
    return np.array([np.asarray(fn(*args), dtype=float).item() for args in zip(*arrays)])


def cylinder(f, f_prime=None, f_second=None, dim=1, name="cylinder"):
    """F(t, omega) = f(omega(t)); scalar argument when dim == 1, else the
    (dim,) vector.  Its hook calls f, f_prime and f_second on the states
    (element by element when dim == 1, one row at a time otherwise) and
    answers the drift with zeros."""

    def on_grid(fn, shape):
        def at(path, t, s):
            rows = _elementwise(fn, s[:, 0]) if dim == 1 else [np.asarray(fn(x), float) for x in s]
            return np.asarray(rows, dtype=float).reshape(shape)
        return at if fn else None

    return Functional(
        dim,
        lambda sp: f(sp.current[0] if dim == 1 else sp.current),
        name=name,
        pointwise=_evaluator(value=on_grid(f, (-1,)), grad=on_grid(f_prime, (-1, dim)),
                             hess=on_grid(f_second, (-1, dim, dim)), horiz=_zeros()),
    )


def monomial(power, coeff=1.0):
    """F(t, omega) = coeff * omega(t)**power; a config-friendly cylinder."""
    if not (power >= 0 and float(power).is_integer()):
        raise ValueError(f"power must be a nonnegative integer, got {power!r}")
    p = int(power)

    def f(x):
        return coeff * x**p

    def f_prime(x):
        return coeff * p * x ** (p - 1) if p >= 1 else 0.0 * x

    def f_second(x):
        return coeff * p * (p - 1) * x ** (p - 2) if p >= 2 else 0.0 * x

    return cylinder(f, f_prime, f_second, name=f"monomial_{p}")


def _left_integral(path, t):
    """The integral of the path's first coordinate over [0, t], left-endpoint
    rule, at each t: one prefix sum over the grid cells, 0.0 first and added
    in time order by ``paths._running_sums`` (so never -0.0), read at the
    last grid time <= t, plus the partial cell from there to t."""
    times, x = path.times, path.values[:, 0]
    sums = _running_sums(x[:-1] * np.diff(times))
    k = np.searchsorted(times, t, "right") - 1
    return sums[k] + x[k] * (t - times[k])


def running_integral():
    """F(t, omega) = integral of omega over [0, t], left-endpoint rule.

    Left endpoints keep the value at t itself out of the sum, so the
    vertical gradient vanishes identically and the horizontal derivative is
    exactly omega(t) on sampled paths.  A stopped path integrates the path up
    to its cut, then its frozen value.
    """
    return Functional(
        1,
        lambda sp: float(_left_integral(sp.path, sp.cut) + sp.current[0] * (sp.time - sp.cut)),
        name="running_integral",
        pointwise=_evaluator(value=lambda path, t, s: _left_integral(path, t), grad=_zeros(1),
                             hess=_zeros(1, 1), horiz=lambda path, t, s: s[:, 0]),
    )


def asian_forward():
    """F(t, omega) = integral over [0, t] + omega(t) * (T - t).

    The two horizontal terms cancel exactly at grid resolution, so the time
    derivative is identically zero; the gradient is T - t and the second
    vertical derivative vanishes.  At t = T this is the average-style payoff
    functional itself.
    """
    running = running_integral()
    return Functional(
        1,
        lambda sp: running.value(sp) + float(sp.current[0]) * (sp.T - sp.time),
        name="asian_forward",
        pointwise=_evaluator(
            value=lambda path, t, s: _left_integral(path, t) + s[:, 0] * (path.T - t),
            grad=lambda path, t, s: (path.T - t)[:, None], hess=_zeros(1, 1), horiz=_zeros()),
    )


def black_scholes(sigma, strike, kind="call"):
    """Price functional of a European option under a constant-volatility
    diffusion density, expressed in forward terms (zero rate).

    The horizontal derivative is the calendar-time theta; together with the
    closed-form gamma it satisfies the pricing equation against the density
    a(t, s) = sigma^2 s^2 identically.
    """
    for name, v in (("sigma", sigma), ("strike", strike)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be a finite number > 0, got {v!r}")
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")

    return Functional(
        1,
        lambda sp: bs_price(float(sp.current[0]), strike, sigma, sp.T - sp.time, kind),
        name=f"black_scholes_{kind}",
        pointwise=lambda path, t, s, want: _bs_vec(s[:, 0], strike, sigma, path.T - t, kind, want),
    )


def builtin(name, **params):
    """Factory for the built-in functional library."""
    if name.startswith("identity"):
        index = params.get("index")
        if index is None:
            _, _, tail = name.partition("_")
            index = int(tail) - 1 if tail else 0
        return identity(index=index, dim=params.get("dim", max(index + 1, 1)))
    if name == "monomial":
        return monomial(params["power"], params.get("coeff", 1.0))
    if name == "running_integral":
        return running_integral()
    if name == "asian_forward":
        return asian_forward()
    if name == "black_scholes":
        sigma = params.get("sigma")
        strike = params.get("strike")
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
    if a.size != dim * dim:
        raise ValueError(f"density of shape {a.shape} is neither a number nor a {dim}x{dim} "
                         f"matrix for a dim-{dim} path")
    return a.reshape(dim, dim)


def diffusion_density(sigma):
    """a(t, s) = sigma^2 s^2, the density matched by the functional built by
    ``black_scholes(sigma, ...)``.  Accepts scalars or arrays."""
    return lambda t, s: (sigma * sigma) * np.square(s)


def constant_density(value):
    """a(t, s) = value * I on any dim: the number, which density readers take so."""
    return float(value)


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
