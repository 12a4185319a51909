"""The one Cauchy rule: :func:`cauchy_gaps` and :func:`verdict` held to the
formulas that ``assess``, ``self_financing_check`` and
``vovk_uniform_check`` each spelled out before they shared them."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    SimpleStrategy,
    black_scholes,
    dyadic,
    gain_from_vertical_form,
    generate,
    self_financing_check,
    simple_ledger,
)
from pathcalc.convergence import ConvergenceConfig, assess, cauchy_gaps, verdict


def _inline_assess(level_values, scale, config=None):
    """``assess`` with its gaps and verdict inline, as it was."""
    config = config or ConvergenceConfig()
    levels = sorted(level_values)
    if len(levels) < 2:
        return False, float("nan")
    gaps = [
        float(np.max(np.abs(np.asarray(level_values[b]) - np.asarray(level_values[a]))))
        for a, b in zip(levels, levels[1:])
    ]
    metric = gaps[-1]
    tail = gaps[-config.window:]
    monotone = all(y <= x for x, y in zip(tail, tail[1:]))
    converged = monotone and metric <= config.tol * max(scale, 1e-300)
    return bool(converged), float(metric)


def _inline_ledger_gaps(level_gains):
    """``self_financing_check``'s own copy of the gaps."""
    keys = sorted(level_gains)
    return [float(np.max(np.abs(level_gains[b] - level_gains[a]))) for a, b in zip(keys, keys[1:])]


def _inline_uniform(sup_gaps, scale):
    """``vovk_uniform_check``'s own verdict on its gaps against the top level,
    the last of which is the top's against itself."""
    config = ConvergenceConfig()
    tail = sup_gaps[-(config.window + 1):-1]
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    return monotone and sup_gaps[-2] <= config.tol * scale


def _bits(values):
    return np.array(values, dtype=float).tobytes()


VALUES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n_levels=st.sampled_from([0, 1, 2, 3, 7]), probes=st.integers(1, 4),
       window=st.integers(1, 5), tol=st.sampled_from([0.0, 1e-3, 0.5]))
def test_gaps_and_verdict_match_the_inline_formulas(data, n_levels, probes, window, tol):
    levels = data.draw(st.lists(st.integers(0, 20), unique=True, min_size=n_levels, max_size=n_levels))
    family = {n: np.array(data.draw(st.lists(VALUES, min_size=probes, max_size=probes)))
              for n in levels}
    scale = data.draw(st.one_of(st.floats(0.0, 1e3), st.sampled_from([1e-300, 0.0, math.nan])))
    config = ConvergenceConfig(tol=tol, window=window)

    with np.errstate(invalid="ignore"):  # inf - inf is a NaN gap
        gaps = cauchy_gaps(family)
        assert len(gaps) == max(n_levels - 1, 0)
        assert _bits(gaps) == _bits(_inline_ledger_gaps(family))
        assert all(type(g) is float for g in gaps)
        converged, metric = assess(family, scale, config)
        ref_converged, ref_metric = _inline_assess(family, scale, config)
        assert converged is ref_converged and verdict(gaps, scale, config) is ref_converged
        assert type(metric) is float and _bits(metric) == _bits(ref_metric)
        if gaps:  # Vovk's gaps end with the top against itself, and its scale is at least 1e-300
            sup = [*gaps, 0.0]
            assert verdict(sup[:-1], max(scale, 1e-300)) is _inline_uniform(sup, max(scale, 1e-300))


def _ledgers():
    path = generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 1.0}, 5, dyadic(1.0, 8))
    seq = dyadic(1.0, 8)
    many = gain_from_vertical_form(black_scholes(0.2, 1.0), path, seq)
    top = max(many.level_gains)
    tampered = dict(many.level_gains)
    tampered[top] = tampered[top].copy()
    tampered[top][3] = math.nan
    return {
        "no level gains": simple_ledger(SimpleStrategy.constant(3, 1.0, 8), path, seq),
        "one level": dataclasses.replace(many, level_gains={top: many.level_gains[top]}),
        "many levels": many,
        "a NaN gain": dataclasses.replace(many, level_gains=tampered),
    }


@pytest.mark.parametrize("case", ["no level gains", "one level", "many levels", "a NaN gain"])
def test_self_financing_gain_fields_are_unchanged(case):
    ledger = _ledgers()[case]
    rep = self_financing_check(ledger)
    gaps, converged = [], True  # the check's own route, as it was
    if ledger.level_gains:
        converged, _ = _inline_assess(ledger.level_gains, max(1.0, float(np.max(np.abs(ledger.gain)))))
        gaps = _inline_ledger_gaps(ledger.level_gains)
    assert _bits(rep.gain_cauchy_gaps) == _bits(gaps)
    assert rep.gain_converged is converged
    assert rep.gain_converged is {"no level gains": True, "one level": False}.get(case, converged)
