"""Memory budgets of the grid-sized stages, measured with ``tracemalloc`` in
arrays of 2**L + 1 floats: what a level-L dyadic partition holds, and the
peaks of generating a walk on it and of summing its quadratic variation.

Runs at L = 16 by default; ``PATHCALC_BUDGET_LEVEL=20`` runs it at the size
of the ``qv_deep`` benchmark.
"""

import gc
import os
import tracemalloc

from pathcalc import default_probe_times, dyadic, generate, qv_along

LEVEL = int(os.environ.get("PATHCALC_BUDGET_LEVEL", "16"))
WALK = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}


def _traced(fn):
    """``fn()``, the bytes it left allocated and its peak, both counted from
    the memory in use before the call."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    current, peak = tracemalloc.get_traced_memory()
    return out, current - before, peak - before


def test_grid_stages_stay_within_their_array_budgets():
    unit = (2**LEVEL + 1) * 8
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        seq, held, _ = _traced(lambda: dyadic(1.0, LEVEL))
        path, _, gen_peak = _traced(lambda: generate(WALK, 0, seq))
        probes = default_probe_times(seq, path)
        _, _, qv_peak = _traced(lambda: qv_along(path, seq, probes))
    finally:
        if started:
            tracemalloc.stop()
    shares = {"partition held": held / unit, "generate peak": gen_peak / unit,
              "qv_along peak": qv_peak / unit}
    assert shares["partition held"] <= 1.1, shares
    assert shares["generate peak"] <= 3.5, shares
    assert shares["qv_along peak"] <= 3.5, shares
