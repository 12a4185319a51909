"""Memory budgets of the grid-sized stages, measured with ``tracemalloc`` in
arrays of 2**L + 1 floats: what a level-L dyadic partition holds, the peaks
of generating a walk on it and of summing its quadratic variation, and the
peak of a whole ``qv`` CLI run.  Also: a dyadic level reads the path through
a stride, with no index array.

Runs at L = 16 by default; ``PATHCALC_BUDGET_LEVEL=20`` runs it at the size
of the ``qv_deep`` benchmark.
"""

import contextlib
import gc
import json
import os
import tracemalloc

import numpy as np

from pathcalc import cli, default_probe_times, dyadic, generate, qv_along, refine_with

LEVEL = int(os.environ.get("PATHCALC_BUDGET_LEVEL", "16"))
WALK = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
UNIT = (2**LEVEL + 1) * 8  # bytes of one array of the grid's size


def _traced(fn):
    """``fn()``, the bytes it left allocated and its peak, both counted from
    the memory in use before the call."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    current, peak = tracemalloc.get_traced_memory()
    return out, current - before, peak - before


@contextlib.contextmanager
def _tracing():
    """Trace allocations in the block, unless tracing already runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def test_grid_stages_stay_within_their_array_budgets():
    with _tracing():
        seq, held, _ = _traced(lambda: dyadic(1.0, LEVEL))
        path, _, gen_peak = _traced(lambda: generate(WALK, 0, seq))
        probes = default_probe_times(seq, path)
        _, _, qv_peak = _traced(lambda: qv_along(path, seq, probes))
    shares = {"partition held": held / UNIT, "generate peak": gen_peak / UNIT,
              "qv_along peak": qv_peak / UNIT}
    assert shares["partition held"] <= 1.1, shares
    assert shares["generate peak"] <= 3.5, shares
    assert shares["qv_along peak"] <= 1.1, shares


def test_qv_cli_run_stays_within_its_array_budget(tmp_path):
    cfg = tmp_path / "qv.json"
    cfg.write_text(json.dumps({"seed": 0, "out": str(tmp_path / "out"), "path": WALK,
                               "partition": {"type": "dyadic", "T": 1.0, "max_level": LEVEL}}))
    with _tracing():
        code, _, peak = _traced(lambda: cli.main(["qv", "--config", str(cfg)]))
    assert code in (0, 1)  # 1 is a convergence caveat
    assert peak / UNIT <= 3.5, peak / UNIT


def test_a_dyadic_level_reads_the_path_through_a_stride():
    seq = dyadic(1.0, 8)
    path = generate(WALK, 0, seq)
    for n in range(seq.num_levels):
        pos = path.grid_indices(seq.level(n))
        assert isinstance(pos, slice)
        assert np.shares_memory(path.values[pos], path.values)
    # an off-level jump: the refined levels are no longer strides of the grid
    jump = (2 * 77 + 1) / 2**9
    fine = dyadic(1.0, 9)
    path = generate({"kind": "with_jumps", "base": WALK, "jumps": [[jump, 0.1]]}, 0, fine)
    refined = refine_with(dyadic(1.0, 8), [jump])
    for n in range(refined.num_levels):
        level = refined.level(n)
        pos = path.grid_indices(level)
        assert isinstance(pos, np.ndarray)
        assert np.array_equal(pos, np.searchsorted(path.times, level))
