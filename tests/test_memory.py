"""Memory budgets of the grid-sized stages, stated in arrays of 2**L + 1
floats plus blocks of ``partitions.BLOCK`` floats: a grid-sized pass works
in blocks, so a run holds the partition's grid and the path values, and no
other grid-sized array.  Measured with ``tracemalloc``: what a level-L dyadic
partition holds, the peaks of generating a walk on it and of summing its
quadratic variation (of one coordinate, and of two with their polarization
pair), of reading a path file, and of a whole ``qv`` CLI run on a walk and
on a path file; and, in a fresh interpreter, the resident memory a ``qv``
CLI run adds after the import, which also sees memory the C allocator keeps
after numpy frees it, and the minor page faults of that run, at most 2,500
under each of ``PYTHONHASHSEED`` 0-5.  One ``hedge`` is held to its peak of
11.05 arrays (it walks each path whole, not in blocks yet) and keeps no
grid-sized array in its report.  An in-process ``hedge`` CLI run on a path
file whose jump lies off the top level is held to 16.5 arrays
(``test_hedge_cli_run_on_a_path_file_with_an_off_top_jump_stays_within_its_array_budget``),
as it refines onto the jump after its whole-grid request.  A whole in-process
``integrate`` CLI run with an Itô sweep is held to 11.5 arrays, within which
one gradient serves both its output files.  ``vovk_uniform_check`` is held to
7 arrays: it holds one level's sums at every grid time beside the top
level's, not every level's at once.  Also: a dyadic level reads the path
through a stride, with no index array.

Runs at L = 18, four blocks, by default; ``PATHCALC_BUDGET_LEVEL=20`` runs it
at the size of the ``qv_deep`` benchmark.  At L = 16 a block is the whole
grid, and no budget is looser there than 3.5 arrays (generate and the CLI
run) or 1.1 arrays (``qv_along``), but the path file's: its run holds the
file's three-column table beside the grid and the copied values, 5 arrays
and 1 block (6 arrays at L = 16), and the ``hedge`` and ``integrate``
budgets, which are whole-grid at every level.
"""

import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pathcalc
from pathcalc import (
    black_scholes,
    call_payoff,
    cli,
    default_probe_times,
    diffusion_density,
    dyadic,
    generate,
    hedge,
    partitions,
    qv_along,
    qv_matrix,
    read_path_csv,
    refine_with,
    vovk_uniform_check,
    write_path_csv,
)
from pathcalc.quadvar import _truncated_sq_sums

LEVEL = int(os.environ.get("PATHCALC_BUDGET_LEVEL", "18"))
WALK = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
UNIT = (2**LEVEL + 1) * 8  # bytes of one array of the grid's size
BLOCK = min(partitions.BLOCK, 2**LEVEL) * 8  # bytes of one block of a grid-sized pass
MIB = 2**20


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


def _qv_config(tmp_path):
    cfg = tmp_path / "qv.json"
    cfg.write_text(json.dumps({"seed": 0, "out": str(tmp_path / "out"), "path": WALK,
                               "partition": {"type": "dyadic", "T": 1.0, "max_level": LEVEL}}))
    return cfg


def test_grid_stages_stay_within_their_array_budgets():
    with _tracing():
        seq, held, _ = _traced(lambda: dyadic(1.0, LEVEL))
        path, _, gen_peak = _traced(lambda: generate(WALK, 0, seq))
        probes = default_probe_times(seq, path)
        _, _, qv_peak = _traced(lambda: qv_along(path, seq, probes))
    shares = {"partition held": held / UNIT, "generate peak": gen_peak / UNIT,
              "qv_along peak": qv_peak / UNIT}
    assert held <= 1.1 * UNIT, shares
    assert gen_peak <= UNIT + 1.5 * BLOCK, shares
    assert qv_peak <= 1.1 * BLOCK, shares


def test_vovk_uniform_check_holds_one_level_of_sums_at_a_time():
    """Vovk's uniform check sums the top level at every grid time first, then
    walks the levels, holding one level's sums beside the top's.  It peaks at
    5.54 arrays at L = 16, 5.26 at L = 18 and 5.06 at L = 20, within 7 arrays;
    every level's sums held at once made it 23.0, 24.0 and 26.0."""
    seq = dyadic(1.0, LEVEL)
    path = generate(WALK, 0, seq)
    with _tracing():
        _, _, peak = _traced(lambda: vovk_uniform_check(path, seq))
    assert peak <= 7 * UNIT, peak / UNIT


def test_qv_matrix_forms_its_pair_sums_a_block_at_a_time():
    """d = 2: the pair x1 + x2 is added a block at a time into the block its
    increments are taken from, so the peak is about a block, as for
    ``qv_along``: 1.2 blocks is 0.3 arrays at L = 18, where it peaks at 0.27
    (a whole pair column made it 1.27).  The sums keep the bits of the whole
    column's."""
    seq = dyadic(1.0, LEVEL)
    path = generate({**WALK, "dim": 2}, 0, seq)
    probes = default_probe_times(seq, path)
    with _tracing():
        report, _, peak = _traced(lambda: qv_matrix(path, seq, probes))
    assert peak <= 1.2 * BLOCK, peak / UNIT
    x1, x2 = path.values[:, 0], path.values[:, 1]
    probe_idx = path.grid_indices(probes)
    for n in (0, LEVEL):
        li = path.grid_indices(seq.level(n))
        diagonal = [_truncated_sq_sums(x, li, probe_idx) for x in (x1, x2)]
        pair = _truncated_sq_sums(x1 + x2, li, probe_idx)  # the whole column
        cross = 0.5 * (pair - diagonal[0] - diagonal[1])
        assert report.approx[n][:, 0, 1].tobytes() == cross.tobytes()
        assert report.approx[n][:, 1, 0].tobytes() == cross.tobytes()


def _jump_file(tmp_path):
    """A level-L walk with one jump off every coarser level, written by
    ``write_path_csv`` with its jump columns; its name and the jump time."""
    f = tmp_path / "walk.csv"
    jump = (2 * 77 + 1) / 2**LEVEL
    write_path_csv(generate({"kind": "with_jumps", "base": WALK, "jumps": [[jump, 0.1]]}, 0,
                            dyadic(1.0, LEVEL)), str(f))
    return f, jump


def test_read_path_csv_holds_no_string_per_line(tmp_path):
    """A level-L file with jump columns read by name: numpy's C reader parses
    it in chunks, so the peak is the three-column table and its growth (3.66
    arrays at L = 18), then the table and the copied values, 4.08 arrays at
    L = 18 and 4.02 at L = 20, within 4 arrays and 2 blocks; a Python string
    per line and their joined text made it 22.9."""
    f, jump = _jump_file(tmp_path)
    with _tracing():
        path, _, peak = _traced(lambda: read_path_csv(str(f)))
    assert path.jump_times == (jump,)
    assert peak <= 4 * UNIT + 2 * BLOCK, peak / UNIT


def test_qv_cli_run_on_a_path_file_stays_within_its_array_budget(tmp_path):
    """``qv`` on the file of ``test_read_path_csv_holds_no_string_per_line``
    peaks while it reads the file: the grid beside the file's table (3
    arrays), the copied values and the reader's temporaries, 5.14 arrays at
    L = 18 and 5.04 at L = 20 (5 arrays and 0.56 blocks).  The check of the
    file's grid against the top level with the jump merged in hands the path
    that grid as its times, which frees the table, and only then does the sum's
    driver refine the partition onto the jump.  A refinement built at load, for
    the sums to reuse, ran its mesh check beside the table (5.32 and 5.08); the
    table kept for the whole run, with every refined level stored, made it 7.85
    and 7.80."""
    f, _ = _jump_file(tmp_path)
    cfg = tmp_path / "qv.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "out"), "path": {"file": str(f)},
                               "partition": {"type": "dyadic", "T": 1.0, "max_level": LEVEL}}))
    with _tracing():
        code, _, peak = _traced(lambda: cli.main(["qv", "--config", str(cfg)]))
    assert code in (0, 1)  # 1 is a convergence caveat
    assert peak <= 5 * UNIT + BLOCK, peak / UNIT


def test_qv_cli_run_stays_within_its_array_budget(tmp_path):
    cfg = _qv_config(tmp_path)
    with _tracing():
        code, _, peak = _traced(lambda: cli.main(["qv", "--config", str(cfg)]))
    assert code in (0, 1)  # 1 is a convergence caveat
    assert peak <= 2 * UNIT + 1.5 * BLOCK, peak / UNIT


def test_integrate_cli_run_stays_within_its_array_budget(tmp_path):
    """A README-style ``integrate`` on a walk: the Black–Scholes Föllmer
    report and an Itô sweep over levels L-6, L-4, L-2 and L.  It peaks at
    11.44 arrays at L = 16, 11.18 at L = 18 and 11.14 at L = 20, in the
    drift-and-Hessian request, beside the report's whole-grid gradient, whose
    rows the sweep also sums; a second gradient kept for the sweep adds an
    array."""
    cfg = tmp_path / "integrate.json"
    cfg.write_text(json.dumps({
        "seed": 0, "out": str(tmp_path / "out"), "path": WALK,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": LEVEL},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "integrate": {"residual_levels": [LEVEL - 6, LEVEL - 4, LEVEL - 2, LEVEL]}}))
    with _tracing():
        code, _, peak = _traced(lambda: cli.main(["integrate", "--config", str(cfg)]))
    assert code in (0, 1)  # 1 is a convergence caveat
    assert peak <= 11.5 * UNIT, peak / UNIT


def test_hedge_stays_within_its_array_budget_and_keeps_no_grid_array():
    """The README's misspecified-volatility hedge on one walk.  Its peak, 11.03
    arrays at L = 16, 11.01 at L = 18 and 11.00 at L = 20, is set inside the
    Black–Scholes evaluation at every grid time (8 arrays, beside the hedge's
    density cells and mesh), not by the gain sums (3.00 arrays).  The report
    keeps 6.2-9.6 KB at each level: three 65-point curves, none of them a view
    of an array of the grid's size, and what a first call leaves behind.  That
    does not shrink with the grid, so its bound is in bytes: 16 KiB, under
    0.01 array at L = 18 (20,971 bytes)."""
    seq = dyadic(1.0, LEVEL)
    path = generate(WALK, 0, seq)
    with _tracing():
        _, held, peak = _traced(lambda: hedge(
            black_scholes(0.2, 1.0), call_payoff(1.0), diffusion_density(0.2), path, seq,
            realized_density=diffusion_density(0.3)))
    assert peak <= 11.05 * UNIT, peak / UNIT
    assert held <= 16 * 1024, held


def test_hedge_cli_run_on_a_path_file_with_an_off_top_jump_stays_within_its_array_budget(tmp_path):
    """An in-process ``hedge`` on a level-L walk file whose jump lies off the top
    level, so that the file's grid is that level with the jump merged in, and
    the partition is refined onto it.  The peak, 16.16 arrays at L = 16, 16.04
    at L = 18 and 16.01 at L = 20, is the Black–Scholes request at every grid
    time.  The hedge refines only after that request: refined before it, the
    refined top level was held beside it, and the peak was 17.15, 17.04 and
    17.01 arrays."""
    jump = (2 * 77 + 1) / 2 ** (LEVEL + 1)
    f = tmp_path / "walk.csv"
    write_path_csv(generate({"kind": "with_jumps", "base": WALK, "jumps": [[jump, 0.1]]}, 0,
                            refine_with(dyadic(1.0, LEVEL), [jump])), str(f))
    cfg = tmp_path / "hedge.json"
    cfg.write_text(json.dumps({
        "out": str(tmp_path / "out"), "path": {"file": str(f)},
        "partition": {"type": "dyadic", "T": 1.0, "max_level": LEVEL},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}, "realized": {"kind": "bs", "sigma": 0.3},
                  "payoff": {"kind": "call", "strike": 1.0}}}))
    with _tracing():
        code, _, peak = _traced(lambda: cli.main(["hedge", "--config", str(cfg)]))
    assert code in (0, 1)  # 1 is a numeric caveat
    assert peak <= 16.5 * UNIT, peak / UNIT


_RESIDENT = """
import sys

def status(key):  # kB
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

import pathcalc.cli

imported = status("VmRSS")
code = pathcalc.cli.main(sys.argv[1:])
print(code, imported, status("VmHWM"))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_qv_cli_run_adds_two_arrays_of_resident_memory(tmp_path):
    """2 arrays + 3 MiB is 7.0 MiB at L = 18 and 19.0 MiB at L = 20; fresh
    launches added 5.3-5.5 and 17.3-17.5 MiB (``BENCH_blocked_passes.json``,
    2-vCPU Xeon VM, glibc 2.36), so the margin is about 1.5 MiB."""
    cfg = _qv_config(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(pathcalc.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _RESIDENT, "qv", "--config", str(cfg)],
                         env=env, capture_output=True, text=True, timeout=300)
    code, imported, hwm = map(int, run.stdout.split("\n")[-2].split())
    assert code in (0, 1), run.stderr
    added = (hwm - imported) * 1024
    assert added <= 2 * UNIT + 3 * MIB, f"{added / MIB:.2f} MiB, {added / UNIT:.2f} arrays"


# Runs cli.main in a fresh interpreter and prints its exit code and the minor
# page faults main took.
_FAULTS = """
import resource, sys
from pathcalc import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
def test_qv_cli_run_takes_the_same_page_faults_under_every_hash_seed(tmp_path):
    """The hash seed moves what the import leaves at the heap top.  With the
    mmap threshold frozen at 128 KiB by the heap pad alone, each 512 KiB block
    temporary of a pass took its own mapping whenever the top was short, and
    its 128 pages were faulted in afresh: launches under some seeds took
    2,700-3,500 faults at L = 18 and 7,400-11,200 at L = 20, the others
    1,060-1,730.  With the threshold at two blocks every seed took 1,070-1,150
    at L = 18 and 1,080-1,650 at L = 20 (2-vCPU Xeon VM, glibc 2.36)."""
    cfg = _qv_config(tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = str(Path(pathcalc.__file__).parents[1])
    faults = {}
    for seed in range(6):
        run = subprocess.run([sys.executable, "-c", _FAULTS, "qv", "--config", str(cfg)],
                             env={**env, "PYTHONHASHSEED": str(seed)},
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        code, faults[seed] = map(int, run.stdout.split("\n")[-2].split())
        assert code in (0, 1)  # 1 is a convergence caveat
    assert max(faults.values()) <= 2500, faults


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
