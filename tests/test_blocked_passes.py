"""The passes over grid-sized arrays work in blocks of ``partitions.BLOCK``
rows; each is held here to its one-shot route, kept as the reference, bit for
bit (floats compared by int64 view).  ``BLOCK`` is set to 7 as well as left
at its value, so that block edges fall inside small grids: 6, 7, 8 and 15
cells are BLOCK - 1, BLOCK, BLOCK + 1 and 2 * BLOCK + 1.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import SampledPath, cli, dyadic, generate, partitions, qv_along, qv_matrix
from pathcalc.convergence import ConvergenceConfig
from pathcalc.integration import _qv_flags, _truncated_dot_sums
from pathcalc.partitions import cell_index, grid_positions, index_array, strictly_increasing
from pathcalc.paths import _walk_steps
from pathcalc.quadvar import _level_sums, _running_sums_at, _truncated_sq_sums

DEFAULT_BLOCK = partitions.BLOCK


@pytest.fixture(params=[7, DEFAULT_BLOCK], ids=["block7", "block_default"])
def block(request, monkeypatch):
    monkeypatch.setattr(partitions, "BLOCK", request.param)
    return request.param


def _sizes(block):
    return [block - 1, block, block + 1, 2 * block + 1]


def _edges(block, m):
    """The positions 0..m next to the block edges, and m."""
    near = [0, 1, *(e + o for e in (block, 2 * block) for o in (-1, 0, 1)), m]
    return sorted({j for j in near if j <= m})


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_blocks_cover_the_rows_in_order(block):
    for m in _sizes(block):
        bounds = list(partitions.blocks(m))
        assert [a for a, _ in bounds] == list(range(0, m, block))
        assert [b for _, b in bounds] == [a for a, _ in bounds[1:]] + [m]
    assert list(partitions.blocks(0)) == []


# -- one-shot references ------------------------------------------------------

def _walk_steps_reference(grid, sigma, dim, seed):
    signs = np.random.default_rng(seed).integers(0, 2, size=(grid.size - 1, dim))
    signs *= 2
    signs -= 1
    values = np.empty((grid.size, dim))
    steps = values[1:]
    np.subtract(grid[1:, None], grid[:-1, None], out=steps)
    np.sqrt(steps, out=steps)
    steps *= sigma
    steps *= signs
    return values


def _sq_sums_reference(x, li, probe_idx):
    lx = x[li]
    prefix = np.zeros(lx.size)
    a = prefix[1:]
    np.subtract(lx[1:], lx[:-1], out=a)
    a *= a
    np.cumsum(a, out=a)
    jstar = cell_index(li, probe_idx)
    return prefix[jstar] + (x[probe_idx] - lx[jstar]) ** 2


def _dot_sums_reference(x, li, g, probe_idx):
    lx = x[li]
    a = np.diff(lx, axis=0)
    a *= g
    prefix = np.concatenate(([0.0], np.cumsum(np.sum(a, axis=1))))
    jstar = cell_index(li, probe_idx)
    safe = np.minimum(jstar, g.shape[0] - 1)
    boundary = np.sum(g[safe] * (x[probe_idx] - lx[jstar]), axis=1)
    return prefix[jstar] + np.where(jstar >= g.shape[0], 0.0, boundary)


# -- the walk -------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_walk_steps_match_one_draw(block, dim):
    for m in _sizes(block):
        grid = np.linspace(0.0, 1.0, m + 1)
        got = _walk_steps(grid, 0.3, dim, np.random.SeedSequence(5))
        ref = _walk_steps_reference(grid, 0.3, dim, np.random.SeedSequence(5))
        assert np.array_equal(_bits(got[1:]), _bits(ref[1:])), m


@pytest.mark.parametrize("dim", [1, 2])
def test_generated_walk_matches_one_draw(monkeypatch, dim):
    spec = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0, "dim": dim}
    seq = dyadic(1.0, 5)  # 32 cells: four blocks of 7 and one of 4
    one_shot = generate(spec, 3, seq).values
    monkeypatch.setattr(partitions, "BLOCK", 7)
    assert np.array_equal(_bits(generate(spec, 3, seq).values), _bits(one_shot))


# -- the level sums ---------------------------------------------------------------

def _level(m, k, block):
    """x on a grid of m * k + 1 times, the level of every k-th time as a
    stride and as an index array, and its probe sets: the cells at the block
    edges with a time inside each, T, and every grid time."""
    rng = np.random.default_rng(m * 10 + k)
    x = np.cumsum(rng.normal(size=m * k + 1))
    cells = np.array(_edges(block, m))
    inside = np.minimum(cells * k + k // 2, m * k)
    probes = np.union1d(cells * k, inside)
    return x, [slice(0, m * k + 1, k), np.arange(0, m * k + 1, k)], [probes, np.arange(m * k + 1)]


@pytest.mark.parametrize("k", [1, 3])
def test_truncated_sq_sums_match_one_cumsum(block, k):
    for m in _sizes(block):
        x, lis, probe_sets = _level(m, k, block)
        for li in lis:
            for probe_idx in probe_sets:
                got = _truncated_sq_sums(x, li, probe_idx)
                assert np.array_equal(_bits(got), _bits(_sq_sums_reference(x, li, probe_idx))), m


@pytest.mark.parametrize("k", [1, 3])
def test_pair_sq_sums_match_the_whole_pair_column(block, k):
    """A polarization pair x + y, added a block at a time, gives the sums of
    the whole x + y column; a flat start makes increments of -0.0 and 0.0."""
    for m in _sizes(block):
        x, lis, probe_sets = _level(m, k, block)
        y = -np.random.default_rng(m).normal(size=x.size)
        y[: min(m, block) * k + 1] = -x[: min(m, block) * k + 1]
        for li in lis:
            for probe_idx in probe_sets:
                got = _truncated_sq_sums(x, li, probe_idx, y)
                assert np.array_equal(_bits(got), _bits(_sq_sums_reference(x + y, li, probe_idx))), m


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_truncated_dot_sums_match_one_cumsum(block, d, k):
    for m in _sizes(block):
        x1, lis, probe_sets = _level(m, k, block)
        x = np.column_stack([x1 * (c + 1) for c in range(d)])
        # the first block and a half move not at all against negative rows,
        # so their products are -0.0
        flat = min(m, block + block // 2)
        x[: flat * k + 1] = x[0]
        g = np.random.default_rng(m).normal(size=(m, d))
        g[:flat] = -np.abs(g[:flat])
        for li in lis:
            for probe_idx in probe_sets:
                got = _truncated_dot_sums(x, li, g, probe_idx)
                ref = _dot_sums_reference(x, li, g, probe_idx)
                assert np.array_equal(_bits(got), _bits(ref)), m


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_column_gain_sums_match_the_row_sum_route(data):
    """On a scalar path the gain increments and the partial terms g . 0.0 are
    each one term, 0.0 + t, taken in place; they equal the (m, 1) ``np.sum``
    route bit for bit, -0.0 to 0.0 and NaN kept, for rows holding -0.0, NaN
    and +-inf, on the whole grid and at probes, in blocks of 7 and in one."""
    m = data.draw(st.integers(1, 20))
    rows = st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.5]) | st.floats(-10.0, 10.0)
    g = np.array(data.draw(st.lists(rows, min_size=m, max_size=m)))[:, None]
    x = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(-5.0, 5.0),
                                    min_size=m + 1, max_size=m + 1)))[:, None]
    probe_idx = np.array(sorted(data.draw(st.sets(st.integers(0, m), min_size=1))))
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0.0 and inf - inf
        inc = np.diff(x, axis=0) * g
        whole = np.concatenate(([0.0], np.cumsum(np.sum(inc, axis=1))))
        whole[:m] += np.sum(g * 0.0, axis=1)
        for block in (7, DEFAULT_BLOCK):
            with mock.patch.object(partitions, "BLOCK", block):
                for li in (slice(0, m + 1, 1), np.arange(m + 1)):
                    assert np.array_equal(_bits(_truncated_dot_sums(x, li, g)), _bits(whole))
                    got = _truncated_dot_sums(x, li, g, probe_idx)
                    ref = _dot_sums_reference(x, li, g, probe_idx)
                    assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("dim", [1, 2])
def test_qv_flags_in_blocks_match_the_report_verdict(block, dim, monkeypatch):
    """The hedge's QV verdict, its level sums taken in blocks, is that of the QV
    report summed in one block, bit for bit, on a walk with a jump off every
    level but the top, at the default and at explicit probes."""
    seq = dyadic(1.0, 5)  # 32 cells: four blocks of 7 and one of 4
    walk = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0, "dim": dim}
    path = generate({"kind": "with_jumps", "base": walk, "jumps": [[11 / 32, 0.05]]}, 3, seq)
    for probes in (None, path.times[[0, 5, 11, 12, 32]]):
        for window in (1, 2, 3):
            config = ConvergenceConfig(tol=1.0, window=window)
            with monkeypatch.context() as one_block:
                one_block.setattr(partitions, "BLOCK", DEFAULT_BLOCK)
                full = (qv_along if dim == 1 else qv_matrix)(path, seq, probes, config)
            converged, metric = _qv_flags(_level_sums(path, seq, probes), config)
            assert converged is full.converged
            assert _bits(metric) == _bits(full.convergence_metric)


def test_running_sums_at_cells_keep_a_sum_of_negative_zeros(block):
    for m in _sizes(block):
        terms = np.random.default_rng(m).normal(size=m)
        terms[: block + block // 2] = -0.0  # -0.0 sums across the first block edge
        cells = np.arange(m + 1)
        got = _running_sums_at(lambda a, b: terms[a:b].copy(), m, cells)
        assert np.array_equal(_bits(got), _bits(np.concatenate(([0.0], np.cumsum(terms)))[cells])), m
        assert np.signbit(got[1 : min(m, block + block // 2) + 1]).all()


# -- the grid checks ----------------------------------------------------------------

def test_mesh_matches_one_diff(block):
    for m in _sizes(block):
        times = np.sort(np.random.default_rng(m).uniform(0.0, 1.0, m - 1))
        explicit = partitions.PartitionSequence(1.0, [[0.0, 1.0], [0.0, *times, 1.0]],
                                                nested=False, dense=False)
        level = explicit.level(1)
        assert explicit.mesh(1) == float(np.max(np.diff(level)))
    seq = dyadic(0.7, 5)
    for n in range(seq.num_levels):
        assert seq.mesh(n) == float(np.max(np.diff(seq.level(n))))


def test_strictly_increasing_matches_one_diff(block):
    for m in _sizes(block):
        grid = np.linspace(0.0, 1.0, m + 1)
        assert strictly_increasing(grid)
        for j in _edges(block, m)[1:]:  # a tie, then a step back
            for bad in (grid[j - 1], grid[j - 1] - 0.5):
                arr = grid.copy()
                arr[j] = bad
                assert strictly_increasing(arr) == (not np.any(np.diff(arr) <= 0)), (m, j)
    assert strictly_increasing(np.array([]))
    assert strictly_increasing(np.array([np.nan, 0.0]))  # as np.diff(...) <= 0 reads NaN


def test_grid_positions_of_a_stride_view_compare_nothing(block, monkeypatch):
    for m in _sizes(block):
        grid = np.linspace(0.0, 1.0, 2 * m + 1)
        grid.flags.writeable = False
        for k in (1, 2):
            pos, hit = grid_positions(grid, grid[::k])
            assert pos == slice(0, grid.size, k)
            assert hit.all() and hit.shape == (grid[::k].size,) and not hit.flags.writeable
    # the same memory is taken as equal without reading it
    monkeypatch.setattr(np, "array_equal", None)
    grid = dyadic(1.0, 4).level(4)
    assert grid_positions(grid, grid[::4])[0] == slice(0, grid.size, 4)


def test_grid_positions_of_a_copy_compare_block_by_block(block):
    for m in _sizes(block):
        grid = np.linspace(0.0, 1.0, 2 * m + 1)
        ts = grid[::2].copy()
        assert grid_positions(grid, ts)[0] == slice(0, grid.size, 2)
        for j in _edges(block, m):  # one time off the grid
            off = ts.copy()
            off[j] = np.nextafter(off[j], 2.0)
            pos, hit = grid_positions(grid, off)
            assert isinstance(pos, np.ndarray)
            assert np.array_equal(pos, np.searchsorted(grid, off))
            assert np.flatnonzero(~hit).tolist() == [j]
            assert np.array_equal(index_array(slice(0, grid.size, 2)) == pos, hit)


def test_require_finite_names_the_first_bad_value():
    for arr, first in [(np.array([0.0, np.inf, np.nan]), "inf"),
                       (np.array([[1.0, -np.inf], [np.nan, 2.0]]), "-inf"),
                       (np.array([np.nan, 1.0]), "nan")]:
        with pytest.raises(ValueError, match=f"^x must be finite, got {first}$"):
            partitions.require_finite(arr, "x")
    partitions.require_finite(np.array([]), "x")
    partitions.require_finite(np.array([-1e308, 1e308]), "x")


def test_require_finite_names_the_first_bad_value_of_many_blocks(block):
    for m in _sizes(block):
        for bad in _edges(block, m - 1):
            for dim in (1, 2):
                arr = np.arange(m * dim, dtype=float).reshape(m, dim).squeeze()
                arr.flat[bad * dim + dim - 1] = -np.inf
                arr.flat[-1] = np.nan  # a later bad value, possibly in a later block
                first = float(arr.flat[~np.isfinite(arr.ravel())][0])
                with pytest.raises(ValueError, match=f"^x must be finite, got {first!r}$"):
                    partitions.require_finite(arr, "x")


def _finest_grid_reference(path, seq):
    """The message of the one-shot check: the file's grid against the whole
    merged grid ``np.union1d(top level, jump times)``; None when they agree."""
    fine = np.union1d(seq.level(seq.top), path.jump_times)
    if np.array_equal(path.times, fine):
        return None
    n = min(path.times.size, fine.size)
    differ = np.flatnonzero(path.times[:n] != fine[:n])
    k = int(differ[0]) if differ.size else n

    def at(ts):
        return repr(float(ts[k])) if k < ts.size else "none"

    return (f"path file f.csv has {path.times.size} grid points, but partition level "
            f"{seq.top} has {fine.size}; they first differ at index {k} "
            f"(file time {at(path.times)}, partition time {at(fine)})")


def test_finest_grid_check_matches_the_merged_grid(block):
    """Level 5 (33 points, blocks of 7 end at 7, 14, 21, 28) with jumps on and
    off the level: one off-level jump whose refined index is a block edge,
    two in one cell, one past T; and each such grid with a point dropped,
    added or moved at every index, or the file cut short or run long."""
    seq = dyadic(1.0, 5)
    top, h = seq.level(5), 1.0 / 32
    jump_sets = [[], [0.5], [6.5 * h], [6.5 * h, 13.5 * h], [13.25 * h, 13.75 * h],
                 [6.5 * h, 0.5, 20.5 * h, 1.25], [31.5 * h]]
    checked = 0
    for jumps in jump_sets:
        fine = np.union1d(top, jumps)
        grids = [fine, fine[:-1], np.append(fine, 2.0)]
        for e in range(fine.size):
            moved = fine.copy()
            moved[e] += h / 16
            grids += [np.delete(fine, e), np.insert(fine, e, fine[e] - h / 8), moved, fine[:e + 1]]
        for times in grids:
            if times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
                continue
            kept = [t for t in jumps if t in times]
            path = SampledPath(times, np.arange(times.size, dtype=float), [(t, 1.0) for t in kept])
            expected = _finest_grid_reference(path, seq)
            try:
                cli._require_finest_grid("f.csv", path, seq)
                got = None
            except cli.ConfigError as exc:
                got = str(exc)
            assert got == expected, (jumps, times.size)
            checked += 1
    assert checked > 800
