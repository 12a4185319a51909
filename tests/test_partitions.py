import contextlib
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    PartitionSequence,
    SampledPath,
    default_probe_times,
    dyadic,
    last_index_before,
    refine_with,
)
from pathcalc import partitions
from pathcalc.partitions import grid_positions, index_array, merge_times


def test_dyadic_levels_by_definition():
    seq = dyadic(1.0, 2)
    assert seq.level(0).tolist() == [0.0, 1.0]
    assert seq.level(1).tolist() == [0.0, 0.5, 1.0]
    assert seq.level(2).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert seq.dense and seq.nested


def test_dyadic_horizon_two():
    seq = dyadic(2.0, 1)
    assert seq.level(1).tolist() == [0.0, 1.0, 2.0]


def test_dyadic_mesh_arithmetic():
    seq = dyadic(1.0, 6)
    for n in range(7):
        assert seq.mesh(n) == 2.0**-n


def test_dyadic_nesting_exhaustive():
    seq = dyadic(0.7, 8)
    for n in range(8):
        fine = set(seq.level(n + 1).tolist())
        assert all(t in fine for t in seq.level(n).tolist())


@pytest.mark.parametrize("T", [1.0, 0.7, 3.0, 1e-3, 123.456])
@pytest.mark.parametrize("max_level", [1, 6, 20])
def test_dyadic_levels_are_views_equal_to_the_per_level_reference(T, max_level):
    # reference route: each level built on its own, i * (T / 2**n) with last = T
    seq = dyadic(T, max_level)
    top = seq.level(max_level)
    for n in range(max_level + 1):
        ref = np.arange(2**n + 1, dtype=float) * (T / 2**n)
        ref[-1] = T
        level = seq.level(n)
        assert np.array_equal(level.view(np.int64), ref.view(np.int64)), n
        assert np.shares_memory(level, top)
        assert not level.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        seq.level(0)[1] = 0.5


def test_dyadic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dyadic(-1.0, 3)
    with pytest.raises(ValueError):
        dyadic(1.0, 0)
    with pytest.raises(ValueError, match="horizon"):
        dyadic(float("nan"), 3)


@pytest.mark.parametrize("max_level", [31, 10**400])
def test_dyadic_rejects_a_level_above_30_before_making_a_grid(max_level):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^max_level must be <= 30, got "):
            dyadic(1.0, max_level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_refine_with_inserts_everywhere():
    seq = refine_with(dyadic(1.0, 1), [1 / 3])
    assert seq.level(0).tolist() == [0.0, 1 / 3, 1.0]
    assert seq.level(1).tolist() == [0.0, 1 / 3, 0.5, 1.0]


def test_refine_with_empty_is_identity():
    base = dyadic(1.0, 3)
    same = refine_with(base, [])
    assert same is base


def test_refine_with_keeps_extras_on_every_level():
    seq = refine_with(dyadic(1.0, 3), [0.1, 0.9])
    for n in range(4):
        grid = seq.level(n).tolist()
        assert 0.1 in grid and 0.9 in grid
    assert seq.nested


def test_refine_with_rejects_outsiders():
    with pytest.raises(ValueError, match=r"^extra time 1\.5 is outside \[0, 1\.0\]$"):
        refine_with(dyadic(1.0, 2), [1.5])
    with pytest.raises(ValueError, match=r"^extra time -0\.25 is outside \[0, 2\.0\]$"):
        refine_with(dyadic(2.0, 2), [0.5, -0.25, 3.0])
    with pytest.raises(ValueError, match="extra times must be finite, got nan"):
        refine_with(dyadic(1.0, 2), [0.25, float("nan")])


def test_last_index_before_definition():
    seq = dyadic(1.0, 2)
    assert last_index_before(seq, 2, 0.5) == 1
    assert last_index_before(seq, 2, 1.0) == 3
    assert last_index_before(seq, 2, 0.26) == 1


def test_last_index_before_bracket_property():
    seq = dyadic(1.0, 4)
    rng = np.random.default_rng(0)
    for t in rng.uniform(1e-9, 1.0, size=50):
        for n in range(5):
            k = last_index_before(seq, n, t)
            grid = seq.level(n)
            assert grid[k] < t <= grid[k + 1]


def test_last_index_before_rejects_out_of_range():
    seq = dyadic(1.0, 2)
    with pytest.raises(ValueError):
        last_index_before(seq, 1, 0.0)
    with pytest.raises(ValueError):
        last_index_before(seq, 1, 1.1)


def test_last_index_before_rejects_a_nan_time():
    with pytest.raises(ValueError, match=r"t must lie in \(0, T\], got nan"):
        last_index_before(dyadic(1.0, 2), 2, float("nan"))


def test_last_index_consistent_under_refinement():
    seq = dyadic(1.0, 3)
    fine = refine_with(seq, [0.3, 0.77])
    rng = np.random.default_rng(1)
    for t in rng.uniform(1e-9, 1.0, size=30):
        for n in range(4):
            k = last_index_before(fine, n, t)
            assert fine.level(n)[k] < t


def test_constructor_validates_levels():
    with pytest.raises(ValueError):
        PartitionSequence(1.0, [[0.0, 0.5]])  # does not end at T
    with pytest.raises(ValueError, match="level 0 is not strictly increasing"):
        PartitionSequence(1.0, [[0.0, 0.5, 0.5, 1.0]])
    with pytest.raises(ValueError, match="level 0 is not strictly increasing"):
        PartitionSequence(1.0, [[0.0, 0.6, 0.4, 1.0]])
    tiny = 5e-324  # neighbours one subnormal apart still count as increasing
    assert PartitionSequence(1.0, [[0.0, tiny, 2 * tiny, 1.0]]).level(0).size == 4
    with pytest.raises(ValueError, match="level 1 time 0.4 is absent from level 2"):
        PartitionSequence(1.0, [[0.0, 1.0], [0.0, 0.4, 1.0], [0.0, 0.5, 1.0]])
    with pytest.raises(ValueError, match="level 1 times must be finite, got nan"):
        PartitionSequence(1.0, [[0.0, 1.0], [0.0, float("nan"), 1.0]])
    with pytest.raises(ValueError, match="horizon"):
        PartitionSequence(float("inf"), [[0.0, float("inf")]])


def test_dense_flag_validation():
    # declared dense but meshes do not shrink
    with pytest.raises(ValueError):
        PartitionSequence(1.0, [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], dense=True)
    seq = PartitionSequence(1.0, [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], dense=False)
    assert not seq.dense
    # a sequence not declared nested whose mesh grows, though its top beats
    # level 0
    growing = [[0.0, 0.5, 1.0], [0.0, 0.2, 1.0], np.linspace(0.0, 1.0, 11)]
    with pytest.raises(ValueError, match="declared dense but mesh is not non-increasing"):
        PartitionSequence(1.0, growing, nested=False)


def test_descriptor_roundtrip():
    seq = refine_with(dyadic(1.0, 3), [0.3])
    desc = {
        "type": "explicit",
        "T": seq.T,
        "levels": [seq.level(n).tolist() for n in range(seq.num_levels)],
        "dense": seq.dense,
        "nested": seq.nested,
    }
    json.dumps(desc)  # must be serializable
    back = PartitionSequence.from_descriptor(desc)
    for n in range(seq.num_levels):
        assert back.level(n).tolist() == seq.level(n).tolist()


def test_descriptor_dyadic_form():
    seq = PartitionSequence.from_descriptor(
        {"type": "dyadic", "T": 2.0, "max_level": 3, "extra_times": [0.5]}
    )
    assert seq.T == 2.0
    assert 0.5 in seq.level(0).tolist()


@st.composite
def grid_and_queries(draw):
    """A sorted grid of [0, 1] and query times on it, between its points and
    one ulp away from them."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=12, unique=True))
    grid = np.array(sorted({0.0, 1.0, *inner}))
    picks = draw(st.lists(st.sampled_from(grid.tolist()), max_size=8))
    moves = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(picks),
                          max_size=len(picks)))
    others = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    queries = [float(np.nextafter(t, t + m)) if m else t for t, m in zip(picks, moves)]
    # every k-th grid point, the same with one point moved one ulp, and as
    # many points between the grid points and past T
    cells = grid.size - 1
    k = draw(st.sampled_from([k for k in range(1, cells + 1) if cells % k == 0]))
    strided = grid[::k]
    moved = strided.copy()
    j = draw(st.integers(0, moved.size - 1))
    moved[j] = np.nextafter(moved[j], draw(st.sampled_from([-1.0, 2.0])))
    off = np.append((grid[:-1:k] + grid[1::k]) / 2, 2.0)
    return grid, queries + others, [strided, moved, off]


@st.composite
def sequence_and_extras(draw):
    """A nested sequence of [0, T], with the levels of a dyadic sequence (each
    a strided view of one grid) or ragged explicit levels, and extra times in
    [0, T]: on its finest grid, between its points, at 0 and at T, unsorted
    and repeated.  It is not declared dense, since extra times may leave a
    coarse level as fine as the top."""
    T = draw(st.sampled_from([1.0, 2.0, 0.3]))
    if draw(st.booleans()):
        d = dyadic(T, draw(st.integers(1, 7)))
        levels = [d.level(n) for n in range(d.num_levels)]
    else:
        inner = draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True),
                              min_size=1, max_size=12, unique=True))
        levels = [sorted({0.0, T, *inner})]
        for _ in range(draw(st.integers(1, 3))):
            keep = draw(st.lists(st.booleans(), min_size=len(levels[0]) - 2,
                                 max_size=len(levels[0]) - 2))
            levels.insert(0, [0.0, *(t for t, k in zip(levels[0][1:-1], keep) if k), T])
    seq = PartitionSequence(T, levels, dense=False, nested=True)
    top = seq.level(seq.top).tolist()
    extras = draw(st.lists(st.one_of(st.floats(0.0, T), st.sampled_from(top),
                                     st.sampled_from([0.0, T])), max_size=10))
    return seq, extras + extras[:draw(st.integers(0, 3))]


@settings(max_examples=200, deadline=None)
@given(sequence_and_extras())
def test_merge_agrees_with_the_sorted_union(case):
    """``merge_times``, each level of ``refine_with`` and the probe times of a
    path with jumps equal ``np.union1d`` bit for bit."""
    seq, extras = case
    times = np.unique(extras)
    past = np.append(times, [1.5 * seq.T, 2.0 * seq.T])  # merge_times alone takes these
    top = seq.level(seq.top)
    for n in range(seq.num_levels):
        level = seq.level(n)
        for ts in (times, past):
            assert merge_times(level, ts).tobytes() == np.union1d(level, ts).tobytes()
        assert merge_times(top, level).tobytes() == np.union1d(top, level).tobytes()
        alone = merge_times(level, np.array([]))  # a new array, with no search
        assert alone.tobytes() == level.tobytes() and alone.flags.writeable
        assert not np.shares_memory(alone, level)
    if not extras:
        assert refine_with(seq, extras) is seq
        return
    refined = refine_with(seq, extras)
    for n in range(seq.num_levels):
        assert refined.level(n).tobytes() == np.union1d(seq.level(n), extras).tobytes()
    fine = refined.level(refined.top)
    jumps = [(t, 1.0) for t in times.tolist() if t > 0.0]
    path = SampledPath(fine, np.arange(fine.size, dtype=float), jumps)
    for probed in (seq, refined):  # the jumps off and on the probe levels
        for n in range(probed.num_levels):
            expected = np.union1d(probed.level(n), path.jump_times)
            assert default_probe_times(probed, path, n).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1,
                max_size=12))
def test_refine_with_takes_the_distinct_extra_times_of_np_unique(extras):
    """The extra times, sorted and their repeats dropped, are ``np.unique``'s
    bit for bit, with repeats and both zeros (np.unique imports numpy.ma)."""
    refined = refine_with(dyadic(1.0, 6), extras)
    assert refined._extra.tobytes() == np.unique(extras).tobytes()


@st.composite
def nested_base_and_extras(draw):
    """A nested base, a ``dyadic`` one or explicit levels (views of one grid,
    or ragged) declared dense where their meshes allow it, and extra times of
    four kinds: off every level (between two top times), on the levels from
    some level k up, at T, and two in one top cell."""
    if draw(st.booleans()):
        seq = dyadic(draw(st.sampled_from([1.0, 0.3])), draw(st.integers(1, 7)))
    else:
        seq, _ = draw(sequence_and_extras())
        if draw(st.booleans()):
            with contextlib.suppress(ValueError):
                seq = PartitionSequence(seq.T, [seq.level(n) for n in range(seq.num_levels)])
    top = seq.level(seq.top)
    j = draw(st.integers(0, top.size - 2))
    kinds = {
        "off": [float(t) for t in (top[:-1] + top[1:]) / 2][:draw(st.integers(0, 3))],
        "on": draw(st.lists(st.sampled_from(seq.level(draw(st.integers(0, seq.top))).tolist()),
                            max_size=3)),
        "T": [seq.T] if draw(st.booleans()) else [],
        "cell": ([float(top[j] + (top[j + 1] - top[j]) * f) for f in (0.25, 0.75)]
                 if draw(st.booleans()) else []),
    }
    extras = [t for kind in kinds.values() for t in kind]
    return seq, draw(st.permutations(extras))


@settings(max_examples=200, deadline=None)
@given(nested_base_and_extras())
def test_a_refinement_is_the_merge_and_locates_its_levels_by_stride(case):
    """A refinement, built with the dense check alone, in blocks of 7: each
    level is the base level merged with the extra times, bit for bit and
    read-only; the constructor, with every check, takes those levels or
    raises what the refinement raises; each level's positions in the top
    are those the search of the whole top finds; and a second call, which
    builds the refinement again, gives the same bits and leaves the base as
    it was."""
    base, extras = case
    with mock.patch.object(partitions, "BLOCK", 7):
        if not extras:
            assert refine_with(base, extras) is base
            return
        merged = [merge_times(base.level(n), np.unique(extras)) for n in range(base.num_levels)]
        try:
            PartitionSequence(base.T, merged, dense=base.dense, nested=True)
        except ValueError as exc:  # the extra times leave level 0 as fine as the top
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                refine_with(base, extras)
            return
        before = dict(vars(base))
        refined = refine_with(base, extras)
        again = refine_with(base, extras[::-1])
        assert vars(base).keys() == before.keys()
        assert all(vars(base)[k] is v for k, v in before.items())  # nothing stored on the base
        top = refined.level(refined.top)
        for n, expected in enumerate(merged):
            level = refined.level(n)
            assert level.tobytes() == expected.tobytes() == again.level(n).tobytes()
            assert not level.flags.writeable
            assert grid_positions(top, level)[1].all()
            positions = index_array(refined.positions(n)).tolist()
            assert positions == np.searchsorted(top, level).tolist()
            assert positions == index_array(again.positions(n)).tolist()


@settings(max_examples=200, deadline=None)
@given(nested_base_and_extras(), st.data())
def test_covers_on_a_nested_sequence_reads_level_0(case, data):
    """On a nested sequence a time is in every level iff it is in level 0, so
    ``covers`` with no level equals the loop over every level on dyadic,
    explicit nested and refined sequences, for times on the levels from some
    level up, off every level and outside [0, T]; a refinement merges at most
    one level for it."""
    base, extras = case
    seqs = [base]
    with contextlib.suppress(ValueError):  # the extra times leave level 0 as fine as the top
        seqs.append(refine_with(base, extras))
    for seq in seqs:
        top = seq.level(seq.top)
        on = seq.level(data.draw(st.integers(0, seq.top))).tolist()
        pool = [*on, *((top[:-1] + top[1:]) / 2).tolist(), -0.5 * seq.T, 1.5 * seq.T]
        times = np.unique(data.draw(st.lists(st.sampled_from(pool), max_size=4)))
        loop = all(grid_positions(seq.level(n), times)[1].all() for n in range(seq.num_levels))
        with mock.patch.object(partitions, "merge_times", wraps=partitions.merge_times) as merges:
            assert seq.covers(times) == loop
        assert merges.call_count <= 1


def test_covers_checks_every_level_of_a_sequence_not_nested():
    seq = PartitionSequence(1.0, [[0.0, 0.5, 1.0], [0.0, 0.25, 1.0]], dense=False, nested=False)
    assert seq.covers([0.5], 0) and not seq.covers([0.5])
    assert seq.covers([0.25], 1) and not seq.covers([0.25])
    assert seq.covers([0.0, 1.0])


def test_a_refinement_keeps_the_dense_check():
    """Refining runs the dense check, with its messages, on a nested base and
    on one not declared nested."""
    loose = PartitionSequence(1.0, [[0.0, 0.5, 1.0], [0.0, 0.1, 0.55, 1.0]], nested=False)
    with pytest.raises(ValueError, match="^declared dense but mesh is not non-increasing$"):
        refine_with(loose, [0.25, 0.75])  # level 1's mesh becomes 0.3, level 0's 0.25
    refined = refine_with(loose, [0.05])
    assert not refined.nested
    assert refined.level(1).tolist() == [0.0, 0.05, 0.1, 0.55, 1.0]
    nested = PartitionSequence(1.0, [[0.0, 1.0], [0.0, 0.6, 1.0]])
    with pytest.raises(ValueError, match="^declared dense but top mesh does not beat level 0$"):
        refine_with(nested, [0.6])
    sparse = PartitionSequence(1.0, [[0.0, 1.0], [0.0, 0.6, 1.0]], dense=False)
    assert refine_with(sparse, [0.6]).level(0).tolist() == [0.0, 0.6, 1.0]


@settings(max_examples=200, deadline=None)
@given(grid_and_queries())
def test_membership_agrees_with_set_reference(case):
    grid, queries, strided = case
    members = set(grid.tolist())
    index = {t: k for k, t in enumerate(grid.tolist())}
    strided_seq = PartitionSequence(1.0, [strided[0], grid], dense=False, nested=True)
    values = np.column_stack((grid, -3.0 * grid))
    for ts in strided:
        pos, hit = grid_positions(grid, ts)
        idx = index_array(pos)
        expect_hit = [t in members for t in ts.tolist()]
        assert hit.tolist() == expect_hit
        assert [i for i, h in zip(idx.tolist(), expect_hit) if h] == [
            index[t] for t in ts.tolist() if t in members]
        searched = np.searchsorted(grid, ts)
        assert np.array_equal(idx, searched)
        assert np.array_equal(hit, grid[np.minimum(searched, grid.size - 1)] == ts)
        if isinstance(pos, slice):  # the stride's mask: all True, read-only
            assert hit.shape == ts.shape and not hit.flags.writeable
        if hit.all():
            assert np.array_equal(values[pos].view(np.int64), values[searched].view(np.int64))
        assert strided_seq.covers(ts, 1) == all(expect_hit)
    expected = all(t in members for t in queries)
    seq = PartitionSequence(1.0, [[0.0, 1.0], grid], dense=False, nested=False)
    assert seq.covers(queries, 1) == expected
    assert seq.covers(queries) == (expected and all(t in (0.0, 1.0) for t in queries))

    coarse = sorted({0.0, 1.0, *(t for t in queries if 0.0 < t < 1.0)})
    try:
        PartitionSequence(1.0, [coarse, grid], dense=False, nested=True)
        nested = True
    except ValueError as exc:
        missing = [t for t in coarse if t not in members]
        assert f"time {missing[0]!r} is absent" in str(exc)
        nested = False
    assert nested == all(t in members for t in coarse)

    path = SampledPath(grid, np.zeros(grid.size))
    assert index_array(path.grid_indices(strided[0])).tolist() == [index[t] for t in strided[0]]
    if expected:
        assert index_array(path.grid_indices(queries)).tolist() == [index[t] for t in queries]
    else:
        with pytest.raises(ValueError, match="is not on the path grid"):
            path.grid_indices(queries)


# -- level validation, held to the per-level loop that checked every level -------

def _reference_error(T, levels, dense, nested):
    """The message of the first check the constructor's old loop failed, or
    None: every level checked in turn (finite, ends at 0 and T, increasing),
    then nestedness pair by pair, then the declared density."""
    arrs = []
    for n, grid in enumerate(levels):
        arr = np.asarray(grid, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            return f"level {n} must contain at least two times"
        if not np.isfinite(arr).all():
            return f"level {n} times must be finite, got {float(arr[~np.isfinite(arr)][0])!r}"
        if arr[0] != 0.0 or arr[-1] != T:
            return f"level {n} must start at 0 and end at T={T}"
        if (np.diff(arr) <= 0).any():
            return f"level {n} is not strictly increasing"
        arrs.append(arr)
    if nested:
        for n, (coarse, fine) in enumerate(zip(arrs, arrs[1:])):
            members = set(fine.tolist())
            missing = [t for t in coarse.tolist() if t not in members]
            if missing:
                return (f"declared nested but level {n} time {missing[0]!r} "
                        f"is absent from level {n + 1}")
    if dense and len(arrs) > 1:
        meshes = [float(np.diff(arr).max()) for arr in arrs]
        if any(m2 > m1 for m1, m2 in zip(meshes, meshes[1:])):
            return "declared dense but mesh is not non-increasing"
        if meshes[-1] >= meshes[0]:
            return "declared dense but top mesh does not beat level 0"
    return None


_BAD_TIME = {
    "nan": lambda arr, j: float("nan"),
    "inf": lambda arr, j: float("inf"),
    "-inf": lambda arr, j: -float("inf"),
    "unsorted": lambda arr, j: arr[j] + 2.0,  # past T, so past every later time
    "repeated": lambda arr, j: arr[j - 1] if j > 0 else arr[j + 1],
    "moved": lambda arr, j: np.nextafter(arr[j], 2.0),  # one ulp: off the finer levels
}


@st.composite
def levels_with_a_fault(draw):
    """Levels of [0, T] with at most one bad time.  The levels are views of one
    grid, as ``dyadic`` makes them, or copies of its strides, or random nested
    levels.  The bad time (NaN, inf, -inf, a time out of order, a repeated
    time or a time one ulp off) is put in the shared grid, so that every view
    holding it sees it, or in one level, the coarsest, the finest or one in
    between, where it leaves a copy of a stride equal to the stride except at
    that position."""
    T = draw(st.sampled_from([1.0, 0.3]))
    top_level = draw(st.integers(1, 5))
    grid = np.arange(2**top_level + 1) * (T / 2**top_level)
    grid[-1] = T
    first = draw(st.integers(0, top_level))
    kind = draw(st.sampled_from(["views", "copies", "random"]))
    fault = draw(st.sampled_from([None, "shared", "level"]))
    how = draw(st.sampled_from(sorted(_BAD_TIME)))
    if kind == "random":
        inner = draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True),
                              min_size=1, max_size=12, unique=True))
        levels = [np.array(sorted({0.0, T, *inner}))]
        for _ in range(draw(st.integers(0, 3))):
            keep = draw(st.lists(st.booleans(), min_size=levels[0].size - 2,
                                 max_size=levels[0].size - 2))
            levels.insert(0, np.array([0.0, *(t for t, k in zip(levels[0][1:-1], keep) if k), T]))
    else:
        if fault == "shared":
            j = draw(st.integers(0, grid.size - 1))
            grid[j] = _BAD_TIME[how](grid, j)
        levels = [grid[:: 2 ** (top_level - n)] for n in range(first, top_level + 1)]
        if kind == "copies":
            levels = [level.copy() for level in levels]
    if fault == "level":
        n = draw(st.sampled_from([0, len(levels) - 1, draw(st.integers(0, len(levels) - 1))]))
        level = levels[n].copy()
        j = draw(st.integers(0, level.size - 1))
        level[j] = _BAD_TIME[how](level, j)
        levels[n] = level
    return T, levels, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(levels_with_a_fault())
def test_constructor_raises_what_the_per_level_loop_raises(case):
    """A level equal to a stride of the next skips the finiteness and order
    checks; the constructor still accepts exactly the sequences the loop that
    checked every level accepted, and names the same first failure."""
    T, levels, dense, nested = case
    expected = _reference_error(T, levels, dense, nested)
    if expected is not None:
        with pytest.raises(ValueError) as info:
            PartitionSequence(T, levels, dense=dense, nested=nested)
        assert str(info.value) == expected
        return
    seq = PartitionSequence(T, levels, dense=dense, nested=nested)
    for n, level in enumerate(levels):
        assert seq.level(n).tobytes() == level.tobytes()
        assert not seq.level(n).flags.writeable
        assert np.shares_memory(seq.level(n), level)
