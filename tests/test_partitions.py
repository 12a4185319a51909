import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    PartitionSequence,
    SampledPath,
    dyadic,
    last_index_before,
    refine_with,
)
from pathcalc.partitions import grid_positions


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


def test_dyadic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dyadic(-1.0, 3)
    with pytest.raises(ValueError):
        dyadic(1.0, 0)
    with pytest.raises(ValueError, match="horizon"):
        dyadic(float("nan"), 3)


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
    with pytest.raises(ValueError):
        refine_with(dyadic(1.0, 2), [1.5])
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
    with pytest.raises(ValueError):
        PartitionSequence(1.0, [[0.0, 0.5, 0.5, 1.0]])
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


def test_descriptor_roundtrip():
    seq = refine_with(dyadic(1.0, 3), [0.3])
    desc = seq.to_descriptor()
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


def test_truncate():
    seq = dyadic(1.0, 5)
    short = seq.truncate(2)
    assert short.num_levels == 3
    assert short.level(2).tolist() == seq.level(2).tolist()


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


@settings(max_examples=200, deadline=None)
@given(grid_and_queries())
def test_membership_agrees_with_set_reference(case):
    grid, queries, strided = case
    members = set(grid.tolist())
    index = {t: k for k, t in enumerate(grid.tolist())}
    strided_seq = PartitionSequence(1.0, [strided[0], grid], dense=False, nested=True)
    for ts in strided:
        idx, hit = grid_positions(grid, ts)
        expect_hit = [t in members for t in ts.tolist()]
        assert hit.tolist() == expect_hit
        assert [i for i, h in zip(idx.tolist(), expect_hit) if h] == [
            index[t] for t in ts.tolist() if t in members]
        searched = np.searchsorted(grid, ts)
        assert np.array_equal(idx, searched)
        assert np.array_equal(hit, grid[np.minimum(searched, grid.size - 1)] == ts)
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
    assert path.grid_indices(strided[0]).tolist() == [index[t] for t in strided[0]]
    if expected:
        assert path.grid_indices(queries).tolist() == [index[t] for t in queries]
    else:
        with pytest.raises(ValueError, match="is not on the path grid"):
            path.grid_indices(queries)
