"""A path's jumps are stored as grid positions and one size array; every
reader of them is held here to the per-jump loop it replaced, bit for bit
(the jump condition of a path with two or more coordinates, which now sums
rows where the loop took BLAS dots, to a few roundings)."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    SampledPath,
    SimpleStrategy,
    dyadic,
    identity,
    ito_residual_functional,
    self_financing_check,
    simple_ledger,
    stack,
    write_path_csv,
)
from pathcalc.partitions import refine_onto
from pathcalc.quadvar import _continuous_qv_increments


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@st.composite
def jump_paths(draw):
    """``(path, seq, pairs)``: a path of dimension 1-3 on the finest grid of
    ``seq`` (dyadic, level 3-6) plus its off-level jump times, and the
    ``(time, size)`` pairs it was built from.  Jump times are eighths of a
    top-level cell, so on the grid or off every level; there may be a jump
    at T and two in one top-level cell, and sizes may be 0.0 or -0.0.  At
    most four jumps lie inside (0, T), so the sequence refined onto them
    stays dense."""
    level = draw(st.integers(3, 6))
    seq = dyadic(1.0, level)
    eighths = 8 * 2**level
    slots = set(draw(st.lists(st.integers(1, eighths - 1), max_size=2)))
    if draw(st.booleans()):  # two jumps in one top-level cell
        cell = 8 * draw(st.integers(0, 2**level - 1))
        slots |= {cell + 3, cell + 6}
    if draw(st.booleans()):  # a jump at T starts no cell
        slots.add(eighths)
    jump_times = np.array(sorted(slots), dtype=float) / eighths
    times = np.union1d(seq.level(level), jump_times)
    dim = draw(st.integers(1, 3))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((times.size, dim))
    size = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))
    sizes = [draw(st.lists(size, min_size=dim, max_size=dim)) for _ in jump_times]
    pairs = list(zip(jump_times.tolist(), sizes))
    order = draw(st.permutations(range(len(pairs))))  # the constructor sorts them
    return SampledPath(times, values, [pairs[k] for k in order]), seq, pairs


# Reference routes: the per-jump loops over the (time, size) pairs.

def qv_increments_reference(path, seq, pairs):
    level = seq.level(seq.top)
    a = np.diff(path.values[path.grid_indices(level)], axis=0)
    out = a[:, :, None] * a[:, None, :]
    for tj, dlt in pairs:
        dlt = np.asarray(dlt, dtype=float)
        k = int(np.searchsorted(level, tj)) - 1  # cell (t_k, t_{k+1}] contains tj
        out[k] -= dlt[:, None] * dlt[None, :]
    return out


def ito_left_rows_reference(path, seq, pairs):
    fine = refine_onto(seq, [t for t, _ in pairs])[0].level(seq.top)
    left = path.values[path.grid_indices(fine)][:-1].copy()
    for tj, dlt in pairs:
        if tj < path.T:  # a jump at T starts no cell
            left[np.searchsorted(fine, tj)] -= dlt
    return left


def jump_condition_reference(ledger, pairs):
    path, level, lam = ledger.path, ledger.level_times, ledger.holdings_values
    lx = path.values[path.grid_indices(level)]
    gap = 0.0
    for tj, dlt in pairs:
        k = int(np.searchsorted(level, tj)) - 1  # cell (t_k, t_{k+1}] holds tj > 0
        xr = path.value(tj)
        xl = xr - dlt
        v_right = float(lam[k] @ (xr - lx[k]))
        v_left = float(lam[k] @ (xl - lx[k]))
        gap = max(gap, abs((v_right - v_left) - float(lam[k] @ dlt)))
    return gap


def csv_reference(path, pairs):
    jumps = {t: np.asarray(d, dtype=float) for t, d in pairs}
    cols = ["t"] + [f"x{i + 1}" for i in range(path.dim)]
    if jumps:
        cols += [f"jump{i + 1}" for i in range(path.dim)]
    lines = [",".join(cols)]
    for k, t in enumerate(path.times):
        row = [repr(float(t))] + [repr(float(v)) for v in path.values[k]]
        if jumps:
            row += [repr(float(j)) for j in jumps.get(float(t), np.zeros(path.dim))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def stack_reference(parts):
    width = sum(dim for dim, _ in parts)
    jumps, offset = {}, 0
    for dim, pairs in parts:
        for t, d in pairs:
            jumps.setdefault(t, np.zeros(width))
            jumps[t][offset:offset + dim] = d
        offset += dim
    return sorted(jumps.items())


@settings(max_examples=80, deadline=None)
@given(jump_paths())
def test_jump_arrays_hold_the_pairs_and_jump_at_reads_them(case):
    path, _, pairs = case
    assert path.jump_times == tuple(t for t, _ in pairs)
    assert np.array_equal(path.times[path.jump_index], [t for t, _ in pairs])
    assert np.array_equal(bits(path.jump_sizes), bits(np.reshape(
        [d for _, d in pairs], (-1, path.dim))))
    assert not path.jump_index.flags.writeable and not path.jump_sizes.flags.writeable
    jumps = dict(pairs)
    for t in path.times.tolist():
        assert np.array_equal(bits(path.jump_at(t)), bits(jumps.get(t, np.zeros(path.dim))))
        assert np.array_equal(bits(path.left_limit(t)),
                              bits(path.value(t) - jumps.get(t, np.zeros(path.dim))))


@settings(max_examples=80, deadline=None)
@given(jump_paths(), st.booleans())
def test_continuous_qv_increments_equal_per_jump_loop(case, refine):
    path, seq, pairs = case
    if refine:
        seq = refine_onto(seq, path.jump_times)[0]
    assert np.array_equal(bits(_continuous_qv_increments(path, seq)),
                          bits(qv_increments_reference(path, seq, pairs)))


@settings(max_examples=60, deadline=None)
@given(jump_paths())
def test_ito_left_rows_equal_per_jump_loop(case):
    path, seq, pairs = case
    F = identity(0, dim=path.dim)
    hook, states = F.pointwise, []
    F.pointwise = lambda p, t, s, want: (
        states.append(s.copy()) if want == ("horiz", "hess") else None) or hook(p, t, s, want)
    ito_residual_functional(F, path, seq)
    (left,) = states
    assert np.array_equal(bits(left), bits(ito_left_rows_reference(path, seq, pairs)))


@settings(max_examples=60, deadline=None)
@given(jump_paths())
def test_csv_text_equals_per_row_reference(case):
    path, _, pairs = case
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue() == csv_reference(path, pairs)


@settings(max_examples=60, deadline=None)
@given(jump_paths(), st.data())
def test_stack_equals_merge_of_jump_dicts(case, data):
    path, _, pairs = case
    parts, columns = [], []
    for i in range(path.dim):  # each coordinate keeps a drawn subset of the jumps
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        mine = [(t, d[i]) for (t, d), k in zip(pairs, keep) if k]
        parts.append((1, mine))
        columns.append(SampledPath(path.times, path.values[:, i], mine))
    both = stack(columns)
    ref = stack_reference(parts)
    assert np.array_equal(both.values, path.values)
    assert both.jump_times == tuple(t for t, _ in ref)
    assert np.array_equal(bits(both.jump_sizes),
                          bits(np.reshape([d for _, d in ref], (-1, path.dim))))


@settings(max_examples=60, deadline=None)
@given(jump_paths(), st.integers(0, 2**16))
def test_jump_condition_equals_per_jump_loop(case, seed):
    path, seq, pairs = case
    lam = np.random.default_rng(seed).standard_normal((2**seq.top, path.dim))
    ledger = simple_ledger(SimpleStrategy.from_values(seq.top, lam, 1.0), path, seq)
    gap = self_financing_check(ledger).jump_condition_max
    ref = jump_condition_reference(ledger, pairs)
    if path.dim == 1:  # the same products and differences
        assert np.array_equal(bits(gap), bits(ref))
    else:  # a row sum in place of a BLAS dot: a few roundings of the largest term
        term = np.max(np.abs(lam)) * (2 * np.max(np.abs(path.values)) + 10.0)
        assert abs(gap - ref) <= 8 * path.dim * np.finfo(float).eps * term
