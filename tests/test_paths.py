import csv
import io
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pathcalc import (
    PartitionSequence,
    SampledPath,
    asian_forward,
    dyadic,
    generate,
    paths,
    read_path_csv,
    running_integral,
    stack,
    stepwise_approximation,
    stop,
    write_path_csv,
)


def step_path(seq, jump_time=0.5, height=1.0):
    """Indicator-style path: 0 before the jump, `height` from it on."""
    return generate(
        {"kind": "with_jumps",
         "base": {"kind": "smooth", "name": "linear", "scale": 0.0},
         "jumps": [[jump_time, [height]]]},
        0, seq,
    )


# ---------------------------------------------------------------------------
# stopping
# ---------------------------------------------------------------------------

def test_stop_constant_path_is_identity():
    seq = dyadic(1.0, 4)
    path = generate({"kind": "smooth", "f": lambda t: 3.0}, 0, seq)
    for t in [0.0, 0.25, 1.0]:
        sp = stop(path, t)
        assert all(sp.value(u)[0] == 3.0 for u in path.times)


def test_stop_left_at_jump_gives_pre_jump_path():
    seq = dyadic(1.0, 3)
    path = step_path(seq)
    left = stop(path, 0.5, side="left")
    assert left.current[0] == 0.0
    assert left.value(0.75)[0] == 0.0
    right = stop(path, 0.5, side="right")
    assert right.current[0] == 1.0
    assert right.value(0.75)[0] == 1.0
    assert right.value(0.25)[0] == 0.0


def test_stop_out_of_range():
    seq = dyadic(1.0, 2)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    with pytest.raises(ValueError):
        stop(path, 1.5)
    with pytest.raises(ValueError):
        stop(path, -0.1)


@pytest.mark.parametrize("read", ["index_at", "value", "left_limit"])
def test_a_nan_time_is_off_the_path(read):
    path = generate({"kind": "smooth", "name": "linear"}, 0, dyadic(1.0, 2))
    with pytest.raises(ValueError, match=r"time nan outside \[0, 1.0\]"):
        getattr(path, read)(math.nan)


def test_stop_at_a_nan_time_raises():
    path = generate({"kind": "smooth", "name": "linear"}, 0, dyadic(1.0, 2))
    with pytest.raises(ValueError, match=r"stop time nan outside \[0, 1.0\]"):
        stop(path, math.nan)


def test_extend_to_a_nan_time_raises():
    sp = stop(generate({"kind": "smooth", "name": "linear"}, 0, dyadic(1.0, 2)), 0.25)
    with pytest.raises(ValueError, match=r"extension time nan outside \[0.25, 1.0\]"):
        sp.extend_to(math.nan)


def test_vertical_perturbation_zero_is_identity():
    seq = dyadic(1.0, 4)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 5, seq)
    sp = stop(path, 0.5)
    bumped = sp.perturb([0.0])
    assert all(bumped.value(u)[0] == sp.value(u)[0] for u in path.times)


def test_vertical_perturbation_shifts_only_future():
    seq = dyadic(1.0, 3)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    bumped = stop(path, 0.5).perturb([2.0])
    assert bumped.value(0.25)[0] == 0.25
    assert bumped.value(0.5)[0] == 2.5
    assert bumped.value(1.0)[0] == 2.5


def test_left_riemann_integral_is_a_time_ordered_sum():
    # 16,384 cells, where a BLAS product would add in blocks: the hook of
    # each running integral and its value on the stopped path equal a += loop
    # in time order, at an off-grid t inside the last cell, at grid times and
    # at a left stop on the jump
    seq = dyadic(1.0, 14)
    path = generate({"kind": "with_jumps", "jumps": [[0.5, [0.25]]],
                     "base": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}}, 4, seq)
    for t, side in [(1.0 - 2.0**-16, "right"), (0.0, "right"), (0.25, "right"),
                    (0.5, "left"), (0.5, "right"), (1.0, "right")]:
        idx = int(np.searchsorted(path.times, t, side="right")) - 1
        total = 0.0
        for k in range(idx):
            total += float(path.values[k, 0]) * float(path.times[k + 1] - path.times[k])
        total += float(path.values[idx, 0]) * (t - float(path.times[idx]))
        sp = stop(path, t, side)
        s = float(sp.current[0])
        for F, ref in [(running_integral(), total), (asian_forward(), total + s * (1.0 - t))]:
            (hook,) = F.pointwise(path, np.array([t]), sp.current[None], ("value",))
            assert np.array_equal(hook.view(np.int64), np.array([ref]).view(np.int64)), (F, t)
            assert np.array_equal(np.array([F.value(sp)]).view(np.int64),
                                  np.array([ref]).view(np.int64)), (F, t, side)
        # extended to T, the stopped path integrates its frozen value from t on
        assert running_integral().value(sp.extend_to(1.0)) == total + s * (1.0 - t)


# ---------------------------------------------------------------------------
# stepwise approximation
# ---------------------------------------------------------------------------

def test_stepwise_at_finest_reproduces_right_endpoints():
    seq = dyadic(1.0, 5)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 2, seq)
    approx = stepwise_approximation(path, seq, seq.top)
    # cell [t_k, t_{k+1}) carries x(t_{k+1}); terminal value kept
    assert np.allclose(approx.values[:-1, 0], path.values[1:, 0])
    assert approx.values[-1, 0] == path.values[-1, 0]


def test_stepwise_takes_the_left_limit_at_each_cell_end():
    # the definition, one left limit per finest time, bit for bit, on a path
    # with two jumps, at levels that hold both jump times
    seq = dyadic(1.0, 6)
    path = generate({"kind": "with_jumps", "jumps": [[0.25, [1.0]], [0.375, [-0.5]]],
                     "base": {"kind": "scaled_random_walk", "sigma": 0.5}}, 3, seq)
    for n in (3, 4, 6):
        level = seq.level(n)
        ends = level[np.minimum(np.searchsorted(level, path.times, side="right"), level.size - 1)]
        ref = np.array([path.left_limit(u) for u in ends])
        ref[-1] = path.values[-1]
        approx = stepwise_approximation(path, seq, n)
        assert np.array_equal(approx.values.view(np.int64), ref.view(np.int64)), n


def test_stepwise_constant_path_unchanged():
    seq = dyadic(1.0, 4)
    path = generate({"kind": "smooth", "f": lambda t: 2.5}, 0, seq)
    approx = stepwise_approximation(path, seq, 2)
    assert np.all(approx.values == 2.5)
    assert approx.jump_times == ()


def test_stepwise_linear_level_one():
    seq = dyadic(1.0, 3)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    approx = stepwise_approximation(path, seq, 1)
    # steps of heights 0.5 on [0, .5), 1.0 on [.5, 1), value 1 at T
    assert approx.value(0.25)[0] == 0.5
    assert approx.value(0.75)[0] == 1.0
    assert approx.value(1.0)[0] == 1.0


def test_stepwise_requires_jump_coverage():
    seq = dyadic(1.0, 3)
    path = step_path(seq, jump_time=0.125)
    with pytest.raises(ValueError):
        stepwise_approximation(path, seq, 1)  # 0.125 not on level 1


def test_reconstruction_value_equals_left_limit_plus_jump():
    seq = dyadic(1.0, 4)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "scaled_random_walk", "sigma": 0.5},
         "jumps": [[0.25, [1.0]], [0.75, [-0.5]]]},
        3, seq,
    )
    for t in path.times:
        expected = path.left_limit(t) + path.jump_at(t)
        assert np.array_equal(path.value(t), expected)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_smooth_quadratic_values():
    seq = dyadic(1.0, 5)
    path = generate({"kind": "smooth", "name": "quadratic"}, 0, seq)
    assert np.allclose(path.values[:, 0], path.times**2)


def test_walk_increments_are_plus_minus_sigma_root_h():
    seq = dyadic(1.0, 8)
    path = generate({"kind": "scaled_random_walk", "sigma": 2.0}, 9, seq)
    steps = np.diff(path.values[:, 0])
    assert np.all(np.isin(steps, [2.0 * 2.0**-4, -2.0 * 2.0**-4]))


def test_walk_qv_exact_by_construction():
    seq = dyadic(1.0, 14)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 123, seq)
    assert np.sum(np.diff(path.values[:, 0]) ** 2) == 1.0


def test_same_seed_bit_identical():
    seq = dyadic(1.0, 10)
    a = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 77, seq)
    b = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 77, seq)
    assert np.array_equal(a.values, b.values)
    c = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 78, seq)
    assert not np.array_equal(a.values, c.values)


def test_walk_reference_signs_frozen():
    # regression anchor: the PCG64 stream behind seed 7 must not drift
    seq = dyadic(1.0, 3)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 7, seq)
    signs = np.sign(np.diff(path.values[:, 0]))
    assert signs.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0]


def test_geometric_walk_positive_and_multiplicative():
    seq = dyadic(1.0, 10)
    path = generate({"kind": "geometric_walk", "sigma": 0.5, "x0": 2.0}, 4, seq)
    v = path.values[:, 0]
    assert np.all(v > 0)
    ratios = v[1:] / v[:-1]
    h = 2.0**-5
    assert np.allclose(np.sort(np.unique(np.round(ratios, 12))), [1 - 0.5 * h, 1 + 0.5 * h])


def test_geometric_walk_qv_density_contract():
    # per-cell squared increments over dt equal sigma^2 x(t)^2 exactly
    seq = dyadic(1.0, 10)
    path = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 6, seq)
    v = path.values[:, 0]
    h = 2.0**-10
    density = np.diff(v) ** 2 / h
    assert np.allclose(density, 0.09 * v[:-1] ** 2, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["scaled_random_walk", "geometric_walk"])
def test_walks_equal_the_allocating_reference(kind, dim):
    # reference route: the walks as whole-array expressions, one temporary
    # per operation, compared bit for bit with the in-place build
    seq = dyadic(0.7, 12)
    grid = seq.level(seq.top)
    sigma, x0 = 0.3, 1.3
    for seed in range(4):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        signs = rng.integers(0, 2, size=(grid.size - 1, dim)) * 2 - 1
        ref = np.empty((grid.size, dim))
        ref[0] = x0
        if kind == "scaled_random_walk":
            steps = sigma * np.sqrt(np.diff(grid))[:, None] * signs
            np.cumsum(steps, axis=0, out=ref[1:])
            ref[1:] += x0
        else:
            factors = 1.0 + sigma * np.sqrt(np.diff(grid))[:, None] * signs
            ref[1:] = x0 * np.cumprod(factors, axis=0)
        got = generate({"kind": kind, "sigma": sigma, "x0": x0, "dim": dim}, seed, seq)
        assert np.array_equal(got.values.view(np.int64), ref.view(np.int64)), seed


def test_generator_rejects_bad_params():
    seq = dyadic(1.0, 3)
    with pytest.raises(ValueError):
        generate({"kind": "geometric_walk", "sigma": -0.1}, 0, seq)
    with pytest.raises(ValueError):
        generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 0.0}, 0, seq)
    with pytest.raises(ValueError, match=r"sigma \* sqrt\(mesh\) >= 1"):
        generate({"kind": "geometric_walk", "sigma": 2.0 * 2.0**1.5}, 0, seq)
    with pytest.raises(ValueError):
        generate({"kind": "scaled_random_walk", "sigma": 0.0}, 0, seq)
    with pytest.raises(ValueError):
        generate({"kind": "nope"}, 0, seq)
    with pytest.raises(ValueError, match="jump at 0.5 has 2 sizes for a dim-1 path"):
        generate({"kind": "with_jumps", "base": {"kind": "scaled_random_walk", "sigma": 1.0},
                  "jumps": [[0.5, [1.0, 2.0]]]}, 0, seq)


def test_a_jump_off_the_finest_level_is_named():
    """A jump time must be a time of the partition's finest level; the
    partition's ``extra_times`` can add it."""
    jump = 155 / 2**12
    walk = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
    spec = {"kind": "with_jumps", "base": walk, "jumps": [[jump, 0.1]]}
    with pytest.raises(ValueError, match=r"^jump at 0\.037841796875 is not a time of the partition's finest level$"):
        generate(spec, 0, dyadic(1.0, 11))
    seq = PartitionSequence.from_descriptor({"type": "dyadic", "T": 1.0, "max_level": 11, "extra_times": [jump]})
    assert generate(spec, 0, seq).jump_times == (jump,)


def test_with_jumps_records_and_applies():
    seq = dyadic(1.0, 4)
    path = step_path(seq, 0.5, 2.0)
    assert path.jump_times == (0.5,)
    assert path.value(0.4375)[0] == 0.0
    assert path.value(0.5)[0] == 2.0
    assert path.left_limit(0.5)[0] == 0.0


def test_qv_descent_linear_level_sums():
    seq = dyadic(1.0, 8)
    path = generate({"kind": "qv_descent", "total": 1.0}, 0, seq)
    x = path.values[:, 0]
    sums = []
    for n in range(9):
        lv = x[path.grid_indices(seq.level(n))]
        sums.append(np.sum(np.diff(lv) ** 2))
    drops = np.diff(sums)
    assert np.allclose(drops, drops[0])
    assert drops[0] < 0


# ---------------------------------------------------------------------------
# component / stack
# ---------------------------------------------------------------------------

def test_component_and_stack_roundtrip():
    seq = dyadic(1.0, 5)
    a = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 1, seq)
    b = generate({"kind": "with_jumps",
                  "base": {"kind": "scaled_random_walk", "sigma": 0.5},
                  "jumps": [[0.5, [1.0]]]}, 2, seq)
    both = stack([a, b])
    assert both.dim == 2
    assert np.array_equal(both.values, np.hstack([a.values, b.values]))
    assert [(t, d.tolist()) for t, d in both.jumps] == [(0.5, [0.0, 1.0])]


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def test_csv_roundtrip_bit_stable(tmp_path):
    seq = dyadic(1.0, 6)
    path = generate({"kind": "with_jumps",
                     "base": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
                     "jumps": [[0.25, [0.125]]]}, 5, seq)
    f = tmp_path / "path.csv"
    write_path_csv(path, str(f))
    back = read_path_csv(str(f))
    assert np.array_equal(back.values, path.values)
    assert np.array_equal(back.times, path.times)
    assert back.jump_times == path.jump_times
    # writer is deterministic byte for byte
    buf = io.StringIO()
    write_path_csv(back, buf)
    assert buf.getvalue() == f.read_text()


def test_csv_jump_detection_threshold():
    seq = dyadic(1.0, 3)
    path = step_path(seq, 0.5, 1.0)
    buf = io.StringIO()
    # write without jump columns by stripping the jump list
    bare = SampledPath(path.times, path.values)
    write_path_csv(bare, buf)
    buf.seek(0)
    detected = read_path_csv(buf, jump_threshold=0.5)
    assert detected.jump_times == (0.5,)
    buf.seek(0)
    silent = read_path_csv(buf, jump_threshold=None)
    assert silent.jump_times == ()


@pytest.mark.parametrize("threshold", [-1, -0.5, float("nan"), float("inf"), [0.5, -1.0]])
def test_csv_negative_or_non_finite_jump_threshold_is_named(threshold):
    # -1 would flag every grid move, zero moves included, as a jump
    text = "t,x1,x2\n0.0,1.0,1.0\n0.5,1.0,2.0\n1.0,3.0,2.0\n"
    with pytest.raises(ValueError, match="jump_threshold must be finite and >= 0"):
        read_path_csv(io.StringIO(text), jump_threshold=threshold)
    assert read_path_csv(io.StringIO(text), jump_threshold=0.0).jump_times == (0.5, 1.0)


def test_csv_continuous_roundtrip(tmp_path):
    seq = dyadic(1.0, 10)
    path = generate({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}, 4, seq)
    f = tmp_path / "walk.csv"
    write_path_csv(path, str(f))
    assert f.read_text().splitlines()[0] == "t,x1"
    back = read_path_csv(str(f))
    assert back.jump_times == ()
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), steps=st.integers(1, 12))
def test_csv_roundtrip_property(data, dim, steps):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    gaps = data.draw(st.lists(st.floats(1e-6, 1e3), min_size=steps, max_size=steps))
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(times) > 0))
    values = np.array(
        data.draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                           min_size=steps + 1, max_size=steps + 1))
    )
    at = data.draw(st.lists(st.integers(1, steps), unique=True, max_size=steps))
    jumps = []
    for k in sorted(at):
        size = data.draw(st.lists(finite, min_size=dim, max_size=dim))
        assume(any(v != 0.0 for v in size))  # a zero row is no jump
        jumps.append((times[k], size))
    path = SampledPath(times, values, jumps)
    fh = io.StringIO()
    write_path_csv(path, fh)
    fh.seek(0)
    back = read_path_csv(fh)
    assert back.times.tobytes() == path.times.tobytes()
    assert back.values.tobytes() == path.values.tobytes()
    assert back.jump_times == path.jump_times
    assert [d.tobytes() for _, d in back.jumps] == [d.tobytes() for _, d in path.jumps]


def test_csv_header_validation():
    with pytest.raises(ValueError):
        read_path_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ValueError, match="header must be t,x1..xd"):
        read_path_csv(io.StringIO("t,x1,xtra\n0,1,2\n1,2,3\n"))
    with pytest.raises(ValueError, match="header must be t,x1..xd"):
        read_path_csv(io.StringIO("t,x1,x2,jump1\n0,1,2,0\n1,2,3,0\n"))
    with pytest.raises(ValueError, match="header must be t,x1..xd"):
        read_path_csv(io.StringIO(""))


def test_csv_bad_row_named_by_line():
    text = "t,x1,jump1\n0.0,1.0,0.0\n0.5,1.5\n1.0,2.0,0.0\n"
    with pytest.raises(ValueError, match="line 3 has 2 fields, the header has 3"):
        read_path_csv(io.StringIO(text))
    with pytest.raises(ValueError, match="line 4: could not convert string to float"):
        read_path_csv(io.StringIO("t,x1\n0.0,1.0\n0.5,1.5\n1.0,abc\n"))


def _repr_table(jumps):
    """A path file of ``repr`` floats from 1e-300 to 1e300, both signs."""
    rng = np.random.default_rng(11)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, 199))))
    values = rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-300, 300, (200, 2))
    values[:3, 0] = [-0.0, 5e-324, -1.7976931348623157e308]
    path = SampledPath(times, values, [(times[7], [0.5, -2e-300])] if jumps else [])
    fh = io.StringIO()
    write_path_csv(path, fh)
    return fh.getvalue()


READER_CASES = [
    # (file text, whether np.loadtxt parses it)
    pytest.param(_repr_table(jumps=True), True, id="repr-jumps"),
    pytest.param(_repr_table(jumps=False), True, id="repr"),
    pytest.param("t,x1\n0.0,1.0\n\n0.5,2.0\n\n\n1.0,3.0\n\n", True, id="blank-lines"),
    pytest.param("t,x1\n0.0,1.0\n   \n1.0,3.0\n", False, id="whitespace-line"),
    pytest.param("t,x1\n\t\n0.0,1.0\n1.0,3.0\n", False, id="tab-line"),
    pytest.param("t,x1\n# note\n0.0,1.0\n1.0,3.0\n", False, id="hash-line"),
    pytest.param("t,x1\n0.0,1.0\n1.0,3.0 # note\n", False, id="hash-tail"),
    pytest.param("t,x1\n0.0,1_000\n1.0,3.0\n", False, id="underscore"),
    pytest.param("t,x1\n0.0,\uff11\uff12\n1.0,3.0\n", False, id="full-width"),
    pytest.param("t,x1\n0.0,nan\n1.0,3.0\n", True, id="nan"),
    pytest.param("t,x1\n0.0,-inf\n1.0,3.0\n", True, id="inf"),
    pytest.param("t,x1\r\n0.0,1.0\r\n\r\n1.0,3.0\r\n", True, id="crlf"),
    pytest.param("t,x1\n0.0,1.0\n1.0,3.0", True, id="no-final-newline"),
    pytest.param("t,x1\n", False, id="header-only"),
    pytest.param("t,x1\n\n\r\n", False, id="header-and-blank-lines"),
    pytest.param("t,x1\n0.0,1.0\n", True, id="one-row"),
    pytest.param("t,x1\n 0.0 , 1.0\t\n1.0,\xa03.0\n", True, id="padded-fields"),
    pytest.param('t,x1\n0.0,"1.0"\n1.0,3.0\n', False, id="quoted"),
    pytest.param("t,x1\n0.0,1.0\x1c\n1.0,3.0\n", False, id="separator"),
    pytest.param("t,x1\n0.0,1." + "0" * 200_000 + "\n1.0,3.0\n", False, id="long-field"),
    pytest.param("t,x1\n0.0,1.0,0.0\n1.0,3.0,0.0\n", True, id="too-wide"),
    pytest.param("t,x1,jump1\n0.0,1.0,0.0\n0.5,1.5\n1.0,2.0,0.0\n", False, id="ragged"),
    pytest.param("t,x1\n0.0,1.0\n0.5,1.5\n1.0,abc\n", False, id="not-a-number"),
]


def _read_outcome(f):
    try:
        path = read_path_csv(f)
    except Exception as exc:
        return type(exc), str(exc)
    return (path.times.tobytes(), path.values.tobytes(),
            [(t, d.tobytes()) for t, d in path.jumps])


@pytest.mark.parametrize("text, loadtxt_parses", READER_CASES)
def test_csv_reader_equals_reference_route(tmp_path, monkeypatch, text, loadtxt_parses):
    """The C parse gives the bits, the errors and the line numbers of the
    ``csv`` + ``float`` route that ``read_path_csv`` falls back to."""
    f = tmp_path / "path.csv"
    f.write_bytes(text.encode())
    loadtxt, parsed = np.loadtxt, []

    def spy(*args, **kwargs):
        parsed.append(loadtxt(*args, **kwargs))
        return parsed[-1]

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", spy)
    outcome = _read_outcome(str(f))
    assert bool(parsed) == loadtxt_parses
    monkeypatch.setattr(np, "loadtxt", refuse)
    assert _read_outcome(str(f)) == outcome


@pytest.mark.parametrize("threshold, dim", [([0.1, 0.2], 1), ([[0.1]], 1), ([0.1], 2),
                                             ([0.1, 0.2, 0.3], 2), ([[0.1, 0.2]], 2)])
def test_csv_jump_threshold_of_the_wrong_size_is_named(threshold, dim):
    header = ",".join(["t", *(f"x{i + 1}" for i in range(dim))])
    # the body's second row is ragged: the threshold is checked before the body is read
    text = f"{header}\n0.0{',1.0' * dim}\n0.5\n"
    message = (f"jump_threshold must be one number or a list of {dim}, one per coordinate "
               f"of the dim-{dim} path, got {threshold!r}")
    with pytest.raises(ValueError) as exc:
        read_path_csv(io.StringIO(text), jump_threshold=threshold)
    assert str(exc.value) == message
    good = f"{header}\n0.0{',1.0' * dim}\n1.0{',3.0' * dim}\n"
    for ok in (0.5, [0.5] * dim):
        assert read_path_csv(io.StringIO(good), jump_threshold=ok).jump_times == (1.0,)


# -- the two routes of read_path_csv --------------------------------------------
# A named regular file goes to np.loadtxt by name after paths._c_reads_by_name
# reads its bytes CHUNK at a time; everything else, a handle included, goes
# through the csv + float loop, the reference the named route must equal.

def _reference_outcome(text):
    """The outcome of the csv + float loop on ``text``, read as a file opened
    with ``newline=""`` reads it."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with mock.patch.object(np, "loadtxt", refuse):
        return _read_outcome(io.StringIO(text, newline=""))


def _assert_routes_agree(tmp_path, text, name="path.csv"):
    """Reading the file ``name`` holding ``text``, by name and by its bytes
    name, equals reading ``text`` from a handle and the csv + float loop:
    the same bits, or the same exception type and message."""
    f = tmp_path / name
    f.write_bytes(text.encode())
    reference = _reference_outcome(text)
    assert _read_outcome(io.StringIO(text, newline="")) == reference
    assert _read_outcome(str(f)) == reference
    assert _read_outcome(os.fsencode(f)) == reference
    return reference


_ROUTE_CASES = [  # a field past the csv limit: test_named_file_route_keeps_the_field_limit
    *(pytest.param(param.values[0], id=param.id) for param in READER_CASES
      if param.id != "long-field"),
    "t,x1\r0.0,1.0\r0.5,2.0\r1.0,3.0\r",
    "t,x1\r0.0,1.0\n0.5,2.0\r\n\r1.0,3.0",
    "t,x1\r\n0.0,1.0\r\n1.0,3.0\r",
    '"t\n",x1\n0.0,1.0\n1.0,3.0\n',
    '"t\r\n",x1\r\n\r\n0.0,1.0\r\n1.0,3.0',
    '"t\r\n",x1\r\n\r\n',
    '"t\r",x1\r\n',
    't,"x\n1"\n0.0,1.0\n1.0,3.0\n',
    "t,x1",
    "t,x1\r",
    "t,x1\n\n",
    "t,x1\n0.0,1.0\x1f\n1.0,3.0\n",
    "t,x1\n0.0,\x1d1.0\n1.0,3.0\n",
    "\x1et,x1\n0.0,1.0\n1.0,3.0\n",
    "t,x1\n0.0,1.0\n1.0,3.0\x00\n",
    "t,x1\n0.0,1.0\n1.0,3.0\x0b\n",
    "t,x1\n0.0,١.5\n1.0,3.0\n",
    "t,x1,jump1\n0.0,1.0,0.0\n0.5,2.0,0.5\n1.0,3.0,0.0\n",
    "t,x1\n0.0,1.0\n1.0,3.0\n" + "\n" * 300,
    "t,x1\n" + "\n" * 300 + "0.0,1.0\n1.0,3.0\n",
]


@pytest.mark.parametrize("chunk", [1, 7, paths.CHUNK])
@pytest.mark.parametrize("text", _ROUTE_CASES)
def test_named_file_route_equals_the_reference(tmp_path, monkeypatch, text, chunk):
    monkeypatch.setattr(paths, "CHUNK", chunk)
    _assert_routes_agree(tmp_path, text)


@pytest.mark.parametrize("limit", [16, 17, 18, 19, 20, 21, 22])
@pytest.mark.parametrize("chunk", [1, 3, paths.CHUNK])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""])
def test_named_file_route_keeps_the_field_limit(tmp_path, monkeypatch, limit, chunk, end):
    """Lines of 14 to 20 characters against limits of 16 to 22: the byte
    guard refuses a line as long as the limit, or one short of it, and the
    csv loop then names a field past the limit exactly as the handle route
    does."""
    monkeypatch.setattr(paths, "CHUNK", chunk)
    old = csv.field_size_limit(limit)
    try:
        rows = ["0.0,1.0", "0.25,12345.25", "0.5,1234567.125", "1.0,123456789.0625"]
        _assert_routes_agree(tmp_path, "t,x1\n" + "\n".join(rows) + end)
        _assert_routes_agree(tmp_path, "t,x1\n0.0,1.0\n1.0," + "9" * (limit - 1) + end)
        _assert_routes_agree(tmp_path, "t,x1\n0.0,1.0\n1.0," + "9" * (limit + 1) + end)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("chunk", [2, 5, 16])
@pytest.mark.parametrize("limit", [16, 17, 18, None])
@pytest.mark.parametrize("text", [
    "t,x1\r0.0,1.0\r0.5,1234567.125\r1.0,3.0\r",
    "t,x1\r\n0.0,1.0\r\n0.5,1234567.125\r\n1.0,3.0\r\n",
    "t,x1\n0.0,1.0\n0.25,2.0\n0.5,1234567.125\n0.625,2.5\r\n0.75,1.5\r1.0,3.0",
    "t,x1\r\n0.0,1.0\n0.25,1234567.125\n0.5,2.0\n0.75,1.5\n1.0,3.0\r",
], ids=["cr", "crlf", "lf-then-crlf-and-cr", "crlf-then-lf"])
def test_named_file_route_reads_line_ends_chunk_by_chunk(tmp_path, monkeypatch, text, chunk,
                                                         limit):
    r"""The guard pass finds line ends by \n alone in a chunk with no \r, and by
    \n or \r in one with a \r: files with \r, \r\n or mixed line ends, read
    in chunks of a few bytes, so that some chunks hold a \r and some do not,
    against field limits that a 15-character line passes or not."""
    monkeypatch.setattr(paths, "CHUNK", chunk)
    old = csv.field_size_limit(limit) if limit else None
    try:
        _assert_routes_agree(tmp_path, text)
    finally:
        if old is not None:
            csv.field_size_limit(old)


_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["1_000", "１２", " 1.5 ", "\t2.5", '"1.0"', '"1,0"', "nan",
                     "-inf", "abc", "#", "", "1.0 # note", "\x1c1.0", "1.0\x1f", "\x0b3",
                     "١", "1e999", "0x10"]),
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _path_texts(draw):
    r"""Path file text: a header (maybe over two physical lines) and rows that
    mostly hold a valid path, with blank, whitespace-only, `#` and odd rows,
    line ends \n, \r\n and \r, mixed, and maybe no final line end."""
    width = draw(st.integers(1, 3))
    header = draw(st.sampled_from([
        ["t", "x1"], ["t", "x1", "jump1"], ["t", "x1", "x2"], ['"t\n"', "x1"], ['"t\r\n"', "x1"],
        ["t", " x1 "], ["t", "x2"]]))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 5))
        if kind <= 2:
            row = [repr(float(i))] + [draw(_FIELD) if kind == 2 else repr(draw(
                st.floats(-1e6, 1e6))) for _ in range(len(header) - 1)]
        elif kind == 3:
            row = [draw(_FIELD) for _ in range(width)]
        else:
            row = [draw(st.sampled_from(["", " ", "\t", "#", "# note"]))]
        lines.append(",".join(row))
    ends = [draw(_LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_path_texts(), chunk=st.integers(1, 9),
       limit=st.sampled_from([None, 6, 12, 24]), gz=st.booleans())
def test_named_file_route_equals_the_reference_property(tmp_path, text, chunk, limit, gz):
    r"""Chunks of 1 to 9 bytes, so that line ends, \r\n pairs and the header
    cross chunk edges; small csv field limits, so that fields and lines pass
    them; and names ending in .gz, which numpy's opener would decompress."""
    old = csv.field_size_limit(limit) if limit else None
    try:
        with mock.patch.object(paths, "CHUNK", chunk):
            _assert_routes_agree(tmp_path, text, "path.csv.gz" if gz else "path.csv")
    finally:
        if old is not None:
            csv.field_size_limit(old)


def test_named_file_route_reads_by_name_only_what_it_may(tmp_path, monkeypatch):
    """A plain named file reaches np.loadtxt by name; a handle, a file named
    *.gz, *.bz2, *.xz or *.lzma, one the guards refuse, and a pipe do not
    reach it at all; all read the same path."""
    text = "t,x1\n0.0,1.0\n0.5,2.0\n1.0,3.0\n"
    loadtxt, sources = np.loadtxt, []

    def spy(source, *args, **kwargs):
        sources.append(source if isinstance(source, str) else type(source))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    expected = _read_outcome(io.StringIO(text, newline=""))
    assert sources == []
    for name in ["path.csv", "path.csv.gz", "path.bz2", "path.xz", "path.lzma", "path"]:
        sources.clear()
        (tmp_path / name).write_text(text)
        assert _read_outcome(str(tmp_path / name)) == expected
        assert sources == ([str(tmp_path / name)] if name in ("path.csv", "path") else []), name
    padded = text.replace("2.0", "2.0\x1c")  # float() rejects it, np.loadtxt would not
    (tmp_path / "sep.csv").write_text(padded)
    sources.clear()
    assert _read_outcome(str(tmp_path / "sep.csv")) == _reference_outcome(padded)
    assert sources == []
    if os.path.isdir("/dev/fd"):  # a pipe, longer than the handle's buffer, read once
        long = "t,x1\n" + "".join(f"{i / 8192!r},{i}.5\n" for i in range(8193))
        read, write = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(write, long.encode()), os.close(write)))
        writer.start()
        sources.clear()
        try:
            assert _read_outcome(f"/dev/fd/{read}") == _read_outcome(io.StringIO(long, newline=""))
        finally:
            writer.join(timeout=60)
            os.close(read)
        assert not writer.is_alive()
        assert sources == []


def test_named_file_route_raises_the_handles_decode_error(tmp_path):
    f = tmp_path / "path.csv"
    f.write_bytes(b"t,x1\n0.0,1.0\n0.5,\xff\n1.0,3.0\n")
    with pytest.raises(UnicodeDecodeError) as by_name:
        read_path_csv(str(f))
    with open(f, newline="") as fh, pytest.raises(UnicodeDecodeError) as by_handle:
        read_path_csv(fh)
    assert str(by_name.value) == str(by_handle.value)


def test_sampled_path_validation():
    with pytest.raises(ValueError, match="path times must be finite, got nan"):
        SampledPath([0.0, float("nan"), 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="path values must be finite, got inf"):
        SampledPath([0.0, 0.5, 1.0], [0.0, float("inf"), 2.0])
    with pytest.raises(ValueError, match="jump size at 0.5 must be finite"):
        SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [(0.5, float("nan"))])
    with pytest.raises(ValueError, match="jump time 0.3 is not a grid time"):
        SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [(0.3, 1.0)])
    grid, x = np.linspace(0.0, 1.0, 9), np.arange(9.0)
    with pytest.raises(ValueError, match="jump size at 0.625 must be finite, got inf"):
        SampledPath(grid, x, [(0.625, float("inf")), (0.25, 1.0), (0.75, float("nan"))])
    with pytest.raises(ValueError, match="duplicate jump time 0.5"):
        SampledPath(grid, x, [(0.75, 1.0), (0.5, 1.0), (0.25, 1.0), (0.5, 2.0)])
    with pytest.raises(ValueError, match="jump times must be positive"):
        SampledPath(grid, x, [(0.5, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="jump dimension does not match the path"):
        SampledPath(grid, x, [(0.5, 1.0), (0.75, [1.0, 2.0])])
    path = SampledPath(grid, x, [(0.75, 3.0), (0.125, [1.0]), (0.5, 2.0)])
    assert [(t, d.tolist()) for t, d in path.jumps] == [(0.125, [1.0]), (0.5, [2.0]), (0.75, [3.0])]
    with pytest.raises(ValueError, match="time 0.3 is not on the path grid"):
        SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0]).grid_indices([0.5, 0.3])
