import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathcalc import (
    SampledPath,
    dyadic,
    generate,
    read_path_csv,
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


def test_generator_rejects_bad_params():
    seq = dyadic(1.0, 3)
    with pytest.raises(ValueError):
        generate({"kind": "geometric_walk", "sigma": -0.1}, 0, seq)
    with pytest.raises(ValueError):
        generate({"kind": "geometric_walk", "sigma": 0.2, "x0": 0.0}, 0, seq)
    with pytest.raises(ValueError):
        generate({"kind": "scaled_random_walk", "sigma": 0.0}, 0, seq)
    with pytest.raises(ValueError):
        generate({"kind": "nope"}, 0, seq)
    with pytest.raises(ValueError, match="jump at 0.5 has 2 sizes for a dim-1 path"):
        generate({"kind": "with_jumps", "base": {"kind": "scaled_random_walk", "sigma": 1.0},
                  "jumps": [[0.5, [1.0, 2.0]]]}, 0, seq)


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


def test_sampled_path_validation():
    with pytest.raises(ValueError, match="path times must be finite, got nan"):
        SampledPath([0.0, float("nan"), 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="path values must be finite, got inf"):
        SampledPath([0.0, 0.5, 1.0], [0.0, float("inf"), 2.0])
    with pytest.raises(ValueError, match="jump size at 0.5 must be finite"):
        SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [(0.5, float("nan"))])
    with pytest.raises(ValueError, match="jump time 0.3 is not a grid time"):
        SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [(0.3, 1.0)])
    with pytest.raises(ValueError, match="time 0.3 is not on the path grid"):
        SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0]).grid_indices([0.5, 0.3])
