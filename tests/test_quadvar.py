from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    PartitionSequence,
    SampledPath,
    dyadic,
    follmer_integral_functional,
    generate,
    identity,
    norvaisa_qv_check,
    p_variation,
    qv_along,
    qv_matrix,
    refine_with,
    stack,
    vovk_uniform_check,
)
from pathcalc.quadvar import _cell_index, _interval_grid


def component(path, i):
    """Scalar path of coordinate ``i``, with the jumps that move it: the
    per-coordinate reference route of the matrix QV."""
    jumps = [(t, d[i]) for t, d in path.jumps if d[i] != 0.0]
    return SampledPath(path.times, path.values[:, i], jumps)


def seeded_walk(level, seed=7, sigma=1.0):
    seq = dyadic(1.0, level)
    return generate({"kind": "scaled_random_walk", "sigma": sigma}, seed, seq), seq


def brute_force_p_var(values, p):
    """Exhaustive sup over all subsets of interior sample points.

    Terms come from the same elementwise power primitive the library uses,
    so agreement with the dynamic program is exact, not approximate."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    pow_table = np.abs(values[None, :] - values[:, None]) ** p
    best = 0.0
    interior = range(1, n - 1)
    for r in range(n - 1):
        for sub in combinations(interior, r):
            pts = (0, *sub, n - 1)
            s = 0.0
            for a, b in zip(pts, pts[1:]):
                s = s + pow_table[a, b]
            best = max(best, s)
    return best


# ---------------------------------------------------------------------------
# scalar quadratic variation
# ---------------------------------------------------------------------------

def test_linear_path_qv_vanishes():
    seq = dyadic(1.0, 12)
    path = generate({"kind": "smooth", "name": "linear"}, 0, seq)
    rep = qv_along(path, seq)
    assert rep.limit[-1] <= 2.0**-12
    assert rep.converged
    assert rep.jump_part[-1] == 0.0


def test_step_path_decomposition_exact():
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "smooth", "name": "linear", "scale": 0.0},
         "jumps": [[0.5, [1.0]]]},
        0, seq,
    )
    rep = qv_along(path, seq)
    at_T = -1
    assert rep.limit[at_T] == 1.0
    assert rep.jump_part[at_T] == 1.0
    assert rep.continuous_part[at_T] == 0.0
    before = np.searchsorted(rep.probe_times, 0.5) - 1
    assert rep.limit[before] == 0.0


def test_walk_top_level_exact_and_level8_oracle():
    path, seq = seeded_walk(14, seed=7)
    rep = qv_along(path, seq)
    assert rep.limit[-1] == 1.0  # increments are +-2^-7: squares sum exactly
    # independent plain-python oracle for the level-8 sum at t = 1
    grid8 = seq.level(8)
    vals = [float(path.value(t)[0]) for t in grid8]
    oracle = sum((b - a) ** 2 for a, b in zip(vals, vals[1:]))
    assert rep.approx[8][-1] == oracle
    assert abs(oracle - 1.0) < 0.15


def test_qv_monotone_in_time():
    path, seq = seeded_walk(10, seed=3)
    rep = qv_along(path, seq)
    assert np.all(np.diff(rep.limit) >= -1e-15)


def test_decomposition_identity_exact_on_jumpy_walk():
    seq = dyadic(1.0, 9)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "scaled_random_walk", "sigma": 0.7},
         "jumps": [[0.25, [0.8]], [0.75, [-0.4]]]},
        11, seq,
    )
    rep = qv_along(path, seq)
    gap = np.max(np.abs(rep.limit - rep.continuous_part - rep.jump_part))
    assert gap == 0.0


def test_auto_refinement_flagged():
    base = dyadic(1.0, 6)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "smooth", "name": "linear", "scale": 0.0},
         "jumps": [[2.0**-6 * 3, [1.0]]]},
        0, base,
    )
    coarse = dyadic(1.0, 4)  # does not contain 3/64
    rep = qv_along(path, coarse)
    assert rep.refined
    assert rep.limit[-1] == 1.0


def test_off_dyadic_jump_full_pipeline():
    # a jump at 1/3 lives off every dyadic grid; the path is built on a
    # refined sequence and the analysis auto-refines a plain dyadic one
    base = dyadic(1.0, 8)
    refined = refine_with(base, [1 / 3])
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "scaled_random_walk", "sigma": 0.4},
         "jumps": [[1 / 3, [0.9]]]},
        5, refined,
    )
    rep = qv_along(path, base)
    assert rep.refined
    at_T = -1
    assert rep.jump_part[at_T] == pytest.approx(0.81, abs=1e-15)
    gap = np.max(np.abs(rep.limit - rep.continuous_part - rep.jump_part))
    assert gap == 0.0


def test_qv_requires_two_levels():
    path, _ = seeded_walk(5)
    single = PartitionSequence(1.0, [dyadic(1.0, 5).level(0)])
    with pytest.raises(ValueError):
        qv_along(path, single)


# ---------------------------------------------------------------------------
# matrix form
# ---------------------------------------------------------------------------

def test_matrix_duplicated_coordinate_exact():
    path, seq = seeded_walk(10, seed=5)
    both = stack([path, path])
    rep = qv_matrix(both, seq)
    q = qv_along(path, seq).limit
    m = rep.limit
    for i in range(2):
        for j in range(2):
            assert np.array_equal(m[:, i, j], q)


def test_matrix_negated_coordinate():
    path, seq = seeded_walk(10, seed=6)
    neg = SampledPath(path.times, -path.values[:, 0])
    rep = qv_matrix(stack([path, neg]), seq)
    q = qv_along(path, seq).limit
    assert np.array_equal(rep.limit[:, 0, 1], -q)
    assert np.array_equal(rep.limit[:, 1, 0], -q)


def test_matrix_independent_walks_small_cross():
    seq = dyadic(1.0, 12)
    a = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 21, seq)
    b = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 22, seq)
    rep = qv_matrix(stack([a, b]), seq)
    # independent signs: cross term is an unbiased small sum
    assert abs(rep.limit[-1, 0, 1]) < 0.05
    assert rep.limit[-1, 0, 0] == 1.0
    # polarization identity against an independently coded pairwise-product sum
    x, y = a.values[:, 0], b.values[:, 0]
    direct = np.sum(np.diff(x) * np.diff(y))
    assert rep.limit[-1, 0, 1] == pytest.approx(direct, abs=1e-12)


def test_matrix_symmetry_and_cauchy_schwarz():
    seq = dyadic(1.0, 10)
    a = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 31, seq)
    b = generate({"kind": "geometric_walk", "sigma": 0.5, "x0": 1.0}, 32, seq)
    rep = qv_matrix(stack([a, b]), seq)
    m = rep.limit
    assert np.array_equal(m.transpose(0, 2, 1), m)
    inc = np.diff(m, axis=0)
    assert np.min(inc[:, 0, 0]) >= -1e-12
    assert np.min(inc[:, 1, 1]) >= -1e-12
    off = np.abs(inc[:, 0, 1])
    bound = np.sqrt(np.abs(inc[:, 0, 0]) * np.abs(inc[:, 1, 1]))
    assert np.all(off <= bound + 1e-9)


def test_probe_times_must_increase():
    path, seq = seeded_walk(6)
    reports = (
        lambda probes: qv_along(path, seq, probe_times=probes),
        lambda probes: qv_matrix(stack([path, path]), seq, probe_times=probes),
        lambda probes: follmer_integral_functional(identity(), path, seq, probes=probes),
    )
    for report in reports:
        with pytest.raises(ValueError, match="probe times must be strictly increasing"):
            report([0.5, 0.25])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), level=st.integers(3, 6))
def test_one_qv_body_matches_scalar_route_and_interval_reference(data, dim, level):
    seq = dyadic(1.0, level)
    half_cells = 2 ** (level + 1)
    # odd slots are cell midpoints, off every level, so the levels get refined;
    # with at most 4 jumps the refined level 0 keeps a mesh of at least 1/5,
    # coarser than the top level's 1/8, so the refined sequence stays dense
    slots = data.draw(st.lists(st.integers(1, half_cells - 1), unique=True, max_size=4))
    jump_times = np.array(sorted(slots), dtype=float) / half_cells
    times = np.union1d(seq.level(level), jump_times)
    value = st.floats(-1e3, 1e3)
    values = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                min_size=times.size, max_size=times.size))
    # nonzero in every coordinate, so each component keeps every jump time
    size = st.floats(-10.0, 10.0).filter(lambda x: x != 0.0)
    jumps = [(t, data.draw(st.lists(size, min_size=dim, max_size=dim))) for t in jump_times]
    path = SampledPath(times, values, jumps)

    rep = qv_along(path, seq) if dim == 1 else qv_matrix(path, seq)
    for i in range(dim):
        ref = qv_along(component(path, i), seq)
        assert rep.refined == ref.refined and np.array_equal(rep.probe_times, ref.probe_times)
        diag = (lambda a: a) if dim == 1 else (lambda a: a[:, i, i])
        for n in ref.levels:
            assert np.array_equal(diag(rep.approx[n]), ref.approx[n])
        assert np.array_equal(diag(rep.jump_part), ref.jump_part)

    # the vectorised interval grid against per-point path.value reads
    knots = st.one_of(st.sampled_from(times.tolist()), st.floats(0.0, 1.0))
    u, v = sorted(data.draw(st.lists(knots, min_size=2, max_size=2, unique=True)))
    for level_times in [*map(seq.level, range(seq.num_levels)), times]:
        kappa, vals = _interval_grid(path, level_times, u, v)
        ref_kappa = [u, *(t for t in level_times if u < t < v), v]
        assert np.array_equal(kappa, ref_kappa)
        assert np.array_equal(vals, [path.value(t)[0] for t in ref_kappa])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cell_index_matches_search(data):
    m = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):  # a level of a dyadic grid, or with an offset
        li = np.arange(0, k * (m + 1), k) + data.draw(st.sampled_from([0, 0, 1]))
    else:
        picks = st.sets(st.integers(0, k * m + m), min_size=m + 1, max_size=m + 1)
        li = np.array(sorted(data.draw(picks)))
    if data.draw(st.booleans()):  # every grid index as a probe
        probe_idx = np.arange(li[-1] + 1)
    else:  # at most m probes
        probes = st.sets(st.integers(0, int(li[-1])), min_size=1, max_size=m)
        probe_idx = np.array(sorted(data.draw(probes)))
    assert np.array_equal(
        _cell_index(li, probe_idx), np.searchsorted(li, probe_idx, side="right") - 1
    )


def test_qv_levels_argument():
    path, seq = seeded_walk(6)
    full = qv_along(path, seq)
    part = qv_along(path, seq, levels=[2, 4, 5])
    assert part.levels == [2, 4, 5]
    for n in part.levels:
        assert np.array_equal(part.approx[n], full.approx[n])
    assert np.array_equal(part.limit, full.approx[5])
    assert np.array_equal(part.continuous_part, full.approx[5] - full.jump_part)
    with pytest.raises(ValueError, match="at least one level"):
        qv_matrix(stack([path, path]), seq, levels=[])


def test_matrix_rejects_scalar():
    path, seq = seeded_walk(5)
    with pytest.raises(ValueError):
        qv_matrix(path, seq)
    with pytest.raises(ValueError):
        qv_along(stack([path, path]), seq)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------

def test_p_variation_monotone_path_total_increment():
    path = SampledPath([0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.9, 1.5])
    assert p_variation(path, 1.0) == 1.5


def test_p_variation_two_point():
    path = SampledPath([0.0, 1.0], [0.0, -1.7])
    for p in [1.0, 2.0, 3.5]:
        assert p_variation(path, p) == abs(-1.7) ** p


def test_p_variation_dp_equals_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(20):
        values = rng.normal(size=12)
        times = np.linspace(0.0, 1.0, 12)
        path = SampledPath(times, values)
        for p in [1.0, 1.7, 2.0, 3.0]:
            assert p_variation(path, p) == brute_force_p_var(values, p)


def test_p_variation_dominates_explicit_partitions():
    rng = np.random.default_rng(9)
    values = rng.normal(size=40)
    path = SampledPath(np.linspace(0, 1, 40), values)
    v2 = p_variation(path, 2.0)
    for _ in range(50):
        k = rng.integers(0, 2, size=38).astype(bool)
        pts = [0, *list(np.nonzero(k)[0] + 1), 39]
        s = sum(abs(values[b] - values[a]) ** 2 for a, b in zip(pts, pts[1:]))
        assert s <= v2 + 1e-12


def test_p_variation_rejects_bad_input():
    path = SampledPath([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        p_variation(path, 0.5)
    big = SampledPath(np.linspace(0, 1, 5000), np.zeros(5000))
    with pytest.raises(ValueError):
        p_variation(big, 2.0)


# ---------------------------------------------------------------------------
# interval and uniform forms
# ---------------------------------------------------------------------------

def test_norvaisa_full_interval_matches_qv():
    path, seq = seeded_walk(10, seed=13)
    rep = norvaisa_qv_check(path, seq, [(0.0, 1.0)])
    qv = qv_along(path, seq)
    assert rep.top_values[0] == qv.limit[-1]


def test_norvaisa_constant_interval_zero():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "smooth", "f": lambda t: 4.0}, 0, seq)
    rep = norvaisa_qv_check(path, seq, [(0.25, 0.75)])
    assert rep.top_values[0] == 0.0


def test_norvaisa_jump_condition_exact_on_step():
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "smooth", "name": "linear", "scale": 0.0},
         "jumps": [[0.5, [1.5]]]},
        0, seq,
    )
    rep = norvaisa_qv_check(path, seq, [(0.0, 1.0)])
    (chk,) = rep.jump_checks
    assert chk["left_jump_estimate"] == chk["squared_jump"] == 1.5**2
    assert chk["gap"] == 0.0


def test_norvaisa_additivity_at_grid_midpoints():
    path, seq = seeded_walk(9, seed=17)
    rep = norvaisa_qv_check(path, seq, [(0.0, 1.0), (0.25, 0.75)])
    assert np.max(np.abs(rep.additivity_gaps)) < 1e-12


def test_norvaisa_requires_nested():
    path, _ = seeded_walk(4)
    loose = dyadic(1.0, 4)
    loose_levels = [loose.level(n) for n in range(5)]
    odd = [g for g in loose_levels]
    odd[1] = np.array([0.0, 0.3, 1.0])
    from pathcalc import PartitionSequence

    seq = PartitionSequence(1.0, odd, dense=True, nested=False)
    with pytest.raises(ValueError):
        norvaisa_qv_check(path, seq, [(0.0, 1.0)])


def test_vovk_smooth_uniform():
    seq = dyadic(1.0, 12)
    path = generate({"kind": "smooth", "name": "quadratic", "scale": 0.5}, 0, seq)
    rep = vovk_uniform_check(path, seq)
    assert rep.uniform
    assert rep.sup_gaps[-1] == 0.0
    assert rep.sup_gaps[-2] <= 1e-3 * rep.scale
    assert rep.boundary_max_gap < 1e-12


def test_vovk_constant_path_all_zero():
    seq = dyadic(1.0, 6)
    path = generate({"kind": "smooth", "f": lambda t: 1.0}, 0, seq)
    rep = vovk_uniform_check(path, seq)
    assert all(g == 0.0 for g in rep.sup_gaps)


def test_vovk_boundary_identity_with_jump():
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "scaled_random_walk", "sigma": 0.5},
         "jumps": [[0.5, [2.0]]]},
        19, seq,
    )
    rep = vovk_uniform_check(path, seq, n_boundary_samples=16)
    assert rep.boundary_max_gap < 1e-12


def test_vovk_sums_each_level_once(monkeypatch):
    import pathcalc.quadvar as qv

    calls = []
    real = qv._truncated_sq_sums
    monkeypatch.setattr(
        qv, "_truncated_sq_sums", lambda *a: calls.append(1) or real(*a)
    )
    seq = dyadic(1.0, 8)
    path = generate(
        {"kind": "with_jumps",
         "base": {"kind": "scaled_random_walk", "sigma": 0.5},
         "jumps": [[0.5, [2.0]]]},
        19, seq,
    )
    rep = vovk_uniform_check(path, seq)
    assert len(calls) == seq.num_levels
    assert rep.boundary_max_gap < 1e-12


# ---------------------------------------------------------------------------
# stability of the class under smooth images
# ---------------------------------------------------------------------------

def test_c1_image_stability():
    path, seq = seeded_walk(12, seed=23)
    f = np.tanh
    f_prime = lambda x: 1.0 / np.cosh(x) ** 2
    image = SampledPath(path.times, f(path.values[:, 0]))
    lhs = qv_along(image, seq).limit[-1]
    # Stieltjes oracle: sum f'(x)^2 against the squared-increment measure
    x = path.values[:, 0]
    rhs = float(np.sum(f_prime(x[:-1]) ** 2 * np.diff(x) ** 2))
    assert lhs == pytest.approx(rhs, rel=0.05)
