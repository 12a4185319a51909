import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import (
    PartitionSequence,
    SampledPath,
    cli,
    dyadic,
    follmer_integral_functional,
    generate,
    identity,
    norvaisa_qv_check,
    p_variation,
    qv_along,
    qv_matrix,
    read_path_csv,
    refine_with,
    stack,
    vovk_uniform_check,
    write_path_csv,
)
from pathcalc.convergence import ConvergenceConfig
from pathcalc.partitions import cell_index, index_array
from pathcalc.quadvar import (
    VovkReport,
    _check_horizon,
    _check_two_levels,
    _interval_grid,
    _truncated_sq_sums,
)


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


def test_a_path_file_read_alone_sums_along_its_refinement_by_stride(tmp_path, monkeypatch):
    """A path file with a jump off the top level, read by ``read_path_csv``
    with no CLI: its times equal the refinement's top by content, so
    ``qv_along`` maps the probes and no level through ``grid_indices``, and
    its sums are the bits of the run on the path whose times the CLI swaps
    for the merged grid."""
    seq = dyadic(1.0, 8)
    jump = 155 / 2**9  # a midpoint of two top-level times
    f = tmp_path / "walk.csv"
    write_path_csv(generate({"kind": "with_jumps", "base": {"kind": "scaled_random_walk", "sigma": 0.4},
                             "jumps": [[jump, [0.3]]]}, 5, refine_with(seq, [jump])), str(f))
    alone, swapped = read_path_csv(str(f)), read_path_csv(str(f))
    cli._require_finest_grid(str(f), swapped, seq)
    probes = np.linspace(0.0, 1.0, 9)
    mapped, real = [], SampledPath.grid_indices
    monkeypatch.setattr(SampledPath, "grid_indices", lambda p, ts: mapped.append(ts) or real(p, ts))
    rep = qv_along(alone, seq, probes)
    assert rep.refined and len(rep.levels) == 9
    assert mapped and all(np.array_equal(ts, probes) for ts in mapped)
    ref = qv_along(swapped, seq, probes)
    for n in rep.levels:
        assert rep.approx[n].tobytes() == ref.approx[n].tobytes()


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


# an empty list, a scalar and a nested list, each named as probe times
NOT_A_LIST_OF_TIMES = [([], r"\(0,\)"), (0.5, r"\(\)"), ([[0.5]], r"\(1, 1\)")]


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
        for probes, shape in NOT_A_LIST_OF_TIMES:
            with pytest.raises(ValueError, match=f"^probe times must be a non-empty list of times, got shape {shape}$"):
                report(probes)


@pytest.mark.parametrize("probes, message", [
    ([0.5, math.nan], "must be finite, got nan"), ([0.25, math.inf, math.inf], "must be finite, got inf"),
    *((probes, f"must be a non-empty list of times, got shape {shape}") for probes, shape in NOT_A_LIST_OF_TIMES)],
    ids=["probes0-nan", "probes1-inf", "empty", "scalar", "nested"])
def test_probe_times_must_be_finite(probes, message):
    # Tier-1 turns a RuntimeWarning (as from inf - inf) into an error; the
    # malformed lists fail before any reduction over them
    path, seq = seeded_walk(6)
    with pytest.raises(ValueError, match=f"probe times {message}"):
        qv_along(path, seq, probe_times=probes)
    with pytest.raises(ValueError, match=f"probe times {message}"):
        follmer_integral_functional(identity(), path, seq, probes=probes)


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
    # u and v at any time of the path, on the knots of one level, or anywhere
    on_level = seq.level(data.draw(st.integers(0, seq.top))).tolist()
    knots = st.one_of(st.sampled_from(times.tolist()), st.sampled_from(on_level), st.floats(0.0, 1.0))
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
    route = data.draw(st.sampled_from(["stride", "offset", "sorted"]))
    if route == "stride":  # a level of a dyadic grid, as grid_positions gives it
        li = slice(0, k * m + 1, k)
    elif route == "offset":  # the same stride as an array (search route), or shifted
        li = np.arange(0, k * (m + 1), k) + data.draw(st.sampled_from([0, 1]))
    else:
        picks = st.sets(st.integers(0, k * m + m), min_size=m + 1, max_size=m + 1)
        li = np.array(sorted(data.draw(picks)))
    last = int(index_array(li)[-1])
    if data.draw(st.booleans()):  # every grid index as a probe, as a stride or an array
        probe_idx = data.draw(st.sampled_from([slice(0, last + 1, 1), np.arange(last + 1)]))
    else:
        probes = st.sets(st.integers(0, last), min_size=1, max_size=m)
        probe_idx = np.array(sorted(data.draw(probes)))
    expected = np.searchsorted(index_array(li), index_array(probe_idx), side="right") - 1
    assert np.array_equal(cell_index(li, probe_idx), expected)


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


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_p_variation_rejects_a_p_that_is_not_finite(p):
    # NaN read nan and infinity a number, not a p-variation
    path = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
    with pytest.raises(ValueError, match=f"^p must be >= 1 and finite, got {p}$"):
        p_variation(path, p)


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


def _vovk_every_level_at_once(path, seq, n_boundary_samples=8):
    """The reference route: ``vovk_uniform_check`` as it was when it held every
    level's sums at every grid time at once, with its own verdict."""
    if not seq.nested:
        raise ValueError("the uniform form requires a nested sequence")
    if path.dim != 1:
        raise ValueError("vovk_uniform_check expects a scalar path")
    _check_horizon(seq, path)
    _check_two_levels(seq)
    config = ConvergenceConfig()
    x = path.values[:, 0]
    all_idx = np.arange(path.times.size)
    per_level = []
    cells = []
    for n in range(seq.num_levels):
        level = seq.level(n)
        li = path.grid_indices(level)
        per_level.append(_truncated_sq_sums(x, li, all_idx))
        lx = x[li]
        cells.append((level, lx, np.diff(lx)))
    top_vals = per_level[-1]
    sup_gaps = [float(np.max(np.abs(vals - top_vals))) for vals in per_level]
    scale = max(float(np.ptp(x)) ** 2, 1e-300)
    tail = sup_gaps[-(config.window + 1):-1]
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    uniform = monotone and sup_gaps[-2] <= config.tol * scale

    rng = np.random.default_rng(0)
    samples = list(rng.uniform(0.0, path.T, size=n_boundary_samples))
    samples += [float(path.times[k]) for k in
                rng.integers(0, path.times.size, size=n_boundary_samples)]
    boundary_gap = 0.0
    for t in samples:
        it = path.index_at(t)
        xt = x[it]
        for (level, lx, a), trunc in zip(cells, per_level):
            kbar = min(int(np.searchsorted(level, t, side="right")) - 1, level.size - 2)
            untrunc = float(np.sum(a[: kbar + 1] ** 2))
            rhs = (xt - lx[kbar]) ** 2 - (lx[kbar + 1] - lx[kbar]) ** 2
            boundary_gap = max(boundary_gap, abs((float(trunc[it]) - untrunc) - rhs))
    return VovkReport(
        levels=list(range(seq.num_levels)),
        sup_gaps=sup_gaps,
        uniform=uniform,
        boundary_max_gap=boundary_gap,
        scale=scale,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), level=st.integers(1, 6), n_samples=st.sampled_from([0, 1, 16]))
def test_vovk_one_level_at_a_time_matches_every_level_at_once(data, level, n_samples):
    kind = data.draw(st.sampled_from(["dyadic", "nested", "refine_with"]))
    cells = 2 ** (level + 1)
    # odd slots are cell midpoints, off every level of dyadic(1, level); one
    # such time, or four from level 3, leave a refinement's top mesh below
    # its level 0's, so that it stays dense
    slots = st.sets(st.integers(1, cells // 2).map(lambda k: 2 * k - 1), max_size=4 if level >= 3 else 1)
    off = np.array(sorted(data.draw(slots)), dtype=float) / cells
    if kind == "dyadic":
        seq = dyadic(1.0, level)
    elif kind == "refine_with":
        seq = refine_with(dyadic(1.0, level), off)
    else:  # each level a subset of the next, all holding 0 and T
        top = np.union1d(dyadic(1.0, level).level(level), off)
        levels = [top]
        for _ in range(level):
            keep = data.draw(st.lists(st.booleans(), min_size=levels[0].size - 2,
                                      max_size=levels[0].size - 2))
            levels.insert(0, levels[0][[True, *keep, True]])
        seq = PartitionSequence(1.0, levels, dense=False)
    times = np.union1d(seq.level(seq.top), off)  # the path grid may be finer than the top
    # values near 1e155 that spread over 1e154 at most: the sums of their
    # squared increments may pass the float range, which both routes name in
    # their shared level sums, while the squared range, the scale, is finite;
    # spread over 2e155 it may overflow
    centre, spread = data.draw(st.sampled_from([(0.0, 1.0), (1e155, 5e153), (0.0, 1e155)]))
    values = centre + spread * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=times.size,
                                                           max_size=times.size)))
    at = data.draw(st.sets(st.integers(1, times.size - 1), max_size=3))  # the last is T
    path = SampledPath(times, values, [(times[k], values[k] - values[k - 1] or 1.0) for k in at])

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            float(np.ptp(values)) ** 2
        except OverflowError:  # the reference route fails in a level sum or in the square,
            # the new one names the range
            with pytest.raises((ValueError, OverflowError)):
                _vovk_every_level_at_once(path, seq, n_samples)
            with pytest.raises(ValueError, match="^path values range over .*, whose square, the QV scale"):
                vovk_uniform_check(path, seq, n_samples)
            return
        try:
            ref = _vovk_every_level_at_once(path, seq, n_samples)
        except ValueError:  # a level sum past the float range, which both routes name, not
            # always at the same level: they sum the levels in different orders
            with pytest.raises(ValueError, match="^the squared increments along a level of [0-9]+ cells sum past"):
                vovk_uniform_check(path, seq, n_samples)
            return
        new = vovk_uniform_check(path, seq, n_samples)
    assert new.levels == ref.levels
    assert np.array(new.sup_gaps).tobytes() == np.array(ref.sup_gaps).tobytes()
    assert new.uniform is ref.uniform
    assert np.float64(new.boundary_max_gap).tobytes() == np.float64(ref.boundary_max_gap).tobytes()
    assert new.scale == ref.scale


@pytest.mark.parametrize("n", [-1, 2.0, True])
def test_vovk_rejects_a_sample_count_that_is_not_a_count(n):
    # -1 failed in numpy's "negative dimensions", 2.0 in a TypeError and True
    # in numpy's "expected a sequence of integers"
    path, seq = seeded_walk(4)
    with pytest.raises(ValueError, match=f"^n_boundary_samples must be an integer >= 0, got {n}$"):
        vovk_uniform_check(path, seq, n)


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
