"""Sampled cadlag paths, stopped paths and vertical perturbations.

A path is stored on the finest grid of a partition sequence together with an
explicit jump list.  Values are right limits: ``x(t_i)`` is the value at the
grid time, and the left limit is reconstructed as ``x(t_i) - jump(t_i)``
(jump zero for unlisted times, i.e. the path is treated as a continuous
sample there).  Between grid points evaluation follows the step convention
(value of the left grid point); no formula in the package ever reads the path
off-grid except through that convention.
"""

from __future__ import annotations

import contextlib
import csv
import math

import numpy as np

from .partitions import grid_positions, require_finite


class SampledPath:
    """d-dimensional cadlag path realized on a finite time grid."""

    def __init__(self, times, values, jumps=None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must be a 1-d grid with at least two points")
        require_finite(times, "path times")
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid must be strictly increasing")
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != times.size:
            raise ValueError(
                f"got {values.shape[0]} values for {times.size} grid times"
            )
        require_finite(values, "path values")
        self.times = times
        self.values = values
        self.T = float(times[-1])
        self.times.flags.writeable = False
        self.values.flags.writeable = False
        jump_map = {}
        for t, delta in jumps or ():
            t = float(t)
            if not grid_positions(times, t)[1]:
                raise ValueError(
                    f"jump time {t!r} is not a grid time; refine the grid first"
                )
            if t <= 0.0:
                raise ValueError("jump times must be positive")
            if t in jump_map:
                raise ValueError(f"duplicate jump time {t!r}")
            d = np.asarray(delta, dtype=float).reshape(-1).copy()
            if d.size != self.dim:
                raise ValueError("jump dimension does not match the path")
            require_finite(d, f"jump size at {t!r}")
            d.flags.writeable = False
            jump_map[t] = d
        self._jumps = dict(sorted(jump_map.items()))

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def jumps(self):
        return tuple((t, d.copy()) for t, d in self._jumps.items())

    @property
    def jump_times(self):
        return tuple(self._jumps.keys())

    def index_at(self, u):
        """Index of the last grid time <= u."""
        if u < 0 or u > self.T:
            raise ValueError(f"time {u} outside [0, {self.T}]")
        return int(self.times.searchsorted(u, side="right")) - 1

    def value(self, u):
        return self.values[self.index_at(u)]

    def jump_at(self, u):
        d = self._jumps.get(float(u))
        return d if d is not None else np.zeros(self.dim)

    def left_limit(self, u):
        """x(u-) = x(u) - jump(u); equals the value at non-jump times."""
        return self.value(u) - self.jump_at(u)

    def grid_indices(self, ts):
        """Exact positions of ``ts`` in the grid; raises if any is absent."""
        ts = np.asarray(ts, dtype=float)
        idx, hit = grid_positions(self.times, ts)
        if not hit.all():
            raise ValueError(f"time {float(ts[~hit][0])!r} is not on the path grid")
        return idx

    def __repr__(self):
        return (
            f"SampledPath(d={self.dim}, points={self.times.size}, "
            f"jumps={len(self._jumps)}, T={self.T})"
        )


def stack(paths):
    """Combine same-grid scalar/vector paths into one multi-dim path."""
    first = paths[0]
    for p in paths[1:]:
        if not np.array_equal(p.times, first.times):
            raise ValueError("all paths must share the same grid")
    values = np.hstack([p.values for p in paths])
    jumps = {}
    offset = 0
    for p in paths:
        for t, d in p.jumps:
            jumps.setdefault(t, np.zeros(values.shape[1]))
            jumps[t][offset:offset + p.dim] = d
        offset += p.dim
    return SampledPath(first.times, values, sorted(jumps.items()))


class StoppedPath:
    """A path frozen from a cut time on: the pair (t, omega_t).

    ``time`` is the functional time t.  Array reads happen strictly below
    ``cut``; from ``cut`` on the value is the constant ``current``.  Stopping
    at t gives cut = time = t; a vertical perturbation shifts ``current``; a
    horizontal extension moves ``time`` forward while ``cut`` stays put.
    """

    __slots__ = ("path", "time", "cut", "current")

    def __init__(self, path, time, cut, current):
        self.path = path
        self.time = float(time)
        self.cut = float(cut)
        self.current = np.asarray(current, dtype=float).reshape(-1)

    @property
    def dim(self):
        return self.path.dim

    @property
    def T(self):
        return self.path.T

    @property
    def times(self):
        return self.path.times

    def value(self, u):
        if u >= self.cut:
            return self.current
        return self.path.value(u)

    def perturb(self, delta):
        """Vertical perturbation: bump the frozen future by ``delta``."""
        delta = np.asarray(delta, dtype=float).reshape(-1)
        return StoppedPath(self.path, self.time, self.cut, self.current + delta)

    def extend_to(self, t2):
        """Move the functional time forward along the frozen path."""
        if t2 < self.time or t2 > self.T:
            raise ValueError(f"extension time {t2} outside [{self.time}, {self.T}]")
        return StoppedPath(self.path, t2, self.cut, self.current)

    def frozen_values(self):
        """State values at every grid time, as an (m+1, d) array."""
        mask = self.path.times < self.cut
        return np.where(mask[:, None], self.path.values, self.current[None, :])

    def left_riemann_integral(self):
        """Integral of the state over [0, time], left endpoints, exact
        across an off-grid cut."""
        times = self.path.times
        t = self.time
        fv = self.frozen_values()
        idx = int(np.searchsorted(times, t, side="right")) - 1
        dt = np.diff(times[: idx + 1])
        total = fv[:idx].T @ dt if idx > 0 else np.zeros(self.dim)
        total = total + fv[idx] * (t - times[idx])
        if times[0] < self.cut < t:
            k0 = int(np.searchsorted(times, self.cut, side="right")) - 1
            if times[k0] != self.cut:
                right = min(float(times[k0 + 1]), t) if k0 + 1 < times.size else t
                total = total + (self.current - self.path.values[k0]) * (right - self.cut)
        return total


def stop(path, t, side="right"):
    """Freeze ``path`` at time t: omega_t, or omega_{t-} for side='left'."""
    if t < 0 or t > path.T:
        raise ValueError(f"stop time {t} outside [0, {path.T}]")
    if side == "right":
        current = path.value(t)
    elif side == "left":
        current = path.left_limit(t)
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return StoppedPath(path, t, t, current)


def stepwise_approximation(path, seq, n):
    """Piecewise-constant approximation along level ``n``: on each cell
    [t_i, t_{i+1}) the value is the left limit at t_{i+1}, and the terminal
    value is kept.  Requires the level to cover the path's jump times."""
    level = seq.level(n)
    if not seq.covers(path.jump_times, n):
        raise ValueError(
            f"level {n} does not cover all jump times; refine the sequence"
        )
    li = path.grid_indices(level)
    # cell index for every finest grid time: j with level[j] <= u < level[j+1]
    cell = np.searchsorted(level, path.times, side="right") - 1
    cell = np.minimum(cell, level.size - 2)
    right_idx = li[cell + 1]
    new_values = path.values[right_idx] - np.array(
        [path.jump_at(t) for t in level[cell + 1]]
    )
    new_values[-1] = path.values[-1]
    changed = np.any(new_values[1:] != new_values[:-1], axis=1)
    jumps = [
        (float(path.times[k + 1]), new_values[k + 1] - new_values[k])
        for k in np.nonzero(changed)[0]
    ]
    return SampledPath(path.times, new_values, jumps)


# ---------------------------------------------------------------------------
# Deterministic test-path generators
# ---------------------------------------------------------------------------

_SMOOTH_LIBRARY = {
    "linear": lambda t, p: p.get("scale", 1.0) * t + p.get("offset", 0.0),
    "quadratic": lambda t, p: p.get("scale", 1.0) * t * t + p.get("offset", 0.0),
    "sine": lambda t, p: p.get("amp", 1.0)
    * np.sin(2.0 * np.pi * p.get("freq", 1.0) * t)
    + p.get("offset", 0.0),
}


def generate(spec, seed, seq):
    """Build a path on the finest grid of ``seq`` from a generator spec.

    The generator is a pure function of (spec, seed): identical inputs give
    bit-identical paths (PCG64 streams seeded through ``SeedSequence``).
    Supported kinds: ``smooth``, ``scaled_random_walk``, ``geometric_walk``,
    ``with_jumps`` and the deterministic ``qv_descent`` control path whose
    squared-increment sums shrink linearly from level to level.
    """
    kind = spec["kind"]
    grid = seq.level(seq.top)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    if kind == "smooth":
        f = spec.get("f")
        if f is None:
            name = spec.get("name", "linear")
            if name not in _SMOOTH_LIBRARY:
                raise ValueError(f"unknown smooth path name {name!r}")
            lib = _SMOOTH_LIBRARY[name]
            values = lib(grid, spec)
        else:
            values = np.array([f(t) for t in grid], dtype=float)
        return SampledPath(grid, values)
    if kind == "scaled_random_walk":
        sigma = float(spec["sigma"])
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        x0 = float(spec.get("x0", 0.0))
        dim = int(spec.get("dim", 1))
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(grid.size - 1, dim)) * 2 - 1
        steps = sigma * np.sqrt(np.diff(grid))[:, None] * signs
        values = np.empty((grid.size, dim))
        values[0] = x0
        np.cumsum(steps, axis=0, out=values[1:])
        values[1:] += x0
        return SampledPath(grid, values)
    if kind == "geometric_walk":
        sigma = float(spec["sigma"])
        x0 = float(spec.get("x0", 1.0))
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if x0 <= 0:
            raise ValueError("geometric walk needs a positive start value")
        dim = int(spec.get("dim", 1))
        h = np.diff(grid)
        if sigma * math.sqrt(float(np.max(h))) >= 1.0:
            raise ValueError("sigma * sqrt(mesh) >= 1 would break positivity")
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(grid.size - 1, dim)) * 2 - 1
        factors = 1.0 + sigma * np.sqrt(h)[:, None] * signs
        values = np.empty((grid.size, dim))
        values[0] = x0
        values[1:] = x0 * np.cumprod(factors, axis=0)
        return SampledPath(grid, values)
    if kind == "with_jumps":
        base = generate(spec["base"], seed, seq)
        values = base.values.copy()
        jumps = dict(base.jumps)
        for t, delta in spec["jumps"]:
            t = float(t)
            delta = np.asarray(delta, dtype=float).reshape(-1)
            if delta.size not in (1, base.dim):  # one size moves every coordinate
                raise ValueError(f"jump at {t!r} has {delta.size} sizes for a dim-{base.dim} path")
            idx = base.grid_indices([t])[0]
            values[idx:] += delta[None, :]
            jumps[t] = jumps.get(t, np.zeros(base.dim)) + delta
        return SampledPath(base.times, values, sorted(jumps.items()))
    if kind == "qv_descent":
        return _qv_descent_path(spec, seq)
    raise ValueError(f"unknown generator kind {kind!r}")


def _qv_descent_path(spec, seq):
    """Adversarial control: every refinement removes a fixed amount of
    squared-increment mass, so the level-n sums decrease linearly in n.

    Built by recursive binary splits a = D/2 + delta, b = D/2 - delta with a
    uniform delta per level; requires each cell to split exactly in two.
    """
    total = float(spec.get("total", 1.0))
    x0 = float(spec.get("x0", 0.0))
    if total <= 0:
        raise ValueError("total must be positive")
    n_levels = seq.num_levels
    drain = float(spec.get("drain", total / (2.0 * n_levels)))
    incr = np.array([math.sqrt(total)])
    level_sum = total
    for n in range(1, n_levels):
        if seq.level(n).size - 1 != 2 * incr.size:
            raise ValueError("qv_descent needs dyadic (binary-split) levels")
        spread = level_sum / 2.0 - drain
        if spread <= 0:
            raise ValueError("drain too large for the requested level count")
        delta = math.sqrt(spread / (2.0 * incr.size))
        out = np.empty(2 * incr.size)
        out[0::2] = incr / 2.0 + delta
        out[1::2] = incr / 2.0 - delta
        incr = out
        level_sum = level_sum - drain
    grid = seq.level(seq.top)
    values = np.concatenate([[x0], x0 + np.cumsum(incr)])
    return SampledPath(grid, values)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------


def write_path_csv(path, f):
    """Emit ``t,x1..xd[,jump1..jumpd]`` rows with round-trip float text."""
    own = isinstance(f, (str, bytes))
    fh = open(f, "w", newline="") if own else f
    try:
        d = path.dim
        cols = ["t"] + [f"x{i + 1}" for i in range(d)]
        with_jumps = len(path.jump_times) > 0
        if with_jumps:
            cols += [f"jump{i + 1}" for i in range(d)]
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(path.times):
            row = [repr(float(t))] + [repr(float(v)) for v in path.values[k]]
            if with_jumps:
                row += [repr(float(j)) for j in path.jump_at(float(t))]
            fh.write(",".join(row) + "\n")
    finally:
        if own:
            fh.close()


def read_path_csv(f, jump_threshold=None):
    """Parse a path file.  Jump columns are authoritative when present.

    Without jump columns the file holds continuous samples, unless a
    ``jump_threshold`` (a scalar or one value per coordinate) is given: grid
    moves larger than it are then recorded as jumps.
    """
    own = isinstance(f, (str, bytes))
    fh = open(f, "r", newline="") if own else f
    try:
        lines = iter(fh)
        reader = csv.reader(lines)
        try:
            names = [h.strip() for h in next(reader, [])]
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"path file line {reader.line_num}: {exc}") from None
        has_jumps = "jump1" in names
        d = (len(names) - 1) // 2 if has_jumps else len(names) - 1
        expected = ["t"] + [f"x{i + 1}" for i in range(d)]
        if has_jumps:
            expected += [f"jump{i + 1}" for i in range(d)]
        if d < 1 or names != expected:
            raise ValueError(
                "path file header must be t,x1..xd[,jump1..jumpd], "
                f"got {','.join(names)!r}"
            )
        rest = list(lines)
    finally:
        if own:
            fh.close()
    # np.loadtxt reads rows as the csv + float loop below, bit for bit, but warns on
    # blank text and takes fields past the csv limit or padded with \x1c-\x1f
    text, data = "".join(rest), None
    if (text.strip("\r\n") and max(map(len, rest)) <= csv.field_size_limit()
            and not any(sep in text for sep in "\x1c\x1d\x1e\x1f")):
        with contextlib.suppress(ValueError):
            data = np.loadtxt(rest, delimiter=",", comments=None, ndmin=2)
    if data is None or data.shape[1] != len(names):
        header_lines, reader, rows = reader.line_num, csv.reader(rest), []
        try:
            for row in reader:
                if not row:
                    continue
                line = header_lines + reader.line_num
                if len(row) != len(names):
                    raise ValueError(
                        f"path file line {line} has {len(row)} fields, "
                        f"the header has {len(names)}"
                    )
                try:
                    rows.append([float(c) for c in row])
                except ValueError as exc:
                    raise ValueError(f"path file line {line}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"path file line {header_lines + reader.line_num}: {exc}") from None
        data = np.asarray(rows, dtype=float).reshape(-1, len(names))
    times = data[:, 0]
    values = data[:, 1 : 1 + d]
    if has_jumps:
        sizes = data[:, 1 + d :]
        at = np.nonzero(np.any(sizes != 0.0, axis=1))[0]
        jumps = [(times[k], sizes[k]) for k in at]
    elif jump_threshold is not None:
        thr = np.broadcast_to(np.asarray(jump_threshold, dtype=float), (d,))
        diffs = np.diff(values, axis=0)
        mask = np.abs(diffs) > thr
        at = np.nonzero(np.any(mask, axis=1))[0]
        jumps = [(times[k + 1], np.where(mask[k], diffs[k], 0.0)) for k in at]
    else:
        jumps = []
    return SampledPath(times, values, jumps)
