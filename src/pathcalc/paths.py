"""Sampled cadlag paths, stopped paths and vertical perturbations.

A path is stored on the finest grid of a partition sequence together with
its jumps, held as two read-only arrays in time order: ``jump_index``, the
grid positions of the jump times, and ``jump_sizes``, one row of sizes per
jump.  Values are right limits: ``x(t_i)`` is the value at the grid time, and
the left limit is reconstructed as ``x(t_i) - jump(t_i)`` (jump zero at any
other time, i.e. the path is treated as a continuous sample there).  Between
grid points evaluation follows the step convention (value of the left grid
point); no formula in the package ever reads the path off-grid except
through that convention.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
import stat

import numpy as np

from .partitions import (
    blocks,
    cell_index,
    grid_positions,
    index_array,
    require_count,
    require_finite,
    strictly_increasing,
)


def _running_sums(terms):
    """0.0, then the running sums of ``terms`` along the first axis, added in
    time order as a ``+=`` loop adds (``np.sum`` adds pairwise, and a BLAS
    product in thread-dependent blocks).  0.0 comes first, so no sum is -0.0."""
    return np.cumsum(np.concatenate((np.zeros((1, *np.shape(terms)[1:])), terms)), axis=0)


class SampledPath:
    """d-dimensional cadlag path realized on a finite time grid."""

    def __init__(self, times, values, jumps=None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must be a 1-d grid with at least two points")
        require_finite(times, "path times")
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not strictly_increasing(times):
            raise ValueError("grid must be strictly increasing")
        self._trusted(times, values, jumps)

    def _trusted(self, times, values, jumps=None):
        """``self`` on ``times``, a partition's level, which its constructor
        checked: a float grid of two or more points, finite and strictly
        increasing from 0.  Of the checks, only those on the values and the
        jumps run."""
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
        jumps = sorted(((float(t), np.asarray(d, dtype=float).reshape(-1)) for t, d in jumps or ()),
                       key=lambda jump: jump[0])
        if any(d.size != self.dim for _, d in jumps):
            raise ValueError("jump dimension does not match the path")
        jt = np.array([t for t, _ in jumps])
        index, hit = grid_positions(times, jt) if jumps else (jt.astype(int), jt.astype(bool))
        if not hit.all():
            raise ValueError(f"jump time {float(jt[~hit][0])!r} is not a grid time; "
                             "refine the grid first")
        if np.any(jt <= 0.0):
            raise ValueError("jump times must be positive")
        dup = jt[1:] == jt[:-1]
        if dup.any():
            raise ValueError(f"duplicate jump time {float(jt[1:][dup][0])!r}")
        sizes = np.array([d for _, d in jumps]).reshape(jt.size, self.dim)
        bad = ~np.isfinite(sizes).all(axis=1)
        if bad.any():
            require_finite(sizes[bad][0], f"jump size at {float(jt[bad][0])!r}")
        self.jump_index = index_array(index)
        self.jump_sizes = sizes
        self.jump_index.flags.writeable = False
        self.jump_sizes.flags.writeable = False
        return self

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def jumps(self):
        return tuple((t, d.copy()) for t, d in zip(self.jump_times, self.jump_sizes))

    @property
    def jump_times(self):
        return tuple(self.times[self.jump_index].tolist())

    def index_at(self, u):
        """Index of the last grid time <= u."""
        if not 0 <= u <= self.T:
            raise ValueError(f"time {u} outside [0, {self.T}]")
        return int(self.times.searchsorted(u, side="right")) - 1

    def value(self, u):
        return self.values[self.index_at(u)]

    def jump_at(self, u):
        k = self.jump_index.searchsorted(self.times.searchsorted(float(u)))  # first at or after u
        hit = k < self.jump_index.size and self.times[self.jump_index[k]] == float(u)
        return self.jump_sizes[k] if hit else np.zeros(self.dim)

    def left_limit(self, u):
        """x(u-) = x(u) - jump(u); equals the value at non-jump times."""
        return self.value(u) - self.jump_at(u)

    def grid_indices(self, ts):
        """Exact positions of ``ts`` in the grid (:func:`grid_positions`): a
        slice on a stride of the grid, else an int array; raises if any is absent."""
        ts = np.asarray(ts, dtype=float)
        idx, hit = grid_positions(self.times, ts)
        if not hit.all():
            raise ValueError(f"time {float(ts[~hit][0])!r} is not on the path grid")
        return idx

    def __repr__(self):
        return (
            f"SampledPath(d={self.dim}, points={self.times.size}, "
            f"jumps={self.jump_index.size}, T={self.T})"
        )


def stack(paths):
    """Combine same-grid scalar/vector paths into one multi-dim path."""
    first = paths[0]
    for p in paths[1:]:
        if not np.array_equal(p.times, first.times):
            raise ValueError("all paths must share the same grid")
    values = np.hstack([p.values for p in paths])
    index = np.unique(np.concatenate([p.jump_index for p in paths]))
    sizes = np.zeros((index.size, values.shape[1]))
    offset = 0
    for p in paths:
        sizes[np.searchsorted(index, p.jump_index), offset:offset + p.dim] = p.jump_sizes
        offset += p.dim
    return SampledPath(first.times, values, zip(first.times[index], sizes))


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
    def T(self):
        return self.path.T

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
        if not self.time <= t2 <= self.T:
            raise ValueError(f"extension time {t2} outside [{self.time}, {self.T}]")
        return StoppedPath(self.path, t2, self.cut, self.current)


def stop(path, t, side="right"):
    """Freeze ``path`` at time t: omega_t, or omega_{t-} for side='left'."""
    if not 0 <= t <= path.T:
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
    cell = np.minimum(cell_index(li, np.arange(path.times.size)), level.size - 2)
    right_idx = index_array(li)[cell + 1]
    jump = np.zeros_like(path.values)  # the jump at each finest grid time
    jump[path.jump_index] = path.jump_sizes
    new_values = path.values[right_idx] - jump[right_idx]
    new_values[-1] = path.values[-1]
    k = np.flatnonzero(np.any(new_values[1:] != new_values[:-1], axis=1)) + 1
    return SampledPath(path.times, new_values, zip(path.times[k], new_values[k] - new_values[k - 1]))


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


def _on_grid(times, values, jumps=None):
    """A path on a partition's level (:meth:`SampledPath._trusted`)."""
    return SampledPath.__new__(SampledPath)._trusted(times, values, jumps)


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
        return _on_grid(grid, values)
    if kind == "scaled_random_walk":
        sigma = float(spec["sigma"])
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        x0 = float(spec.get("x0", 0.0))
        values = _walk_steps(grid, sigma, spec.get("dim", 1), seed)
        values[0] = x0
        np.cumsum(values[1:], axis=0, out=values[1:])
        values[1:] += x0
        return _on_grid(grid, values)
    if kind == "geometric_walk":
        sigma = float(spec["sigma"])
        x0 = float(spec.get("x0", 1.0))
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if x0 <= 0:
            raise ValueError("geometric walk needs a positive start value")
        if sigma * math.sqrt(seq.mesh(seq.top)) >= 1.0:
            raise ValueError("sigma * sqrt(mesh) >= 1 would break positivity")
        values = _walk_steps(grid, sigma, spec.get("dim", 1), seed)
        values[0] = x0
        factors = values[1:]
        factors += 1.0
        np.cumprod(factors, axis=0, out=factors)
        factors *= x0
        return _on_grid(grid, values)
    if kind == "with_jumps":
        base = generate(spec["base"], seed, seq)
        values = base.values.copy()
        jumps = dict(base.jumps)
        for t, delta in spec["jumps"]:
            t = float(t)
            delta = np.asarray(delta, dtype=float).reshape(-1)
            if delta.size not in (1, base.dim):  # one size moves every coordinate
                raise ValueError(f"jump at {t!r} has {delta.size} sizes for a dim-{base.dim} path")
            idx, hit = grid_positions(base.times, [t])
            if not hit[0]:
                raise ValueError(f"jump at {t!r} is not a time of the partition's finest level")
            values[idx[0]:] += delta[None, :]
            jumps[t] = jumps.get(t, np.zeros(base.dim)) + delta
        return _on_grid(base.times, values, sorted(jumps.items()))
    if kind == "qv_descent":
        return _qv_descent_path(spec, seq)
    raise ValueError(f"unknown generator kind {kind!r}")


def _walk_steps(grid, sigma, dim, seed):
    """An (m+1, dim) array whose rows 1..m hold the steps ``sigma *
    sqrt(h_i) * s``, with a fair sign s per cell and coordinate, built in
    place by the operations of ``sigma * np.sqrt(np.diff(grid))[:, None] *
    signs``; row 0 is left for the caller.  The signs are drawn block by
    block from one Generator, which gives the stream of one
    ``integers(0, 2, size=(m, dim))`` draw."""
    require_count(dim, "dim", 1)
    rng = np.random.default_rng(seed)
    values = np.empty((grid.size, dim))
    for a, b in blocks(grid.size - 1):
        signs = rng.integers(0, 2, size=(b - a, dim))
        signs *= 2
        signs -= 1
        steps = values[a + 1:b + 1]
        np.subtract(grid[a + 1:b + 1, None], grid[a:b, None], out=steps)
        np.sqrt(steps, out=steps)
        steps *= sigma
        steps *= signs
        del signs  # before the next block is drawn
    return values


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
    return _on_grid(grid, values)


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
        columns = path.values
        if path.jump_index.size:
            cols += [f"jump{i + 1}" for i in range(d)]
            columns = np.hstack((columns, np.zeros_like(columns)))
            columns[path.jump_index, d:] = path.jump_sizes
        fh.write(",".join(cols) + "\n")
        for t, row in zip(path.times.tolist(), columns.tolist()):
            fh.write(",".join(map(repr, [t, *row])) + "\n")
    finally:
        if own:
            fh.close()


CHUNK = 2**18  # bytes per read of the guard pass over a named path file
_LINE_END = re.compile(rb"\r\n|\r|\n")  # the line ends of open(..., newline="")


def _c_reads_by_name(name, handle, header_lines):
    r"""Whether ``np.loadtxt(name, skiprows=header_lines)`` reads the path file
    open as ``handle`` as the csv + float loop does.  It must be a regular
    file whose name numpy's opener takes as it is (not a URL, no suffix it
    decompresses), and its body, after the header's ``header_lines``
    physical lines, must not be blank, nor hold \x1c-\x1f or a line longer
    than ``csv.field_size_limit()``.  The body is judged in one pass over its
    bytes, ``CHUNK`` at a time; a line's bytes bound its characters, and in
    the ASCII-compatible locale encodings \r, \n and \x1c-\x1f are single
    bytes that no other character contains."""
    if (not stat.S_ISREG(os.fstat(handle.fileno()).st_mode) or "://" in name
            or name.endswith((".gz", ".bz2", ".xz", ".lzma"))):
        return False
    limit, run, blank = csv.field_size_limit(), 0, True  # run: bytes since the last line end
    with open(name, "rb") as fh:
        while chunk := fh.read(CHUNK):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)  # a \r\n stays in one chunk
            start = 0
            while header_lines and (end := _LINE_END.search(chunk, start)):
                start, header_lines = end.end(), header_lines - 1
            if header_lines:
                continue
            if any(sep in chunk[start:] for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return False
            body = np.frombuffer(chunk, np.uint8)[start:]
            ends = np.flatnonzero((body == 10) | (body == 13) if b"\r" in chunk else body == 10)
            blank = blank and ends.size == body.size
            # a line is its bytes between two line-end bytes and a line end of at most two
            longest = np.diff(ends, prepend=-1 - run).max(initial=0) - 1
            run = body.size - 1 - ends[-1] if ends.size else run + body.size
            if max(longest, run) + 2 > limit:
                return False
    return not blank


def read_path_csv(f, jump_threshold=None):
    """Parse a path file, given by name or as an open text handle.  Jump
    columns are authoritative when present.

    Without jump columns the file holds continuous samples, unless a
    ``jump_threshold`` (a scalar or one value per coordinate) is given: grid
    moves larger than it are then recorded as jumps.

    A file given by name is parsed by numpy's chunked C reader once a pass
    over its bytes finds it safe (:func:`_c_reads_by_name`); everything else
    (an open handle, a pipe, a compressed name, a file the guards refuse or
    that the C reader rejects) goes through the reference ``csv`` + ``float``
    loop, read on from the header's reader.  Both routes give the same bits
    and the same errors.
    """
    thr = None if jump_threshold is None else np.asarray(jump_threshold, dtype=float)
    if thr is not None and not (np.isfinite(thr) & (thr >= 0)).all():
        raise ValueError(f"jump_threshold must be finite and >= 0, got {jump_threshold!r}")
    if isinstance(f, bytes):
        f = os.fsdecode(f)
    own = isinstance(f, str)
    fh = open(f, "r", newline="") if own else f
    reader = csv.reader(fh)
    try:
        names = [h.strip() for h in next(reader, [])]
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
        if thr is not None and thr.ndim and thr.shape != (d,):
            raise ValueError(f"jump_threshold must be one number or a list of {d}, one per "
                             f"coordinate of the dim-{d} path, got {jump_threshold!r}")
        data = None
        if own and _c_reads_by_name(f, fh, reader.line_num):
            with contextlib.suppress(ValueError):  # the loop below names what it rejects
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2,
                                  skiprows=reader.line_num, encoding=fh.encoding)
        if data is None or data.shape[1] != len(names):
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(names):
                    raise ValueError(
                        f"path file line {reader.line_num} has {len(row)} fields, "
                        f"the header has {len(names)}"
                    )
                try:
                    rows.append([float(c) for c in row])
                except ValueError as exc:
                    raise ValueError(f"path file line {reader.line_num}: {exc}") from None
            data = np.asarray(rows, dtype=float).reshape(-1, len(names))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise ValueError(f"path file line {reader.line_num}: {exc}") from None
    finally:
        if own:
            fh.close()
    times, jumps = data[:, 0], []  # a column: the table lives as long as these times
    if has_jumps:
        sizes = data[:, 1 + d :]
        at = np.flatnonzero(np.any(sizes != 0.0, axis=1))
        jumps = zip(times[at], sizes[at])
    values = data[:, 1 : 1 + d].copy()
    if thr is not None and not has_jumps:
        diffs = np.diff(values, axis=0)
        mask = np.abs(diffs) > thr
        at = np.flatnonzero(np.any(mask, axis=1))
        jumps = zip(times[at + 1], np.where(mask[at], diffs[at], 0.0))
    return SampledPath(times, values, jumps)
