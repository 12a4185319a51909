"""Nested sequences of time partitions of [0, T].

A :class:`PartitionSequence` holds a finite prefix of a (conceptually
infinite) sequence of grids ``0 = t_0 < t_1 < ... < t_m = T``, one grid per
refinement level.  All limit computations elsewhere in the package are taken
along such a sequence, so grid membership is by *exact* float equality: dyadic
times are generated as ``i * (T / 2**n)``, which makes consecutive levels
nested bit-for-bit (scaling by powers of two commutes with IEEE rounding).
"""

from __future__ import annotations

import numpy as np

BLOCK = 2**16  # rows per block of a pass over a grid-sized array
MAX_LEVEL = 30  # the finest dyadic level: 2**30 + 1 floats are 8 GiB


def blocks(n):
    """``(start, stop)`` of consecutive blocks of at most ``BLOCK`` rows
    covering ``range(n)``; ``BLOCK`` is read at each call."""
    return ((a, min(a + BLOCK, n)) for a in range(0, n, BLOCK))


def strictly_increasing(arr):
    """True unless some ``arr[i + 1] <= arr[i]``, compared block by block; on
    finite values as ``np.diff(arr) <= 0`` reads."""
    for a, b in blocks(arr.size - 1):
        if (arr[a + 1:b + 1] <= arr[a:b]).any():
            return False
    return True


def _equal(a, b):
    """``np.array_equal`` of two 1-d float arrays of one size; True at once
    when they are the same memory (a grid is finite, so equal to itself)."""
    start = a.__array_interface__["data"][0]
    if start == b.__array_interface__["data"][0] and a.strides == b.strides:
        return True
    return all(np.array_equal(a[i:j], b[i:j]) for i, j in blocks(a.size))


def grid_positions(grid, ts):
    """Where ``ts`` fall in the sorted ``grid``: their positions, and the
    mask of exact members.

    This is the one membership test of the package: ``hit[k]`` is True iff
    ``grid[pos][k] == ts[k]`` bit for bit.  When ``ts`` is ``grid[::k]``, as
    a dyadic level is of a finer one, ``pos`` is ``slice(0, grid.size, k)``,
    found with no search (and with no comparison when ``ts`` is that view of
    the grid's memory), indexing with it takes a view, and ``hit`` is a
    read-only True of stride 0 over one byte; otherwise ``pos`` is the
    ``searchsorted`` insertion indices.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 1 and 2 <= ts.size <= grid.size:
        k, rem = divmod(grid.size - 1, ts.size - 1)
        if rem == 0 and _equal(grid[::k], ts):
            return slice(0, grid.size, k), np.ndarray(ts.shape, bool, b"\x01", 0, (0,))
    idx = np.searchsorted(grid, ts)
    return idx, grid[np.minimum(idx, grid.size - 1)] == ts


def index_array(pos):
    """Positions from :func:`grid_positions` as an int array, for arithmetic."""
    return np.arange(pos.start, pos.stop, pos.step) if isinstance(pos, slice) else pos


def merge_times(grid, times):
    """The sorted union of a sorted ``grid`` and sorted ``times``, each of distinct
    floats: the times off the grid inserted where :func:`grid_positions` puts them."""
    if not len(times):
        return grid.copy()
    pos, hit = grid_positions(grid, times)
    return np.insert(grid, index_array(pos)[~hit], times[~hit])


def cell_index(pos, probe_idx):
    """Cell j of each grid index p in ``[0, last position]`` of the level at
    positions ``pos``: ``pos[j] <= p < pos[j+1]``, and j = m at the last
    position ``pos[m]``; ``p // k`` on a stride k."""
    if isinstance(pos, slice):
        return index_array(probe_idx) // pos.step
    return np.searchsorted(pos, index_array(probe_idx), side="right") - 1


def require_finite(arr, what):
    """Raise a ValueError naming ``what`` if ``arr`` holds NaN or inf."""
    for a, b in blocks(len(arr)):
        ok = np.isfinite(arr[a:b])
        if not ok.all():
            raise ValueError(f"{what} must be finite, got {float(arr[a:b][~ok][0])!r}")


def require_count(v, what, least):
    """Raise a ValueError naming ``what`` unless ``v`` is an int or numpy integer >= ``least``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {v!r}")


class PartitionSequence:
    """Ordered list of time grids of [0, T], coarsest first.

    ``dense`` is a declared property (mesh -> 0 cannot be verified on a finite
    prefix); it is validated only as a monotone mesh decrease with
    ``mesh(top) < mesh(0)``.  ``nested`` is checked exactly when declared.
    """

    def __init__(self, T, levels, dense=True, nested=True):
        if not np.isfinite(T) or T <= 0:
            raise ValueError(f"horizon must be positive and finite, got {T}")
        self.T = float(T)
        self._levels = []
        for n, grid in enumerate(levels):
            arr = np.asarray(grid, dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError(f"level {n} must contain at least two times")
            require_finite(arr, f"level {n} times")
            if arr[0] != 0.0 or arr[-1] != self.T:
                raise ValueError(f"level {n} must start at 0 and end at T={self.T}")
            if not strictly_increasing(arr):
                raise ValueError(f"level {n} is not strictly increasing")
            arr.flags.writeable = False
            self._levels.append(arr)
        if not self._levels:
            raise ValueError("at least one level is required")
        for n in range(self.top) if nested else ():
            hit = grid_positions(self._levels[n + 1], self._levels[n])[1]
            if not hit.all():
                raise ValueError(f"declared nested but level {n} time "
                                 f"{float(self._levels[n][~hit][0])!r} is absent from level {n + 1}")
        self._trusted(self.T, self._levels, bool(dense), bool(nested))

    def _trusted(self, T, levels, dense, nested):
        """``self`` made of ``levels``, read-only, finite and increasing from 0 to
        T, and nested if ``nested``; of the checks, only ``dense`` runs."""
        self.T, self._levels, self.dense, self.nested = T, levels, dense, nested
        if dense and len(levels) > 1:
            # on a nested sequence a finer level's cells lie inside the coarser
            # ones, so its mesh cannot grow: only the top against level 0 can fail
            checked = (0, self.top) if nested else range(self.top + 1)
            meshes = [self.mesh(n) for n in checked]
            if any(m2 > m1 for m1, m2 in zip(meshes, meshes[1:])):
                raise ValueError("declared dense but mesh is not non-increasing")
            if meshes[-1] >= meshes[0]:
                raise ValueError("declared dense but top mesh does not beat level 0")
        return self

    @property
    def num_levels(self):
        return len(self._levels)

    @property
    def top(self):
        """Index of the finest level."""
        return len(self._levels) - 1

    def level(self, n):
        """Grid of level ``n`` as a read-only float array."""
        if not 0 <= n <= self.top:
            raise ValueError(f"level {n} outside 0..{self.top}")
        return self._levels[n]

    def positions(self, n):
        """Level ``n``'s positions in the top level of this nested sequence."""
        return grid_positions(self._levels[self.top], self.level(n))[0]

    def mesh(self, n):
        t = self.level(n)
        return float(max(np.subtract(t[a + 1:b + 1], t[a:b]).max() for a, b in blocks(t.size - 1)))

    def covers(self, times, n=None):
        """True if every time in ``times`` is a member of level ``n`` (of every
        level when ``n`` is None, which on a nested sequence is level 0).
        Membership is exact."""
        levels = [n] if n is not None else [0] if self.nested else range(self.num_levels)
        return all(grid_positions(self.level(k), times)[1].all() for k in levels)

    @staticmethod
    def from_descriptor(desc):
        kind = desc.get("type", "explicit")
        if kind == "dyadic":
            seq = dyadic(desc["T"], desc["max_level"])
        elif kind == "explicit":
            seq = PartitionSequence(
                desc["T"],
                desc["levels"],
                dense=desc.get("dense", True),
                nested=desc.get("nested", True),
            )
        else:
            raise ValueError(f"unknown partition descriptor type {kind!r}")
        extra = desc.get("extra_times")
        if extra:
            seq = refine_with(seq, extra)
        return seq

    def __repr__(self):
        sizes = ",".join(str(self.level(n).size) for n in range(self.num_levels))
        return f"PartitionSequence(T={self.T}, sizes=[{sizes}])"


def dyadic(T, max_level):
    """Dyadic grids ``i * T / 2**n`` for n = 0..max_level.

    The canonical dense nested example; level n has 2**n cells.  Only the
    finest grid is stored: level n is its read-only view with stride
    ``2**(max_level - n)``, equal to ``i * (T / 2**n)`` bit for bit.
    """
    if not np.isfinite(T) or T <= 0:
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    if max_level > MAX_LEVEL:
        raise ValueError(f"max_level must be <= {MAX_LEVEL}, got {max_level}")
    T = float(T)
    top = np.arange(2**max_level + 1, dtype=float)
    top *= T / 2**max_level
    top[-1] = T  # guard against rounding in the very last multiply
    top.flags.writeable = False
    levels = [top[:: 2 ** (max_level - n)] for n in range(max_level + 1)]
    if not strictly_increasing(top):  # a subnormal cell width rounds: name the first level hit
        n = next(n for n, grid in enumerate(levels) if not strictly_increasing(grid))
        raise ValueError(f"level {n} is not strictly increasing")
    # strides of one finite grid increasing from 0 to T
    return PartitionSequence.__new__(PartitionSequence)._trusted(T, levels, True, True)


class _Refinement(PartitionSequence):
    """``base`` with the distinct sorted times ``extra`` of [0, T] in every
    level, which keeps its levels finite and increasing, and nested if they
    were.  It stores its top level (the base's, when that holds every extra
    time) and merges a coarser one on demand."""

    def __init__(self, base, extra):
        self._base, self._extra, top = base, extra, base.level(base.top)
        self._gained = extra[~grid_positions(top, extra)[1]]  # the times the top gains
        top = merge_times(top, extra) if self._gained.size else top
        top.flags.writeable = False
        self._trusted(base.T, [None] * base.top + [top], base.dense, base.nested)

    def level(self, n):
        if n == self.top:
            return self._levels[n]
        grid = merge_times(self._base.level(n), self._extra)
        grid.flags.writeable = False
        return grid

    def positions(self, n):
        """Without a search of the level in the top: a base knot moves up by
        the count of gained times before it, and only the few extra times
        are looked up in the top."""
        top, base, gained = self._levels[-1], self._base, self._gained
        if n == self.top:
            return slice(0, top.size, 1)
        grid = base.level(n)
        pos, hit = grid_positions(grid, self._extra)
        knots = index_array(base.positions(n))
        if gained.size:
            moves = np.diff(np.searchsorted(grid, gained), prepend=0, append=grid.size)
            knots += np.repeat(np.arange(gained.size + 1), moves)
        return np.insert(knots, index_array(pos)[~hit], np.searchsorted(top, self._extra[~hit]))


def refine_with(base, extra_times):
    """Insert ``extra_times`` into every level of ``base``.

    Inserting the same set everywhere preserves nestedness; it is the
    standard device for making the grids cover a path's jump times.
    """
    extra = np.asarray(extra_times, dtype=float).reshape(-1)
    require_finite(extra, "extra times")
    outside = extra[(extra < 0.0) | (extra > base.T)]
    if outside.size:
        raise ValueError(f"extra time {float(outside[0])!r} is outside [0, {base.T}]")
    if not extra.size:
        return base
    extra = np.sort(extra)  # its distinct values, as np.unique finds them
    return _Refinement(base, extra[np.concatenate(([True], extra[1:] != extra[:-1]))])


def refine_onto(seq, times):
    """``(seq, False)`` when every level already holds ``times``, else the
    sequence refined onto them and True."""
    if len(times) == 0 or seq.covers(times):
        return seq, False
    return refine_with(seq, times), True


def last_index_before(seq, n, t):
    """Largest k with ``t_k < t`` on level ``n`` (strict on the left).

    Satisfies ``t_k < t <= t_{k+1}``.  Defined for t in (0, T]; the first
    cell maps to k = 0 and t = T maps to the last cell index.
    """
    if not 0 < t <= seq.T:
        raise ValueError(f"t must lie in (0, T], got {t}")
    return int(np.searchsorted(seq.level(n), t, side="left")) - 1
