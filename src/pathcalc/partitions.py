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


def grid_positions(grid, ts):
    """Where ``ts`` fall in the sorted ``grid``: the ``searchsorted``
    insertion indices and the mask of exact members.

    This is the one membership test of the package: ``hit[k]`` is True iff
    ``grid[idx[k]] == ts[k]`` bit for bit (with no search when ``ts`` is
    ``grid[::k]``, as a dyadic level is of a finer one).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 1 and 2 <= ts.size <= grid.size:
        k, rem = divmod(grid.size - 1, ts.size - 1)
        if rem == 0 and np.array_equal(grid[::k], ts):
            return np.arange(0, grid.size, k), np.ones(ts.size, dtype=bool)
    idx = np.searchsorted(grid, ts)
    return idx, grid[np.minimum(idx, grid.size - 1)] == ts


def require_finite(arr, what):
    """Raise a ValueError naming ``what`` if ``arr`` holds NaN or inf."""
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"{what} must be finite, got {float(arr[bad][0])!r}")


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
            if np.any(np.diff(arr) <= 0):
                raise ValueError(f"level {n} is not strictly increasing")
            arr.flags.writeable = False
            self._levels.append(arr)
        if not self._levels:
            raise ValueError("at least one level is required")
        self.dense = bool(dense)
        self.nested = bool(nested)
        if self.nested:
            for n in range(len(self._levels) - 1):
                coarse = self._levels[n]
                _, hit = grid_positions(self._levels[n + 1], coarse)
                if not hit.all():
                    raise ValueError(
                        f"declared nested but level {n} time "
                        f"{float(coarse[~hit][0])!r} is absent from level {n + 1}"
                    )
        if self.dense and len(self._levels) > 1:
            meshes = [self.mesh(n) for n in range(len(self._levels))]
            if any(m2 > m1 for m1, m2 in zip(meshes, meshes[1:])):
                raise ValueError("declared dense but mesh is not non-increasing")
            if meshes[-1] >= meshes[0]:
                raise ValueError("declared dense but top mesh does not beat level 0")

    @property
    def num_levels(self):
        return len(self._levels)

    @property
    def top(self):
        """Index of the finest level."""
        return len(self._levels) - 1

    def level(self, n):
        """Grid of level ``n`` as a read-only float array."""
        return self._levels[n]

    def mesh(self, n):
        return float(np.max(np.diff(self._levels[n])))

    def truncate(self, n):
        """Sequence made of levels 0..n only."""
        if not 0 <= n <= self.top:
            raise ValueError(f"level {n} outside 0..{self.top}")
        return PartitionSequence(
            self.T, [self.level(i) for i in range(n + 1)],
            dense=self.dense, nested=self.nested,
        )

    def covers(self, times, n=None):
        """True if every time in ``times`` is a member of level ``n``
        (of every level when ``n`` is None).  Membership is exact."""
        levels = self._levels if n is None else [self._levels[n]]
        return all(grid_positions(arr, times)[1].all() for arr in levels)

    def to_descriptor(self):
        return {
            "type": "explicit",
            "T": self.T,
            "levels": [arr.tolist() for arr in self._levels],
            "dense": self.dense,
            "nested": self.nested,
        }

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
        sizes = ",".join(str(arr.size) for arr in self._levels)
        return f"PartitionSequence(T={self.T}, sizes=[{sizes}])"


def dyadic(T, max_level):
    """Dyadic grids ``i * T / 2**n`` for n = 0..max_level.

    The canonical dense nested example; level n has 2**n cells.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    T = float(T)
    levels = []
    for n in range(max_level + 1):
        h = T / 2**n
        grid = np.arange(2**n + 1, dtype=float) * h
        grid[-1] = T  # guard against rounding in the very last multiply
        levels.append(grid)
    return PartitionSequence(T, levels, dense=True, nested=True)


def refine_with(base, extra_times):
    """Insert ``extra_times`` into every level of ``base``.

    Inserting the same set everywhere preserves nestedness; it is the
    standard device for making the grids cover a path's jump times.
    """
    extra = np.asarray(extra_times, dtype=float).reshape(-1)
    require_finite(extra, "extra times")
    if np.any((extra < 0.0) | (extra > base.T)):
        raise ValueError("extra times must lie inside [0, T]")
    if not extra.size:
        return base
    levels = [np.union1d(base.level(n), extra) for n in range(base.num_levels)]
    return PartitionSequence(base.T, levels, dense=base.dense, nested=base.nested)


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
    if t <= 0 or t > seq.T:
        raise ValueError(f"t must lie in (0, T], got {t}")
    return int(np.searchsorted(seq.level(n), t, side="left")) - 1
