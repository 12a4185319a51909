"""Shared Cauchy-gap convergence proxy.

A finite-level artifact cannot certify a limit; throughout the package
"converged" means the last two levels differ by less than a relative
tolerance and the inter-level gap has not grown over the trailing window.
That rule has two parts, each defined here once: :func:`cauchy_gaps` takes
the gaps of a level family and :func:`verdict` reads them.  The verdict is
always reported, never silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitions import require_count


@dataclass(frozen=True)
class ConvergenceConfig:
    tol: float = 1e-3
    window: int = 3  # trailing inter-level gaps that must not grow

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        require_count(self.window, "window", 1)


def cauchy_gaps(level_values):
    """The max probe gap of each pair of consecutive levels of a
    {level: values-at-probes} family, coarsest pair first."""
    levels = sorted(level_values)
    return [float(np.max(np.abs(np.asarray(level_values[b]) - np.asarray(level_values[a]))))
            for a, b in zip(levels, levels[1:])]


def verdict(gaps, scale, config=None):
    """The trailing ``window`` gaps do not grow and the last is within
    ``tol * max(scale, 1e-300)``; False with no gap."""
    config = config or ConvergenceConfig()
    tail = gaps[-config.window:]
    monotone = all(y <= x for x, y in zip(tail, tail[1:]))
    return bool(gaps and monotone and gaps[-1] <= config.tol * max(scale, 1e-300))


def assess(level_values, scale, config=None):
    """Cauchy verdict for a {level: values-at-probes} family.

    Returns (converged, metric) where metric is the max gap between the two
    finest levels.  ``scale`` sets the meaning of "relative".
    """
    gaps = cauchy_gaps(level_values)
    return verdict(gaps, scale, config), gaps[-1] if gaps else float("nan")
