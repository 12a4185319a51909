"""Shared Cauchy-gap convergence proxy.

A finite-level artifact cannot certify a limit; throughout the package
"converged" means the last two levels differ by less than a relative
tolerance and the inter-level gap has not grown over the trailing window.
The verdict is always reported, never silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConvergenceConfig:
    tol: float = 1e-3
    window: int = 3  # trailing inter-level gaps that must not grow

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window!r}")


def assess(level_values, scale, config=None):
    """Cauchy verdict for a {level: values-at-probes} family.

    Returns (converged, metric) where metric is the max gap between the two
    finest levels.  ``scale`` sets the meaning of "relative".
    """
    config = config or ConvergenceConfig()
    levels = sorted(level_values)
    if len(levels) < 2:
        return False, float("nan")
    gaps = [
        float(np.max(np.abs(np.asarray(level_values[b]) - np.asarray(level_values[a]))))
        for a, b in zip(levels, levels[1:])
    ]
    metric = gaps[-1]
    tail = gaps[-config.window:]
    monotone = all(y <= x for x, y in zip(tail, tail[1:]))
    converged = monotone and metric <= config.tol * max(scale, 1e-300)
    return bool(converged), float(metric)
