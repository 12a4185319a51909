"""Workload inputs: CLI configs and path files made from the workload seed.

``--seed n`` selects input set ``n % INPUT_SETS``; ``reference.json`` holds
the output digests of every input set, so every run's outputs are checked.
Each input set draws its generator seed (and, on ``qv_csv``, its jump times
and sizes) from ``numpy.random.default_rng([input_set, workload_index])``.

Path files are written by this module, not by ``pathcalc.write_path_csv``,
so a change to the package's writer cannot change what the benchmark reads.
The walk below repeats the ``geometric_walk`` generator of
``pathcalc.paths.generate`` step for step, which is what lets ``qv_csv``
require the file route and the generator route to give identical tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUT_SETS = 32
WORKLOADS = ("hedge_many", "integrate_sweep", "qv_deep", "qv_csv")

_WALK = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
_BLACK_SCHOLES = {"name": "black_scholes", "sigma": 0.2, "strike": 1.0}


@dataclass(frozen=True)
class Command:
    """One CLI launch of a workload pass.

    ``reference`` is the config of the generator route whose outputs a
    file-route command must reproduce; it is run once per benchmark run,
    outside the timed region.
    """

    label: str
    subcommand: str
    config: Path
    reference: Path | None = None


def _dyadic(level):
    return {"type": "dyadic", "T": 1.0, "max_level": level}


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def geometric_walk(seed, level, sigma=_WALK["sigma"], x0=_WALK["x0"]):
    """Dyadic grid and values of the ``geometric_walk`` generator."""
    h = 1.0 / 2**level
    grid = np.arange(2**level + 1, dtype=float) * h
    grid[-1] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    signs = rng.integers(0, 2, size=(grid.size - 1, 1)) * 2 - 1
    factors = 1.0 + sigma * np.sqrt(np.diff(grid))[:, None] * signs
    values = np.empty((grid.size, 1))
    values[0] = x0
    values[1:] = x0 * np.cumprod(factors, axis=0)
    return grid, values[:, 0]


def write_path_file(path, times, values, jumps=None):
    """``t,x1[,jump1]`` rows with ``repr`` floats, as in docs/formats.md."""
    header = "t,x1" if jumps is None else "t,x1,jump1"
    columns = [times.tolist(), values.tolist()]
    if jumps is not None:
        columns.append(jumps.tolist())
    lines = [header] + [",".join(map(repr, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def make_inputs(workload, seed, directory):
    """Write the configs and path files of ``workload`` for ``seed`` into
    ``directory`` and return the workload's commands in pass order."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % INPUT_SETS, WORKLOADS.index(workload)])
    path_seed = int(rng.integers(2**31))

    def config(name, obj):
        file = directory / f"{name}.json"
        _write_json(file, {"seed": path_seed, **obj})
        return file

    if workload == "hedge_many":
        # The README's volatility-misspecification example.
        cfg = config("hedge", {
            "partition": _dyadic(14),
            "path": _WALK,
            "functional": _BLACK_SCHOLES,
            "hedge": {
                "density": {"kind": "bs", "sigma": 0.2},
                "realized": {"kind": "bs", "sigma": 0.3},
                "payoff": {"kind": "call", "strike": 1.0},
                "paths": 64,
            },
        })
        return [Command("hedge", "hedge", cfg)]
    if workload == "integrate_sweep":
        cfg = config("integrate", {
            "partition": _dyadic(14),
            "path": _WALK,
            "functional": _BLACK_SCHOLES,
            "integrate": {"residual_levels": [8, 10, 12, 14]},
        })
        return [Command("integrate", "integrate", cfg)]
    if workload == "qv_deep":
        cfg = config("qv", {"partition": _dyadic(20), "path": _WALK})
        return [Command("qv", "qv", cfg)]
    if workload == "qv_csv":
        return _qv_csv_inputs(rng, path_seed, directory, config)
    raise ValueError(f"unknown workload {workload!r}")


def _qv_csv_inputs(rng, path_seed, directory, config):
    # (a) level 18 with two jumps at odd multiples of 2**-18, i.e. at
    # finest-grid times that no coarser level contains.
    level = 18
    times, values = geometric_walk(path_seed, level)
    cells = rng.choice(2**(level - 1), size=2, replace=False)
    jump_idx = 2 * cells + 1
    sizes = rng.uniform(0.05, 0.15, size=2) * rng.choice([-1.0, 1.0], size=2)
    jump_col = np.zeros_like(values)
    spec_jumps = []
    for idx, size in zip(jump_idx.tolist(), sizes.tolist()):
        values[idx:] += size  # same order and arithmetic as the generator
        jump_col[idx] = size
        spec_jumps.append([float(times[idx]), size])
    file_a = directory / "jumps_level18.csv"
    write_path_file(file_a, times, values, jump_col)
    ref_a = config("a_generator", {
        "partition": _dyadic(level),
        "path": {"kind": "with_jumps", "base": _WALK, "jumps": spec_jumps},
    })
    cfg_a = config("a_file", {"partition": _dyadic(level), "path": {"file": str(file_a)}})

    # (b) a continuous level-10 walk without jump columns: the CSV round
    # trip that flags every increment as a jump (known defect, kept).
    times, values = geometric_walk(path_seed, 10)
    file_b = directory / "walk_level10.csv"
    write_path_file(file_b, times, values)
    ref_b = config("b_generator", {"partition": _dyadic(10), "path": _WALK})
    cfg_b = config("b_file", {"partition": _dyadic(10), "path": {"file": str(file_b)}})
    return [Command("a", "qv", cfg_a, ref_a), Command("b", "qv", cfg_b, ref_b)]
