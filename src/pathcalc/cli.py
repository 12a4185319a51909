"""Batch experiment runner.

Subcommands wire the library into reproducible desk-scale experiments: a
single JSON config describes the partition sequence, the path (generator or
CSV file), the functional, tolerances and probes; outputs are a JSON report
with the fully-resolved config echoed for provenance, plus plot-ready CSV
tables (columns documented in docs/formats.md).  Two runs with the same
config produce byte-identical files: fixed reduction orders, shortest
round-trip float text, no timestamps.

Exit codes: 0 success, 1 numeric caveat (a convergence or pricing-equation
flag was raised), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import gzip  # noqa: F401  (with numpy.random, below)
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

# np.loadtxt of a named file imports gzip, and the generators numpy.random, on
# first use: imported here, a launch pays for them in its set-up, not in main()
import numpy.random  # noqa: F401

from .convergence import ConvergenceConfig
from .functionals import density_from_descriptor, functional_from_descriptor
from .integration import follmer_integral_functional, ito_residual_functional
from .partitions import BLOCK, MAX_LEVEL, PartitionSequence, blocks, merge_times
from .paths import generate, read_path_csv, stop
from .quadvar import default_probe_times, qv_along, qv_matrix
from .trading import (
    call_payoff,
    hedge,
    integral_payoff,
    plausibility_diagnostic,
    put_payoff,
)


class ConfigError(Exception):
    pass


# a finite float, or an int in the float range; not a bool (Python's json
# reads NaN, Infinity and integers of any size)
_number = lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max
_numbers = lambda v: type(v) is list and all(map(_number, v))
_size = lambda v: _number(v) or _numbers(v)
# Value types: what a value must be, and its test ("level" and "levels" are
# also checked against the partition's levels).  A type that names a
# section of _SCHEMA and is not listed here takes a mapping.
_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "int>=0": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "int>=1": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "max_level": (f"an integer in 1..{MAX_LEVEL}", lambda v: type(v) is int and 1 <= v <= MAX_LEVEL),
    "level": ("an integer", lambda v: type(v) is int),
    "levels": ("a list of integers", lambda v: type(v) is list and all(type(n) is int for n in v)),
    "number": ("a finite number", _number),
    "number>0": ("a finite number > 0", lambda v: _number(v) and v > 0),
    "number>=0": ("a finite number >= 0", lambda v: _number(v) and v >= 0),
    "numbers": ("a list of finite numbers", _numbers),
    "grids": ("a list of lists of finite numbers", lambda v: type(v) is list and all(map(_numbers, v))),
    "threshold": ("a finite number or a list of finite numbers", _size),
    "jumps": ("a list of [time, size] pairs", lambda v: type(v) is list and all(
        type(j) is list and len(j) == 2 and _number(j[0]) and _size(j[1]) for j in v)),
    "str": ("a string", lambda v: type(v) is str),
    "bool": ("true or false", lambda v: type(v) is bool),
    "density": ("a mapping or a finite number", lambda v: type(v) is dict or _number(v)),
    "realized": ('"estimate" or a density', lambda v: v == "estimate" or _TYPES["density"][1](v)),
}

# The config schema (docs/formats.md, "Config keys").  Each section maps a
# key to (type, default).  The type is a name in _TYPES, a section that
# resolves a mapping value, or a dict of variants (each name a regular
# expression matched in full): the value picks one, whose keys join the
# section.  A tuple of sections takes the first whose leading key is set.
# Default ... marks a required key; None an optional one the library
# defaults (not echoed); any other default is written into the config.
# A key that the table and its picked variants do not list is rejected.
_WALK = {"sigma": ("number>0", ...), "dim": ("int>=1", 1)}
_SCALE = {"scale": ("number", 1.0)}
_GENERATOR = {"kind": ({
    "smooth": {"name": ({"linear": _SCALE, "quadratic": _SCALE, "sine": {
        "amp": ("number", 1.0), "freq": ("number", 1.0)}}, "linear"),
        "offset": ("number", 0.0)},
    "scaled_random_walk": {**_WALK, "x0": ("number", 0.0)},
    "geometric_walk": {**_WALK, "x0": ("number>0", 1.0)},
    "with_jumps": {"base": ("generator", ...), "jumps": ("jumps", ...)},
    "qv_descent": {"total": ("number>0", 1.0), "x0": ("number", 0.0), "drain": ("number", None)},
}, ...)}
_STRIKE = {"strike": ("number", ...)}
_DENSITY = {"kind": ({"bs": {"sigma": ("number", ...)}, "const": {"value": ("number", ...)}}, ...)}
_SCHEMA = {
    "config": {"seed": ("int>=0", 0), "out": ("str", "pathcalc_out"),
               "tolerances": ("tolerances", {}), "partition": ("partition", ...),
               "probe_level": ("level", 6), "path": ("path", ...)},
    "tolerances": {"conv_tol": ("number>=0", 1e-3), "fpde_tol": ("number>=0", 1e-6),
                   "qv_window": ("int>=1", 3)},
    "partition": {"type": ({"dyadic": {"max_level": ("max_level", ...)}, "explicit": {
        "levels": ("grids", ...), "dense": ("bool", True), "nested": ("bool", True)}}, "dyadic"),
        "T": ("number>0", 1.0), "extra_times": ("numbers", None)},
    "path": ({"file": ("str", ...), "jump_threshold": ("threshold", None)}, _GENERATOR),
    "generator": _GENERATOR,
    "functional": {"name": ({
        "identity(_[1-9][0-9]*)?": {"index": ("int>=0", None), "dim": ("int>=1", None)},
        "monomial": {"power": ("int>=0", ...), "coeff": ("number", 1.0)},
        "running_integral": {}, "asian_forward": {},
        "black_scholes": {"sigma": ("number>0", ...), "strike": ("number>0", ...),
                          "kind": ({"call": {}, "put": {}}, "call")},
    }, ...)},
    "integrate": {"residual_levels": ("levels", [])},
    "hedge": {"density": ("density", ...), "realized": ("realized", "estimate"),
              "payoff": ("payoff", {}), "paths": ("int>=1", 1), "smooth_window": ("int", 64)},
    "density": _DENSITY,
    "realized": _DENSITY,
    "payoff": {"kind": ({"terminal": {}, "call": _STRIKE, "put": _STRIKE, "integral": {
        "rule": ({"left": {}, "right": {}}, "left")}}, "terminal")},
}
# The sections that integrate and hedge read besides "config".  Any command's
# config may hold them; a command that does not read one leaves it as it is.
_COMMAND_SECTIONS = {
    "integrate": {"functional": ("functional", {"name": "identity_1"}), "integrate": ("integrate", {})},
    "hedge": {"functional": ("functional", ...), "hedge": ("hedge", ...)},
}
_SECTIONS = {key for sections in _COMMAND_SECTIONS.values() for key in sections}


def resolve(cfg, command):
    """Check the mapping ``cfg`` against the schema in place, before any numerics,
    reject the keys it does not list, and write every constant default into
    it, so that it echoes what ran."""
    _resolve(cfg, {**_SCHEMA["config"], **_COMMAND_SECTIONS.get(command, {})}, "", cfg)
    return cfg


def _resolve(spec, table, prefix, cfg):
    if isinstance(table, tuple):
        table = next((t for t in table if next(iter(t)) in spec), table[-1])
    entries = list(table.items())
    for key, (kind, default) in entries:  # a variant appends its keys
        name = prefix + key
        if default is None and spec.get(key) is None:
            continue
        if key not in spec:
            if default is ...:
                what = "section" if isinstance(kind, str) and kind in _SCHEMA else "key"
                raise ConfigError(f"config needs a {name!r} {what}")
            spec[key] = copy.deepcopy(default)
        value = spec[key]
        if isinstance(kind, dict):
            picked = [v for k, v in kind.items() if type(value) is str and re.fullmatch(k, value)]
            if not picked:
                raise ConfigError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
            entries += picked[0].items()
            continue
        what, test = _TYPES.get(kind, ("a mapping", lambda v: type(v) is dict))
        if not test(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if kind in _SCHEMA and type(value) is dict:
            _resolve(value, _SCHEMA[kind], name + ".", cfg)
        elif kind in ("level", "levels"):
            part = cfg["partition"]
            top = part["max_level"] if part["type"] == "dyadic" else len(part["levels"]) - 1
            for n in value if kind == "levels" else [value]:
                if n < 0 or n > top and kind == "levels":
                    raise ConfigError(f"{name}: level {n} outside 0..{top}")
    known = {key for key, _ in entries} | (_SECTIONS if spec is cfg else set())
    unknown = sorted(spec.keys() - known)
    if unknown:
        raise ConfigError(f"unknown key {prefix + unknown[0]!r}")


def _load_config(args):
    if args.config is None:
        raise ConfigError("--config FILE is required")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if type(cfg) is not dict:
        raise ConfigError(f"config must be a mapping, got {cfg!r}")
    # the flags override the file, and PATHCALC_OUT the default of "out"
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.level is not None and type(cfg.setdefault("partition", {})) is dict:
        cfg["partition"]["max_level"] = args.level
    if args.out is not None:
        cfg["out"] = args.out
    if "out" not in cfg and "PATHCALC_OUT" in os.environ:
        cfg["out"] = os.environ["PATHCALC_OUT"]
    return resolve(cfg, args.command)


def _path_from_config(cfg, seq, seed=None):
    spec = cfg["path"]
    if "file" not in spec:
        return generate(spec, cfg["seed"] if seed is None else seed, seq)
    fname = spec["file"]
    if not os.path.exists(fname):
        raise ConfigError(f"path file not found: {fname}")
    path = read_path_csv(fname, jump_threshold=spec.get("jump_threshold"))
    _require_finest_grid(fname, path, seq)
    return path


def _require_finest_grid(fname, path, seq):
    """A path file must be sampled on the partition's finest level with the
    file's jump times merged in, the top of the refinement every sum runs
    along; the path then takes that grid as its times."""
    times, jumps = path.times, path.times[path.jump_index]
    fine = seq.level(seq.top)
    if not seq.covers(jumps, seq.top):
        fine = merge_times(fine, jumps)
        fine.flags.writeable = False
    k = next((a + int(d[0]) for a, b in blocks(min(times.size, fine.size))
              if (d := np.flatnonzero(times[a:b] != fine[a:b])).size), min(times.size, fine.size))
    if k == times.size == fine.size:
        path.times = fine
        return
    file_time = repr(float(times[k])) if k < times.size else "none"
    level_time = repr(float(fine[k])) if k < fine.size else "none"
    raise ConfigError(
        f"path file {fname} has {times.size} grid points, but partition level "
        f"{seq.top} has {fine.size}; they first differ at index {k} "
        f"(file time {file_time}, partition time {level_time})"
    )


def _payoff_from_config(desc, F):
    kind = desc["kind"]
    if kind == "integral":
        return integral_payoff(desc["rule"])
    if kind == "terminal":
        return lambda path: F.value(stop(path, path.T))
    return (call_payoff if kind == "call" else put_payoff)(float(desc["strike"]))


def _conv_config(cfg):
    tol = cfg["tolerances"]
    return ConvergenceConfig(tol=float(tol["conv_tol"]), window=tol["qv_window"])


def _cells(column):
    """The CSV text of a column: a 1-d float64 or int64 array as the ``repr``
    of its ``tolist()``; else a cell that is an int, numpy integer, str or bool
    as ``str``, any other as ``repr(float(c))`` (so a np.bool_ writes 1.0)."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype in (np.float64, np.int64):
        return map(repr, column.tolist())
    return [str(c) if isinstance(c, (int, np.integer, str, bool)) else repr(float(c))
            for c in column]


def _write_csv(path, header, blocks):
    """A CSV table from blocks of equal-length columns of one or more rows,
    written block by block, each as one string."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            fh.write("\n".join(map(",".join, zip(*map(_cells, columns)))) + "\n")


def _quantile(s, q):
    """``np.median(s)`` (q = 0.5) or ``np.quantile(s, q)`` of the sorted finite ``s``
    by their arithmetic, without their import of numpy.ma: the mean of the middle
    values, or the linear rule, which at and past the last value goes from it to itself."""
    if q == 0.5:
        return float(np.mean(s[(s.size - 1) // 2:s.size // 2 + 1]))
    v = (s.size - 1) * q
    k = int(v) if v < s.size - 1 else -1
    a, b = float(s[k]), float(s[k + 1] if k >= 0 else s[k])
    g, diff = v - k, b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _level_rows(probe_times, per_level):
    """(level, probe_time, *index, value) columns of ``{level: array}`` tables
    whose first axis runs over the probe times, one block per level: levels
    ascending, then probes, then the trailing indices in C order."""
    for n in sorted(per_level):
        values = per_level[n]
        k = values[0].size  # cells per probe
        index = [np.tile(i, len(probe_times)) for i in zip(*np.ndindex(values.shape[1:]))]
        yield (np.full(k * len(probe_times), n), np.repeat(probe_times, k), *index,
               values.reshape(-1))


def _report_json(report):
    """Every field of a library report except its dict-valued per-level
    tables, which the CSV files hold; arrays and numpy scalars become lists
    and Python scalars."""
    out = {}
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        if isinstance(v, dict):
            continue
        out[f.name] = v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v
    return out


def _outdir(cfg):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_qv(cfg, seq):
    path = _path_from_config(cfg, seq)
    conv = _conv_config(cfg)
    probes = default_probe_times(seq, path, cfg["probe_level"])
    if path.dim == 1:
        report = qv_along(path, seq, probes, conv)
        header = ["level", "probe_time", "value"]
    else:
        report = qv_matrix(path, seq, probes, conv)
        header = ["level", "probe_time", "i", "j", "value"]
    out = _outdir(cfg)
    _write_csv(out / "qv_levels.csv", header,
               _level_rows(report.probe_times, report.approx))
    _write_json(out / "qv_report.json", {"config": cfg, "report": _report_json(report)})
    return 0 if report.converged else 1


def cmd_integrate(cfg, seq):
    path = _path_from_config(cfg, seq)
    conv = _conv_config(cfg)
    F = functional_from_descriptor(cfg["functional"])
    probes = default_probe_times(seq, path, cfg["probe_level"])
    report = follmer_integral_functional(F, path, seq, probes=probes, config=conv)
    out = _outdir(cfg)
    _write_csv(out / "integral_levels.csv", ["level", "probe_time", "value"],
               _level_rows(report.probe_times, report.sums))
    sweep = cfg["integrate"]["residual_levels"]
    caveat = not report.converged
    if sweep:
        rep = ito_residual_functional(F, path, seq, levels=sweep, config=conv,
                                      _rows=lambda seq, n, li: report.integrands[n])
        rows = [(n, rep.residual_by_level[n], rep.qv_metric, rep.qv_converged)
                for n in sweep]
        _write_csv(out / "ito_residuals.csv",
                   ["level", "residual", "qv_metric", "qv_converged"], [zip(*rows)])
        caveat = caveat or not rep.qv_converged
    _write_json(out / "integral_report.json",
                {"config": cfg, "report": _report_json(report)})
    return 1 if caveat else 0


def cmd_hedge(cfg, seq):
    conv = _conv_config(cfg)
    hcfg = cfg["hedge"]
    F = functional_from_descriptor(cfg["functional"])
    payoff = _payoff_from_config(hcfg["payoff"], F)
    density = density_from_descriptor(hcfg["density"])
    realized = hcfg["realized"]
    if realized != "estimate":
        realized = density_from_descriptor(realized)
    rows = []
    curves = []
    report = None
    for pid, child in enumerate(np.random.SeedSequence(cfg["seed"]).spawn(hcfg["paths"])):
        if report is None or "file" not in cfg["path"]:  # a path file is read and hedged once
            path = _path_from_config(cfg, seq, seed=child)
            report = hedge(
                F, payoff, density, path, seq, realized_density=realized, config=conv,
                fpde_tol=float(cfg["tolerances"]["fpde_tol"]), smooth_window=hcfg["smooth_window"],
            )
        rel = report.residual / abs(report.predicted_error) if report.predicted_error else float("inf")
        rows.append((pid, report.realized_pnl, report.predicted_error, report.residual,
                     rel, report.track_error, report.fpde_flag, report.qv_converged))
        curves.append((np.full(report.probe_times.size, pid), report.probe_times,
                       report.value_curve, report.functional_curve))
    out = _outdir(cfg)
    _write_csv(out / "hedge_paths.csv",
               ["path_id", "realized", "predicted", "residual", "rel_residual",
                "track_error", "fpde_flag", "qv_converged"], [zip(*rows)])
    _write_csv(out / "hedge_curves.csv", ["path_id", "t", "value", "functional"], curves)
    *_, rel, track_errors, fpde_flags, qv_converged = zip(*rows)
    reasons = {"fpde": sum(map(bool, fpde_flags)),
               "qv_not_converged": sum(not q for q in qv_converged)}
    rel = np.array(rel)
    finite = np.sort(rel[np.isfinite(rel)])  # replication runs have predicted == 0
    summary = {
        "paths": hcfg["paths"],
        "median_rel_residual": _quantile(finite, 0.5) if finite.size else None,
        "p95_rel_residual": _quantile(finite, 0.95) if finite.size else None,
        "max_track_error": float(np.max(track_errors)),
        "caveat": any(reasons.values()),
        "caveat_reasons": reasons,
    }
    _write_json(out / "hedge_summary.json", {"config": cfg, "summary": summary})
    return 1 if summary["caveat"] else 0


def cmd_plausibility(cfg, seq):
    path = _path_from_config(cfg, seq)
    report = plausibility_diagnostic(path, seq)
    out = _outdir(cfg)
    columns = (report.levels, report.identity_gaps, report.k_values,
               report.k_partial_sums, report.negative_series_partial_max)
    _write_csv(out / "plausibility.csv", ["level", "identity_gap", "k_n", "k_partial_sum",
                                          "neg_series_partial_max"], [columns])
    _write_json(out / "plausibility.json", {"config": cfg, "report": _report_json(report)})
    return 0


_COMMANDS = {
    "qv": cmd_qv,
    "integrate": cmd_integrate,
    "hedge": cmd_hedge,
    "plausibility": cmd_plausibility,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathcalc",
        description="Pathwise calculus and hedging experiments on sampled paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--level", type=int, default=None,
                       help="override partition max_level")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _keep_heap_top():
    """Have glibc keep 64 MiB free at the heap top (M_TOP_PAD) for the next hedge path, and
    serve requests under two blocks of floats from the heap (M_MMAP_THRESHOLD): the pad pins
    the threshold at 128 KiB, which maps each one-block temporary afresh (README, "CLI")."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no glibc; Windows has no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-2, 64 << 20)  # M_TOP_PAD
    mallopt(-3, 2 * BLOCK * 8)  # M_MMAP_THRESHOLD


def main(argv=None):
    _keep_heap_top()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        seq = PartitionSequence.from_descriptor(cfg["partition"])
        return _COMMANDS[args.command](cfg, seq)
    except ConfigError as exc:
        print(f"pathcalc: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"pathcalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
