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
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .convergence import ConvergenceConfig
from .functionals import density_from_descriptor, functional_from_descriptor
from .integration import follmer_integral_functional, ito_residual_functional
from .partitions import PartitionSequence, refine_onto
from .paths import generate, read_path_csv, stop
from .quadvar import default_probe_times, qv_along, qv_matrix
from .trading import (
    call_payoff,
    hedge,
    integral_payoff,
    plausibility_diagnostic,
    put_payoff,
)

_DEFAULT_TOLERANCES = {
    "conv_tol": 1e-3,
    "fpde_tol": 1e-6,
    "qv_window": 3,
}


class ConfigError(Exception):
    pass


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
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.level is not None:
        cfg.setdefault("partition", {})["max_level"] = args.level
    if args.out is not None:
        cfg["out"] = args.out
    _integer(cfg.setdefault("seed", 0), "seed", 0)
    _integer(cfg.setdefault("probe_level", 6), "probe_level")
    tol = dict(_DEFAULT_TOLERANCES)
    tol.update(cfg.get("tolerances", {}))
    cfg["tolerances"] = tol
    if "out" not in cfg:
        cfg["out"] = os.environ.get("PATHCALC_OUT", "pathcalc_out")
    return cfg


def _integer(value, key, least=None):
    """``value`` if it is an int (not a bool), of at least ``least`` if given."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        least is not None and value < least
    ):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _number(value, key):
    """``value`` as a float if it is an int or a float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(desc, keys, prefix):
    """Check that each of ``keys`` that ``desc`` sets is a number."""
    for key in keys:
        if key in desc:
            _number(desc[key], f"{prefix}.{key}")


def _path_from_config(cfg, seq, seed=None):
    spec = cfg.get("path")
    if spec is None:
        raise ConfigError("config needs a 'path' section")
    if "file" in spec:
        fname = spec["file"]
        if not os.path.exists(fname):
            raise ConfigError(f"path file not found: {fname}")
        path = read_path_csv(fname, jump_threshold=spec.get("jump_threshold"))
        _require_finest_grid(fname, path, seq)
        return path
    _integer(spec.get("dim", 1), "path.dim", 1)
    _numbers(spec, ("sigma", "x0"), "path")
    return generate(spec, cfg["seed"] if seed is None else seed, seq)


def _require_finest_grid(fname, path, seq):
    """A path file must be sampled on the partition's finest level (refined
    onto the file's jump times), the grid every command sums along."""
    fine = refine_onto(seq, path.jump_times)[0].level(seq.top)
    if np.array_equal(path.times, fine):
        return
    n = min(path.times.size, fine.size)
    differ = np.flatnonzero(path.times[:n] != fine[:n])
    k = int(differ[0]) if differ.size else n

    def at(ts):
        return repr(float(ts[k])) if k < ts.size else "none"

    raise ConfigError(
        f"path file {fname} has {path.times.size} grid points, but partition level "
        f"{seq.top} has {fine.size}; they first differ at index {k} "
        f"(file time {at(path.times)}, partition time {at(fine)})"
    )


def _payoff_from_config(desc, F):
    kind = desc.get("kind", "terminal")
    if kind == "call":
        return call_payoff(_number(desc["strike"], "hedge.payoff.strike"))
    if kind == "put":
        return put_payoff(_number(desc["strike"], "hedge.payoff.strike"))
    if kind == "integral":
        return integral_payoff(desc.get("rule", "left"))
    if kind == "terminal":
        return lambda path: F.value(stop(path, path.T))
    raise ConfigError(f"unknown payoff kind {kind!r}")


def _functional_from_config(desc):
    _numbers(desc, ("sigma", "strike", "K", "power", "coeff"), "functional")
    return functional_from_descriptor(desc)


def _density_from_config(desc, key, expected="a mapping or a number"):
    """A density: a number (constant) or a descriptor mapping."""
    if isinstance(desc, dict):
        _numbers(desc, ("sigma", "value"), key)
    elif isinstance(desc, bool) or not isinstance(desc, (int, float)):
        raise ConfigError(f"{key} must be {expected}, got {desc!r}")
    return density_from_descriptor(desc)


def _conv_config(cfg):
    tol = cfg["tolerances"]
    return ConvergenceConfig(
        tol=_number(tol["conv_tol"], "tolerances.conv_tol"),
        window=_integer(tol["qv_window"], "tolerances.qv_window", 1),
    )


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                str(c) if isinstance(c, (int, np.integer, str, bool)) else _fmt(c)
                for c in row
            ]
            fh.write(",".join(cells) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _level_rows(probe_times, per_level):
    """(level, probe_time, *index, value) rows of ``{level: array}`` tables
    whose first axis runs over the probe times: levels ascending, then
    probes, then the trailing indices in C order."""
    for n in sorted(per_level):
        values = per_level[n]
        cells = list(np.ndindex(values.shape[1:]))
        for k, t in enumerate(probe_times):
            for idx in cells:
                yield (n, t, *idx, values[(k, *idx)])


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
    F = _functional_from_config(cfg.get("functional", {"name": "identity_1"}))
    probes = default_probe_times(seq, path, cfg["probe_level"])
    report = follmer_integral_functional(F, path, seq, probes=probes, config=conv)
    out = _outdir(cfg)
    _write_csv(out / "integral_levels.csv", ["level", "probe_time", "value"],
               _level_rows(report.probe_times, report.sums))
    sweep = [int(n) for n in cfg.get("integrate", {}).get("residual_levels", [])]
    caveat = not report.converged
    if sweep:
        rep = ito_residual_functional(F, path, seq, levels=sweep, config=conv)
        rows = [(n, rep.residual_by_level[n], rep.qv_metric, rep.qv_converged)
                for n in sweep]
        _write_csv(out / "ito_residuals.csv",
                   ["level", "residual", "qv_metric", "qv_converged"], rows)
        caveat = caveat or not rep.qv_converged
    _write_json(out / "integral_report.json",
                {"config": cfg, "report": _report_json(report)})
    return 1 if caveat else 0


def cmd_hedge(cfg, seq):
    conv = _conv_config(cfg)
    hcfg = cfg.get("hedge")
    if hcfg is None:
        raise ConfigError("config needs a 'hedge' section")
    F = _functional_from_config(cfg["functional"])
    payoff = _payoff_from_config(hcfg.get("payoff", {"kind": "terminal"}), F)
    density = _density_from_config(hcfg["density"], "hedge.density")
    realized = hcfg.get("realized", "estimate")
    if realized != "estimate":
        realized = _density_from_config(realized, "hedge.realized", '"estimate" or a density')
    n_paths = _integer(hcfg.get("paths", 1), "hedge.paths", 1)
    fpde_tol = _number(cfg["tolerances"]["fpde_tol"], "tolerances.fpde_tol")
    window = _integer(hcfg.get("smooth_window", 64), "hedge.smooth_window")
    children = np.random.SeedSequence(cfg["seed"]).spawn(n_paths)
    rows = []
    curve_rows = []
    reasons = {"fpde": 0, "qv_not_converged": 0}
    rel_residuals = []
    track_errors = []
    for pid, child in enumerate(children):
        path = _path_from_config(cfg, seq, seed=child)
        report = hedge(
            F, payoff, density, path, seq, realized_density=realized,
            config=conv, fpde_tol=fpde_tol, smooth_window=window,
        )
        rel = report.residual / abs(report.predicted_error) if report.predicted_error else float("inf")
        rel_residuals.append(rel)
        track_errors.append(report.track_error)
        reasons["fpde"] += bool(report.fpde_flag)
        reasons["qv_not_converged"] += not report.qv_converged
        rows.append(
            (pid, report.realized_pnl, report.predicted_error, report.residual,
             rel, report.track_error, report.fpde_flag, report.qv_converged)
        )
        for k, t in enumerate(report.probe_times):
            curve_rows.append(
                (pid, t, report.value_curve[k], report.functional_curve[k])
            )
    out = _outdir(cfg)
    _write_csv(
        out / "hedge_paths.csv",
        ["path_id", "realized", "predicted", "residual", "rel_residual",
         "track_error", "fpde_flag", "qv_converged"],
        rows,
    )
    _write_csv(
        out / "hedge_curves.csv",
        ["path_id", "t", "value", "functional"],
        curve_rows,
    )
    rel = np.array(rel_residuals)
    finite = rel[np.isfinite(rel)]  # replication runs have predicted == 0
    summary = {
        "paths": n_paths,
        "median_rel_residual": float(np.median(finite)) if finite.size else None,
        "p95_rel_residual": float(np.quantile(finite, 0.95)) if finite.size else None,
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
    rows = [
        (n, report.identity_gaps[k], report.k_values[k],
         report.k_partial_sums[k], report.negative_series_partial_max[k])
        for k, n in enumerate(report.levels)
    ]
    _write_csv(
        out / "plausibility.csv",
        ["level", "identity_gap", "k_n", "k_partial_sum", "neg_series_partial_max"],
        rows,
    )
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        part = cfg.get("partition")
        if part is None:
            raise ConfigError("config needs a 'partition' section")
        if "max_level" in part:
            _integer(part["max_level"], "partition.max_level", 1)
        seq = PartitionSequence.from_descriptor({"type": "dyadic", "T": 1.0, **part})
        return _COMMANDS[args.command](cfg, seq)
    except ConfigError as exc:
        print(f"pathcalc: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"pathcalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
