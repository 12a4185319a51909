"""pathcalc CLI benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's CLI commands, one fresh interpreter per command and one
at a time, for ``--seconds`` seconds, checks every output against the
digests in ``reference.json``, and prints each metric with its unit and
sample count.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads, metrics and the known failing command are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 165  # each workload's run, children included, ends before this
# Median time of a child's ``import numpy`` on the machine the baseline was
# taken on.  A run's times are scaled by CAL_REF_S / (its median numpy import
# time), so they read as seconds at that machine's speed (README, "Noise").
CAL_REF_S = 0.105


class Run:
    """Children and output checks of one benchmark invocation."""

    def __init__(self, work, reference, deadline=None):
        self.work = work
        self.reference = reference
        self.deadline = deadline  # perf_counter() value by which children must end
        self.n_children = 0

    def child(self, argv, spans_file=None):
        """Run ``child.py``; returns its report plus ``stderr``, or ``None``
        in ``exit`` and the reason in ``error`` when it did not report."""
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
               str(spans_file) if spans_file else "-", *argv]
        timeout = None if self.deadline is None else max(self.deadline - perf_counter(), 1)
        # Children may write bytecode, as an installed package has it, so
        # set-up time does not depend on the caller's environment.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, cwd=self.work, env=env)
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": "timed out", "stderr": "", "timeout": True}
        lines = proc.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return {"exit": None, "error": tail[0], "stderr": proc.stderr}
        report["stderr"] = proc.stderr
        return report

    def command(self, cmd, config, spans_file=None):
        """Run one CLI command into a fresh output directory; returns the
        child's report and that directory."""
        self.n_children += 1
        out = self.work / f"out{self.n_children}-{cmd.label}"
        report = self.child([cmd.subcommand, "--config", str(config), "--out", str(out)],
                            spans_file)
        return report, out

    def expected(self, workload, cmd, seed):
        key = f"{workload}/{cmd.label}"
        return (self.reference["fields"][key],
                self.reference["digests"][key][seed % inputs.INPUT_SETS])


def failure_of(report):
    """Why a command failed, or None.  Exit 1 is a numeric caveat, not a
    failure; exit 2 is a usage, config or input error."""
    if report["exit"] in (0, 1):
        return None
    if report["exit"] is None:
        return report["error"].strip().splitlines()[-1]
    tail = report["stderr"].strip().splitlines()[-1:] or [""]
    return f"exit {report['exit']}: {tail[0]}"


def check(cmd, out, expected, generator):
    """Mismatches of a command's outputs against the recorded digests and,
    for a file-route command, against its generator route in this run."""
    fields, recorded = expected
    got = checks.digests(out, fields)
    bad = checks.mismatches(got, recorded, "the recorded reference")
    if cmd.label in generator:
        bad += checks.mismatches(got, generator[cmd.label], "the generator route")
    return bad


def measure(run, workload, seed, seconds, trace):
    """Passes over the workload's commands until ``seconds`` have elapsed.

    With ``trace``, passes alternate between untraced and traced; the
    end-to-end figures come from untraced passes only.  Returns the passes,
    a count per failure text, the commands attempted and the commands whose
    outputs mismatched.
    """
    cmds = inputs.make_inputs(workload, seed, run.work / "inputs" / workload)
    expected = {c.label: run.expected(workload, c, seed) for c in cmds}
    generator = {}
    for c in cmds:
        if c.reference is not None:
            _, out = run.command(c, c.reference)
            generator[c.label] = checks.digests(out, expected[c.label][0])
            shutil.rmtree(out, ignore_errors=True)

    passes, failures = [], collections.Counter()
    attempted = mismatched = 0
    begin = perf_counter()
    timed_out = False
    while not timed_out:
        traced = trace and len(passes) % 2 == 1
        p = {"traced": traced, "complete": True, "wall": 0.0, "rss": 0, "setup": [],
             "cal": [], "written": 0, "layer": []}
        for c in cmds:
            spans_file = run.work / f"spans{run.n_children + 1}.npz" if traced else None
            report, out = run.command(c, c.config, spans_file)
            attempted += 1
            why = failure_of(report)
            if why is None:
                bad = check(c, out, expected[c.label], generator)
                mismatched += bool(bad)
                why = "; ".join(bad) or None
            if why is not None:
                failures[f"{c.label}: {why}"] += 1
            if "setup_s" in report:
                p["wall"] += report["main_s"]
                p["rss"] = max(p["rss"], report["rss_kib"])
                p["setup"].append(report["setup_s"])
                p["cal"].append(report["cal_s"])
            else:
                p["complete"] = False
            if out.is_dir():
                p["written"] += sum(f.stat().st_size for f in out.iterdir())
                shutil.rmtree(out, ignore_errors=True)
            if traced and spans_file.is_file():
                p["layer"].append(spans.summarize(spans_file))
                spans_file.unlink()
            timed_out = "timeout" in report
            if timed_out:
                break
        passes.append(p)
        done = perf_counter() - begin >= seconds
        if done and (not trace or any(q["traced"] for q in passes)):
            break
    return passes, failures, attempted, mismatched


def timed(passes, traced):
    """Passes of one kind in which every child reported its timings."""
    out = [p for p in passes if p["traced"] == traced and p["complete"]]
    if not out:
        sys.exit("perfbench: no complete " + ("traced " * traced) + "pass to time")
    return out


def end_to_end(passes):
    plain = timed(passes, False)
    setups = [s for p in plain for s in p["setup"]]
    return {
        "wall_s": (statistics.median(p["wall"] for p in plain), len(plain)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(p["rss"] for p in plain) / 1024, len(plain)),
    }


def per_layer(passes):
    traced = timed(passes, True)
    samples = []
    for p in traced:
        total = {}
        for summary in p["layer"]:
            for k, v in summary.items():
                total[k] = total.get(k, 0.0) + v
        for key in [k for k in total if k.endswith(".unique")]:
            name, unique = key.removesuffix(".unique"), total.pop(key)
            calls = total[f"{name}.calls"]
            total[f"{name}.unique_frac"] = unique / calls if calls else 1.0
        total["cli.bytes_written"] = p["written"]
        samples.append(total)
    out = {k: (statistics.median(s[k] for s in samples), len(samples)) for k in samples[0]}
    plain = statistics.median(p["wall"] for p in timed(passes, False))
    with_spans = statistics.median(p["wall"] for p in traced)
    out["trace.overhead_frac"] = (with_spans / plain - 1.0, len(traced))
    return out


def provenance():
    git = ROOT / ".git"
    sha = None
    if git.exists():
        with contextlib.suppress(OSError):  # no git program
            proc = subprocess.run(["git", "--git-dir", str(git), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_lines": sum(len(f.read_bytes().splitlines()) for f in SRC.rglob("*.py")),
    }


def run_workload(run, workload, seed, seconds, trace, units):
    run.deadline = perf_counter() + DEADLINE_S
    passes, failures, attempted, mismatched = measure(run, workload, seed, seconds, trace)
    metrics = per_layer(passes) if trace else end_to_end(passes)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(units))}")
    cals = [c for p in passes if p["complete"] for c in p["cal"]]
    speed = CAL_REF_S / statistics.median(cals)
    scaled = {k: (v * speed if units[k] == "s" else v, n) for k, (v, n) in metrics.items()}
    failed = sum(failures.values())
    print(f"workload {workload}: seed {seed} (input set {seed % inputs.INPUT_SETS}), "
          f"{len(passes)} passes, {attempted} commands")
    print(f"  calibration median {statistics.median(cals):.4g} s, n={len(cals)}: "
          f"times in s are measured times x {speed:.4g}")
    for name, (value, n) in scaled.items():
        measured = f"  (measured {metrics[name][0]:.6g})" if units[name] == "s" else ""
        print(f"  {name:<44} {value:>14.6g} {units[name]:<6} n={n}{measured}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} commands")
    for why, n in failures.items():
        print(f"  failure x{n}: {why}")
    return {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in scaled.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an exception: subprocess.run kills and waits
    # for the running child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "pathcalc" / "cli.py").is_file():
        sys.exit(f"perfbench: no pathcalc sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(work, reference, perf_counter() + DEADLINE_S)
        warm = run.child([])  # writes bytecode and warms the file cache
        if "setup_s" not in warm:
            sys.exit(f"perfbench: cannot import pathcalc: {warm['error']}")
        names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(run, w, args.seed, seconds, args.trace, units)
                   for w in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
