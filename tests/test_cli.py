import contextlib
import functools
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathcalc import cli
from pathcalc.cli import main


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_bytes(*parts):
    return Path(*parts).read_bytes()


def test_qv_smooth_converged_exit_zero(tmp_path):
    cfg = write_config(tmp_path, "qv.json", {
        "seed": 0,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 12},
        "path": {"kind": "smooth", "name": "linear"},
        "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) == 0
    table = (tmp_path / "out" / "qv_levels.csv").read_text().splitlines()
    assert table[0] == "level,probe_time,value"
    report = json.loads((tmp_path / "out" / "qv_report.json").read_text())
    assert report["report"]["converged"] is True
    assert report["report"]["limit"][-1] <= 2.0**-12
    assert report["config"]["tolerances"]["conv_tol"] == 1e-3


def test_qv_walk_caveat_exit_one(tmp_path):
    cfg = write_config(tmp_path, "qv.json", {
        "seed": 7,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 10},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) == 1


def test_qv_determinism_byte_identical(tmp_path):
    base = {
        "seed": 3,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 9},
        "path": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
    }
    c1 = write_config(tmp_path, "a.json", {**base, "out": str(tmp_path / "o1")})
    c2 = write_config(tmp_path, "b.json", {**base, "out": str(tmp_path / "o2")})
    main(["qv", "--config", c1])
    main(["qv", "--config", c2])
    assert read_bytes(tmp_path, "o1", "qv_levels.csv") == read_bytes(
        tmp_path, "o2", "qv_levels.csv"
    )


def test_integrate_residual_sweep(tmp_path):
    cfg = write_config(tmp_path, "i.json", {
        "seed": 5,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 12},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "functional": {"name": "monomial", "power": 2},
        "integrate": {"residual_levels": [8, 10, 12]},
        "out": str(tmp_path / "out"),
    })
    code = main(["integrate", "--config", cfg])
    assert code in (0, 1)
    lines = (tmp_path / "out" / "ito_residuals.csv").read_text().splitlines()
    assert lines[0] == "level,residual,qv_metric,qv_converged"
    assert len(lines) == 4
    residuals = [float(row.split(",")[1]) for row in lines[1:]]
    # net decrease with level; single-step wiggles are expected
    assert residuals[-1] < residuals[0]
    assert residuals[-1] == min(residuals)
    gains = (tmp_path / "out" / "integral_levels.csv").read_text().splitlines()
    assert gains[0] == "level,probe_time,value"


def test_integrate_identity_gain_csv(tmp_path):
    cfg = write_config(tmp_path, "i.json", {
        "seed": 5,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 8},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "functional": {"name": "identity_1"},
        "out": str(tmp_path / "out"),
    })
    main(["integrate", "--config", cfg])
    import numpy as np

    from pathcalc import dyadic, generate

    seq = dyadic(1.0, 8)
    path = generate({"kind": "scaled_random_walk", "sigma": 1.0}, 5, seq)
    rows = (tmp_path / "out" / "integral_levels.csv").read_text().splitlines()[1:]
    for row in rows:
        level, t, value = row.split(",")
        expect = float(path.value(float(t))[0] - path.values[0, 0])
        assert abs(float(value) - expect) < 1e-12


def test_hedge_batch_summary(tmp_path):
    cfg = write_config(tmp_path, "h.json", {
        "seed": 42,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 10},
        "path": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {
            "density": {"kind": "bs", "sigma": 0.2},
            "realized": {"kind": "bs", "sigma": 0.3},
            "payoff": {"kind": "call", "strike": 1.0},
            "paths": 4,
        },
        "out": str(tmp_path / "out"),
    })
    code = main(["hedge", "--config", cfg])
    assert code in (0, 1)
    rows = (tmp_path / "out" / "hedge_paths.csv").read_text().splitlines()
    assert rows[0] == ("path_id,realized,predicted,residual,rel_residual,"
                       "track_error,fpde_flag,qv_converged")
    assert len(rows) == 5
    summary = json.loads((tmp_path / "out" / "hedge_summary.json").read_text())
    assert summary["summary"]["paths"] == 4
    assert summary["summary"]["median_rel_residual"] < 0.02
    curves = (tmp_path / "out" / "hedge_curves.csv").read_text().splitlines()
    assert curves[0] == "path_id,t,value,functional"
    assert len(curves) > 4 * 50  # probe grid per path
    flags = [row.split(",")[-2:] for row in rows[1:]]
    reasons = summary["summary"]["caveat_reasons"]
    assert reasons == {
        "fpde": sum(f == "True" for f, _ in flags),
        "qv_not_converged": sum(q == "False" for _, q in flags),
    }
    assert summary["summary"]["caveat"] is (sum(reasons.values()) > 0)
    assert code == (1 if summary["summary"]["caveat"] else 0)


# one concrete functional per name pattern of the config schema
CLI_FUNCTIONALS = {
    "identity(_[1-9][0-9]*)?": {"name": "identity_1"},
    "monomial": {"name": "monomial", "power": 3},
    "running_integral": {"name": "running_integral"},
    "asian_forward": {"name": "asian_forward"},
    "black_scholes": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
}


def test_cli_runs_of_builtins_build_no_stepwise_approximation(tmp_path, monkeypatch):
    # every built-in answers its gradient, Hessian and drift on arrays, so no
    # command rebuilds the path per level to read them off stopped paths
    import pathcalc.integration

    def refuse(*args):
        raise AssertionError("stepwise_approximation called")

    monkeypatch.setattr(pathcalc.integration, "stepwise_approximation", refuse)
    assert set(CLI_FUNCTIONALS) == set(cli._SCHEMA["functional"]["name"][0])
    walk = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
    for key, functional in CLI_FUNCTIONALS.items():
        base = {"seed": 3, "partition": {"type": "dyadic", "max_level": 8},
                "functional": functional, "out": str(tmp_path / key[:8])}
        cfg = write_config(tmp_path, "i.json", {
            **base, "integrate": {"residual_levels": [4, 6, 8]},
            "path": {"kind": "with_jumps", "base": walk, "jumps": [[0.25, 0.1], [0.5, -0.1]]}})
        assert main(["integrate", "--config", cfg]) in (0, 1), key
        cfg = write_config(tmp_path, "h.json", {
            **base, "path": walk, "hedge": {"density": {"kind": "bs", "sigma": 0.3}, "paths": 2}})
        assert main(["hedge", "--config", cfg]) in (0, 1), key


def test_each_command_asks_the_hook_once_per_whole_grid_quantity(tmp_path, monkeypatch):
    """The Black–Scholes hook's requests per CLI run on a level-8 walk (257
    grid times, 256 cells): ``integrate`` with a sweep asks once for the
    gradient, whose rows make both the Föllmer report and the Itô sweep's
    Riemann sums, and once for the drift and Hessian; ``hedge`` asks once per
    path at every grid time (beside its pricing-equation probes); ``qv`` never."""
    requests = []
    make = cli.functional_from_descriptor

    def counted(desc):
        F = make(desc)
        hook = F.pointwise
        F.pointwise = lambda path, t, s, want: requests.append((want, t.size)) or hook(
            path, t, s, want)
        return F

    monkeypatch.setattr(cli, "functional_from_descriptor", counted)
    cfg = write_config(tmp_path, "c.json", {
        "seed": 3, "partition": {"type": "dyadic", "max_level": 8},
        "path": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "integrate": {"residual_levels": [2, 4, 6, 8]},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}, "paths": 3},
        "out": str(tmp_path / "out")})
    assert main(["integrate", "--config", cfg]) in (0, 1)
    assert requests == [(("grad",), 257), (("horiz", "hess"), 256)]
    requests.clear()
    assert main(["hedge", "--config", cfg]) in (0, 1)
    assert [r for r in requests if r[1] >= 256] == [(("value", "grad", "hess"), 257)] * 3
    requests.clear()
    assert main(["qv", "--config", cfg]) in (0, 1)
    assert requests == []


def test_hedge_deterministic(tmp_path):
    base = {
        "seed": 9,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 9},
        "path": {"kind": "geometric_walk", "sigma": 0.25, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2},
                  "payoff": {"kind": "call", "strike": 1.0}, "paths": 3},
    }
    cfg = write_config(tmp_path, "a.json", {**base, "out": str(tmp_path / "o1")})
    main(["hedge", "--config", cfg])
    first_csv = read_bytes(tmp_path, "o1", "hedge_paths.csv")
    first_json = read_bytes(tmp_path, "o1", "hedge_summary.json")
    main(["hedge", "--config", cfg])
    assert read_bytes(tmp_path, "o1", "hedge_paths.csv") == first_csv
    assert read_bytes(tmp_path, "o1", "hedge_summary.json") == first_json


# Runs cli.main in a fresh interpreter, with the heap setting ("keep") or with
# the helper replaced by a no-op ("skip"); prints the exit code and the minor
# page faults main took.
_HEAP_CHILD = """
import json, resource, sys
from pathcalc import cli
if sys.argv[1] == "skip":
    cli._keep_heap_top = lambda: None
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[2:])
print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before]))
"""


def _hedge_child(tmp_path, heap, level, paths):
    """(exit code, minor faults, {file name: bytes}) of one CLI hedge launch,
    run in its own directory so that both launches echo the same ``out``."""
    work = tmp_path / heap
    work.mkdir()
    cfg = write_config(work, "hedge.json", {
        "seed": 4,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": level},
        "path": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}, "realized": {"kind": "bs", "sigma": 0.3},
                  "payoff": {"kind": "call", "strike": 1.0}, "paths": paths},
        "out": "out",
    })
    src = str(Path(cli.__file__).parents[1])
    # an allocator setting in the environment would act on both launches
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HEAP_CHILD, heap, "hedge", "--config", cfg],
                          capture_output=True, text=True, env=env, cwd=work, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, faults = json.loads(proc.stdout.splitlines()[-1])
    return code, faults, {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}


def test_heap_setting_changes_no_output(tmp_path):
    code, _, files = _hedge_child(tmp_path, "keep", 8, 3)
    skipped_code, _, skipped_files = _hedge_child(tmp_path, "skip", 8, 3)
    assert code in (0, 1)
    assert (skipped_code, skipped_files) == (code, files)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="M_TOP_PAD is glibc's")
def test_heap_setting_stops_the_hedge_loop_refaulting(tmp_path):
    # each level-14 path frees grid-sized arrays of 131,080 bytes, just above
    # glibc's 128 KiB trim scale; without the setting glibc trims the heap top
    # and the next path faults those pages in again.  64 paths took about 700
    # minor faults with the setting and 31,000 without (glibc 2.36).
    _, kept, files = _hedge_child(tmp_path, "keep", 14, 64)
    _, skipped, skipped_files = _hedge_child(tmp_path, "skip", 14, 64)
    assert files == skipped_files
    assert kept <= 1000, (kept, skipped)
    assert 4 * kept <= skipped, (kept, skipped)


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [lambda name: types.SimpleNamespace(), _no_libc],
                         ids=["no_mallopt", "no_libc"])
def test_heap_setting_without_mallopt_is_skipped(monkeypatch, libc):
    # neither setting is made: there is no mallopt to make them with
    monkeypatch.setattr(cli.ctypes, "CDLL", libc)
    assert cli._keep_heap_top() is None


def test_heap_setting_sets_the_pad_and_a_threshold_of_two_blocks(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli._keep_heap_top() is None
    # M_TOP_PAD, then M_MMAP_THRESHOLD at 1 MiB: above the one-block (512 KiB)
    # temporaries of a pass, below the 2 MiB grid arrays of level 18
    assert calls == [(-2, 64 << 20), (-3, 2 * cli.BLOCK * 8)]
    assert calls[1][1] == 1 << 20


# -- the column writer, held to the row writer it replaced ---------------------

def _write_csv_by_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                str(c) if isinstance(c, (int, np.integer, str, bool)) else repr(float(c))
                for c in row
            ]
            fh.write(",".join(cells) + "\n")


def _level_rows_by_rows(probe_times, per_level):
    for n in sorted(per_level):
        values = per_level[n]
        cells = list(np.ndindex(values.shape[1:]))
        for k, t in enumerate(probe_times):
            for idx in cells:
                yield (n, t, *idx, values[(k, *idx)])


def _same_bytes(tmp_path, header, blocks, rows):
    cli._write_csv(tmp_path / "columns.csv", header, blocks)
    _write_csv_by_rows(tmp_path / "rows.csv", header, rows)
    columns, rows = read_bytes(tmp_path, "columns.csv"), read_bytes(tmp_path, "rows.csv")
    assert columns == rows
    return rows


ODD_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1, -1e300, 2.0**60]
ODD_CELLS = [7, -3, np.int64(-3), np.int32(5), True, False, np.bool_(True), np.bool_(False),
             "label", np.float64(-0.0), np.float32(0.1), *ODD_FLOATS]


def test_column_writer_writes_each_cell_as_the_row_writer(tmp_path):
    n = len(ODD_CELLS)
    blocks = [
        (ODD_CELLS, np.array((ODD_FLOATS * 3)[:n]), np.arange(-n, 0), tuple(ODD_CELLS[::-1])),
        (np.array([True, False]), [np.bool_(False), True], np.array([-0.0, math.nan]), ["a", 1]),
    ]
    rows = [row for columns in blocks for row in zip(*columns, strict=True)]
    text = _same_bytes(tmp_path, ["a", "b", "c", "d"], blocks, rows).decode()
    # a np.bool_ cell writes as a float, a bool as its name
    assert text.splitlines()[-2:] == ["1.0,0.0,-0.0,a", "0.0,True,nan,1"]


@pytest.mark.parametrize("shape", [(), (2, 2)], ids=["scalar", "matrix"])
def test_level_blocks_write_the_level_rows(tmp_path, shape):
    probes = np.array([0.0, 5e-324, 0.25, 1.0])
    rng = np.random.default_rng(3)
    per_level = {n: rng.choice(ODD_FLOATS, size=(probes.size, *shape)) for n in (4, 0, 2)}
    header = ["level", "probe_time", *"ij"[:len(shape)], "value"]
    _same_bytes(tmp_path, header, cli._level_rows(probes, per_level),
                _level_rows_by_rows(probes, per_level))


def _captured_tables(monkeypatch, argv):
    """Run ``main(argv)`` and return each CSV table it wrote, as (header, blocks)."""
    tables = {}
    write = cli._write_csv

    def capture(path, header, blocks):
        blocks = [tuple(columns) for columns in blocks]  # columns as the command made them
        tables[Path(path).name] = (header, blocks)
        write(path, header, blocks)

    monkeypatch.setattr(cli, "_write_csv", capture)
    assert main(argv) in (0, 1)
    return tables


@pytest.mark.parametrize("command", ["qv", "qv_2d", "integrate", "hedge", "plausibility"])
def test_cli_tables_are_the_row_writers_bytes(tmp_path, monkeypatch, command):
    walk = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
    cfg = {"seed": 2, "partition": {"type": "dyadic", "T": 1.0, "max_level": 8}, "path": walk,
           "out": str(tmp_path / "out")}
    if command == "qv_2d":
        cfg["path"] = {**walk, "dim": 2}
    if command == "integrate":
        cfg["functional"] = {"name": "black_scholes", "sigma": 0.2, "strike": 1.0, "kind": "put"}
        cfg["integrate"] = {"residual_levels": [6, 8]}
    if command == "hedge":
        cfg["functional"] = {"name": "black_scholes", "sigma": 0.2, "strike": 1.0}
        cfg["hedge"] = {"density": {"kind": "bs", "sigma": 0.2}, "paths": 3,
                        "payoff": {"kind": "call", "strike": 1.0}}
    argv = [command.split("_")[0], "--config", write_config(tmp_path, "c.json", cfg)]
    tables = _captured_tables(monkeypatch, argv)
    assert len(tables) == {"integrate": 2, "hedge": 2}.get(command, 1)
    for name, (header, blocks) in tables.items():
        rows = [row for columns in blocks for row in zip(*columns)]
        _write_csv_by_rows(tmp_path / "rows.csv", header, rows)
        assert read_bytes(tmp_path, "out", name) == read_bytes(tmp_path, "rows.csv"), name


def test_plausibility_scenarios(tmp_path):
    for name, spec, expected in [
        ("smooth", {"kind": "smooth", "name": "quadratic"}, "series-bounded"),
        ("walk", {"kind": "scaled_random_walk", "sigma": 1.0}, "series-bounded"),
        ("adv", {"kind": "qv_descent"}, "diverging"),
    ]:
        cfg = write_config(tmp_path, f"{name}.json", {
            "seed": 7,
            "partition": {"type": "dyadic", "T": 1.0, "max_level": 10},
            "path": spec,
            "out": str(tmp_path / name),
        })
        assert main(["plausibility", "--config", cfg]) == 0
        report = json.loads((tmp_path / name / "plausibility.json").read_text())
        assert report["report"]["verdict"] == expected
        rows = (tmp_path / name / "plausibility.csv").read_text().splitlines()
        assert rows[0] == "level,identity_gap,k_n,k_partial_sum,neg_series_partial_max"


@pytest.mark.parametrize("command", ["plausibility", "qv", "integrate"])
def test_one_level_partition_is_named(tmp_path, capsys, command):
    # integrate once wrote a report whose convergence_metric was NaN, not JSON
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"type": "explicit", "levels": [[0, 0.5, 1]]},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "out": str(tmp_path / "out"),
    })
    assert main([command, "--config", cfg]) == 2
    assert "need at least two levels to talk about a limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_extra_time_outside_the_horizon_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"type": "dyadic", "T": 2.0, "max_level": 6, "extra_times": [0.5, 2.5]},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) == 2
    assert capsys.readouterr().err == "pathcalc: error: extra time 2.5 is outside [0, 2.0]\n"
    assert not (tmp_path / "out").exists()


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["qv", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_missing_path_file_named_in_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 4},
        "path": {"file": str(tmp_path / "ghost.csv")},
        "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) == 2
    assert "ghost.csv" in capsys.readouterr().err


def test_path_file_field_past_csv_limit_names_the_line(tmp_path, capsys):
    long = "1." + "0" * 200_000
    files = {"header": (f"t,x{long}\n0.0,1.0\n1.0,3.0\n", "path file line 1: "),
             "row": (f"t,x1\n0.0,1.0\n0.5,{long}\n1.0,3.0\n", "path file line 3: ")}
    for name, (text, message) in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
        cfg = write_config(tmp_path, f"{name}.json", {
            "partition": {"type": "dyadic", "T": 1.0, "max_level": 1},
            "path": {"file": str(tmp_path / f"{name}.csv")},
            "out": str(tmp_path / name),
        })
        assert main(["qv", "--config", cfg]) == 2
        assert message + "field larger than field limit" in capsys.readouterr().err


def test_path_file_jump_threshold_of_the_wrong_size_is_named(tmp_path, capsys):
    (tmp_path / "walk.csv").write_text("t,x1\n0.0,1.0\n0.5,1.5\n1.0,3.0\n")
    for name, threshold in {"two": [0.1, 0.2], "none": []}.items():
        cfg = write_config(tmp_path, f"{name}.json", {
            "partition": {"type": "dyadic", "T": 1.0, "max_level": 1},
            "path": {"file": str(tmp_path / "walk.csv"), "jump_threshold": threshold},
            "out": str(tmp_path / name),
        })
        assert main(["qv", "--config", cfg]) == 2
        assert ("pathcalc: error: jump_threshold must be one number or a list of 1, one per "
                f"coordinate of the dim-1 path, got {threshold!r}") in capsys.readouterr().err
        assert not (tmp_path / name).exists()


# (path file, max_level, the error it is named by)
OVERFLOWS = {
    # the QV scale, the squared range 4e308, ended each command in a bare OverflowError
    "range": ("t,x1\n0,0\n0.5,2e154\n1,0\n", 1,
              "path values range over 2e+154, whose square, the QV scale, overflows"),
    # a scale of 1e308, but two squared increments of 1e308 sum to inf: qv and
    # integrate reported inf, hedge wrote NaN residuals and plausibility exited 0
    "sum": ("t,x1\n0,0\n0.5,1e154\n1,0\n", 1,
            "the squared increments along a level of 2 cells sum past the largest float"),
    # a jump column is not bounded by the values: qv reported an infinite jump part
    "jump": ("t,x1,jump1\n0,0,0\n0.25,0,0\n0.5,0,1e200\n0.75,0,0\n1,0,0\n", 2,
             "a path jump of size 1e+200 has a square that overflows"),
}


def _overflow_config(tmp_path, case):
    text, level, _ = OVERFLOWS[case]
    (tmp_path / f"{case}.csv").write_text(text)
    return write_config(tmp_path, f"{case}.json", {
        "partition": {"type": "dyadic", "T": 1.0, "max_level": level},
        "path": {"file": str(tmp_path / f"{case}.csv")},
        "integrate": {"residual_levels": [1]},
        "functional": {"name": "identity_1"},
        "hedge": {"density": 0.0},
        "out": str(tmp_path / "out")})


@pytest.mark.parametrize("command, case", [
    pytest.param(command, case, id=command if case == "range" else f"{command}-{case}")
    for case in OVERFLOWS for command in ["qv", "integrate", "hedge", "plausibility"]])
def test_a_path_range_whose_square_overflows_is_named(tmp_path, capsys, command, case):
    # integrate takes a QV scale and squares in its Ito sweep alone
    assert main([command, "--config", _overflow_config(tmp_path, case)]) == 2
    assert capsys.readouterr().err == f"pathcalc: error: {OVERFLOWS[case][2]}\n"
    assert not (tmp_path / "out").exists()


def test_a_run_that_exits_2_leaves_an_existing_output_directory_as_it_was(tmp_path, capsys):
    # integrate once wrote integral_levels.csv before its Ito sweep failed
    cfg = write_config(tmp_path, "walk.json", {
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "integrate": {"residual_levels": [4, 6]},
        "out": str(tmp_path / "out")})
    assert main(["integrate", "--config", cfg]) in (0, 1)
    before = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    assert sorted(before) == ["integral_levels.csv", "integral_report.json", "ito_residuals.csv"]
    assert main(["integrate", "--config", _overflow_config(tmp_path, "sum")]) == 2
    assert capsys.readouterr().err == f"pathcalc: error: {OVERFLOWS['sum'][2]}\n"
    assert {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("command", ["qv", "integrate", "hedge"])
def test_jumps_that_leave_the_partition_not_dense_are_named(tmp_path, capsys, command):
    # jump_threshold 0 makes every move of the walk a jump: refined onto its 256
    # jump times, level 0 is the whole grid, as fine as the top
    from pathcalc import dyadic, generate, write_path_csv

    spec = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
    write_path_csv(generate(spec, 5, dyadic(1.0, 8)), str(tmp_path / "walk.csv"))
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"max_level": 8},
        "path": {"file": str(tmp_path / "walk.csv"), "jump_threshold": 0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}},
        "out": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == 2
    assert ("pathcalc: error: partition refined onto the path's 256 jump times: declared "
            "dense but top mesh does not beat level 0") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_path_file_loads_with_read_only_times_around_an_off_level_jump(tmp_path):
    # the file's grid is the top level with the jump merged in, which the
    # path then takes as its times
    from pathcalc import dyadic, generate, read_path_csv, refine_with, write_path_csv

    jump = 155 / 2**9
    spec = {"kind": "with_jumps", "base": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
            "jumps": [[jump, 0.1]]}
    f = str(tmp_path / "walk.csv")
    write_path_csv(generate(spec, 5, refine_with(dyadic(1.0, 8), [jump])), f)
    assert not read_path_csv(f).times.flags.writeable
    path = cli._path_from_config({"seed": 0, "path": {"file": f}}, dyadic(1.0, 8))
    assert path.jump_times == (jump,) and path.times.size == 258
    assert not path.times.flags.writeable


def test_functional_and_path_dims_must_match(tmp_path, capsys):
    partition = {"type": "dyadic", "T": 1.0, "max_level": 6}
    runs = {
        "integrate": ({"kind": "scaled_random_walk", "sigma": 1.0, "dim": 2}, {},
                      "functional 'identity_1' has dim 1, the path has dim 2"),
        "hedge": ({"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0, "dim": 2},
                  {"functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
                   "hedge": {"density": {"kind": "bs", "sigma": 0.2}, "paths": 1}},
                  "functional 'black_scholes_call' has dim 1, the path has dim 2"),
    }
    for command, (path, extra, message) in runs.items():
        cfg = write_config(tmp_path, f"{command}.json", {
            "seed": 1, "partition": partition, "path": path,
            "out": str(tmp_path / command), **extra,
        })
        assert main([command, "--config", cfg]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"integrate": {"residual_levels": [99]}}, "level 99 outside 0..6"),
    ({"integrate": {"residual_levels": "8"}},
     "integrate.residual_levels must be a list of integers, got '8'"),
    ({"integrate": {"residual_levels": [-1]}}, "level -1 outside 0..6"),
    ({"probe_level": -3}, "level -3 outside 0..6"),
    ({"integrate": {"residual_levels": "14"}},
     "integrate.residual_levels must be a list of integers, got '14'"),
], ids=["residual_99", "residual_str_8", "residual_minus_1", "probe_minus_3",
        "residual_str_14"])
def test_level_outside_partition_is_config_error(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, "i.json", {
        "seed": 3,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
        "path": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "out": str(tmp_path / "out"),
        **extra,
    })
    assert main(["integrate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "ito_residuals.csv").exists()


def test_hedge_paths_and_seed_are_named(tmp_path, capsys):
    base = {
        "seed": 1,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 4},
        "path": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "out": str(tmp_path / "out"),
    }
    hedge = {"density": {"kind": "bs", "sigma": 0.2}}
    cases = [({"hedge": {**hedge, "paths": p}}, "hedge.paths") for p in (-1, 0, 1.5, "2", True)]
    cases += [({"hedge": {**hedge, "paths": 1}, "seed": s}, "seed")
              for s in ("abc", 1.5, -1, True, None)]
    for extra, key in cases:
        cfg = write_config(tmp_path, "h.json", {**base, **extra})
        assert main(["hedge", "--config", cfg]) == 2, extra
        err = capsys.readouterr().err
        assert f"config error: {key} must be an integer >= " in err, (extra, err)
    cfg = write_config(tmp_path, "q.json", {**base, "path": {"kind": "smooth", "name": "linear"}})
    assert main(["qv", "--config", cfg, "--seed", "-2"]) == 2
    assert "seed must be an integer >= 0, got -2" in capsys.readouterr().err


_WALK = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}


@pytest.mark.parametrize("command, extra, message", [
    ("hedge", {"partition": {"type": "dyadic", "T": 1.0, "max_level": "a"}},
     "partition.max_level must be an integer in 1..30, got 'a'"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": "x", "strike": 1.0}},
     "functional.sigma must be a finite number > 0, got 'x'"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": 0.2, "strike": "x"}},
     "functional.strike must be a finite number > 0, got 'x'"),
    ("hedge", {"probe_level": "x"}, "probe_level must be an integer, got 'x'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "realized": "estimat"}},
     "hedge.realized must be \"estimate\" or a density, got 'estimat'"),
    ("qv", {"path": {**_WALK, "dim": 0}}, "path.dim must be an integer >= 1, got 0"),
    ("qv", {"path": {**_WALK, "dim": -1}}, "path.dim must be an integer >= 1, got -1"),
    ("qv", {"tolerances": {"qv_window": 0}},
     "tolerances.qv_window must be an integer >= 1, got 0"),
    ("qv", {"tolerances": {"qv_window": -2}},
     "tolerances.qv_window must be an integer >= 1, got -2"),
    ("qv", {"tolerances": {"qv_window": "x"}},
     "tolerances.qv_window must be an integer >= 1, got 'x'"),
    ("qv", {"tolerances": {"conv_tol": "x"}},
     "tolerances.conv_tol must be a finite number >= 0, got 'x'"),
    ("hedge", {"tolerances": {"fpde_tol": "x"}},
     "tolerances.fpde_tol must be a finite number >= 0, got 'x'"),
    ("hedge", {"hedge": {"density": "bs"}}, "hedge.density must be a mapping or a finite number, "
     "got 'bs'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "realized": [0.09]}},
     "hedge.realized must be \"estimate\" or a density, got [0.09]"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "smooth_window": "x"}},
     "hedge.smooth_window must be an integer, got 'x'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": "x"}}},
     "hedge.density.sigma must be a finite number, got 'x'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2},
                         "payoff": {"kind": "call", "strike": "x"}}},
     "hedge.payoff.strike must be a finite number, got 'x'"),
    ("hedge", {"path": {**_WALK, "sigma": "x"}}, "path.sigma must be a finite number > 0, got 'x'"),
    ("hedge", {"path": {**_WALK, "x0": "x"}}, "path.x0 must be a finite number > 0, got 'x'"),
    ("hedge", {"partition": {"type": "dyadic", "T": "1", "max_level": 4}},
     "partition.T must be a finite number > 0, got '1'"),
    ("qv", {"path": {"kind": "smooth", "name": "sine", "amp": "x"}},
     "path.amp must be a finite number, got 'x'"),
    ("hedge", {"functional": {"name": "cylinder"}},
     "functional.name must be one of identity(_[1-9][0-9]*)?, monomial, running_integral, "
     "asian_forward, black_scholes, got 'cylinder'"),
    ("hedge", {"hedge": {"density": {"sigma": 0.2}}},
     "config needs a 'hedge.density.kind' key"),
    ("qv", {"path": {"sigma": 0.3}}, "config needs a 'path.kind' key"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "payoff": {"kind": "call"}}},
     "config needs a 'hedge.payoff.strike' key"),
    ("qv", {"path": {"kind": "with_jumps", "base": {**_WALK, "sigma": "x"}, "jumps": []}},
     "path.base.sigma must be a finite number > 0, got 'x'"),
    ("qv", {"partition": {"max_level": 4, "extra_times": ["x"]}},
     "partition.extra_times must be a list of finite numbers, got ['x']"),
    ("qv", {"path": {**_WALK, "sigma": -1}}, "path.sigma must be a finite number > 0, got -1"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": -0.2, "strike": 1.0}},
     "functional.sigma must be a finite number > 0, got -0.2"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": 0.2, "strike": 0}},
     "functional.strike must be a finite number > 0, got 0"),
    ("qv", {"partition": {"type": "dyadic", "T": -1, "max_level": 4}},
     "partition.T must be a finite number > 0, got -1"),
    ("qv", {"path": {**_WALK, "x0": -1}}, "path.x0 must be a finite number > 0, got -1"),
    ("plausibility", {"path": {"kind": "qv_descent", "total": 0}},
     "path.total must be a finite number > 0, got 0"),
    ("qv", {"tolerances": {"conv_tol": -1}},
     "tolerances.conv_tol must be a finite number >= 0, got -1"),
    ("hedge", {"tolerances": {"fpde_tol": -1e-6}},
     "tolerances.fpde_tol must be a finite number >= 0, got -1e-06"),
], ids=["max_level_a", "sigma_x", "strike_x", "probe_level_x", "realized_estimat",
        "dim_0", "dim_minus_1", "qv_window_0", "qv_window_minus_2", "qv_window_x",
        "conv_tol_x", "fpde_tol_x", "density_bs_string", "realized_list",
        "smooth_window_x", "density_sigma_x", "payoff_strike_x", "path_sigma_x",
        "path_x0_x", "partition_T_string", "smooth_amp_x", "functional_cylinder",
        "density_without_kind", "path_without_kind", "call_without_strike",
        "jumps_base_sigma_x", "extra_times_x", "path_sigma_minus_1",
        "functional_sigma_minus_0_2", "strike_0", "partition_T_minus_1", "path_x0_minus_1",
        "total_0", "conv_tol_minus_1", "fpde_tol_minus_1e-6"])
def test_config_value_of_wrong_type_is_named(tmp_path, capsys, command, extra, message):
    cfg = write_config(tmp_path, "c.json", {
        "seed": 1,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 4},
        "path": _WALK,
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}},
        "out": str(tmp_path / "out"),
        **extra,
    })
    assert main([command, "--config", cfg]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level, flags", [(31, []), (10**400, []), (4, ["--level", "31"]),
                                          (4, ["--level", str(10**400)])],
                         ids=["31", "10**400", "flag_31", "flag_10**400"])
def test_max_level_above_30_exits_2_before_any_grid(tmp_path, capsys, level, flags):
    cfg = write_config(tmp_path, "c.json", {"partition": {"max_level": level}, "path": _WALK,
                                            "out": str(tmp_path / "out")})
    tracemalloc.start()
    try:
        code = main(["qv", "--config", cfg, *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    message = "config error: partition.max_level must be an integer in 1..30, got "
    assert message in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()
    resolved = cli.resolve({"partition": {"max_level": 30}, "path": _WALK}, "qv")
    assert resolved["partition"]["max_level"] == 30


@pytest.mark.parametrize("command, extra, flags, key", [
    ("qv", {"partition": {"type": "dyadic", "T": 1.0, "max_level": 4, "max_levle": 6}}, [],
     "partition.max_levle"),
    ("qv", {"sede": 3}, [], "sede"),
    ("qv", {"path": {"kind": "smooth", "sigma": 0.3}}, [], "path.sigma"),
    ("qv", {"path": {"file": "walk.csv", "kind": "geometric_walk"}}, [], "path.kind"),
    ("qv", {"path": {"kind": "with_jumps", "base": {**_WALK, "file": "a.csv"}, "jumps": []}},
     [], "path.base.file"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2, "value": 0.04}}}, [],
     "hedge.density.value"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "pathz": 2}}, [],
     "hedge.pathz"),
    ("integrate", {"functional": {"name": "monomial", "power": 2, "strike": 1.0}}, [],
     "functional.strike"),
    ("qv", {"partition": {"type": "explicit", "levels": [[0.0, 1.0], [0.0, 0.5, 1.0]]},
            "path": {"kind": "smooth"}}, ["--level", "3"], "partition.max_level"),
], ids=["typo", "top_level", "other_variant", "file_and_kind", "base_file", "density_value",
        "hedge_typo", "monomial_strike", "explicit_level_flag"])
def test_unknown_config_key_is_named(tmp_path, capsys, command, extra, flags, key):
    cfg = write_config(tmp_path, "c.json", {
        "seed": 1,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 4},
        "path": _WALK,
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}},
        "out": str(tmp_path / "out"),
        **extra,
    })
    assert main([command, "--config", cfg, *flags]) == 2
    assert f"config error: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sections_of_other_commands_are_left_as_they_are(tmp_path):
    sections = {"functional": {"name": "nonesuch"}, "integrate": {"residual_levels": "x"},
                "hedge": {"pathz": 2}}
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"max_level": 6}, "path": {"kind": "smooth"}, **sections,
        "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) in (0, 1)
    echo = json.loads((tmp_path / "out" / "qv_report.json").read_text())["config"]
    assert {key: echo[key] for key in sections} == sections


def test_numeric_density_is_a_constant_density(tmp_path):
    # the "const" mapping acts as the plain number, as hedge.density and as
    # hedge.realized, on a scalar and on a d = 2 path: the same files
    functionals = {1: {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
                   2: {"name": "identity_1", "dim": 2}}
    for dim, functional in functionals.items():
        outputs = []
        for density, realized in ((0.04, 0.09), ({"kind": "const", "value": 0.04},
                                                 {"kind": "const", "value": 0.09})):
            out = tmp_path / f"{dim}_{len(outputs)}"
            cfg = write_config(tmp_path, "n.json", {
                "seed": 1,
                "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
                "path": {**_WALK, "dim": dim},
                "functional": functional,
                "hedge": {"density": density, "realized": realized, "paths": 2},
                "out": str(out),
            })
            assert main(["hedge", "--config", cfg]) in (0, 1)
            summary = json.loads(read_bytes(out, "hedge_summary.json"))["summary"]
            outputs.append((read_bytes(out, "hedge_paths.csv"),
                            read_bytes(out, "hedge_curves.csv"), summary))
        assert outputs[0] == outputs[1]


def test_continuous_path_file_matches_generator(tmp_path):
    from pathcalc import dyadic, generate, write_path_csv

    spec = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
    partition = {"type": "dyadic", "T": 1.0, "max_level": 10}
    write_path_csv(generate(spec, 5, dyadic(1.0, 10)), str(tmp_path / "walk.csv"))
    gen = write_config(tmp_path, "gen.json", {
        "seed": 5, "partition": partition, "path": spec, "out": str(tmp_path / "gen"),
    })
    csv = write_config(tmp_path, "csv.json", {
        "partition": partition, "path": {"file": str(tmp_path / "walk.csv")},
        "out": str(tmp_path / "csv"),
    })
    assert main(["qv", "--config", gen]) in (0, 1)
    assert main(["qv", "--config", csv]) in (0, 1)
    assert read_bytes(tmp_path, "csv", "qv_levels.csv") == read_bytes(
        tmp_path, "gen", "qv_levels.csv"
    )


def test_path_file_grid_must_be_the_finest_level(tmp_path, capsys):
    from pathcalc import dyadic, generate, write_path_csv

    spec = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}
    write_path_csv(generate(spec, 5, dyadic(1.0, 8)), str(tmp_path / "walk.csv"))
    expected = {
        6: "has 257 grid points, but partition level 6 has 65; they first differ "
           "at index 1 (file time 0.00390625, partition time 0.015625)",
        10: "has 257 grid points, but partition level 10 has 1025; they first "
            "differ at index 1 (file time 0.00390625, partition time 0.0009765625)",
    }
    for level, message in expected.items():
        cfg = write_config(tmp_path, f"c{level}.json", {
            "partition": {"max_level": level},
            "path": {"file": str(tmp_path / "walk.csv")},
            "out": str(tmp_path / f"out{level}"),
        })
        assert main(["qv", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"out{level}").exists()


def test_path_file_with_a_jump_past_the_horizon_is_a_grid_mismatch(tmp_path, capsys):
    from pathcalc import dyadic, generate, write_path_csv

    spec = {"kind": "with_jumps", "base": {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0},
            "jumps": [[1.5, 0.1]]}
    write_path_csv(generate(spec, 5, dyadic(2.0, 8)), str(tmp_path / "walk.csv"))
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"T": 1.0, "max_level": 8},
        "path": {"file": str(tmp_path / "walk.csv")},
        "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert (f"config error: path file {tmp_path / 'walk.csv'} has 257 grid points, but "
            "partition level 8 has 258; they first differ at index 1 "
            "(file time 0.0078125, partition time 0.00390625)") in err
    assert not (tmp_path / "out").exists()


def test_partition_section_defaults_and_echo(tmp_path, capsys):
    path = {"kind": "smooth", "name": "linear"}
    cfg = write_config(tmp_path, "c.json", {
        "partition": {"max_level": 12}, "path": path, "out": str(tmp_path / "out"),
    })
    assert main(["qv", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "qv_report.json").read_text())
    assert report["config"]["partition"] == {"type": "dyadic", "T": 1.0, "max_level": 12}
    assert len(report["report"]["levels"]) == 13
    bare = write_config(tmp_path, "bare.json", {"path": path})
    assert main(["qv", "--config", bare]) == 2
    assert "'partition' section" in capsys.readouterr().err


def test_invalid_json_config(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["qv", "--config", str(p)]) == 2


def test_p_variation_misuse_rejected(tmp_path, capsys):
    # p < 1 is out of scope and must be refused with a message, not computed
    from pathcalc import SampledPath, p_variation

    with pytest.raises(ValueError, match="p must be >= 1"):
        p_variation(SampledPath([0.0, 1.0], [0.0, 1.0]), 0.5)


def test_default_out_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PATHCALC_OUT", str(tmp_path / "envout"))
    cfg = write_config(tmp_path, "c.json", {
        "seed": 1,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 12},
        "path": {"kind": "smooth", "name": "linear"},
    })
    assert main(["qv", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "qv_report.json").exists()


def test_seed_and_level_overrides(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "seed": 1,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 8},
        "path": {"kind": "scaled_random_walk", "sigma": 1.0},
        "out": str(tmp_path / "out"),
    })
    main(["qv", "--config", cfg, "--seed", "2", "--level", "6",
          "--out", str(tmp_path / "out2")])
    report = json.loads((tmp_path / "out2" / "qv_report.json").read_text())
    assert report["config"]["seed"] == 2
    assert report["config"]["partition"]["max_level"] == 6
    assert len(report["report"]["levels"]) == 7


def test_hedge_smoothing_window_wider_than_grid(tmp_path):
    # level 5 has 32 cells, fewer than the default smooth_window of 64
    cfg = write_config(tmp_path, "h.json", {
        "seed": 9,
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 5},
        "path": {"kind": "geometric_walk", "sigma": 0.25, "x0": 1.0},
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2},
                  "payoff": {"kind": "call", "strike": 1.0}, "paths": 2},
        "out": str(tmp_path / "out"),
    })
    assert main(["hedge", "--config", cfg]) in (0, 1)
    rows = (tmp_path / "out" / "hedge_paths.csv").read_text().splitlines()
    assert len(rows) == 3


QV_KEYS = {"probe_times", "levels", "limit", "continuous_part", "jump_part",
           "converged", "convergence_metric", "scale", "refined", "dim"}


def test_output_layout(tmp_path):
    walk = {"kind": "scaled_random_walk", "sigma": 1.0}
    runs = {
        "qv1": ("qv", {"path": walk}),
        "qv2": ("qv", {"path": {"kind": "with_jumps",
                                "base": {**walk, "dim": 2},
                                "jumps": [[0.3125, [0.5, -0.2]]]}}),
        "int": ("integrate", {"path": walk, "functional": {"name": "monomial", "power": 2}}),
        "pl": ("plausibility", {"path": walk}),
    }
    report = {}
    for name, (cmd, extra) in runs.items():
        cfg = write_config(tmp_path, f"{name}.json", {
            "seed": 2,
            "partition": {"type": "dyadic", "T": 1.0, "max_level": 7},
            "probe_level": 3,
            "out": str(tmp_path / name),
            **extra,
        })
        assert main([cmd, "--config", cfg]) in (0, 1)
        doc = json.loads(next((tmp_path / name).glob("*.json")).read_text())
        assert set(doc) == {"config", "report"}
        report[name] = doc["report"]
    assert set(report["qv1"]) == QV_KEYS
    assert set(report["qv2"]) == QV_KEYS
    assert set(report["int"]) == {"probe_times", "levels", "limit", "converged",
                                  "convergence_metric", "integrand_kind", "refined"}
    assert set(report["pl"]) == {"levels", "identity_gaps", "k_values", "k_partial_sums",
                                 "negative_series_partial_max", "series_bounded",
                                 "verdict"}

    # d = 2 table: levels, then probes, then (i, j) in C order; the top
    # level's rows are the report's limit
    rep = report["qv2"]
    lines = (tmp_path / "qv2" / "qv_levels.csv").read_text().splitlines()
    assert lines[0] == "level,probe_time,i,j,value"
    rows = [line.split(",") for line in lines[1:]]
    probes = rep["probe_times"]
    assert len(rows) == len(rep["levels"]) * len(probes) * 4
    assert [(int(n), float(t), int(i), int(j)) for n, t, i, j, _ in rows] == [
        (n, t, i, j) for n in rep["levels"] for t in probes
        for i in range(2) for j in range(2)
    ]
    top = rows[-len(probes) * 4:]
    assert [float(r[4]) for r in top] == [
        rep["limit"][k][i][j] for k in range(len(probes))
        for i in range(2) for j in range(2)
    ]


def _schema_keys(table, prefix="", chain=()):
    """Dotted keys of a schema table: its keys, each variant's keys and the
    keys of nested sections.  A section already open on the way in (the
    generator under ``path.base``) is listed by its own key only."""
    tables = table if isinstance(table, tuple) else (table,)
    chain += tuple(map(id, tables))
    for t in tables:
        for key, (kind, _) in t.items():
            yield prefix + key
            if isinstance(kind, dict):
                for variant in kind.values():
                    yield from _schema_keys(variant, prefix, chain)
            elif kind in cli._SCHEMA and id(cli._SCHEMA[kind]) not in chain:
                yield from _schema_keys(cli._SCHEMA[kind], f"{prefix}{key}.", chain)


def _command_table(command):
    return {**cli._SCHEMA["config"], **cli._COMMAND_SECTIONS.get(command, {})}


SCHEMA_KEYS = {key for command in cli._COMMANDS for key in _schema_keys(_command_table(command))}


def test_config_keys_table_matches_schema():
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    documented = re.findall(r"^\| `([^`]+)` \|", text, flags=re.M)
    assert sorted(documented) == sorted(SCHEMA_KEYS)


def test_readme_quick_tour_runs(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1]
    exec(re.search(r"```python\n(.*?)```", tour, flags=re.S).group(1), {})
    realized, predicted, residual = map(float, capsys.readouterr().out.split())
    assert residual == abs(realized - predicted)


def _constant_defaults(spec, table, prefix=""):
    """Dotted keys of the constant defaults of ``table`` that apply to the
    resolved ``spec``, following its variants and nested sections."""
    if isinstance(table, tuple):
        table = next((t for t in table if next(iter(t)) in spec), table[-1])
    entries = list(table.items())
    for key, (kind, default) in entries:
        if default is not ... and default is not None:
            yield prefix + key
        value = spec.get(key)
        if isinstance(kind, dict):
            entries += next(v for k, v in kind.items() if re.fullmatch(k, value)).items()
        elif kind in cli._SCHEMA and isinstance(value, dict):
            yield from _constant_defaults(value, cli._SCHEMA[kind], f"{prefix}{key}.")


def _dotted(cfg, prefix=""):
    for key, value in cfg.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted(value, f"{prefix}{key}.")


_BS = {"name": "black_scholes", "sigma": 0.2, "strike": 1.0}
REPLAYS = {
    "qv_d1": ("qv", {"path": {"kind": "scaled_random_walk", "sigma": 1.0}}),
    "qv_d2": ("qv", {"path": {"kind": "with_jumps",
                              "base": {"kind": "scaled_random_walk", "sigma": 1.0, "dim": 2},
                              "jumps": [[0.3125, [0.5, -0.2]]]}}),
    "integrate": ("integrate", {"path": {"kind": "geometric_walk", "sigma": 0.3},
                                "functional": _BS, "integrate": {"residual_levels": [6, 8]}}),
    "hedge": ("hedge", {"path": {"kind": "geometric_walk", "sigma": 0.3}, "functional": _BS,
                        "hedge": {"density": {"kind": "bs", "sigma": 0.2}, "paths": 2}}),
    "plausibility": ("plausibility", {"path": {"kind": "qv_descent"}}),
}


@pytest.mark.parametrize("name", list(REPLAYS))
def test_echo_replays_the_run(tmp_path, name):
    command, minimal = REPLAYS[name]
    first, again = tmp_path / "first", tmp_path / "again"
    cfg = write_config(tmp_path, "first.json",
                       {"partition": {"max_level": 8}, **minimal, "out": str(first)})
    assert main([command, "--config", cfg]) in (0, 1)
    (report,) = first.glob("*.json")
    echo = json.loads(report.read_text())["config"]
    # the echo is resolved: resolving it again changes nothing, and it holds
    # every constant default that applies to it
    assert cli.resolve(json.loads(json.dumps(echo)), command) == echo
    assert set(_constant_defaults(echo, _command_table(command))) <= set(_dotted(echo))
    assert echo["partition"] == {"type": "dyadic", "T": 1.0, "max_level": 8}
    replay = write_config(tmp_path, "again.json", {**echo, "out": str(again)})
    assert main([command, "--config", replay]) in (0, 1)
    assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in first.iterdir())
    for path in first.iterdir():
        text = (again / path.name).read_text()
        assert text.replace(json.dumps(str(again)), json.dumps(str(first))) == path.read_text()


class _RecordingConfig(dict):
    """A config that records the dotted key of each read that yields a
    value: an item read, or a ``get`` that does not return None."""

    def __init__(self, mapping, reads, prefix=""):
        super().__init__({key: _RecordingConfig(value, reads, f"{prefix}{key}.")
                          if type(value) is dict else value for key, value in mapping.items()})
        self.reads, self.prefix = reads, prefix

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.reads.add(self.prefix + key)
        return value

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.reads.add(self.prefix + key)
        return value


@pytest.mark.parametrize("name", list(REPLAYS))
def test_every_read_is_echoed(tmp_path, monkeypatch, name):
    command, minimal = REPLAYS[name]
    reads = set()
    resolve = cli.resolve
    monkeypatch.setattr(cli, "resolve", lambda cfg, command: _RecordingConfig(
        resolve(cfg, command), reads))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {"partition": {"max_level": 8}, **minimal,
                                             "out": str(out)})
    assert main([command, "--config", cfg]) in (0, 1)
    (report,) = out.glob("*.json")
    echo = json.loads(report.read_text())["config"]
    assert {"partition.max_level", "path.kind"} <= reads
    # path.drain of qv_descent is a computed default, not echoed (docs/formats.md)
    assert reads - {"path.drain"} <= set(_dotted(echo))


# Valid configs of this module, at small levels, for the mutation test.
_VALID = [
    ("qv", {"seed": 0, "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
            "path": {"kind": "smooth", "name": "linear"}, "tolerances": {"conv_tol": 1e-3}}),
    ("qv", REPLAYS["qv_d2"][1] | {"seed": 2, "probe_level": 3,
                                  "partition": {"type": "dyadic", "T": 1.0, "max_level": 5}}),
    ("integrate", {"seed": 5, "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
                   "path": {"kind": "scaled_random_walk", "sigma": 1.0},
                   "functional": {"name": "monomial", "power": 2, "coeff": 1.0},
                   "integrate": {"residual_levels": [4, 6]}}),
    ("hedge", {"seed": 42, "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
               "path": _WALK, "functional": _BS,
               "hedge": {"density": {"kind": "bs", "sigma": 0.2},
                         "realized": {"kind": "bs", "sigma": 0.3},
                         "payoff": {"kind": "call", "strike": 1.0}, "paths": 2}}),
    ("plausibility", {"seed": 7, "partition": {"max_level": 6}, "path": {"kind": "qv_descent"}}),
]
_WRONG_TYPES = ["x", True, None, [], {}, [1, "a"]]
# Python's json reads them, but no number key takes them
_NON_FINITE = [float("nan"), float("inf"), -float("inf"), 10**400]
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99), st.none()),
    st.tuples(st.just("retype"), st.integers(0, 99), st.sampled_from(_WRONG_TYPES + [1.5])),
    st.tuples(st.just("set"), st.sampled_from([
        "path.dim", "path.base.dim", "integrate.residual_levels", "probe_level", "hedge.paths",
    ]), st.sampled_from([1, 2, -1, [7], [-1], []])),
    # a key that holds a float (so one the command reads) set to a non-finite value
    st.tuples(st.just("non-finite"), st.integers(0, 99), st.sampled_from(_NON_FINITE)),
)
# Python and numpy texts that name no input
_UNNAMED = ("could not convert", "invalid literal", "broadcast", "reshape", "object of type",
            "not supported between", "indices must be", "unhashable", "has no attribute")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(range(len(_VALID))), _MUTATIONS)
def test_mutated_configs_exit_cleanly_and_name_the_key(tmp_path, monkeypatch, which, mutation):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PATHCALC_OUT", str(tmp_path / "default_out"))
    command, cfg = _VALID[which]
    cfg = json.loads(json.dumps({**cfg, "out": str(tmp_path / "out")}))
    action, where, value = mutation
    keys = sorted(_dotted(cfg))
    if action == "non-finite":
        keys = [k for k in keys if type(functools.reduce(dict.get, k.split("."), cfg)) is float]
        if not keys:
            return
    key = where if action == "set" else keys[where % len(keys)]
    *parents, leaf = key.split(".")
    spec = cfg
    for part in parents:
        spec = spec.setdefault(part, {})
    if action == "drop":
        spec.pop(leaf)
    else:
        spec[leaf] = value
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(tmp_path / "c.json")])
    assert code in (0, 1, 2)
    assert code == 2 or action != "non-finite"
    if code != 2:
        return
    message = err.getvalue().strip().split("error: ", 1)[1]
    # a key of the schema, or one below it (path.base.kind under path.base)
    assert any(word.startswith(known) and word[len(known):len(known) + 1] in ("", ".")
               for word in re.findall(r"[\w.]+", message) for known in SCHEMA_KEYS), message
    assert not re.fullmatch(r"'[^']*'", message), message
    assert not any(text in message for text in _UNNAMED), message
    if action == "non-finite" or action == "retype" and value in _WRONG_TYPES:
        assert key in message, message


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, 1.0, 2.5]), min_size=1,
                max_size=70).filter(lambda v: not any(x == 0.0 and math.copysign(1.0, x) < 0 for x in v)),
       st.sampled_from([0.5, 0.95, 0.0, 0.3, 1.0]))
def test_hedge_summary_quantiles_read_numpys_bits(values, q):
    """The hedge summary's median and 95th percentile, taken from one sort,
    equal np.median and np.quantile bit for bit, with repeats, on values
    without -0.0 as the relative residuals are (np.quantile's partition and
    np.sort may order -0.0 and 0.0 apart)."""
    expected = np.median(values) if q == 0.5 else np.quantile(values, q)
    got = cli._quantile(np.sort(values), q)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
