import contextlib
import io
import json
import re
from pathlib import Path

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
     "partition.max_level must be an integer >= 1, got 'a'"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": "x", "strike": 1.0}},
     "functional.sigma must be a number > 0, got 'x'"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": 0.2, "strike": "x"}},
     "functional.strike must be a number > 0, got 'x'"),
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
    ("qv", {"tolerances": {"conv_tol": "x"}}, "tolerances.conv_tol must be a number, got 'x'"),
    ("hedge", {"tolerances": {"fpde_tol": "x"}},
     "tolerances.fpde_tol must be a number, got 'x'"),
    ("hedge", {"hedge": {"density": "bs"}}, "hedge.density must be a mapping or a number, "
     "got 'bs'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "realized": [0.09]}},
     "hedge.realized must be \"estimate\" or a density, got [0.09]"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "smooth_window": "x"}},
     "hedge.smooth_window must be an integer, got 'x'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": "x"}}},
     "hedge.density.sigma must be a number, got 'x'"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2},
                         "payoff": {"kind": "call", "strike": "x"}}},
     "hedge.payoff.strike must be a number, got 'x'"),
    ("hedge", {"path": {**_WALK, "sigma": "x"}}, "path.sigma must be a number > 0, got 'x'"),
    ("hedge", {"path": {**_WALK, "x0": "x"}}, "path.x0 must be a number > 0, got 'x'"),
    ("hedge", {"partition": {"type": "dyadic", "T": "1", "max_level": 4}},
     "partition.T must be a number > 0, got '1'"),
    ("qv", {"path": {"kind": "smooth", "name": "sine", "amp": "x"}},
     "path.amp must be a number, got 'x'"),
    ("hedge", {"functional": {"name": "cylinder"}},
     "functional.name must be one of identity(_[1-9][0-9]*)?, monomial, running_integral, "
     "asian_forward, black_scholes, got 'cylinder'"),
    ("hedge", {"hedge": {"density": {"sigma": 0.2}}},
     "config needs a 'hedge.density.kind' key"),
    ("qv", {"path": {"sigma": 0.3}}, "config needs a 'path.kind' key"),
    ("hedge", {"hedge": {"density": {"kind": "bs", "sigma": 0.2}, "payoff": {"kind": "call"}}},
     "config needs a 'hedge.payoff.strike' key"),
    ("qv", {"path": {"kind": "with_jumps", "base": {**_WALK, "sigma": "x"}, "jumps": []}},
     "path.base.sigma must be a number > 0, got 'x'"),
    ("qv", {"partition": {"max_level": 4, "extra_times": ["x"]}},
     "partition.extra_times must be a list of numbers, got ['x']"),
    ("qv", {"path": {**_WALK, "sigma": -1}}, "path.sigma must be a number > 0, got -1"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": -0.2, "strike": 1.0}},
     "functional.sigma must be a number > 0, got -0.2"),
    ("hedge", {"functional": {"name": "black_scholes", "sigma": 0.2, "strike": 0}},
     "functional.strike must be a number > 0, got 0"),
    ("qv", {"partition": {"type": "dyadic", "T": -1, "max_level": 4}},
     "partition.T must be a number > 0, got -1"),
    ("qv", {"path": {**_WALK, "x0": -1}}, "path.x0 must be a number > 0, got -1"),
    ("plausibility", {"path": {"kind": "qv_descent", "total": 0}},
     "path.total must be a number > 0, got 0"),
], ids=["max_level_a", "sigma_x", "strike_x", "probe_level_x", "realized_estimat",
        "dim_0", "dim_minus_1", "qv_window_0", "qv_window_minus_2", "qv_window_x",
        "conv_tol_x", "fpde_tol_x", "density_bs_string", "realized_list",
        "smooth_window_x", "density_sigma_x", "payoff_strike_x", "path_sigma_x",
        "path_x0_x", "partition_T_string", "smooth_amp_x", "functional_cylinder",
        "density_without_kind", "path_without_kind", "call_without_strike",
        "jumps_base_sigma_x", "extra_times_x", "path_sigma_minus_1",
        "functional_sigma_minus_0_2", "strike_0", "partition_T_minus_1", "path_x0_minus_1",
        "total_0"])
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
    outputs = []
    for density in (0.04, {"kind": "const", "value": 0.04}):
        out = tmp_path / str(len(outputs))
        cfg = write_config(tmp_path, "n.json", {
            "seed": 1,
            "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
            "path": _WALK,
            "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
            "hedge": {"density": density, "realized": density, "paths": 2},
            "out": str(out),
        })
        assert main(["hedge", "--config", cfg]) in (0, 1)
        outputs.append(read_bytes(out, "hedge_paths.csv"))
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
            "path": {"kind": "smooth", "name": "linear"}}),
    ("qv", REPLAYS["qv_d2"][1] | {"seed": 2, "probe_level": 3,
                                  "partition": {"type": "dyadic", "T": 1.0, "max_level": 5}}),
    ("integrate", {"seed": 5, "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
                   "path": {"kind": "scaled_random_walk", "sigma": 1.0},
                   "functional": {"name": "monomial", "power": 2},
                   "integrate": {"residual_levels": [4, 6]}}),
    ("hedge", {"seed": 42, "partition": {"type": "dyadic", "T": 1.0, "max_level": 6},
               "path": _WALK, "functional": _BS,
               "hedge": {"density": {"kind": "bs", "sigma": 0.2},
                         "realized": {"kind": "bs", "sigma": 0.3},
                         "payoff": {"kind": "call", "strike": 1.0}, "paths": 2}}),
    ("plausibility", {"seed": 7, "partition": {"max_level": 6}, "path": {"kind": "qv_descent"}}),
]
_WRONG_TYPES = ["x", True, None, [], {}, [1, "a"]]
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99), st.none()),
    st.tuples(st.just("retype"), st.integers(0, 99), st.sampled_from(_WRONG_TYPES + [1.5])),
    st.tuples(st.just("set"), st.sampled_from([
        "path.dim", "path.base.dim", "integrate.residual_levels", "probe_level", "hedge.paths",
    ]), st.sampled_from([1, 2, -1, [7], [-1], []])),
)
# Python and numpy texts that name no input
_UNNAMED = ("could not convert", "invalid literal", "broadcast", "reshape", "object of type",
            "not supported between", "indices must be", "unhashable", "has no attribute")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(range(len(_VALID))), _MUTATIONS)
def test_mutated_configs_exit_cleanly_and_name_the_key(tmp_path, monkeypatch, which, mutation):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PATHCALC_OUT", str(tmp_path / "default_out"))
    command, cfg = _VALID[which]
    cfg = json.loads(json.dumps({**cfg, "out": str(tmp_path / "out")}))
    action, where, value = mutation
    keys = sorted(_dotted(cfg))
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
    if code != 2:
        return
    message = err.getvalue().strip().split("error: ", 1)[1]
    # a key of the schema, or one below it (path.base.kind under path.base)
    assert any(word.startswith(known) and word[len(known):len(known) + 1] in ("", ".")
               for word in re.findall(r"[\w.]+", message) for known in SCHEMA_KEYS), message
    assert not re.fullmatch(r"'[^']*'", message), message
    assert not any(text in message for text in _UNNAMED), message
    if action == "retype" and value in _WRONG_TYPES:
        assert key in message, message
