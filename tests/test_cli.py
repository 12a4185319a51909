import json
from pathlib import Path

import pytest

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
    assert report["config"]["partition"] == {"max_level": 12}
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
