"""Golden bytes of CLI runs on paths with jumps that no benchmark digest
covers: a d = 2 jump walk's QV, a running-integral Itô sweep with a jump at
T, and four runs on a CSV path with two off-level jumps in one top-level
cell: its QV and a Black–Scholes Itô sweep, both summed along the levels
refined onto the jumps, and two hedges (``hedge`` reads its density cells
off the unrefined top level), one of them also over three paths; and two
``plausibility`` runs, one on a jump walk and one on a flat path with one
jump, whose increments are signed zeros.

The digests were recorded before the jumps were stored as grid positions
and one size array (the ``plausibility`` ones before its running sums moved
to ``paths._running_sums``, the ``qv_csv`` and ``integrate_csv`` ones before
the path file's refined levels were built once and located from their base
stride), and hold under the default BLAS threads, under
``OPENBLAS_NUM_THREADS=1`` and with numpy's AVX-512 dispatch disabled
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``).
"""

import hashlib
import json

import pytest

from pathcalc import cli, hedge, read_path_csv
from pathcalc.cli import main

_JUMPS = {0.3001: 0.05, 0.3002: -0.03}  # both in the level-8 cell [76/256, 77/256)


def _csv_text():
    """A level-8 walk of +-0.01 steps from an LCG, with two jump rows."""
    times = sorted({i / 256 for i in range(257)} | set(_JUMPS))
    lines, x, s = ["t,x1,jump1"], 1.0, 12345
    for t in times:
        s = (s * 1103515245 + 12345) % 2**31
        x += 0.01 if s % 2 else -0.01
        x += _JUMPS.get(t, 0.0)
        lines.append(f"{t!r},{x!r},{_JUMPS.get(t, 0.0)!r}")
    return "\n".join(lines) + "\n"


_CSV_HEDGE = {"seed": 2, "partition": {"type": "dyadic", "T": 1.0, "max_level": 8},
              "path": {"file": "path.csv"}}
RUNS = {
    "qv_d2": ("qv", {
        "seed": 3, "partition": {"type": "dyadic", "T": 1.0, "max_level": 10},
        "path": {"kind": "with_jumps",
                 "base": {"kind": "scaled_random_walk", "sigma": 1.0, "dim": 2},
                 "jumps": [[0.25, [0.5, -0.25]], [0.625, 0.4], [1.0, [-0.3, 0.2]]]}}),
    "integrate_running": ("integrate", {
        "seed": 5, "partition": {"type": "dyadic", "T": 1.0, "max_level": 10},
        "path": {"kind": "with_jumps", "base": {"kind": "scaled_random_walk", "sigma": 1.0},
                 "jumps": [[0.5, 0.7], [0.75, -0.2], [1.0, 0.3]]},
        "functional": {"name": "running_integral"},
        "integrate": {"residual_levels": [6, 8, 10]}}),
    "asian_csv": ("hedge", _CSV_HEDGE | {
        "functional": {"name": "asian_forward"},
        "hedge": {"density": {"kind": "const", "value": 0.0}, "realized": "estimate",
                  "payoff": {"kind": "integral", "rule": "right"}, "paths": 1}}),
    # the file's sums run along the levels refined onto its two jumps
    "qv_csv": ("qv", _CSV_HEDGE),
    "integrate_csv": ("integrate", _CSV_HEDGE | {
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "integrate": {"residual_levels": [4, 6, 8]}}),
    # asian_forward's Hessian is zero; this one reads the continuous QV
    # increments of the two jumps in one cell
    "bs_csv": ("hedge", _CSV_HEDGE | {
        "functional": {"name": "black_scholes", "sigma": 0.2, "strike": 1.0},
        "hedge": {"density": {"kind": "bs", "sigma": 0.2}, "realized": "estimate",
                  "payoff": {"kind": "call", "strike": 1.0}, "paths": 1,
                  "smooth_window": 8}}),
}
GOLDEN = {  # sha256 of each output file
    "qv_d2": {
        "qv_levels.csv":
            "ee533f2392abaf64ea5b72e541090f73cd394c00c82001f60603e2725f5ab588",
        "qv_report.json":
            "dedee648bcdd1c9a0ce74a851841a49dae5d6ef66d8c7f88490dc413cc69ad85",
    },
    "integrate_running": {
        "integral_levels.csv":
            "033ec306b226ac855a863e465b25bcc98b8699f7eff74be14f9b3c294df2930c",
        "integral_report.json":
            "a66a7708222a9898f6b4cff74bd462ca0a4f1c05fecf2c784df34f7049f9e8c8",
        "ito_residuals.csv":
            "35c287b90e8bbfda4881c9ca6f064260f6d8c5bac3b06a1245ef611c6e7f31c9",
    },
    "qv_csv": {
        "qv_levels.csv":
            "ace8272537c8d2d8ed9c7db54d5d13f4793a3b89aa4c846770ce751c146be55b",
        "qv_report.json":
            "53c426fa85c43075680f37c20b8ddbbac0663529df4e2f6376ccc6a5d1aa7b69",
    },
    "integrate_csv": {
        "integral_levels.csv":
            "f2f2a5f9cf67197b8480e65f19dd7dee840f0bf653f4a19eca6268cee3d48db5",
        "integral_report.json":
            "3b09e0444bc07cf7c0e77800b20226baad6c9565a99c943949e54f4cc8bb38fc",
        "ito_residuals.csv":
            "320037fdf78080de02446bb273c30cd2efd3f21bdaf5ec74012c8958d187954f",
    },
    "asian_csv": {
        "hedge_curves.csv":
            "61e108a9f4cdd6f0f5a0396041a83f41e372d81464dc833c4cd028f6fd2d135a",
        "hedge_paths.csv":
            "aaba19ac2bd0981fa272957687f88634cb1f0c76efbd2307fdc1b810b14b361c",
        "hedge_summary.json":
            "ca75c94322ec480d35e0a564c4a2daae9032802e3c86a647d16e84cdd0aeda0f",
    },
    "bs_csv": {
        "hedge_curves.csv":
            "57aaa14afc90bdb4c132134b13339db5467223b4f86251240e86e84de0caa8e3",
        "hedge_paths.csv":
            "9b70368d9e255d3ce33ad5c520bfecebaaf00b4b0200a532df467fd3cf65b446",
        "hedge_summary.json":
            "c4e0b14b2e597d2390e3e7ac2178d89263e91391742a3f47a5faa3ceba28aa65",
    },
}


@pytest.mark.parametrize("name", list(RUNS))
def test_jump_runs_write_the_recorded_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path.csv").write_text(_csv_text())
    command, cfg = RUNS[name]
    (tmp_path / "c.json").write_text(json.dumps(cfg | {"out": "out"}))
    assert main([command, "--config", "c.json"]) == 1  # every run raises a QV caveat
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / "out").iterdir())}
    assert digests == GOLDEN[name]


PLAUSIBILITY_RUNS = {
    "jump_walk": {
        "seed": 4, "partition": {"type": "dyadic", "T": 1.0, "max_level": 10},
        "path": {"kind": "with_jumps", "base": {"kind": "scaled_random_walk", "sigma": 1.0},
                 "jumps": [[0.5, 0.7], [0.625, -0.3]]}},
    "flat_jump": {
        "partition": {"type": "dyadic", "T": 1.0, "max_level": 8},
        "path": {"kind": "with_jumps", "base": {"kind": "smooth", "name": "linear", "scale": 0.0},
                 "jumps": [[0.5, 1.5]]}},
}
PLAUSIBILITY_GOLDEN = {
    "jump_walk": {
        "plausibility.csv":
            "0612f46f649fde5941ccb35aa5206691314f2b0fd946529b361d8fb1496c96c3",
        "plausibility.json":
            "b58dba57800832775e9937e94c59c2f48e3267500e2915dc12690b12a6246fc1",
    },
    "flat_jump": {
        "plausibility.csv":
            "8e6ac99234511883ab590dbdd14290d664aae8bd3956f9ecf6d89b6595ff4908",
        "plausibility.json":
            "a085ad81323d082810c98a918377657c6d6d5f5680025b789b8b71f826626fc0",
    },
}


@pytest.mark.parametrize("name", list(PLAUSIBILITY_RUNS))
def test_plausibility_runs_write_the_recorded_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(PLAUSIBILITY_RUNS[name] | {"out": "out"}))
    assert main(["plausibility", "--config", "c.json"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / "out").iterdir())}
    assert digests == PLAUSIBILITY_GOLDEN[name]


def test_a_three_path_csv_hedge_reads_its_file_once(tmp_path, monkeypatch):
    """Every path of a hedge on a path file is that file's path: it is read
    and hedged once, and the three rows and curves are the bytes recorded
    when it was read and hedged once per path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path.csv").write_text(_csv_text())
    command, cfg = RUNS["bs_csv"]
    (tmp_path / "c.json").write_text(json.dumps(cfg | {"hedge": cfg["hedge"] | {"paths": 3},
                                                       "out": "out"}))
    reads, hedges = [], []
    monkeypatch.setattr(cli, "read_path_csv",
                        lambda *args, **kwargs: reads.append(args) or read_path_csv(*args, **kwargs))
    monkeypatch.setattr(cli, "hedge",
                        lambda *args, **kwargs: hedges.append(args) or hedge(*args, **kwargs))
    assert main([command, "--config", "c.json"]) == 1
    assert reads == [("path.csv",)]
    assert len(hedges) == 1
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / "out").iterdir())}
    assert digests == {
        "hedge_curves.csv":
            "65e3ef6cf66bdd892199c9492517cbab6f3939986ef3b7ae3e34c10ea09d31ce",
        "hedge_paths.csv":
            "541265dd50e6bed42af797884fefbbec2523fc543704fe670a709b7267c5567a",
        "hedge_summary.json":
            "03d434e2597434f5b5054e14e9e121fea4fc5f9d338db7c2f7d4b6de938b391e",
    }
