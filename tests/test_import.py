"""What a launch imports, checked in fresh interpreters.

``pathcalc.functionals`` loads scipy's compiled ``scipy.special._ufuncs``
without running ``scipy.special``'s package ``__init__`` (README, "CLI"), and
``pathcalc.cli`` imports the modules the commands would otherwise import on
first use, so that ``main()`` imports nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathcalc
from pathcalc import dyadic, generate, write_path_csv

WALK = {"kind": "geometric_walk", "sigma": 0.3, "x0": 1.0}

# argv[1]: "1" to import scipy.special before pathcalc; argv[2]: a JSON list
# of CLI argument lists.  Prints one JSON report.
_LAUNCH = """
import json, os, sys
if sys.argv[1] == "1":
    import scipy.special
environ, special = dict(os.environ), sys.modules.get("scipy.special")
before = set(sys.modules)
import pathcalc.cli
from pathcalc import functionals
report = {"imported": sorted(set(sys.modules) - before),
          "special_kept": sys.modules.get("scipy.special") is special,
          "environ_kept": dict(os.environ) == environ,
          "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"), "main": []}
for argv in json.loads(sys.argv[2]):
    before = set(sys.modules)
    code = pathcalc.cli.main(argv)
    report["main"].append([argv[0], code, sorted(set(sys.modules) - before)])
import scipy.special
report["same_ufuncs"] = [getattr(scipy.special, n) is getattr(functionals, n)
                         for n in ("ndtr", "boxcox", "inv_boxcox")]
report["real_init"] = scipy.special.__spec__.origin.endswith("__init__.py") and hasattr(
    scipy.special, "logsumexp")
print(json.dumps(report))
"""

# scipy.special's package __init__ imports these through its array-API layer;
# numpy.ma too, which np.median, np.quantile and np.unique import on first use;
# no command calls them
_INIT_ONLY = ("numpy.f2py", "numpy.testing", "numpy.ma", "scipy._lib.array_api_compat",
              "scipy.special._support_alternative_backends")


def _commands(tmp_path):
    """CLI argument lists of a small run of every command, and of ``qv`` on a
    path file with a jump off level 7 (np.loadtxt and the refinement)."""
    level = 8
    seq = dyadic(1.0, level)
    file = tmp_path / "jumps.csv"
    write_path_csv(generate({"kind": "with_jumps", "base": WALK, "jumps": [[3 / 2**level, 0.1]]},
                            3, seq), str(file))
    bs = {"name": "black_scholes", "sigma": 0.2, "strike": 1.0}
    partition = {"type": "dyadic", "T": 1.0, "max_level": level}
    configs = {
        "qv": {"path": WALK},
        "qv_file": {"path": {"file": str(file)}},
        "integrate": {"path": WALK, "functional": bs, "integrate": {"residual_levels": [4, 6, 8]}},
        "hedge": {"path": WALK, "functional": bs, "hedge": {
            "density": {"kind": "bs", "sigma": 0.2}, "realized": {"kind": "bs", "sigma": 0.3},
            "payoff": {"kind": "call", "strike": 1.0}, "paths": 3}},
        "plausibility": {"path": WALK},
    }
    commands = []
    for name, cfg in configs.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"seed": 1, "partition": partition, **cfg}))
        commands.append([name.split("_")[0], "--config", str(config),
                         "--out", str(tmp_path / name)])
    return commands


@pytest.mark.parametrize("preset", [None, "7"], ids=["no_timeout", "timeout_preset"])
@pytest.mark.parametrize("special_first", [False, True], ids=["fresh", "scipy_special_first"])
def test_a_launch_skips_the_scipy_special_init_and_main_imports_nothing(tmp_path, special_first,
                                                                         preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(pathcalc.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    run = subprocess.run(
        [sys.executable, "-c", _LAUNCH, "1" if special_first else "0",
         json.dumps(_commands(tmp_path))],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    if not special_first:
        assert not [m for m in report["imported"]
                    if any(m == p or m.startswith(p + ".") for p in _INIT_ONLY)]
        assert "scipy.special._ufuncs" in report["imported"]
    # no stand-in parent is left, and the environment is as it was
    assert report["special_kept"]
    assert report["environ_kept"]
    assert report["timeout"] == preset
    for command, code, imported in report["main"]:
        assert code in (0, 1), command
        assert imported == [], command
    assert report["same_ufuncs"] == [True] * 3
    assert report["real_init"]
