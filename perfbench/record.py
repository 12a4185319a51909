"""Record ``reference.json``: the output digests of every input set.

    python3 perfbench/record.py

Run it on the commit whose outputs are the reference.  A file-route command
(``qv_csv``) is recorded from its generator route, because the file route of
command (b) fails on the reference commit; where the file route succeeds it
must give the same digests.  Recording all input sets takes about ten
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import inputs
from run import HERE, ROOT, Run, failure_of, provenance


def record(run, cmd, config):
    report, out = run.command(cmd, config)
    why = failure_of(report)
    if why is not None:
        return None, None, why
    fields = checks.record_fields(out)
    got = checks.digests(out, fields)
    shutil.rmtree(out)
    return fields, got, None


def main():
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, None)
    fields, digests, notes = {}, {}, set()
    for workload in inputs.WORKLOADS:
        for k in range(inputs.INPUT_SETS):
            for cmd in inputs.make_inputs(workload, k, work / "inputs"):
                key = f"{workload}/{cmd.label}"
                f, d, why = record(run, cmd, cmd.reference or cmd.config)
                if why is not None:
                    sys.exit(f"{key} input set {k}: {why}")
                if fields.setdefault(key, f) != f:
                    sys.exit(f"{key} input set {k}: outputs differ in shape from set 0")
                digests.setdefault(key, []).append(d)
                if cmd.reference is not None:
                    _, d_file, why = record(run, cmd, cmd.config)
                    if why is None and d_file != d:
                        sys.exit(f"{key} input set {k}: file route differs from generator")
                    if why is not None:
                        notes.add(f"{key}: file route fails: {why}")
            print(f"{workload} input set {k} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps({
        "recorded_on": provenance(),
        "notes": sorted(notes),
        "fields": fields,
        "digests": digests,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
