"""Run one ``pathcalc`` CLI command in this fresh interpreter.

    python3 child.py SRC_DIR SPANS_FILE|- [CLI ARGS...]

Times the import of ``pathcalc.cli`` from ``SRC_DIR`` (set-up) and then
``pathcalc.cli.main(CLI ARGS)``.  With a spans file, wraps the package's
entry points first and writes the spans there after ``main`` returns.  With
no CLI arguments it only imports.  The last stdout line is a JSON object:
``cal_s`` (the part of the import spent in ``import numpy``), ``setup_s``, ``main_s``,
``exit`` (``null`` when ``main`` raised), ``error`` and ``rss_kib``, the peak
resident memory of this process.
"""

import importlib
import sys
import time


def main():
    # Only what the interpreter has already loaded is imported before the
    # clock starts, so set-up time is the import of pathcalc.cli alone.
    # numpy, which pathcalc.cli imports first anyway, is timed on its own as
    # well: no change to the package can move that time, so it measures
    # how fast the machine runs now.
    t0 = time.perf_counter()
    importlib.import_module("numpy")
    cal_s = time.perf_counter() - t0
    sys.path.insert(0, sys.argv[1])
    cli = importlib.import_module("pathcalc.cli")
    setup_s = time.perf_counter() - t0

    import json
    import resource
    import traceback
    from pathlib import Path

    src, spans_file, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    loaded = Path(cli.__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"pathcalc was imported from {loaded}, not from {src}")
    tracer = None
    if spans_file != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    code, error, main_s = None, None, 0.0
    if argv:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            error = traceback.format_exc(limit=-4)
        main_s = time.perf_counter() - start
    if tracer is not None:
        tracer.write(spans_file)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"cal_s": cal_s, "setup_s": setup_s, "main_s": main_s, "exit": code,
                      "error": error, "rss_kib": rss}))


if __name__ == "__main__":
    main()
