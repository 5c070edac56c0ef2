"""The measured process: one experiment through rqpipe's public API.

    python3 perfbench/measure.py --config INI --workdir DIR --result JSON
        --spawn T --workers N --resume-seconds S [--trace]

Imports rqpipe, loads the config, runs the experiment once from scratch,
then runs it again with resume on the finished workdir until S seconds
were spent on resuming (at least once, at most 100 times), and assembles
the report. With --trace the public callables are wrapped
(see spans.py) before anything runs. Writes its measurements, and with
--trace its spans, to the result file. `--spawn` is the CLOCK_MONOTONIC
time at which the parent started this process, so set-up time counts
interpreter start-up, `import rqpipe` and `load_experiment`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, when it can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--resume-seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import rqpipe

    load, run, report = rqpipe.load_experiment, rqpipe.run_experiment, rqpipe.assemble_report
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        load = tracer.wrap("pipeline.config.load", load)
        run = tracer.wrap("pipeline.runner.run", run)
        report = tracer.wrap("pipeline.report.assemble", report)

    cfg = load(args.config)
    setup_s = _now() - args.spawn

    workdir = Path(args.workdir)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    run(cfg, workdir, workers=args.workers, resume=False)
    run_s = time.perf_counter() - t0
    run_cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    manifest_path = workdir / "manifest.jsonl"
    size_before = manifest_path.stat().st_size
    resume_s = []
    while not resume_s or (sum(resume_s) < args.resume_seconds and len(resume_s) < 100):
        t0 = time.perf_counter()
        manifest = run(cfg, workdir, workers=args.workers, resume=True)
        resume_s.append(time.perf_counter() - t0)
    resume_appended_bytes = manifest_path.stat().st_size - size_before

    report(manifest, workdir / "report")

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "resume_s": resume_s,
        "resume_appended_bytes": resume_appended_bytes,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
