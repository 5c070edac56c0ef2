"""rqpipe benchmark: one experiment per repetition, through the public API.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; rqpipe is imported from ./src.
The workloads, and why each was chosen, are in perfbench/workloads.py.

A run:

1. generates the workload's inputs from the seed, in a process of its own;
2. until --seconds have passed, makes one repetition after another. Each
   is a fresh child process (measure.py) that imports rqpipe, loads the
   config, runs the experiment with 2 workers, resumes it on the finished
   workdir and assembles the report. Its workdir is then checked
   (checks.py) and deleted;
3. prints every metric with its unit, the check results and an
   environment record, and as its last line one JSON object.

End-to-end metrics (--trace 0), each the median over the repetitions:

  job_frames_per_s     jobs x frames per job / wall time of the first,
                       non-resumed run_experiment              frames/s
  cpu_s_per_job_frame  user+sys CPU of the measured process over that
                       call / job-frames                        s
  peak_rss_mb          ru_maxrss of the measured process after that call MB
  resume_s             wall time of run_experiment(resume=True) on the
                       finished workdir (median of several)     s
  setup_s              child process start to the first run: interpreter,
                       import rqpipe and load_experiment        s
  failed_ratio         failed jobs / attempted jobs; carried by the
                       "failed" and "attempted" fields          ratio

With --trace 1 the repetitions alternate untraced and traced; the traced
ones give the per-layer metrics (spans.py), and the tracing overhead is
the traced job_frames_per_s minus the untraced one.

Exit status: 0 when every check passes, 1 when one fails, 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import CONFIG_NAME, POSTPROC, WORKLOADS  # noqa: E402

WORKERS = 2
# Untraced repetitions resume until this much time was spent and report the
# median; traced ones resume once, so that their span counts repeat exactly.
RESUME_SECONDS = 0.5
DEFAULT_SEED = 1  # the seed reference.json holds per-job values for
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170  # a run must end within 180 s
SCRATCH = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

E2E_UNITS = {
    "job_frames_per_s": "frames/s",
    "cpu_s_per_job_frame": "s",
    "peak_rss_mb": "MB",
    "resume_s": "s",
    "setup_s": "s",
}


class RunFailed(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_thread_cap() -> int:
    """BLAS threads per process so that workers x BLAS threads <= nproc."""
    return max(1, nproc() // WORKERS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_thread_cap())
    env.pop("RQPIPE_WORKERS", None)
    return env


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_child(cmd: list[str], deadline: float) -> None:
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{Path(cmd[1]).name} did not finish before the run's time limit") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{Path(cmd[1]).name} exited with status {proc.returncode}")


def repetition(k: int, traced: bool, wl, inputs: Path, tmp: Path, reference, deadline: float) -> dict:
    """One measured child process plus the checks on its workdir."""
    workdir = tmp / f"rep{k}"
    result_path = tmp / f"rep{k}.json"
    spawn = _now()
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--config", str(inputs / CONFIG_NAME), "--workdir", str(workdir),
        "--result", str(result_path), "--spawn", repr(spawn),
        "--workers", str(WORKERS), "--resume-seconds", str(0 if traced else RESUME_SECONDS),
    ] + (["--trace"] if traced else [])
    try:
        run_child(cmd, deadline)
        res = json.loads(result_path.read_text())
        res["traced"] = traced
        res["hashes"], res["failures"] = checks.check_workdir(workdir, inputs, wl, reference)
        res["values"] = checks.reference_values(workdir)
        if res["resume_appended_bytes"]:
            for key in res["hashes"]:
                res["failures"].setdefault(key, []).append("the resume run appended records")
        res["workdir_bytes"] = tree_bytes(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    return res


def measure(wl, seed: int, seconds: float, trace: bool, record: bool, tmp: Path, started: float):
    inputs = tmp / "inputs"
    deadline = started + RUN_LIMIT_S
    run_child([sys.executable, str(HERE / "workloads.py"), "--workload", wl.name,
               "--seed", str(seed), "--out", str(inputs)], deadline)
    reference = None
    if seed == DEFAULT_SEED and not record:
        reference = json.loads(REFERENCE.read_text())[wl.name]

    reps: list[dict] = []
    t0 = _now()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_start = _now()
        reps.append(repetition(len(reps), traced, wl, inputs, tmp, reference, deadline))
        have_both = not trace or len(reps) >= 2
        last = _now() - rep_start
        if have_both and (_now() - t0 >= seconds or _now() + 1.5 * last > deadline):
            break
    if record:
        # the first repetition's per-job values become the stored reference
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table[wl.name] = reps[0]["values"]
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return inputs, reps


def e2e_samples(wl, reps: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric, one value per untraced repetition."""
    plain = [r for r in reps if not r["traced"]]
    return {
        "job_frames_per_s": [wl.job_frames / r["run_s"] for r in plain],
        "cpu_s_per_job_frame": [r["run_cpu_s"] / wl.job_frames for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "resume_s": [statistics.median(r["resume_s"]) for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def environment(wl, inputs_bytes: int, reps: list[dict]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "workers": WORKERS,
        "blas_threads_pinned": blas_thread_cap(),
        "blas_threads_seen": reps[0].get("blas_threads"),
        "git_commit": git_commit(),
        "workload": wl.name,
        "input_bytes": inputs_bytes,
        "workdir_bytes": max(r["workdir_bytes"] for r in reps),
        "resume_note": "resume_s hashes from a warm page cache (the files were just written), not from disk",
    }


def print_layers(wl, layer: dict, acc: dict) -> None:
    print(f"per-layer, median of traced repetitions ({WORKERS} workers); share = self time in the "
          "first run / (run wall x workers)")
    for op in spans.OPS:
        calls = layer[f"{op}_calls"]
        if not calls:
            why = "no post-processed method" if op.startswith("postproc_cnn") and POSTPROC not in wl.methods \
                else "not called"
            print(f"  {op:28s} not run on this workload: {why}")
            continue
        own = acc["runner_self_s"] if op == spans.RUN else acc["self_by_op"].get(op, 0.0)
        share = own / acc["budget_s"]
        print(f"  {op:28s} {layer[f'{op}_s']:10.4f} s  wait {layer[f'{op}_wait_s']:9.4f} s  "
              f"calls {calls:7.0f}  share {100 * share:5.1f}%")
    for name, (unit, _) in spans.DERIVED.items():
        print(f"  {name:36s} {layer[name]:.6g} {unit}")
    print(f"  accounting: layer self times {acc['layer_self_s']:.3f} s + runner self "
          f"{acc['runner_self_s']:.3f} s = {acc['accounted_ratio']:.4f} x (wall {acc['wall_s']:.3f} s "
          f"x {WORKERS} workers); any excess is work on the run's own thread")


def report(wl, seed: int, inputs: Path, reps: list[dict], trace: bool) -> dict:
    attempted = wl.jobs * len(reps)
    failed_keys = [(k, key, msgs) for k, r in enumerate(reps) for key, msgs in r["failures"].items()]
    plain = [r for r in reps if not r["traced"]]
    if trace:
        base = plain[0]["hashes"]
        for k, r in enumerate(reps):
            if r["traced"] and r["hashes"] != base:
                for key in set(base) | set(r["hashes"]):
                    if base.get(key) != r["hashes"].get(key):
                        failed_keys.append((k, key, ["traced recon differs from the untraced one"]))
    failed = len({(k, key) for k, key, _ in failed_keys})

    samples = e2e_samples(wl, reps)
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    print(f"perfbench {wl.name} seed={seed}: {wl.jobs} jobs x {wl.frames} frames of "
          f"{wl.width}x{wl.height} 10-bit 4:2:0, {len(plain)} untraced repetitions")
    for name, unit in E2E_UNITS.items():
        values = samples[name]
        print(f"  {name:22s} {e2e[name]:.6g} {unit} (median; min {min(values):.6g}, max {max(values):.6g})")
    print(f"  {'failed_ratio':22s} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print("  resume_s hashes from a warm page cache, not from disk")
    for k, key, msgs in failed_keys:
        print(f"  CHECK FAILED repetition {k} job {key}: {'; '.join(msgs)}")
    if not failed_keys:
        print("  all output checks passed")

    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = []
        for r in traced:
            m = spans.layer_metrics(r["spans"], r["counters"], WORKERS, wl.jobs)
            spans.guard_required(m, wl.required_layers)
            per_rep.append(m)
        layer = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        traced_jfps = statistics.median(wl.job_frames / r["run_s"] for r in traced)
        layer["tracing.overhead_job_frames_per_s"] = traced_jfps - e2e["job_frames_per_s"]
        print_layers(wl, layer, spans.run_accounting(traced[-1]["spans"], WORKERS))
        print(f"  tracing overhead: traced {traced_jfps:.4f} - untraced {e2e['job_frames_per_s']:.4f} frames/s")
        TRACE_OUT.mkdir(exist_ok=True)
        (TRACE_OUT / f"{wl.name}_seed{seed}_spans.json").write_text(
            json.dumps({"spans": traced[-1]["spans"], "counters": traced[-1]["counters"]}))
        units = spans.per_layer_units()
        metrics = {name: {"value": layer[name], "unit": units[name][0]} for name in units}

    print("env: " + json.dumps(environment(wl, tree_bytes(inputs), reps), sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    started = _now()
    ap = argparse.ArgumentParser(description="rqpipe benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store this run's per-job values as the reference for seed {DEFAULT_SEED}")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rqpipe" / "__init__.py").is_file():
        print(f"perfbench: no rqpipe sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--record-reference needs --seed {DEFAULT_SEED}")
    wl = WORKLOADS[args.workload]

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}_", dir=SCRATCH))
    try:
        inputs, reps = measure(wl, args.seed, args.seconds, bool(args.trace), args.record_reference,
                               tmp, started)
        result = report(wl, args.seed, inputs, reps, bool(args.trace))
    except (RunFailed, spans.TraceGuardError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still has its directory there
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
