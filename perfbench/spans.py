"""Spans and counters recorded around rqpipe's public calls, and the
per-layer metrics derived from them.

The traced run replaces the module attributes that rqpipe's pipeline
looks up at call time (in `rqpipe.pipeline.runner`, `.codecs`,
`.manifest`, `.config` and `.report`) with wrappers that pass their
arguments and results through unchanged. Each call becomes one span:
name, wall start and end, thread-CPU start and end, thread, and parent
span. A span opened on a thread with no open span (a worker of the
runner's pool) takes the open `pipeline.runner.run` span as its parent.
Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans on the same thread cover.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from itertools import count

# Timed operations, in report order. Each reports <op>_s (wall time summed
# over spans), <op>_wait_s (wall minus thread CPU time inside those spans:
# waiting on the GIL or on I/O) and <op>_calls.
OPS = (
    "frame_io.read",
    "frame_io.write",
    "resample.down",
    "resample.up",
    "pipeline.codecs.encode",
    "pipeline.codecs.decode",
    "postproc_cnn.apply",
    "postproc_cnn.load_weights",
    "metrics.psnr",
    "bd_stats.bd",
    "pipeline.config.load",
    "pipeline.manifest.append",
    "pipeline.manifest.hash",
    "pipeline.report.assemble",
    "pipeline.runner.run",
)
RUN = "pipeline.runner.run"

# name -> (unit, better) of every per-layer metric besides the per-op triples
DERIVED = {
    "frame_io.read_MB": ("MB", "lower"),
    "frame_io.write_MB": ("MB", "lower"),
    "resample.down_Mpx": ("Mpx", "lower"),
    "pipeline.codecs.coded_Mpx": ("Mpx", "lower"),
    "postproc_cnn.gmac": ("GMAC", "lower"),
    "postproc_cnn.gmac_per_s": ("GMAC/s", "higher"),
    "bd_stats.curves": ("count", "higher"),
    "pipeline.manifest.hash_MB": ("MB", "lower"),
    "pipeline.manifest.skip_ratio": ("ratio", "higher"),
    "pipeline.runner.self_s": ("s", "lower"),
    "pipeline.runner.busy_ratio": ("ratio", "higher"),
    "tracing.overhead_job_frames_per_s": ("frames/s", "higher"),
}

# span fields, stored as lists so they serialise to JSON as they are
ID, PARENT, NAME, THREAD, T0, T1, C0, C1 = range(8)


class TraceGuardError(RuntimeError):
    """A wrapped name is gone, or a layer that must run recorded no call."""


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for op in OPS:
        units[f"{op}_s"] = ("s", "lower")
        units[f"{op}_wait_s"] = ("s", "lower")
        units[f"{op}_calls"] = ("count", "lower")
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._run_span: list | None = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else (self._run_span[ID] if self._run_span else None)
        span = [next(self._ids), parent, name, threading.get_ident(),
                time.perf_counter(), 0.0, time.thread_time(), 0.0]
        stack.append(span)
        if name == RUN and self._run_span is None:
            self._run_span = span
        return span

    def end(self, span: list, keep: bool = True) -> None:
        span[T1] = time.perf_counter()
        span[C1] = time.thread_time()
        self._stack().pop()
        if span is self._run_span:
            self._run_span = None
        if keep:
            self.spans.append(span)

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """fn with every call recorded as span `name`; on_result(args, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_iterator(self, name, fn, on_item):
        """fn returns an iterator; each next() on it is one span `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def frames():
                while True:
                    span = self.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.end(span, keep=False)
                        return
                    except BaseException:
                        self.end(span)
                        raise
                    self.end(span)
                    on_item(item)
                    yield item

            return frames()

        return traced

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(owner.attr); fails loudly if attr is gone."""
        if not hasattr(owner, attr):
            raise TraceGuardError(
                f"{getattr(owner, '__name__', owner)}.{attr} no longer exists; "
                "update perfbench/spans.py so the layer stays timed"
            )
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every public callable the pipeline looks up at call time."""
        from rqpipe.pipeline import codecs, config, manifest, report, runner

        def hashed(fn):
            def sha(path, *args, **kwargs):
                self.add("pipeline.manifest.hash_MB", os.path.getsize(path) / 1e6)
                return fn(path, *args, **kwargs)

            return self.wrap("pipeline.manifest.hash", functools.wraps(fn)(sha))

        self.patch(runner, "read_sequence", lambda fn: self.wrap_iterator(
            "frame_io.read", fn,
            lambda frame: self.add("frame_io.read_MB", sum(p.nbytes for p in frame.planes()) / 1e6)))
        self.patch(runner, "write_sequence",
                   lambda fn: self.wrap("frame_io.write", fn,
                                        lambda args, written: self.add("frame_io.write_MB", written / 1e6)))
        self.patch(runner, "resample_frame", self._wrap_resample)
        self.patch(codecs, "mock_encode", lambda fn: self.wrap(
            "pipeline.codecs.encode", fn,
            lambda args, result: self.add("pipeline.codecs.coded_Mpx", _coded_samples(result[0]) / 1e6)))
        self.patch(codecs, "mock_decode", lambda fn: self.wrap("pipeline.codecs.decode", fn))
        self.patch(runner, "apply_network", lambda fn: self.wrap(
            "postproc_cnn.apply", fn,
            lambda args, result: self.add("postproc_cnn.gmac", conv_macs(args[0], result.shape) / 1e9)))
        for owner in (runner, config):
            self.patch(owner, "load_weights", lambda fn: self.wrap("postproc_cnn.load_weights", fn))
        self.patch(runner, "psnr_y_sequence", lambda fn: self.wrap("metrics.psnr", fn))
        for owner in (runner, manifest):
            self.patch(owner, "sha256_file", hashed)
        self.patch(manifest.RunManifest, "append_job",
                   lambda fn: self.wrap("pipeline.manifest.append", fn))
        self.patch(report, "bd_quality", lambda fn: self.wrap(
            "bd_stats.bd", fn, lambda args, result: self.add("bd_stats.curves", 1)))

    def _wrap_resample(self, fn):
        # the direction follows from the factor, so the span name survives
        # any change to how resample_frame is told which way to go
        down, up = self.wrap("resample.down", fn), self.wrap("resample.up", fn)

        @functools.wraps(fn)
        def traced(frame, factor, *args, **kwargs):
            if factor < 1:
                self.add("resample.down_Mpx", sum(p.size for p in frame.planes()) / 1e6)
                return down(frame, factor, *args, **kwargs)
            return up(frame, factor, *args, **kwargs)

        return traced

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _coded_samples(payload) -> int:
    """Samples in a mock_encode payload: one (coefficients, (h, w)) per plane."""
    return sum(dims[0] * dims[1] for coded in payload for _, dims in coded)


def conv_macs(net, out_shape) -> int:
    """Multiply-accumulates of one apply_network call, computed from the conv
    shapes and the plane size (every conv of the cascade is stride 1, same size)."""
    h, w = out_shape
    macs = 0
    for layer in net.conv_layers():
        oh = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
        ow = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
        macs += layer.out_ch * layer.in_ch * layer.kernel * layer.kernel * oh * ow
    return macs


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus what its children on the same thread cover."""
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and parent[THREAD] == s[THREAD]:
            children.setdefault(parent[ID], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c[T0], s[T0]), min(c[T1], s[T1])) for c in children.get(s[ID], ())]
        out[s[ID]] = (s[T1] - s[T0]) - union_length((a, b) for a, b in kids if b > a)
    return out


def run_accounting(spans, workers: int) -> dict[str, float]:
    """Split the first run_experiment call's wall time x workers into layer
    self times and runner self time.

    The worker threads are the threads other than the run's own that hold
    spans inside the run (the run's own thread when there is no pool).
    `self_s` is wall x workers minus the span time that covers those
    threads; layer self times also count spans on the run's own thread,
    such as reference hashing and manifest appends, so the accounted total
    is wall x workers plus that main-thread work.
    """
    runs = sorted((s for s in spans if s[NAME] == RUN), key=lambda s: s[T0])
    if not runs:
        raise TraceGuardError("no pipeline.runner.run span recorded")
    run = runs[0]
    wall = run[T1] - run[T0]
    inside = [s for s in spans if s is not run and s[T0] >= run[T0] and s[T1] <= run[T1]]
    threads = {s[THREAD] for s in inside if s[THREAD] != run[THREAD]} or {run[THREAD]}
    covered = sum(
        union_length((s[T0], s[T1]) for s in inside if s[THREAD] == t) for t in threads
    )
    budget = wall * workers
    runner_self = budget - covered
    selfs = self_times(spans)
    self_by_op: dict[str, float] = {}
    for s in inside:
        self_by_op[s[NAME]] = self_by_op.get(s[NAME], 0.0) + selfs[s[ID]]
    layer_self = sum(self_by_op.values())
    return {
        "wall_s": wall,
        "budget_s": budget,
        "runner_self_s": runner_self,
        "busy_ratio": covered / budget if budget else 0.0,
        "layer_self_s": layer_self,
        "self_by_op": self_by_op,
        "accounted_ratio": (layer_self + runner_self) / budget if budget else 0.0,
    }


def layer_metrics(spans, counters, workers: int, jobs: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, from one traced run."""
    out = {}
    for op in OPS:
        mine = [s for s in spans if s[NAME] == op]
        out[f"{op}_s"] = sum(s[T1] - s[T0] for s in mine)
        out[f"{op}_wait_s"] = sum((s[T1] - s[T0]) - (s[C1] - s[C0]) for s in mine)
        out[f"{op}_calls"] = len(mine)
    for name in DERIVED:
        out[name] = counters.get(name, 0.0)
    apply_s = out["postproc_cnn.apply_s"]
    out["postproc_cnn.gmac_per_s"] = out["postproc_cnn.gmac"] / apply_s if apply_s else 0.0

    acc = run_accounting(spans, workers)
    out["pipeline.runner.self_s"] = acc["runner_self_s"]
    out["pipeline.runner.busy_ratio"] = acc["busy_ratio"]

    # the second run_experiment call is the resume: every job it does not
    # append a record for was found intact
    runs = sorted((s for s in spans if s[NAME] == RUN), key=lambda s: s[T0])
    if len(runs) > 1:
        r = runs[1]
        appended = sum(
            1 for s in spans
            if s[NAME] == "pipeline.manifest.append" and r[T0] <= s[T0] <= r[T1]
        )
        out["pipeline.manifest.skip_ratio"] = 1.0 - appended / jobs
    return out


def guard_required(metrics: dict, required) -> None:
    """Fail loudly when a layer that must run on this workload recorded no call."""
    missing = [op for op in required if not metrics.get(f"{op}_calls")]
    if missing:
        raise TraceGuardError(f"layers with zero recorded calls: {', '.join(missing)}")
