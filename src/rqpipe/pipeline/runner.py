"""Experiment runner: executes every (sequence, method, qp) job.

Each job is one stream of frames: read, optional downsample, encode and
decode, optional upsample, optional CNN post-processing, then the recon
write and PSNR-Y against the original native-resolution frame. A source
frame is held only until its decoded frame comes back, so with the mock
codec a job holds one frame at a time, however long the sequence; an
external codec takes its whole input file before it returns a frame.
External metrics run on the written recon file. Every stage is timed in
wall and thread-CPU seconds, each second charged to the innermost stage
running. Jobs run on a bounded worker pool (RQPIPE_WORKERS overrides the
size) and records are appended to the manifest in deterministic job
order. For the run, numpy's OpenBLAS gets the CPUs divided by the
workers as its thread count, so workers and BLAS threads do not
oversubscribe the CPUs.
"""

from __future__ import annotations

import ctypes
import glob
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import ConfigError, ExternalToolError
from ..frame_io import read_sequence, write_sequence
from ..metrics import QualityScore, external_metric, mean_psnr, psnr_y_sequence
from ..postproc_cnn import apply_network, load_weights
from ..resample import resample_frame
from .codecs import CodedStream
from .config import ExperimentConfig, MethodConfig, QpPair, SequenceConfig, config_as_dict, load_experiment
from .manifest import JobRecord, RunManifest, sha256_file


def _worker_count(requested: int | None) -> int:
    env = os.environ.get("RQPIPE_WORKERS")
    if requested is not None:
        return max(1, requested)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"RQPIPE_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _blas_threads(n: int):
    """Run the block with numpy's OpenBLAS at n threads, then restore the old count.

    Yields (threads before, threads during); both are None when the
    thread count cannot be set, and the threads are then left alone.
    """
    hook = _openblas()
    if hook is None:
        yield None, None
        return
    get, set_ = hook
    before = get()
    set_(n)
    try:
        yield before, get()
    finally:
        set_(before)


class _StageTimer:
    """Wall and thread-CPU seconds per stage of one job.

    Stages nest while frames stream through them: writing the recon pulls
    each frame through reading, coding and resampling. Every second is
    charged to the innermost open stage only, so the stages of a job add
    up to no more than its wall time. A stage must not yield inside its
    block; the generators time only the work between their yields.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.cpu_seconds: dict[str, float] = {}
        self._open: list[str] = []
        self._since = (0.0, 0.0)

    def _charge(self) -> None:
        """Charge the time since the innermost stage last changed to that stage."""
        now = (time.perf_counter(), time.thread_time())
        if self._open:
            stage = self._open[-1]
            self.seconds[stage] = self.seconds.get(stage, 0.0) + now[0] - self._since[0]
            self.cpu_seconds[stage] = self.cpu_seconds.get(stage, 0.0) + now[1] - self._since[1]
        self._since = now

    @contextmanager
    def __call__(self, stage: str):
        self._charge()
        self._open.append(stage)
        try:
            yield
        finally:
            self._charge()
            self._open.pop()


def _read(path, spec, timer):
    """The frames of a raw file, one at a time, each read timed as 'read'."""
    frames = read_sequence(path, spec)
    while True:
        with timer("read"):
            frame = next(frames, None)
        if frame is None:
            return
        yield frame


def _each(fn, frames, stage, timer):
    """fn(frame) for each frame as it arrives, timed as `stage`."""
    for frame in frames:
        with timer(stage):
            frame = fn(frame)
        yield frame


def _code_stream(method, down_filter, frames, spec, qp, workdir, tag, timer):
    """Downsample with down_filter, code and restore one stream, a frame at a time.

    Returns the codec's CodedStream, whose bits are set once the stream
    ends, and an iterator of its decoded frames at the source size.
    """
    coded_spec = spec
    if method.resamples:
        frames = _each(
            lambda f: resample_frame(f, method.scale, down_filter, spec.bit_depth),
            frames, "downsample", timer,
        )
        coded_spec = spec.scaled(method.scale)
    coded = CodedStream(method.codec.encode_decode(frames, coded_spec, qp, workdir, tag, timer))
    if not method.resamples:
        return coded, iter(coded)
    up = Fraction(1, 1) / method.scale
    return coded, _each(
        lambda f: resample_frame(f, up, method.up_filter, spec.bit_depth), coded, "upsample", timer
    )


def _run_job(
    seq: SequenceConfig,
    method: MethodConfig,
    qp_index: int,
    base_pair: QpPair,
    cfg: ExperimentConfig,
    workdir: Path,
    reference_hash: str,
) -> JobRecord:
    pair = method.effective_qp(base_pair)
    timer = _StageTimer()
    tag = f"{seq.label}_{method.label}_qp{qp_index}"
    rec = JobRecord(
        sequence=seq.label,
        method=method.label,
        qp_index=qp_index,
        base_qp_texture=base_pair.qp_texture,
        qp_texture=pair.qp_texture,
        qp_depth=pair.qp_depth,
        frame_count=seq.spec.frame_count,
        frame_rate=seq.frame_rate,
        reference_sha256=reference_hash,
    )
    try:
        originals = deque()  # source frames whose decoded frame is not scored yet

        def source():
            for frame in _read(seq.path, seq.spec, timer):
                originals.append(frame)
                yield frame

        texture, frames = _code_stream(
            method, method.down_filter, source(), seq.spec, pair.qp_texture, workdir, tag, timer
        )

        if method.postproc is not None:
            pp = method.postproc
            weights_qp = pp.select_weights_qp(base_pair.qp_texture)
            weights = load_weights(pp.weights_by_qp[weights_qp])
            rec.postproc_weights_qp = weights_qp

            def postprocess(frame):
                frame.y = apply_network(pp.net, weights, frame.y, seq.spec.bit_depth)
                if not pp.luma_only and frame.cb is not None:
                    frame.cb = apply_network(pp.net, weights, frame.cb, seq.spec.bit_depth)
                    frame.cr = apply_network(pp.net, weights, frame.cr, seq.spec.bit_depth)
                return frame

            frames = _each(postprocess, frames, "postproc", timer)

        native = {metric_id: [] for metric_id, how in cfg.metrics.items() if how == "native"}

        def measure(frame):
            original = originals.popleft()
            for per_frame in native.values():
                per_frame += psnr_y_sequence(
                    [original], [frame], seq.spec.bit_depth, inf_cap=cfg.psnr_inf_cap
                ).per_frame
            return frame

        recon_path = workdir / f"{tag}_recon.yuv"
        with timer("write"):
            write_sequence(_each(measure, frames, "metrics", timer), seq.spec, recon_path)
        total_bits = texture.bits

        if seq.depth_path is not None:
            depth, _ = _code_stream(
                method, method.depth_down_filter or method.down_filter,
                _read(seq.depth_path, seq.depth_spec, timer),
                seq.depth_spec, pair.qp_depth, workdir, f"{tag}_depth", timer,
            )
            deque(depth, maxlen=0)  # only the bits count, so the decoded depth is not up-sampled
            total_bits += depth.bits
            rec.notes["depth_bits"] = depth.bits

        rec.artifacts["recon"] = {
            "path": str(recon_path),
            "sha256": sha256_file(recon_path),
        }

        with timer("metrics"):
            for metric_id, how in cfg.metrics.items():
                if how == "native":
                    per_frame = native[metric_id]
                    score = QualityScore("psnr_y", per_frame, mean_psnr(per_frame, cfg.psnr_inf_cap))
                else:
                    score = external_metric(how, seq.path, recon_path, seq.spec, metric_id)
                rec.scores[metric_id] = {
                    "per_frame": [round(v, 6) if v != float("inf") else cfg.psnr_inf_cap
                                  for v in score.per_frame],
                    "sequence_value": round(score.sequence_value, 6),
                    "aggregation": score.aggregation,
                }

        rec.total_bits = total_bits
        rec.bitrate_kbps = total_bits * seq.frame_rate / seq.spec.frame_count / 1000.0
    except Exception as exc:  # every job ends in a record, whatever went wrong
        rec.status = "failed"
        rec.error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, ExternalToolError):
            rec.notes["exit_code"] = exc.returncode
            rec.notes["stderr_tail"] = exc.stderr[-2000:]
    rec.stage_seconds = {k: round(v, 6) for k, v in timer.seconds.items()}
    rec.stage_cpu_seconds = {k: round(v, 6) for k, v in timer.cpu_seconds.items()}
    return rec


def run_experiment(
    config,
    workdir=None,
    workers: int | None = None,
    resume: bool = True,
    manifest_name: str = "manifest.jsonl",
) -> RunManifest:
    """Run every job of an experiment config (path or ExperimentConfig).

    The manifest is persisted incrementally; with resume=True, jobs whose
    records, source hashes and artifact hashes are intact are skipped.
    While it runs, numpy's OpenBLAS uses max(1, CPUs // workers) threads;
    the header of a new manifest records the count before and during the
    run, the numpy version, the CPU count and the workers.
    """
    cfg = load_experiment(config) if not isinstance(config, ExperimentConfig) else config
    cfg.validate()
    n_workers = _worker_count(workers)
    out = Path(workdir) if workdir is not None else cfg.workdir
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / manifest_name
    manifest = RunManifest.load(manifest_path) if resume else RunManifest(manifest_path)
    if not resume and manifest_path.exists():
        manifest_path.unlink()

    cpus = _cpu_count()
    with _blas_threads(max(1, cpus // n_workers)) as (blas_before, blas_during):
        if not manifest.header:
            manifest.write_header(
                {
                    "toolkit": "rqpipe",
                    "version": __version__,
                    "created_unix": round(time.time(), 3),
                    "config": config_as_dict(cfg),
                    "environment": {
                        "numpy": np.__version__,
                        "cpu_count": cpus,
                        "workers": n_workers,
                        "blas_threads_before": blas_before,
                        "blas_threads": blas_during,
                    },
                }
            )

        reference_hashes = {s.label: sha256_file(s.path) for s in cfg.sequences}
        jobs = [
            (seq, method, qi, pair)
            for seq in cfg.sequences
            for method in cfg.methods
            for qi, pair in enumerate(cfg.qp_pairs)
        ]
        todo = [
            (seq, method, qi, pair)
            for seq, method, qi, pair in jobs
            if not (
                resume
                and manifest.job_intact((seq.label, method.label, qi), reference_hashes[seq.label])
            )
        ]

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_run_job, seq, method, qi, pair, cfg, out, reference_hashes[seq.label])
                for seq, method, qi, pair in todo
            ]
            # append in submission order so manifests are deterministic
            for future in futures:
                manifest.append_job(future.result())
    return manifest
