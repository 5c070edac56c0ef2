"""Experiment runner: executes every (sequence, method, qp) job.

Each job is one stream of frames: read, optional downsample, encode and
decode, optional upsample, optional CNN post-processing, then the recon
write and PSNR-Y against the original native-resolution frame. The read,
the resampling, the post-processing and the scoring each map one timed
call over the frames, and a map drops its frame when the call returns, so
no stage holds a frame while the next one is pulled. A source frame is
kept until its decoded frame is scored: with the mock codec, which
returns each frame before it takes the next, that is one frame at a
time, however long the sequence. A codec that takes a frame while one is
kept reads ahead, as an external codec, which takes its whole input file
first, does; the job then keeps none and scores the decoded frames
against a second, streaming read of the source.
External metrics run on the written recon file. Every stage is timed in
wall and thread-CPU seconds, each second charged to the innermost stage
running. Jobs run on a bounded worker pool, by default one worker per
CPU this process may use, and each record is appended to the manifest
as its job ends, so the lines come in completion order; the record set
does not depend on the worker count. Each record carries a hash of the
configuration its job ran with, input contents but no paths, and resume
redoes a job whose hash changed. Before any job starts, the same pool
hashes each source and depth file and, on resume, each job's recon, when
the file is larger than the 1 MiB hash chunk; smaller files are hashed
on the calling thread, where a pool task would cost more. For the run,
numpy's OpenBLAS runs at one thread: the workers use the CPUs, and the
CNN's sums, whose order OpenBLAS picks by thread count, are the same
whatever the worker count.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import logging
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, as_completed, wait
from contextlib import contextmanager
from functools import cache
from itertools import repeat
from pathlib import Path

import numpy as np

from .. import __version__, postproc_cnn, resample
from ..errors import ConfigError, ExternalToolError, kill_running_tools
from ..frame_io import read_sequence, write_sequence
from ..metrics import QualityScore, external_metric, mean_psnr, psnr_y_sequence
from ..postproc_cnn import apply_network, load_weights
from ..resample import resample_frame
from . import codecs
from .codecs import CodedStream
from .config import ExperimentConfig, MethodConfig, QpPair, SequenceConfig, config_as_dict, load_experiment
from .manifest import JobRecord, RunManifest, sha256_soon
from .manifest import sha256_file  # noqa: F401  a name perfbench's spans wrap, though no job reads its recon back

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # not on Windows
    getrusage = None

log = logging.getLogger(__name__)

# a job logs its frame progress at most once per this many of its wall seconds
PROGRESS_SECONDS = 30.0


def _worker_count(requested: int | None) -> int:
    if requested is not None and requested < 1:
        raise ConfigError(f"workers must be at least 1, got {requested}")
    return _cpu_count() if requested is None else requested


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _peak_rss_mb() -> float | None:
    """The process's peak RSS in MiB: VmHWM from /proc/self/status, which
    unlike ru_maxrss starts again at exec, or ru_maxrss (KiB on Linux)
    where /proc is absent; None where neither is known."""
    try:
        with open("/proc/self/status", "rb") as fh:
            status = fh.read()
        at = status.index(b"VmHWM:")
        return round(int(status[at + 6 : status.index(b"kB", at)]) / 1024, 1)
    except (OSError, ValueError):  # no /proc, or no VmHWM in it
        return None if getrusage is None else round(getrusage(RUSAGE_SELF).ru_maxrss / 1024, 1)


@cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy,
    its core name and its build config, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            core = lib.scipy_openblas_get_corename64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        for name in (core, config):
            name.argtypes, name.restype = [], ctypes.c_char_p
        return get, set_, core().decode(), config().decode()
    return None


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore the
    old count. OpenBLAS picks a GEMM's sum order by its thread count, so
    the CNN's bits then depend on its kernel alone.

    Yields the manifest header's BLAS fields: the threads before and
    during the block, and the OpenBLAS core name and build config, on
    which the CNN's sums depend too. All are None when the thread count
    cannot be set, and the threads are then left alone.
    """
    hook = _openblas()
    if hook is None:
        yield dict.fromkeys(("blas_threads_before", "blas_threads", "blas_core", "blas_config"))
        return
    get, set_, core, config = hook
    before = get()
    set_(1)
    try:
        yield {"blas_threads_before": before, "blas_threads": get(), "blas_core": core, "blas_config": config}
    finally:
        set_(before)


class _StageTimer:
    """Wall and thread-CPU seconds per stage of one job.

    Stages nest while frames stream through them: writing the recon pulls
    each frame through reading, coding and resampling. Every second is
    charged to the innermost open stage only, so the stages of a job add
    up to no more than its wall time; a stage must not yield inside its block.
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


def _timed(fn, stage, timer):
    """fn, each call of it timed as `stage`."""

    def call(item):
        with timer(stage):
            return fn(item)

    return call


def _read(path, spec, timer):
    """The frames of a raw file, each read timed as 'read': exactly spec.frame_count
    reads, the frames read_sequence yields, as a StopIteration would end the map."""
    return map(_timed(next, "read", timer), repeat(read_sequence(path, spec), spec.frame_count))


def _code_stream(method, down_filter, frames, spec, qp, workdir, tag, timer):
    """Downsample with down_filter, code and restore one stream, a frame at a time.

    Returns the codec's CodedStream, whose bits are set once the stream
    ends, and an iterator of its decoded frames at the source size.
    """
    coded_spec = spec
    if method.resamples:
        down = _timed(lambda f: resample_frame(f, method.scale, down_filter, spec.bit_depth), "downsample", timer)
        frames = map(down, frames)
        coded_spec = spec.scaled(method.scale)
    coded = CodedStream(method.codec.encode_decode(frames, coded_spec, qp, workdir, tag, timer))
    if not method.resamples:
        return coded, iter(coded)
    up = _timed(lambda f: resample_frame(f, 1 / method.scale, method.up_filter, spec.bit_depth), "upsample", timer)
    return coded, map(up, coded)


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
    start = last = time.perf_counter()
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
        psnr = [] if cfg.metrics.get("psnr_y") == "native" else None  # PSNR-Y per frame, capped
        held = []  # the source frame whose decoded frame is not scored yet
        rereads = None  # once the codec reads ahead, a second read of the source to score against

        def source(frame):
            nonlocal rereads
            if held:  # a frame taken before the one held came back: the codec reads its whole input first
                held.clear()
                rereads = _read(seq.path, seq.spec, timer)
            elif rereads is None:
                held.append(frame)
            return frame

        frames = _read(seq.path, seq.spec, timer)
        texture, frames = _code_stream(
            method, method.down_filter, frames if psnr is None else map(source, frames),
            seq.spec, pair.qp_texture, workdir, tag, timer,
        )

        if method.postproc is not None:
            pp = method.postproc
            weights_qp = pp.select_weights_qp(base_pair.qp_texture)
            path = pp.weights_by_qp[weights_qp]
            weights = load_weights(path, sha256=pp.weights_sha256[str(path)])
            rec.postproc_weights_qp = weights_qp

            def postprocess(frame):
                frame.y = apply_network(pp.net, weights, frame.y, seq.spec.bit_depth)
                if not pp.luma_only and frame.cb is not None:
                    frame.cb = apply_network(pp.net, weights, frame.cb, seq.spec.bit_depth)
                    frame.cr = apply_network(pp.net, weights, frame.cr, seq.spec.bit_depth)
                return frame

            frames = map(_timed(postprocess, "postproc", timer), frames)

        done = 0  # frames measured: a count, not enumerate, which holds its last frame during the next pull

        def measure(frame):
            nonlocal last, done
            done += 1
            if psnr is not None:
                original = held.pop() if rereads is None else next(rereads)
                (value,) = psnr_y_sequence([original], [frame], seq.spec.bit_depth).per_frame
                psnr.append(min(value, cfg.psnr_inf_cap))  # as mean_psnr counts it
            if (now := time.perf_counter()) - last >= PROGRESS_SECONDS:
                log.info("job %s/%s/%d: frame %d/%d in %.1f s", *rec.key, done, seq.spec.frame_count, now - start)
                last = now
            return frame

        recon_path = workdir / f"{tag}_recon.yuv"
        recon_sha256 = hashlib.sha256()  # of the bytes as they are written: the recon is not read back
        with timer("write"):
            write_sequence(map(_timed(measure, "metrics", timer), frames), seq.spec, recon_path, digest=recon_sha256)
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

        rec.artifacts["recon"] = {"path": str(recon_path), "sha256": recon_sha256.hexdigest()}

        with timer("metrics"):
            for metric_id, how in cfg.metrics.items():
                if how == "native":  # psnr_y, the only native metric
                    score = QualityScore("psnr_y", psnr, mean_psnr(psnr, cfg.psnr_inf_cap))
                else:
                    score = external_metric(
                        how, seq.path, recon_path, seq.spec, metric_id, timeout=cfg.metric_timeout
                    )
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


def _timed_job(*job) -> tuple[JobRecord, float]:
    """_run_job's record of `job` and the wall seconds it took."""
    start = time.perf_counter()
    rec = _run_job(*job)
    return rec, time.perf_counter() - start


def _job_config_hashes(cfg: ExperimentConfig, echo: dict, depth_hashes: dict, blas_core) -> dict[tuple, str]:
    """config_sha256 of every job, by (sequence, method, qp index) key.

    It hashes what the job reads from the config echo but no path (its
    sequence, its method with the codec description but not the codec's
    timeout, which cannot change a job that succeeded, its QP pair, the
    metrics and the PSNR cap), its depth file's sha256 in depth_hashes
    (None without one), the ARITHMETIC of each engine the job runs (the
    mock codec, the resampler, the CNN) and, for a post-processing method,
    the OpenBLAS core `blas_core` whose kernels the CNN's sums follow, its
    network and the QP and sha256 of the weight file the job loads, as
    validate() recorded it. The source counts by the record's
    reference_sha256.
    """
    hashes = {}
    pairs = [json.dumps(p).encode() for p in echo["qp_pairs"]]
    for method, method_echo in zip(cfg.methods, echo["methods"]):
        codec = {k: v for k, v in method_echo["codec"].items() if k != "timeout"}
        pp = method.postproc
        engines = (
            (codecs.ARITHMETIC, isinstance(method.codec, codecs.MockCodec)),
            (resample.ARITHMETIC, method.resamples),
            (f"{postproc_cnn.ARITHMETIC} on {blas_core}", pp is not None),
        )
        arithmetic = [name for name, runs in engines if runs]
        method_echo = {**method_echo, "codec": codec, "arithmetic": arithmetic}
        tails = pairs
        if pp is not None:
            method_echo["postproc"] = {k: v for k, v in method_echo["postproc"].items() if k != "weights_by_qp"}
            tails = [pair + f"{qp} {pp.net.sha256} {pp.weights_sha256[str(pp.weights_by_qp[qp])]}".encode()
                     for pair, qp in zip(pairs, (pp.select_weights_qp(p.qp_texture) for p in cfg.qp_pairs))]
        for seq, seq_echo in zip(cfg.sequences, echo["sequences"]):
            seq_echo = {k: v for k, v in seq_echo.items() if k not in ("path", "depth_path")}
            seq_echo["depth_sha256"] = depth_hashes[seq.label]
            doc = [seq_echo, method_echo, echo["metrics"], echo["psnr_inf_cap"]]
            base = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
            for qi, tail in enumerate(tails):
                h = base.copy()
                h.update(tail)
                hashes[(seq.label, method.label, qi)] = h.hexdigest()
    return hashes


def run_experiment(
    config,
    workdir=None,
    workers: int | None = None,
    resume: bool = True,
) -> RunManifest:
    """Run every job of an experiment config (path or ExperimentConfig).

    The manifest is persisted incrementally, each record as its job ends;
    with resume=True, jobs whose records, config hashes, source hashes and
    artifact hashes are intact are skipped. Before the jobs start, the
    worker pool hashes each source file and, with resume=True, each
    artifact that is larger than manifest.HASH_CHUNK (1 MiB); smaller ones
    are hashed on the calling thread. The checks are read in job order, so
    the same jobs run whatever the worker count. Post-processed jobs, the
    longest, are submitted first, so that none starts last; otherwise jobs
    go in sequence, method and QP order. A worker count below 1 is a
    ConfigError. A manifest whose header echoes another config gets a new
    header. While it runs, numpy's OpenBLAS uses one thread, so a
    post-processed job's bits do not depend on the worker count; the
    header records the count before and during the run, OpenBLAS's core
    name and build config, the numpy version, the CPU count and the
    workers.
    Each finished job logs one INFO line to this module's logger: its key,
    status, wall seconds and how many of the jobs to run are done; a job
    logs its frames done at most once per PROGRESS_SECONDS of its time.
    Its record's notes hold the process's peak RSS so far and as the run
    starts its jobs, where known, so that a reader can tell what the
    process held before the run from what the run added, and the OpenBLAS
    core and thread count its sums came from.
    """
    n_workers = _worker_count(workers)
    if isinstance(config, ExperimentConfig):
        cfg = config
        cfg.validate()
    else:
        cfg = load_experiment(config)  # parses and validates
    out = Path(workdir) if workdir is not None else cfg.workdir
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.jsonl"
    manifest = RunManifest.load(manifest_path) if resume else RunManifest(manifest_path)
    if not resume and manifest_path.exists():
        manifest_path.unlink()

    echo = config_as_dict(cfg)
    with one_blas_thread() as blas:
        if manifest.header.get("config") != echo:  # the echo holds JSON types only
            manifest.write_header(
                {
                    "toolkit": "rqpipe",
                    "version": __version__,
                    "created_unix": round(time.time(), 3),
                    "config": echo,
                    "environment": {
                        "numpy": np.__version__,
                        "cpu_count": _cpu_count(),
                        "workers": n_workers,
                        **blas,
                    },
                }
            )

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            tasks = []  # every hash and job on the pool, so an error cancels the queued ones

            def submit(fn, *args):
                tasks.append(pool.submit(fn, *args))
                return tasks[-1]

            try:
                # sources and recons larger than the hash chunk are hashed on
                # the pool, several at once, the smaller ones here in order;
                # the answers are read in job order, so the jobs to run are
                # the same as with every file hashed here
                sources = [[sha256_soon(p, os.stat(p).st_size, submit) if p else lambda: None
                            for p in (s.path, s.depth_path)] for s in cfg.sequences]
                reference_hashes = {s.label: digest() for s, (digest, _) in zip(cfg.sequences, sources)}
                depth_hashes = {s.label: digest() for s, (_, digest) in zip(cfg.sequences, sources)}
                config_hashes = _job_config_hashes(cfg, echo, depth_hashes, blas["blas_core"])
                jobs = sorted(  # post-processed jobs first
                    (
                        (seq, method, qi, pair)
                        for seq in cfg.sequences
                        for method in cfg.methods
                        for qi, pair in enumerate(cfg.qp_pairs)
                    ),
                    key=lambda job: job[1].postproc is None,
                )
                keys = [(seq.label, method.label, qi) for seq, method, qi, _ in jobs]
                intact = manifest.intact_jobs(
                    [(key, reference_hashes[key[0]], config_hashes[key]) for key in keys], submit
                ) if resume else [False] * len(jobs)
                # what the process held before its jobs: read only when one runs
                start_peak_mb = None if all(intact) else _peak_rss_mb()
                futures = [
                    submit(_timed_job, seq, method, qi, pair, cfg, out, reference_hashes[seq.label])
                    for (seq, method, qi, pair), skip in zip(jobs, intact)
                    if not skip
                ]
                # append each record as its job ends, so a finished job is on
                # disk while slower jobs submitted before it still run
                for done, future in enumerate(as_completed(futures), 1):
                    rec, seconds = future.result()
                    rec.config_sha256 = config_hashes[rec.key]
                    if getrusage is not None:  # KiB on Linux; the process's, as workers are threads
                        rec.notes["process_peak_rss_mb"] = round(getrusage(RUSAGE_SELF).ru_maxrss / 1024, 1)
                    if start_peak_mb is not None:  # in every record: a resume may write no header
                        rec.notes["run_start_peak_rss_mb"] = start_peak_mb
                    # a post-processed recon's bits hold for this OpenBLAS core
                    rec.notes["blas_core"], rec.notes["blas_threads"] = blas["blas_core"], blas["blas_threads"]
                    manifest.append_job(rec)
                    log.info("job %s %s in %.2f s (%d/%d)%s", "/".join(map(str, rec.key)), rec.status,
                             seconds, done, len(futures), f": {rec.error}" if rec.error else "")
            except BaseException:
                # on Ctrl-C or any error: drop the queued hashes and jobs and
                # kill the external tools of the running jobs (in sessions of
                # their own, no terminal signal reaches them) until those end
                for task in tasks:
                    task.cancel()
                pending = tasks
                while pending:
                    kill_running_tools()
                    pending = wait(pending, timeout=0.1).not_done
                raise
    return manifest
