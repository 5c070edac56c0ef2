"""Experiment runner: executes every (sequence, method, qp) job.

Per job: optional downsample, encode, decode, optional upsample,
optional CNN post-processing, then metrics against the original
native-resolution sequence. Every stage is wall-clock timed. Jobs run on
a bounded worker pool (RQPIPE_WORKERS overrides the size) and records
are appended to the manifest in deterministic job order.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .. import __version__
from ..errors import ConfigError
from ..frame_io import read_sequence, write_sequence
from ..metrics import external_metric, psnr_y_sequence
from ..postproc_cnn import apply_network, load_weights
from ..resample import resample_frame
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


class _StageTimer:
    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - start


def _code_stream(method, down_filter, frames, spec, qp, workdir, tag, timer):
    """Downsample with down_filter, code, and restore one stream; returns (frames, bits)."""
    coded_spec = spec
    if method.resamples:
        with timer("downsample"):
            frames = [resample_frame(f, method.scale, down_filter, spec.bit_depth) for f in frames]
        coded_spec = spec.scaled(method.scale)
    decoded, bits = method.codec.encode_decode(frames, coded_spec, qp, workdir, tag, timer)
    if method.resamples:
        with timer("upsample"):
            up = Fraction(1, 1) / method.scale
            decoded = [resample_frame(f, up, method.up_filter, spec.bit_depth) for f in decoded]
    return decoded, bits


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
        with timer("read"):
            original = list(read_sequence(seq.path, seq.spec))

        frames, bits = _code_stream(
            method, method.down_filter, original, seq.spec, pair.qp_texture, workdir, tag, timer
        )
        total_bits = bits

        if seq.depth_path is not None:
            with timer("read"):
                depth = list(read_sequence(seq.depth_path, seq.depth_spec))
            _, depth_bits = _code_stream(
                method, method.depth_down_filter or method.down_filter, depth,
                seq.depth_spec, pair.qp_depth, workdir, f"{tag}_depth", timer,
            )
            total_bits += depth_bits
            rec.notes["depth_bits"] = depth_bits

        if method.postproc is not None:
            pp = method.postproc
            weights_qp = pp.select_weights_qp(base_pair.qp_texture)
            weights = load_weights(pp.weights_by_qp[weights_qp])
            rec.postproc_weights_qp = weights_qp
            with timer("postproc"):
                for frame in frames:
                    frame.y = apply_network(pp.net, weights, frame.y, seq.spec.bit_depth)
                    if not pp.luma_only and frame.cb is not None:
                        frame.cb = apply_network(pp.net, weights, frame.cb, seq.spec.bit_depth)
                        frame.cr = apply_network(pp.net, weights, frame.cr, seq.spec.bit_depth)

        recon_path = workdir / f"{tag}_recon.yuv"
        with timer("write"):
            write_sequence(frames, seq.spec, recon_path)
        rec.artifacts["recon"] = {
            "path": str(recon_path),
            "sha256": sha256_file(recon_path),
        }

        with timer("metrics"):
            for metric_id, how in cfg.metrics.items():
                if how == "native":
                    score = psnr_y_sequence(
                        original, frames, seq.spec.bit_depth, inf_cap=cfg.psnr_inf_cap
                    )
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
    rec.stage_seconds = {k: round(v, 6) for k, v in timer.seconds.items()}
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
    records and artifact hashes are intact are skipped.
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

    if not manifest.header:
        manifest.write_header(
            {
                "toolkit": "rqpipe",
                "version": __version__,
                "created_unix": round(time.time(), 3),
                "config": config_as_dict(cfg),
            }
        )

    reference_hashes = {s.label: sha256_file(s.path) for s in cfg.sequences}
    jobs = [
        (seq, method, qi, pair)
        for seq in cfg.sequences
        for method in cfg.methods
        for qi, pair in enumerate(cfg.qp_pairs)
    ]
    todo = [j for j in jobs if not (resume and manifest.job_intact((j[0].label, j[1].label, j[2])))]

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [
            pool.submit(_run_job, seq, method, qi, pair, cfg, out, reference_hashes[seq.label])
            for seq, method, qi, pair in todo
        ]
        # append in submission order so manifests are deterministic
        for future in futures:
            manifest.append_job(future.result())
    return manifest
