"""Command-line front end: `rqpipe <subcommand>`.

Subcommands: run, report, bd, psnr, resample, postproc, mock-codec,
dump-patch, yuv-info. All raw-video arguments take --spec
WxH:bitdepth:chroma (e.g. 1920x1080:10:420).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import signal
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bd_stats import RQCurve, RQPoint, bd_quality, bd_rate
from .errors import ConfigError, CurveError, RqpipeError
from .frame_io import VideoSpec, frame_size_bytes, parse_spec_string, read_sequence, write_sequence
from .metrics import psnr_y_sequence
from .pipeline import assemble_report, dump_patch, run_experiment
from .pipeline.codecs import QP_MAX, QP_MIN, CodedStream, MockCodec
from .pipeline.manifest import RunManifest
from .pipeline.runner import one_blas_thread
from .postproc_cnn import NetworkSpec, apply_network, load_weights
from .resample import ResampleFilter, parse_scale, resample_frame


def _spec_arg(parser):
    parser.add_argument("--spec", required=True,
                        help="WxH:bitdepth:chroma, e.g. 1920x1080:10:420")


def _input_spec(args, path) -> VideoSpec:
    """--spec with --frames frames, or as many whole frames as `path` holds:
    a ConfigError if that is none, or if --frames is below 1."""
    if args.frames is not None and args.frames < 1:
        raise ConfigError(f"--frames must be at least 1, got {args.frames}")
    spec = parse_spec_string(args.spec, frame_count=args.frames or 0)
    if not spec.frame_count:
        size, frame = os.path.getsize(path), frame_size_bytes(spec)
        if size < frame:
            raise ConfigError(f"{path}: {size} bytes hold no whole frame of {frame} bytes ({args.spec})")
        spec = replace(spec, frame_count=size // frame)
    return spec


def _load_curve(path, label) -> RQCurve:
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"bitrate_kbps", "quality"} <= set(reader.fieldnames or ()):
            raise ConfigError(f"{path}, line 1: need CSV columns bitrate_kbps,quality")
        for row in reader:
            rate, quality = row["bitrate_kbps"], row["quality"]
            try:
                points.append(RQPoint(float(rate), float(quality)))
            except CurveError as exc:  # a ValueError too
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
            except (TypeError, ValueError):  # None for a short row
                raise ConfigError(
                    f"{path}, line {reader.line_num}: bitrate_kbps {rate!r} and quality {quality!r} "
                    "must be numbers"
                ) from None
    return RQCurve(label=label, metric_id="csv", points=points)


def cmd_yuv_info(args) -> int:
    spec = parse_spec_string(args.spec)
    fsize = frame_size_bytes(spec)
    actual = os.path.getsize(args.path)
    frames = actual // fsize
    print(f"file:            {args.path}")
    print(f"frame size:      {fsize} bytes "
          f"({spec.width}x{spec.height} {spec.chroma} {spec.bit_depth}-bit)")
    print(f"file size:       {actual} bytes")
    print(f"complete frames: {frames}")
    rem = actual - frames * fsize
    if rem:
        print(f"trailing bytes:  {rem} (not a whole frame)")
    return 0


def cmd_resample(args) -> int:
    spec = _input_spec(args, args.infile)
    scale = parse_scale(args.scale)
    filt = ResampleFilter.parse(args.filter)
    out_spec = spec.scaled(scale)
    frames = (resample_frame(f, scale, filt, spec.bit_depth) for f in read_sequence(args.infile, spec))
    written = write_sequence(frames, out_spec, args.out)
    print(f"wrote {out_spec.width}x{out_spec.height} x{spec.frame_count} frames "
          f"({written} bytes) to {args.out}")
    return 0


def cmd_psnr(args) -> int:
    spec = _input_spec(args, args.ref)
    score = psnr_y_sequence(
        read_sequence(args.ref, spec), read_sequence(args.dist, spec), spec.bit_depth
    )
    if args.per_frame:
        with open(args.per_frame, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "psnr_y_db"])
            for i, v in enumerate(score.per_frame):
                writer.writerow([i, "inf" if math.isinf(v) else f"{v:.6f}"])
        print(f"per-frame scores written to {args.per_frame}")
    print(f"psnr_y: {score.sequence_value:.4f} dB over {len(score.per_frame)} frames "
          f"({score.aggregation})")
    return 0


def cmd_bd(args) -> int:
    ref = _load_curve(args.ref, "reference")
    test = _load_curve(args.test, "test")
    if args.mode == "quality":
        result = bd_quality(ref, test, interpolation=args.interpolation)
        print(f"bd-quality: {result.delta_quality:+.6f} (test minus reference)")
    else:
        result = bd_rate(ref, test, interpolation=args.interpolation)
        print(f"bd-rate: {result.delta_rate_percent:+.4f}%")
    print(f"overlap: [{result.overlap[0]:.6f}, {result.overlap[1]:.6f}] "
          f"({'log10 kbps' if args.mode == 'quality' else 'quality units'})")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_postproc(args) -> int:
    spec = _input_spec(args, args.infile)
    net = NetworkSpec.from_json(Path(args.net).read_text())
    weights = load_weights(args.weights)
    frames = (replace(f, y=apply_network(net, weights, f.y, spec.bit_depth))
              for f in read_sequence(args.infile, spec))
    with one_blas_thread():  # as `run` does, so the output is a run's recon of the same plane
        written = write_sequence(frames, spec, args.out)
    print(f"post-processed {spec.frame_count} frames ({written} bytes) to {args.out}")
    return 0


def cmd_mock_codec(args) -> int:
    # one frame at a time: code, write, then score the two files as `psnr` does
    if not QP_MIN <= args.qp <= QP_MAX:  # before the output is opened
        raise ConfigError(f"qp {args.qp} outside [{QP_MIN}, {QP_MAX}]")
    if not 0 < args.fps < math.inf:
        raise ConfigError(f"--fps must be a finite number > 0, got {args.fps}")
    spec = _input_spec(args, args.infile)
    coded = CodedStream(
        MockCodec().encode_decode(read_sequence(args.infile, spec), spec, args.qp, None, None, nullcontext)
    )
    write_sequence(coded, spec, args.out)
    kbps = coded.bits * args.fps / spec.frame_count / 1000.0
    score = psnr_y_sequence(read_sequence(args.infile, spec), read_sequence(args.out, spec), spec.bit_depth)
    print(f"qp {args.qp}: {coded.bits} bits, {kbps:.3f} kbps @ {args.fps} fps, "
          f"psnr_y {score.sequence_value:.4f} dB")
    return 0


def cmd_dump_patch(args) -> int:
    if args.frame < 0:
        raise ConfigError(f"--frame must be at least 0, got {args.frame}")
    spec = parse_spec_string(args.spec, frame_count=args.frame + 1)
    out = dump_patch(args.infile, spec, args.frame, args.x, args.y, args.w, args.h, args.out)
    print(f"wrote {args.w}x{args.h} patch from frame {args.frame} to {out}")
    return 0


def cmd_run(args) -> int:
    # external tools run in sessions of their own, out of reach of the
    # terminal's hangup: a hangup stops the run as Ctrl-C does, and the run
    # kills them
    hangup = signal.signal(signal.SIGHUP, signal.default_int_handler)
    # one progress line per finished job, and any warning, to stderr
    logger = logging.getLogger("rqpipe")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        manifest = run_experiment(
            args.config, workdir=args.workdir, workers=args.workers, resume=not args.no_resume
        )
    finally:
        signal.signal(signal.SIGHUP, hangup)
        logger.removeHandler(handler)
        logger.setLevel(level)
    ok = sum(1 for r in manifest.jobs.values() if r.status == "ok")
    failed = len(manifest.jobs) - ok
    print(f"manifest: {manifest.path} ({ok} ok, {failed} failed)")
    return 1 if failed else 0


def cmd_report(args) -> int:
    bundle = assemble_report(RunManifest.load(args.manifest), args.out)
    print(f"report written to {bundle.out_dir}")
    for (seq, metric), path in sorted(bundle.rq_csvs.items()):
        print(f"  rq:     {path.name}")
    for method, path in sorted(bundle.bd_tables.items()):
        print(f"  bd:     {path.name}")
    if bundle.timing_csv:
        print(f"  timing: {bundle.timing_csv.name}")
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rqpipe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rqpipe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("yuv-info", help="print frame count and byte accounting")
    p.add_argument("path")
    _spec_arg(p)
    p.set_defaults(func=cmd_yuv_info)

    p = sub.add_parser("resample", help="rescale a raw sequence")
    p.add_argument("--in", dest="infile", required=True)
    _spec_arg(p)
    p.add_argument("--scale", required=True, help="e.g. 1/2 or 2/1")
    p.add_argument("--filter", default="lanczos:3", help="lanczos:<a> or nn")
    p.add_argument("--frames", type=int, help="frame count (default: whole file)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("psnr", help="PSNR-Y between two sequences")
    p.add_argument("--ref", required=True)
    p.add_argument("--dist", required=True)
    _spec_arg(p)
    p.add_argument("--frames", type=int)
    p.add_argument("--per-frame", dest="per_frame", help="write per-frame CSV here")
    p.set_defaults(func=cmd_psnr)

    p = sub.add_parser("bd", help="Bjontegaard delta between two RQ CSV files")
    p.add_argument("--ref", required=True, help="CSV with columns bitrate_kbps,quality")
    p.add_argument("--test", required=True)
    p.add_argument("--mode", choices=["quality", "rate"], default="quality")
    p.add_argument("--interpolation", choices=["pchip", "cubic_poly"], default="pchip")
    p.set_defaults(func=cmd_bd)

    p = sub.add_parser("postproc", help="apply a CNN to the luma of a sequence")
    p.add_argument("--net", required=True, help="network JSON description")
    p.add_argument("--weights", required=True, help="RQPW1 weight file")
    p.add_argument("--in", dest="infile", required=True)
    _spec_arg(p)
    p.add_argument("--frames", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_postproc)

    p = sub.add_parser("mock-codec", help="run the hermetic DCT codec over a sequence")
    p.add_argument("--in", dest="infile", required=True)
    _spec_arg(p)
    p.add_argument("--qp", type=int, required=True)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--frames", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mock_codec)

    p = sub.add_parser("dump-patch", help="write a luma patch as a PGM image")
    p.add_argument("--in", dest="infile", required=True)
    _spec_arg(p)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_patch)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--workdir")
    p.add_argument("--workers", type=int, help="worker-pool size (default: the CPUs this process may use)")
    p.add_argument("--no-resume", action="store_true", help="redo completed jobs")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="emit RQ CSVs, BD tables, timing summary")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RqpipeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
