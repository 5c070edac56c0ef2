"""Report emission over a completed manifest.

The ok jobs are sorted once by key and grouped into ladders, one per
(sequence, method, metric), each in QP-index order. From the ladders come
a rate-quality CSV per sequence and metric (rows in method, then QP-index
order) and one rate-quality curve per ladder, built once, the first time
the BD loop needs it; a curve that cannot be built is reported once. Each
non-anchor method gets a BD table pairing the anchor's curve with its own
(rows are sequences plus an arithmetic-mean Total row). The per-stage
timing summary gives each method's stages and then its total as one more
stage, with percentage deltas against the anchor method. It counts
thread-CPU seconds, which leave out the time a job waits for other
threads; time an external tool spends in its own process is not in them
either. Also renders luma patches as PGM images for side-by-side visual
comparison.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from ..bd_stats import RQCurve, RQPoint, bd_quality
from ..errors import ConfigError, CurveError, DimensionError
from ..frame_io import VideoSpec, read_frame
from .manifest import RunManifest

ANCHOR_LABEL = "anchor"
_TIMING_FIELDS = (
    "method", "stage", "total_seconds", "seconds_per_frame", "pct_of_method_total", "pct_delta_vs_anchor",
)


@dataclass
class ReportBundle:
    out_dir: Path
    rq_csvs: dict[tuple[str, str], Path] = field(default_factory=dict)  # (seq, metric) -> path
    bd_tables: dict[str, Path] = field(default_factory=dict)  # method -> path
    bd_values: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    # method -> sequence (or "Total") -> metric -> delta
    timing_csv: Path | None = None
    timing_rows: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _find_anchor(methods: list[str]) -> str:
    for m in methods:
        if m.lower() == ANCHOR_LABEL:
            return m
    raise ConfigError(f"no method labeled '{ANCHOR_LABEL}' in manifest (have {methods})")


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def assemble_report(manifest: RunManifest | str | Path, out_dir) -> ReportBundle:
    """Write RQ CSVs, BD tables, and the timing summary for a finished run.

    bd_quality is called once for each (non-anchor method, sequence,
    metric) whose two curves exist; a cell it rejects is left empty with
    a warning.
    """
    if not isinstance(manifest, RunManifest):
        manifest = RunManifest.load(manifest)
    ok = manifest.ok_jobs()
    jobs = sorted(ok, key=lambda j: j.key)
    if not jobs:
        raise ConfigError("manifest holds no successful jobs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = ReportBundle(out_dir=out_dir)

    sequences = sorted({j.sequence for j in jobs})
    methods = list(dict.fromkeys(j.method for j in jobs))
    metrics = sorted({m for j in jobs for m in j.scores})
    anchor = _find_anchor(methods)
    ladders: dict[tuple[str, str, str], list] = {}  # (sequence, method, metric) -> jobs in QP-index order
    for j in jobs:
        for metric in j.scores:
            ladders.setdefault((j.sequence, j.method, metric), []).append(j)

    rq_header = ["method", "qp_index", "qp_texture", "bitrate_kbps", "quality"]
    for seq in sequences:
        for metric in metrics:
            rows = [
                [j.method, j.qp_index, j.qp_texture,
                 f"{j.bitrate_kbps:.6f}", f"{j.scores[metric]['sequence_value']:.6f}"]
                for method in methods
                for j in ladders.get((seq, method, metric), ())
            ]
            bundle.rq_csvs[(seq, metric)] = _write_csv(out_dir / f"rq_{seq}_{metric}.csv", rq_header, rows)

    @cache
    def curve(seq, method, metric) -> RQCurve | None:
        ladder = ladders.get((seq, method, metric), ())
        if len(ladder) < 2:
            return None
        try:
            points = [RQPoint(j.bitrate_kbps, j.scores[metric]["sequence_value"]) for j in ladder]
            return RQCurve(label=f"{seq}/{method}", metric_id=metric, points=points)
        except CurveError as exc:
            bundle.warnings.append(f"{seq}/{method}/{metric}: unusable curve: {exc}")
            return None

    bd_header = ["sequence"] + [f"bd_{m}" for m in metrics]
    for method in methods:
        if method == anchor:
            continue
        per_seq: dict[str, dict[str, float]] = {}
        for seq in sequences:
            for metric in metrics:
                where = f"{seq}/{method}/{metric}"
                ref, test = curve(seq, anchor, metric), curve(seq, method, metric)
                if ref is None or test is None:
                    bundle.warnings.append(f"{where}: incomplete curve, BD skipped")
                    continue
                try:
                    result = bd_quality(ref, test)
                except CurveError as exc:
                    bundle.warnings.append(f"{where}: {exc}")
                    continue
                per_seq.setdefault(seq, {})[metric] = result.delta_quality
                bundle.warnings.extend(f"{where}: {w}" for w in result.warnings)
        totals = {
            metric: float(np.mean(deltas))
            for metric in metrics
            if (deltas := [v[metric] for v in per_seq.values() if metric in v])
        }
        if totals:
            per_seq["Total"] = totals
        bundle.bd_values[method] = per_seq
        rows = [[seq] + [f"{row[m]:.6f}" if m in row else "" for m in metrics] for seq, row in per_seq.items()]
        bundle.bd_tables[method] = _write_csv(out_dir / f"bd_{method}.csv", bd_header, rows)

    bundle.timing_rows = _timing_rows(ok, methods, anchor)
    rows = [list(row.values()) for row in bundle.timing_rows]
    bundle.timing_csv = _write_csv(out_dir / "timing_summary.csv", _TIMING_FIELDS, rows)
    return bundle


def _timing_rows(jobs, methods, anchor) -> list[dict]:
    """A row per method and stage, in stage-name order, then the method's
    total as one more stage; every row follows the same rule.

    Each sum is math.fsum's correctly rounded one, so the rows do not
    depend on the order of `jobs`, which is the manifest's completion order.
    """
    seconds: dict[str, dict[str, list[float]]] = {m: {} for m in methods}
    frames = dict.fromkeys(methods, 0)
    for j in jobs:
        for stage, sec in j.stage_cpu_seconds.items():
            seconds[j.method].setdefault(stage, []).append(sec)
        frames[j.method] += j.frame_count
    stages = {
        m: {stage: math.fsum(secs) for stage, secs in sorted(s.items())}
        | {"total": math.fsum(sec for secs in s.values() for sec in secs)}
        for m, s in seconds.items()
    }

    rows = []
    for method in methods:
        total = stages[method]["total"]
        for stage, sec in stages[method].items():
            anchor_sec = stages[anchor].get(stage)
            delta = "" if method == anchor or not anchor_sec else f"{100.0 * (sec - anchor_sec) / anchor_sec:.2f}"
            share = f"{100.0 * sec / total:.2f}" if total else "0.00"
            values = (method, stage, f"{sec:.6f}", f"{sec / max(frames[method], 1):.6f}", share, delta)
            rows.append(dict(zip(_TIMING_FIELDS, values)))
    return rows


def dump_patch(path, spec: VideoSpec, frame_index: int, x: int, y: int, w: int, h: int, out_path) -> Path:
    """Write a luma patch as an 8-bit binary PGM (10-bit shifted down by 2)."""
    if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > spec.width or y + h > spec.height:
        raise DimensionError(
            f"patch {w}x{h}+{x}+{y} outside frame 0,0..{spec.width},{spec.height}"
        )
    frame = read_frame(path, spec, frame_index)
    patch = frame.y[y : y + h, x : x + w]
    if spec.bit_depth == 10:
        patch = (patch >> 2).astype(np.uint8)
    else:
        patch = patch.astype(np.uint8)
    out_path = Path(out_path)
    with open(out_path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(patch.tobytes())
    return out_path
