"""Report emission over a completed manifest.

Produces per-sequence rate-quality CSVs per metric, one BD table per
non-anchor method (rows are sequences plus an arithmetic-mean Total
row), and a per-stage timing summary with percentage deltas against the
anchor method. The summary counts thread-CPU seconds, which leave out
the time a job waits for other threads; time an external tool spends in
its own process is not in them either. Also renders luma patches as PGM images for side-by-side
visual comparison.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..bd_stats import BdResult, RQCurve, RQPoint, bd_quality
from ..errors import ConfigError, CurveError, DimensionError
from ..frame_io import VideoSpec, read_frame
from .manifest import RunManifest

ANCHOR_LABEL = "anchor"


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


def _curves(jobs, sequence, method, metric, warnings) -> RQCurve | None:
    try:
        pts = [
            RQPoint(j.bitrate_kbps, j.scores[metric]["sequence_value"])
            for j in jobs
            if j.sequence == sequence and j.method == method and metric in j.scores
        ]
        if len(pts) < 2:
            return None
        return RQCurve(label=f"{sequence}/{method}", metric_id=metric, points=pts)
    except CurveError as exc:
        warnings.append(f"{sequence}/{method}/{metric}: unusable curve: {exc}")
        return None


def assemble_report(manifest: RunManifest | str | Path, out_dir) -> ReportBundle:
    """Write RQ CSVs, BD tables, and the timing summary for a finished run."""
    if not isinstance(manifest, RunManifest):
        manifest = RunManifest.load(manifest)
    jobs = manifest.ok_jobs()
    if not jobs:
        raise ConfigError("manifest holds no successful jobs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = ReportBundle(out_dir=out_dir)

    sequences = sorted({j.sequence for j in jobs})
    methods = list(dict.fromkeys(j.method for j in sorted(jobs, key=lambda r: r.key)))
    metrics = sorted({m for j in jobs for m in j.scores})
    anchor = _find_anchor(methods)

    for seq in sequences:
        for metric in metrics:
            rows = [
                j for j in jobs if j.sequence == seq and metric in j.scores
            ]
            rows.sort(key=lambda j: (methods.index(j.method), j.qp_index))
            path = out_dir / f"rq_{seq}_{metric}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["method", "qp_index", "qp_texture", "bitrate_kbps", "quality"])
                for j in rows:
                    writer.writerow(
                        [j.method, j.qp_index, j.qp_texture,
                         f"{j.bitrate_kbps:.6f}", f"{j.scores[metric]['sequence_value']:.6f}"]
                    )
            bundle.rq_csvs[(seq, metric)] = path

    for method in methods:
        if method == anchor:
            continue
        per_seq: dict[str, dict[str, float]] = {}
        for seq in sequences:
            values: dict[str, float] = {}
            for metric in metrics:
                ref = _curves(jobs, seq, anchor, metric, bundle.warnings)
                test = _curves(jobs, seq, method, metric, bundle.warnings)
                if ref is None or test is None:
                    bundle.warnings.append(
                        f"{seq}/{method}/{metric}: incomplete curve, BD skipped"
                    )
                    continue
                try:
                    result: BdResult = bd_quality(ref, test)
                except CurveError as exc:
                    bundle.warnings.append(f"{seq}/{method}/{metric}: {exc}")
                    continue
                values[metric] = result.delta_quality
                bundle.warnings.extend(
                    f"{seq}/{method}/{metric}: {w}" for w in result.warnings
                )
            if values:
                per_seq[seq] = values
        if per_seq:
            totals = {
                metric: float(np.mean([v[metric] for v in per_seq.values() if metric in v]))
                for metric in metrics
                if any(metric in v for v in per_seq.values())
            }
            per_seq["Total"] = totals
        bundle.bd_values[method] = per_seq

        path = out_dir / f"bd_{method}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sequence"] + [f"bd_{m}" for m in metrics])
            for seq in sequences + ["Total"]:
                if seq not in per_seq:
                    continue
                writer.writerow(
                    [seq] + [f"{per_seq[seq][m]:.6f}" if m in per_seq[seq] else "" for m in metrics]
                )
        bundle.bd_tables[method] = path

    bundle.timing_rows = _timing_rows(jobs, methods, anchor)
    timing_path = out_dir / "timing_summary.csv"
    with open(timing_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "method", "stage", "total_seconds", "seconds_per_frame",
                "pct_of_method_total", "pct_delta_vs_anchor",
            ],
        )
        writer.writeheader()
        writer.writerows(bundle.timing_rows)
    bundle.timing_csv = timing_path
    return bundle


def _timing_rows(jobs, methods, anchor) -> list[dict]:
    stage_totals: dict[str, dict[str, float]] = {m: {} for m in methods}
    frame_totals: dict[str, int] = {m: 0 for m in methods}
    for j in jobs:
        for stage, sec in j.stage_cpu_seconds.items():
            stage_totals[j.method][stage] = stage_totals[j.method].get(stage, 0.0) + sec
        frame_totals[j.method] += j.frame_count

    rows = []
    for method in methods:
        totals = stage_totals[method]
        method_total = sum(totals.values())
        for stage in sorted(totals):
            sec = totals[stage]
            anchor_sec = stage_totals[anchor].get(stage)
            if method == anchor or not anchor_sec:
                delta = ""
            else:
                delta = f"{100.0 * (sec - anchor_sec) / anchor_sec:.2f}"
            rows.append(
                {
                    "method": method,
                    "stage": stage,
                    "total_seconds": f"{sec:.6f}",
                    "seconds_per_frame": f"{sec / max(frame_totals[method], 1):.6f}",
                    "pct_of_method_total": f"{100.0 * sec / method_total:.2f}" if method_total else "0.00",
                    "pct_delta_vs_anchor": delta,
                }
            )
        anchor_total = sum(stage_totals[anchor].values())
        total_delta = ""
        if method != anchor and anchor_total:
            total_delta = f"{100.0 * (method_total - anchor_total) / anchor_total:.2f}"
        rows.append(
            {
                "method": method,
                "stage": "total",
                "total_seconds": f"{method_total:.6f}",
                "seconds_per_frame": f"{method_total / max(frame_totals[method], 1):.6f}",
                "pct_of_method_total": "100.00",
                "pct_delta_vs_anchor": total_delta,
            }
        )
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
