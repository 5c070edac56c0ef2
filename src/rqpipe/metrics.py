"""Objective quality metrics: native PSNR on luma, plus external tool hooks.

The MSE behind PSNR sums squared differences in bands of rows
(rqpipe.bands), one dot product per band, holding one band of float64
rather than a plane.

VMAF and IV-PSNR style metrics are never computed here; they are obtained
by spawning an external command and parsing its scores, and their values
flow through the rest of the toolkit as opaque quality axes.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bands import row_bands
from .errors import ConfigError, DimensionError, MetricParseError, check_template, run_tool
from .frame_io import Frame, VideoSpec

MEAN_OF_PER_FRAME = "mean_of_per_frame"
TOOL_SUMMARY = "tool_summary"

# placeholders of an external metric template: the required ones, then the optional ones
METRIC_FIELDS = (("ref", "dist"), ("w", "h", "bitdepth", "out"))

DEFAULT_PSNR_CAP = 100.0  # the most a frame's PSNR counts, dB; an infinite one counts this


@dataclass
class QualityScore:
    metric_id: str
    per_frame: list[float]
    sequence_value: float
    aggregation: str = MEAN_OF_PER_FRAME


def mse_plane(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared sample difference in double precision.

    Each band of rows (rqpipe.bands) is one float64 difference d, summed
    as the dot product d @ d, so the scratch is one band, not a plane. For
    integer samples whose squared differences sum to less than 2^53 (any
    plane of up to 2^33 10-bit or 2^21 16-bit samples), every partial sum
    is an exact integer, in whatever order the dot product adds, so the
    result has the same bits as the mean of one whole-plane float64 pass.
    A 0-d input is scored as one sample; an empty one is a DimensionError.
    """
    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    if a.shape != b.shape:
        raise DimensionError(f"plane shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DimensionError(f"empty plane: shape {a.shape}")
    total = 0.0
    for r0, r1 in row_bands(a.shape[0], a[:1].size * 8):
        d = np.subtract(a[r0:r1], b[r0:r1], dtype=np.float64).ravel()
        total += float(d @ d)
    return total / a.size


def psnr_from_mse(mse: float, bit_depth: int) -> float:
    """10*log10(peak^2 / mse) with peak = 2^bit_depth - 1; +inf for mse == 0."""
    if mse == 0.0:
        return math.inf
    peak = (1 << bit_depth) - 1
    return 10.0 * math.log10(peak * peak / mse)


def psnr_y(a: Frame, b: Frame, bit_depth: int) -> float:
    """PSNR of the luma plane, in dB. Identical content returns +inf."""
    return psnr_from_mse(mse_plane(a.y, b.y), bit_depth)


def mean_psnr(per_frame, inf_cap: float = DEFAULT_PSNR_CAP) -> float:
    """Mean of per-frame PSNRs, each clipped to inf_cap first (an infinite one too)."""
    return float(np.mean([min(p, inf_cap) for p in per_frame]))


def psnr_y_sequence(ref_frames, dist_frames, bit_depth: int) -> QualityScore:
    """Sequence PSNR-Y: the mean of per-frame PSNR, each clipped to
    DEFAULT_PSNR_CAP first; per_frame keeps the unclipped values. The
    runner scores one frame at a time and applies its config's cap."""
    per_frame = [psnr_y(ra, rb, bit_depth) for ra, rb in zip(ref_frames, dist_frames)]
    if not per_frame:
        raise ConfigError("cannot aggregate PSNR over an empty sequence")
    return QualityScore("psnr_y", per_frame, mean_psnr(per_frame))


def _parse_metric_text(text: str, metric_id: str):
    per_frame: list[float] = []
    summary: list[tuple[str, float | None]] = []  # (key, number or None) of each key=value line
    for raw in text.splitlines():
        try:
            per_frame.append(float(raw))
        except ValueError:
            key, eq, value = raw.partition("=")
            if eq:
                try:
                    summary.append((key.strip(), float(value)))
                except ValueError:
                    summary.append((key.strip(), None))
    values = [v for k, v in summary if k == metric_id] or [v for _, v in summary if v is not None]
    if len(values) > 1 or None in values:
        raise MetricParseError(
            f"{metric_id}: cannot tell the score among summary keys {', '.join(k for k, _ in summary)}:"
            f" want one numeric line named {metric_id!r}, or a single numeric line"
        )
    return per_frame, (values[0] if values else None)


def external_metric(
    cmd_template: str,
    ref_path,
    dist_path,
    spec: VideoSpec,
    metric_id: str = "external",
    timeout: float | None = None,
) -> QualityScore:
    """Run an external metric command through run_tool and parse its scores.

    The template must contain {ref} and {dist}; {w}, {h}, {bitdepth} and
    {out} are filled in when present, each as one argument, and any other
    placeholder is a ConfigError. Scores are read from the {out} file if
    the template declares one, otherwise from stdout: one float per line
    gives per-frame scores, whose mean is the sequence score unless a
    `key=value` summary line gives it: the line whose key is metric_id (a
    config lowercases metric ids), else the only line with a numeric
    value. Several numeric lines and none named after the metric, or a
    named line that is not one number, are a MetricParseError listing the
    keys. A command that exits non-zero or outlives `timeout` seconds
    raises ExternalToolError.
    """
    names = check_template(cmd_template, *METRIC_FIELDS, what=f"metric {metric_id!r}")
    fields = {"ref": ref_path, "dist": dist_path, "w": spec.width, "h": spec.height, "bitdepth": spec.bit_depth}
    out_file = None
    try:
        if "out" in names:
            fd, out_file = tempfile.mkstemp(prefix=f"{metric_id}_", suffix=".txt")
            os.close(fd)
            fields["out"] = out_file
        proc = run_tool(cmd_template, metric_id, timeout, fields)
        text = Path(out_file).read_text() if out_file else proc.stdout
    finally:
        if out_file is not None:
            Path(out_file).unlink(missing_ok=True)

    per_frame, seq = _parse_metric_text(text, metric_id)
    if not per_frame and seq is None:
        raise MetricParseError(f"{metric_id}: no scores found in tool output")
    if per_frame and spec.frame_count and len(per_frame) != spec.frame_count:
        raise MetricParseError(
            f"{metric_id}: got {len(per_frame)} per-frame scores, expected {spec.frame_count}"
        )
    if seq is None:
        return QualityScore(metric_id, per_frame, float(np.mean(per_frame)), MEAN_OF_PER_FRAME)
    return QualityScore(metric_id, per_frame, seq, TOOL_SUMMARY)
