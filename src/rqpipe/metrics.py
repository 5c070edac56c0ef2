"""Objective quality metrics: native PSNR on luma, plus external tool hooks.

VMAF and IV-PSNR style metrics are never computed here; they are obtained
by spawning an external command and parsing its scores, and their values
flow through the rest of the toolkit as opaque quality axes.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, ExternalToolError, MetricParseError
from .frame_io import Frame, VideoSpec

MEAN_OF_PER_FRAME = "mean_of_per_frame"
FROM_MEAN_MSE = "from_mean_mse"
TOOL_SUMMARY = "tool_summary"

DEFAULT_PSNR_CAP = 100.0  # stand-in for infinite per-frame PSNR when averaging


@dataclass
class QualityScore:
    metric_id: str
    per_frame: list[float]
    sequence_value: float
    aggregation: str = MEAN_OF_PER_FRAME


def mse_plane(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared sample difference in double precision."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"plane shapes differ: {a.shape} vs {b.shape}")
    d = np.subtract(a, b, dtype=np.float64)
    np.square(d, out=d)
    return float(np.mean(d))


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
    """Mean of per-frame PSNRs, each infinite frame clipped to inf_cap first."""
    return float(np.mean([min(p, inf_cap) for p in per_frame]))


def psnr_y_sequence(
    ref_frames,
    dist_frames,
    bit_depth: int,
    aggregation: str = MEAN_OF_PER_FRAME,
    inf_cap: float = DEFAULT_PSNR_CAP,
) -> QualityScore:
    """Sequence PSNR-Y with the chosen aggregation.

    mean_of_per_frame averages per-frame PSNR, clipping infinite frames to
    inf_cap first. from_mean_mse pools the per-frame MSEs and converts the
    pooled value once.
    """
    mses = [mse_plane(ra.y, rb.y) for ra, rb in zip(ref_frames, dist_frames)]
    if not mses:
        raise ConfigError("cannot aggregate PSNR over an empty sequence")
    per_frame = [psnr_from_mse(m, bit_depth) for m in mses]
    if aggregation == MEAN_OF_PER_FRAME:
        seq = mean_psnr(per_frame, inf_cap)
    elif aggregation == FROM_MEAN_MSE:
        seq = psnr_from_mse(float(np.mean(mses)), bit_depth)
        if seq == math.inf:
            seq = inf_cap
    else:
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    return QualityScore("psnr_y", per_frame, seq, aggregation)


def _parse_metric_text(text: str, metric_id: str):
    per_frame: list[float] = []
    summary: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            per_frame.append(float(line))
            continue
        except ValueError:
            pass
        if "=" in line:
            key, _, value = line.partition("=")
            try:
                summary[key.strip()] = float(value.strip())
            except ValueError:
                continue
    return per_frame, summary


def external_metric(
    cmd_template: str,
    ref_path,
    dist_path,
    spec: VideoSpec,
    metric_id: str = "external",
    timeout: float | None = None,
) -> QualityScore:
    """Run an external metric command and parse its scores.

    The template must contain {ref} and {dist}; {w}, {h}, {bitdepth} and
    {out} are substituted when present. Scores are read from the {out}
    file if the template declares one, otherwise from stdout: one float
    per line gives per-frame scores, `key=value` lines give a summary.
    """
    for required in ("{ref}", "{dist}"):
        if required not in cmd_template:
            raise ConfigError(f"metric template missing {required}: {cmd_template!r}")
    out_file = None
    try:
        fields = {
            "ref": str(ref_path),
            "dist": str(dist_path),
            "w": spec.width,
            "h": spec.height,
            "bitdepth": spec.bit_depth,
        }
        if "{out}" in cmd_template:
            fd, out_file = tempfile.mkstemp(prefix=f"{metric_id}_", suffix=".txt")
            os.close(fd)
            fields["out"] = out_file
        try:
            cmd = cmd_template.format(**fields)
        except (KeyError, IndexError) as exc:
            raise ConfigError(f"unknown placeholder in metric template: {exc}") from exc

        proc = subprocess.run(
            shlex.split(cmd), capture_output=True, text=True, timeout=timeout
        )
        if proc.returncode != 0:
            raise ExternalToolError(
                f"{metric_id} command exited {proc.returncode}: {proc.stderr.strip()}",
                stdout=proc.stdout,
                stderr=proc.stderr,
                returncode=proc.returncode,
            )
        text = Path(out_file).read_text() if out_file else proc.stdout
    finally:
        if out_file is not None:
            Path(out_file).unlink(missing_ok=True)

    per_frame, summary = _parse_metric_text(text, metric_id)
    if not per_frame and not summary:
        raise MetricParseError(f"{metric_id}: no scores found in tool output")
    if per_frame:
        if spec.frame_count and len(per_frame) != spec.frame_count:
            raise MetricParseError(
                f"{metric_id}: got {len(per_frame)} per-frame scores, expected {spec.frame_count}"
            )
        seq = summary[next(reversed(summary))] if summary else float(np.mean(per_frame))
        agg = TOOL_SUMMARY if summary else MEAN_OF_PER_FRAME
        return QualityScore(metric_id, per_frame, seq, agg)
    seq = summary[next(reversed(summary))]
    return QualityScore(metric_id, [], seq, TOOL_SUMMARY)
