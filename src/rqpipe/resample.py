"""Spatial resampling: Lanczos-windowed downsampling, nearest-neighbor upsampling.

Conventions, all recorded in run manifests for reproducibility:

- center-aligned grid: output index i samples source coordinate
  (i + 0.5) / scale - 0.5
- downscaling stretches the kernel by 1/scale (anti-aliasing support of
  a/scale source samples each side)
- boundary taps clamp to the edge sample; per-phase weights are
  renormalized to sum to exactly 1, so constant planes are preserved
- filtering runs in float64 and the result is rounded once (half away
  from zero) and clamped to the bit-depth range

Tap windows and the pairwise accumulation order are constructed so that
mirroring the input mirrors the output bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DimensionError
from .frame_io import Frame

__all__ = [
    "ResampleFilter",
    "LANCZOS3",
    "NEAREST",
    "lanczos_weight",
    "parse_scale",
    "downsample_plane",
    "upsample_plane_nn",
    "resample_frame",
]


@dataclass(frozen=True)
class ResampleFilter:
    """Either a Lanczos kernel with tap parameter `a`, or nearest neighbor."""

    kind: str  # "lanczos" | "nearest"
    a: int = 3

    def __post_init__(self):
        if self.kind not in ("lanczos", "nearest"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if self.kind == "lanczos" and self.a < 1:
            raise ConfigError(f"lanczos tap parameter must be >= 1, got {self.a}")

    @classmethod
    def lanczos(cls, a: int = 3) -> "ResampleFilter":
        return cls("lanczos", a)

    @classmethod
    def nearest(cls) -> "ResampleFilter":
        return cls("nearest")

    @classmethod
    def parse(cls, text: str) -> "ResampleFilter":
        """Parse 'lanczos:3', 'lanczos', or 'nn'."""
        t = text.strip().lower()
        if t in ("nn", "nearest"):
            return cls.nearest()
        if t == "lanczos":
            return cls.lanczos()
        if t.startswith("lanczos:"):
            return cls.lanczos(int(t.split(":", 1)[1]))
        raise ConfigError(f"cannot parse filter {text!r}")

    def __str__(self):
        return "nn" if self.kind == "nearest" else f"lanczos:{self.a}"


LANCZOS3 = ResampleFilter.lanczos(3)
NEAREST = ResampleFilter.nearest()


def parse_scale(text: str) -> Fraction:
    """Parse 'num/den' (e.g. '1/2', '2/1') into a reduced positive fraction."""
    try:
        frac = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse scale {text!r}") from exc
    if frac <= 0:
        raise ConfigError(f"scale must be positive, got {text!r}")
    return frac


def lanczos_weight(x, a: int):
    """Lanczos kernel: a*sin(pi x)*sin(pi x / a) / (pi^2 x^2) inside (-a, a).

    Equals 1 at x = 0 and 0 at every other integer and outside the support.
    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (np.abs(x) < a) & (x != 0)
    xi = x[inside]
    out[inside] = a * np.sin(np.pi * xi) * np.sin(np.pi * xi / a) / (np.pi * np.pi * xi * xi)
    out[x == 0] = 1.0
    return out if out.ndim else float(out)


def _axis_taps(in_len: int, out_len: int, filt: ResampleFilter):
    """Per-output tap indices and renormalized weights for one axis.

    Windows are placed around floor(center) with a fixed width so that the
    window of a mirrored output index is exactly the mirrored window; the
    extra positions this brings in carry zero kernel weight.
    """
    scale = out_len / in_len
    stretch = min(scale, 1.0)  # kernel stretch applies only when shrinking
    radius = filt.a / stretch
    half = math.ceil(radius)
    taps = 2 * half

    i = np.arange(out_len, dtype=np.float64)
    centers = (i + 0.5) / scale - 0.5
    n0 = np.floor(centers).astype(np.int64)
    idx = n0[:, None] + np.arange(-half + 1, half + 1, dtype=np.int64)[None, :]
    offsets = (idx - centers[:, None]) * stretch
    weights = lanczos_weight(offsets, filt.a)
    idx = np.clip(idx, 0, in_len - 1)
    # exact per-phase normalization; fsum keeps mirrored rows bit-identical
    sums = np.array([math.fsum(row) for row in weights], dtype=np.float64)
    weights = weights / sums[:, None]
    return idx, weights


def _nearest_indices(in_len: int, out_len: int) -> np.ndarray:
    centers = (np.arange(out_len, dtype=np.float64) + 0.5) * in_len / out_len - 0.5
    # round half down: factor 1/2 decimation picks the top-left of each 2x2
    idx = np.ceil(centers - 0.5).astype(np.int64)
    return np.clip(idx, 0, in_len - 1)


def _apply_axis(arr: np.ndarray, idx: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Weighted gather along one axis, accumulating symmetric tap pairs.

    Pairing tap t with tap T-1-t makes the accumulation order invariant
    under mirroring, which keeps mirrored inputs bit-exact.
    """
    if axis == 0:
        arr = arr.T
    out_len, taps = weights.shape
    acc = np.zeros((arr.shape[0], out_len), dtype=np.float64)
    for t in range(taps // 2):
        u = taps - 1 - t
        acc += arr[:, idx[:, t]] * weights[None, :, t] + arr[:, idx[:, u]] * weights[None, :, u]
    if taps % 2:
        t = taps // 2
        acc += arr[:, idx[:, t]] * weights[None, :, t]
    return acc.T if axis == 0 else acc


def _resample_plane_lanczos(
    plane: np.ndarray, factor: Fraction, filt: ResampleFilter, bit_depth: int
) -> np.ndarray:
    out_w, out_h = _output_dims(plane, factor)
    h, w = plane.shape
    x = plane.astype(np.float64)
    if out_w != w:
        idx, wts = _axis_taps(w, out_w, filt)
        x = _apply_axis(x, idx, wts, axis=1)
    if out_h != h:
        idx, wts = _axis_taps(h, out_h, filt)
        x = _apply_axis(x, idx, wts, axis=0)
    return np.clip(np.floor(x + 0.5), 0, (1 << bit_depth) - 1).astype(plane.dtype)


def _output_dims(plane: np.ndarray, factor: Fraction) -> tuple[int, int]:
    h, w = plane.shape
    if (w * factor.numerator) % factor.denominator or (h * factor.numerator) % factor.denominator:
        raise DimensionError(
            f"scale {factor} of {w}x{h} plane has non-integral output dimensions"
        )
    return (w * factor.numerator // factor.denominator, h * factor.numerator // factor.denominator)


def downsample_plane(
    plane: np.ndarray, factor: Fraction, filt: ResampleFilter, bit_depth: int
) -> np.ndarray:
    """Shrink a plane by `factor` (<= 1), separably, horizontal then vertical.

    Lanczos filtering is done in float64 with a single final rounding and
    a clamp to [0, 2^bit_depth - 1]; nearest-neighbor decimation picks the
    sample nearest each output center (top-left of each 2x2 for factor
    1/2). No silent padding: non-integral output dimensions raise
    DimensionError.
    """
    factor = Fraction(factor)
    if factor > 1:
        raise ConfigError(f"downsample factor must be <= 1, got {factor}")
    if filt.kind == "nearest":
        out_w, out_h = _output_dims(plane, factor)
        h, w = plane.shape
        return plane[np.ix_(_nearest_indices(h, out_h), _nearest_indices(w, out_w))].copy()
    return _resample_plane_lanczos(plane, factor, filt, bit_depth)


def upsample_plane_nn(plane: np.ndarray, factor: Fraction) -> np.ndarray:
    """Integer-factor nearest-neighbor upsampling: exact sample duplication.

    output(i, j) = input(i // f, j // f); no arithmetic is performed.
    """
    factor = Fraction(factor)
    if factor.denominator != 1 or factor.numerator < 1:
        raise ConfigError(f"nearest-neighbor upsampling needs an integral factor, got {factor}")
    f = factor.numerator
    return np.repeat(np.repeat(plane, f, axis=0), f, axis=1)


def resample_frame(frame: Frame, factor: Fraction, filt: ResampleFilter, bit_depth: int) -> Frame:
    """Scale luma and, when present, both chroma planes by `factor`.

    The factor gives the direction: at most 1 shrinks with
    downsample_plane; above 1 enlarges, by sample duplication for nearest
    neighbor and by the same center-aligned Lanczos filter otherwise.
    Chroma keeps its half-of-luma relation since every plane scales by the
    same factor.
    """
    factor = Fraction(factor)
    if factor <= 1:
        resample, args = downsample_plane, (factor, filt, bit_depth)
    elif filt.kind == "nearest":
        resample, args = upsample_plane_nn, (factor,)
    else:
        resample, args = _resample_plane_lanczos, (factor, filt, bit_depth)
    return Frame(*(resample(plane, *args) for plane in frame.planes()))
