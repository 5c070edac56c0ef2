"""Spatial resampling: one Lanczos or nearest-neighbor resampler for either direction.

Conventions, all recorded in run manifests for reproducibility:

- center-aligned grid: output index i samples source coordinate
  (i + 0.5) / scale - 0.5
- downscaling stretches the kernel by 1/scale (anti-aliasing support of
  a/scale source samples each side)
- weights depend only on the output phase: with scale p/q in lowest
  terms, output i + p uses the weights of output i on the source q
  samples further on, so each tap is one strided slice
- the plane is edge-padded, so boundary taps read the edge sample;
  per-phase weights are renormalized to sum to exactly 1, so constant
  planes are preserved
- Lanczos filtering runs in float64 and the result is rounded once (half
  up) and clamped to the bit-depth range; nearest neighbor only copies
- Lanczos filters a plane in bands of output rows (rqpipe.bands), so a
  call holds its result plus float64 scratch for one band; the output is
  the same as from one whole-plane pass

Tap windows and the pairwise accumulation order are constructed so that
mirroring the input mirrors the output bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bands import row_bands
from .errors import ConfigError
from .frame_io import Frame, scaled_dims

__all__ = [
    "ResampleFilter",
    "LANCZOS3",
    "NEAREST",
    "lanczos_weight",
    "parse_scale",
    "resample_plane",
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
            try:
                a = int(t.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"cannot parse filter {text!r}") from None
            return cls.lanczos(a)
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


@lru_cache(maxsize=64)
def _axis_taps(in_len: int, out_len: int, filt: ResampleFilter):
    """First source index and weights of each output phase along one axis.

    With out_len / in_len = p / q in lowest terms, output i + p reads the
    source samples q after those of output i with the same weights, so p
    rows describe the whole axis. Nearest neighbor is one tap of weight 1,
    ties going to the lower index (factor 1/2 picks the top-left of each
    2x2). Lanczos windows are placed around floor(center) with a fixed
    width so that the window of a mirrored output index is exactly the
    mirrored window; the extra positions this brings in carry zero kernel
    weight.

    Memoized: every caller shares the returned arrays, so they are read-only.
    """
    i = np.arange(Fraction(out_len, in_len).numerator, dtype=np.float64)
    if filt.kind == "nearest":
        centers = (i + 0.5) * in_len / out_len - 0.5
        return _read_only(np.ceil(centers - 0.5).astype(np.int64), np.ones((len(i), 1)))
    scale = out_len / in_len
    stretch = min(scale, 1.0)  # kernel stretch applies only when shrinking
    half = math.ceil(filt.a / stretch)

    centers = (i + 0.5) / scale - 0.5
    n0 = np.floor(centers).astype(np.int64)
    idx = n0[:, None] + np.arange(-half + 1, half + 1, dtype=np.int64)[None, :]
    weights = lanczos_weight((idx - centers[:, None]) * stretch, filt.a)
    # exact per-phase normalization; fsum keeps mirrored rows bit-identical
    sums = np.array([math.fsum(row) for row in weights], dtype=np.float64)
    return _read_only(idx[:, 0], weights / sums[:, None])


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _filter_axis(
    x: np.ndarray, axis: int, out_len: int, filt: ResampleFilter, out: np.ndarray | None = None
) -> np.ndarray:
    """Resample one axis: each tap of each phase is one strided slice.

    Lanczos sums in float64: an integer plane is edge-padded in its own
    dtype and converted once, after the pad. Nearest neighbor keeps the
    dtype of x. The result goes to `out` when given, else to a new array.
    """
    in_len = x.shape[axis]
    starts, weights = _axis_taps(in_len, out_len, filt)
    phases, taps = weights.shape
    step = in_len * phases // out_len
    count = out_len // phases  # outputs per phase
    lo = max(0, -int(starts.min()))
    hi = max(0, int(starts.max()) + taps - 1 + (count - 1) * step - (in_len - 1))
    if lo or hi:  # edge padding: index j now holds source sample clamp(j - lo)
        x = x.take(np.clip(np.arange(-lo, in_len + hi), 0, in_len - 1), axis=axis)
    if taps > 1:
        x = x.astype(np.float64, copy=False)
    return _taps_sum(x, axis, starts + lo, weights, step, count, out)


def _taps_sum(x, axis, starts, weights, step, count, out=None) -> np.ndarray:
    """Output k * phases + r along `axis` is the sum over taps t of
    weights[r, t] * x[starts[r] + k * step + t], for k < count.

    Taps t and T-1-t are accumulated as a pair, which makes the
    accumulation order invariant under mirroring; the first pair is
    stored, not added to zeros.
    """
    phases, taps = weights.shape

    def along(arr, first, stride):
        return arr[(slice(None),) * axis + (slice(first, first + (count - 1) * stride + 1, stride),)]

    if out is None:
        shape = list(x.shape)
        shape[axis] = count * phases
        out = np.empty(shape, dtype=x.dtype)
    for r, (start, w) in enumerate(zip(starts, weights)):
        acc = along(out, r, phases)
        if taps == 1:  # nearest neighbor: a copy, no arithmetic
            acc[...] = along(x, start, step)
        for t in range(taps // 2):
            u = taps - 1 - t
            pair = along(x, start + t, step) * w[t]
            pair += along(x, start + u, step) * w[u]
            if t:
                acc += pair
            else:
                acc[...] = pair
    return out


def _lanczos_in_bands(plane, out_h, out_w, filt, bit_depth) -> np.ndarray:
    """resample_plane's Lanczos path, one band of output row periods at a time.

    A period is p output rows read from q source rows, out_h / h = p / q.
    Band k0..k1-1 reads the source rows first + k0 * step up to
    first + (k1 - 1) * step + span, each clamped to the edge. Each source
    row is filtered horizontally once: the rows a band shares with the one
    before it are kept, and the rows past an edge are copies of the
    filtered edge row. Every output equals that of one whole-plane pass.
    """
    h, w = plane.shape
    starts, weights = _axis_taps(h, out_h, filt)
    phases, taps = weights.shape
    step = h * phases // out_h
    bands = row_bands(out_h // phases, 8 * (step * w + phases * out_w))  # a period's rows as float64
    first = int(starts.min())
    span = int(starts.max()) - first + taps
    most = max(k1 - k0 for k0, k1 in bands)
    wide = np.empty(((most - 1) * step + span, out_w))  # horizontally filtered source rows
    tall = np.empty((most * phases, out_w))  # one band of output rows
    out = np.empty((out_h, out_w), dtype=plane.dtype)
    held = (first, first)  # the source rows in `wide`
    for k0, k1 in bands:
        lo, hi = first + k0 * step, first + (k1 - 1) * step + span
        keep = max(0, held[1] - lo)
        wide[:keep] = wide[lo - held[0] : held[1] - held[0]]
        # every window holds a row of the plane, so it holds the edge row
        # that the rows past that edge repeat
        a, b = min(max(lo + keep, 0), h), min(hi, h)
        if a < b:
            _filter_axis(plane[a:b], 1, out_w, filt, out=wide[a - lo : b - lo])
        if lo + keep < 0:
            wide[keep:-lo] = wide[-lo]
        if hi > h:
            wide[max(h, lo + keep) - lo : hi - lo] = wide[h - 1 - lo]
        x = _taps_sum(wide[: hi - lo], 0, starts - first, weights, step, k1 - k0, tall[: (k1 - k0) * phases])
        x += 0.5
        np.floor(x, out=x)
        np.clip(x, 0, (1 << bit_depth) - 1, out=x)
        out[k0 * phases : k1 * phases] = x
        held = (lo, hi)
    return out


def resample_plane(
    plane: np.ndarray, factor: Fraction, filt: ResampleFilter, bit_depth: int
) -> np.ndarray:
    """Scale a plane by `factor`, either direction, horizontal then vertical.

    Lanczos filtering is done in float64 with a single final rounding and
    a clamp to [0, 2^bit_depth - 1]; nearest neighbor copies the sample
    nearest each output center and does no arithmetic. No silent padding:
    non-integral output dimensions raise DimensionError.

    Lanczos runs over bands of output rows (rqpipe.bands), so besides its
    result it holds float64 scratch for one band rather than whole planes.
    """
    h, w = plane.shape
    out_w, out_h = scaled_dims(w, h, Fraction(factor))
    if filt.kind == "lanczos":
        return _lanczos_in_bands(plane, out_h, out_w, filt, bit_depth)
    x = plane
    if out_w != w:
        x = _filter_axis(x, 1, out_w, filt)
    if out_h != h:
        x = _filter_axis(x, 0, out_h, filt)
    return x.copy() if x is plane else x


def resample_frame(frame: Frame, factor: Fraction, filt: ResampleFilter, bit_depth: int) -> Frame:
    """Scale luma and, when present, both chroma planes by `factor`.

    Chroma keeps its half-of-luma relation since every plane scales by the
    same factor.
    """
    return Frame(*(resample_plane(plane, factor, filt, bit_depth) for plane in frame.planes()))
