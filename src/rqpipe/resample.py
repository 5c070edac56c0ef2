"""Spatial resampling: one Lanczos or nearest-neighbor resampler for either direction.

Conventions, all recorded in run manifests for reproducibility:

- center-aligned grid: output index i samples source coordinate
  (i + 0.5) / scale - 0.5
- downscaling stretches the kernel by 1/scale (anti-aliasing support of
  a/scale source samples each side)
- weights depend only on the output phase: with scale p/q in lowest
  terms, output i + p uses the weights of output i on the source q
  samples further on, so a block of periods is one banded matrix, and
  each Lanczos pass is GEMMs of overlapping source windows by it
- the output is that of pairwise sums: taps t and T-1-t of a phase added
  as a pair, each tap one strided slice (_filter_axis). The GEMMs sum in
  another order, so a sample whose sum lies within a derived margin of a
  rounding tie is summed again pairwise, and every sample is the
  pairwise one bit for bit
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
from numpy.lib.stride_tricks import as_strided

from .bands import row_bands
from .errors import ConfigError
from .frame_io import Frame, scaled_dims

# the sums a resampled sample comes from, which a job's resume key takes
# in. A constant, not a setting: a change that moves any sample changes it
ARITHMETIC = "lanczos gemm, pairwise ties 1"

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


# output samples (columns) or rows per block of a banded matrix: of 4 to 24,
# about 8 ran fastest on a 1080p plane (2-CPU Xeon VM, OpenBLAS, 1 thread),
# as a wider block multiplies more zeros
_BLOCK_OUTPUTS = 8


@lru_cache(maxsize=64)
def _band_matrix(in_len: int, out_len: int, filt: ResampleFilter, periods: int) -> np.ndarray:
    """_axis_taps's weights for `periods` output periods as one banded matrix.

    With p outputs read from q source samples a period, column k * p + r
    holds the weights of phase r of period k, from row starts[r] - first +
    k * q on (first = starts.min()). So a window of (periods - 1) * q +
    span source samples from first + j * q on, times the matrix, gives the
    outputs of periods j to j + periods - 1.

    Memoized and read-only, as _axis_taps.
    """
    starts, weights = _axis_taps(in_len, out_len, filt)
    phases, taps = weights.shape
    step = in_len * phases // out_len
    offsets = starts - starts.min()
    k = np.arange(periods)[:, None, None]
    rows = offsets[:, None] + k * step + np.arange(taps)
    cols = np.broadcast_to(k * phases + np.arange(phases)[:, None], rows.shape)
    mat = np.zeros(((periods - 1) * step + int(offsets.max()) + taps, periods * phases))
    mat[rows, cols] = weights
    return _read_only(mat)[0]


def _tie_eps(bit_depth: int, *axes: tuple[np.ndarray, np.ndarray]) -> float:
    """How near a point where floor steps a GEMM sample + 0.5 may lie and
    still be taken as rounding like the pairwise sums; `axes` holds each
    pass's widest _band_matrix and its _axis_taps weights.

    Any order of summing n products, with or without fused multiply-adds,
    is within gamma_n * sum |w_t x_t| of the exact sum, gamma_n = n u /
    (1 - n u) with u = 2^-53. The samples are below 2^bit_depth and each
    phase's weights have a 1-norm of at most A_h or A_v, and both paths
    use the same weights. So the horizontal sums are off the exact ones
    by at most gamma_K A_h 2^bit_depth, K being the matrix's rows for the
    GEMM and the taps T for the pairwise sums, and the vertical sums carry
    that times A_v, plus their own gamma times M = A_h A_v 2^bit_depth.
    To first order the two vertical sums differ by (K_h + T_h + K_v + T_v)
    u M at most, and each add of 0.5 rounds by at most u (M + 1); past
    that distance from a step both floors agree. eps = 16 times that
    bound, (K_h + T_h + K_v + T_v + 2) 2^-49 (M + 1): a factor 2 holds the
    second-order terms (n u is far below 1/2), and the rest is margin,
    which costs nothing where no sample comes near a tie (tests pin the
    measured difference at least 100 times below eps).
    """
    terms, gain = 2, 1.0
    for mat, weights in axes:
        terms += mat.shape[0] + weights.shape[1]
        gain *= float(np.abs(weights).sum(axis=1).max())
    return terms * 2.0 ** -49 * (gain * 2.0 ** bit_depth + 1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _filter_axis(x: np.ndarray, axis: int, out_len: int, filt: ResampleFilter) -> np.ndarray:
    """Resample one axis: each tap of each phase is one strided slice.

    Lanczos sums in float64: an integer plane is edge-padded in its own
    dtype and converted once, after the pad. Nearest neighbor keeps the
    dtype of x.
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
    return _taps_sum(x, axis, starts + lo, weights, step, count)


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
    filtered edge row.

    Both passes are GEMMs against _band_matrix. The band's new source rows
    are cast once into a float64 row buffer, padded with copies of the edge
    samples, and one matmul takes its overlapping column windows, viewed as
    (blocks, rows, window), times the matrix of a block of periods, straight
    into the filtered rows. The vertical pass is one matmul of the matrix
    of a block of periods, transposed, by the overlapping row windows of
    the filtered rows, viewed as (blocks, window, columns), straight into
    the band's output rows, and one more for the periods left over.

    The GEMMs sum in another order than _filter_axis and _taps_sum, whose
    pairwise sums define the output, so a sum can differ from theirs in its
    last bits, and where it lies next to a point where floor steps, so can
    its rounded sample. After + 0.5 and floor, every sample whose fraction
    lies within eps of 0 or 1 takes the value of the pairwise sums instead
    (_exact_ties), and every other sample already has it: the output is that
    of one whole-plane pairwise pass, bit for bit, whatever sum order BLAS
    takes. _tie_eps derives eps.
    """
    h, w = plane.shape
    starts, weights = _axis_taps(h, out_h, filt)
    phases, taps = weights.shape
    step = h * phases // out_h
    first = int(starts.min())
    span = int(starts.max()) - first + taps
    # the horizontal pass: blocks of `per` periods, each a window of `buf`
    # times `hmat`; column c of `buf` holds source column clamp(hfirst + c)
    hstarts, hweights = _axis_taps(w, out_w, filt)
    hphases = hweights.shape[0]
    hstep = w * hphases // out_w
    per = min(max(1, _BLOCK_OUTPUTS // hphases), out_w // hphases)
    hmat = _band_matrix(w, out_w, filt, per)
    blocks = -(-out_w // (per * hphases))
    hfirst = int(hstarts.min())
    buf_w = (blocks - 1) * per * hstep + hmat.shape[0]
    # a period's rows of the four float64 buffers: buf, wide, tall, rounded
    bands = row_bands(out_h // phases, 8 * (step * (buf_w + hmat.shape[1] * blocks) + 2 * phases * out_w))
    most = max(k1 - k0 for k0, k1 in bands)
    rows = (most - 1) * step + span  # source rows a band reads
    buf = np.empty((min(rows, h), buf_w))  # the rows past an edge are not filtered
    # (block, row, window): the overlapping column windows, not copied
    col, row = buf.strides[::-1]
    windows = as_strided(buf, (blocks, len(buf), len(hmat)), (per * hstep * col, row, col), writeable=False)
    wide = np.empty((rows, blocks, hmat.shape[1]))  # horizontally filtered source rows
    filtered = wide.reshape(rows, -1)[:, :out_w]
    # the vertical pass: blocks of `vper` periods, the transposed `vmat`
    # times a (window, column) view of `filtered`, and a corner of `vmat`
    # for the rest of the band
    vper = min(max(1, _BLOCK_OUTPUTS // phases), most)
    vmat = _band_matrix(h, out_h, filt, vper)
    vblocks = (rows - vmat.shape[0]) // (vper * step) + 1
    col, row = filtered.strides[::-1]
    vwindows = as_strided(filtered, (vblocks, len(vmat), out_w), (vper * step * row, row, col), writeable=False)
    tall, rounded = np.empty((2, most * phases, out_w))  # one band of output rows
    eps = _tie_eps(bit_depth, (hmat, hweights), (vmat, weights))
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
            _pad_rows(plane[a:b], buf, hfirst)
            np.matmul(windows[:, : b - a], hmat, out=wide[a - lo : b - lo].transpose(1, 0, 2))
        if lo + keep < 0:
            wide[keep:-lo] = wide[-lo]
        if hi > h:
            wide[max(h, lo + keep) - lo : hi - lo] = wide[h - 1 - lo]
        x, f = tall[: (k1 - k0) * phases], rounded[: (k1 - k0) * phases]
        full, rest = divmod(k1 - k0, vper)
        if full:
            np.matmul(vmat.T, vwindows[:full], out=x[: full * vper * phases].reshape(full, -1, out_w))
        if rest:  # the first `rest` periods' part of vmat
            mat = vmat[: (rest - 1) * step + span, : rest * phases]
            np.matmul(mat.T, filtered[full * vper * step : hi - lo], out=x[full * vper * phases :])
        x += 0.5
        np.floor(x, out=f)
        x -= f  # the fraction, in [0, 1)
        if x.min() < eps or x.max() > 1.0 - eps:
            _exact_ties(plane, out_h, out_w, filt, k0, x, f, eps, buf)
        np.clip(f, 0, (1 << bit_depth) - 1, out=out[k0 * phases : k1 * phases], casting="unsafe")
        held = (lo, hi)
    return out


def _pad_rows(rows: np.ndarray, buf: np.ndarray, first: int) -> None:
    """Cast `rows` into the first rows of `buf`, column c holding source
    column clamp(first + c): the columns past an edge repeat the edge."""
    n, w = rows.shape
    a, b = min(max(-first, 0), buf.shape[1]), min(max(w - first, 0), buf.shape[1])
    buf[:n, a:b] = rows[:, a + first : b + first]
    buf[:n, :a] = rows[:, :1]
    buf[:n, b:] = rows[:, -1:]


def _exact_ties(plane, out_h, out_w, filt, k0, frac, rounded, eps, buf) -> None:
    """Give the samples of band k0.. whose fraction `frac` lies within eps
    of 0 or 1 the value of the pairwise sums: the periods from the first to
    the last that holds one are filtered again with _taps_sum on both axes,
    summed as _filter_axis sums them, and those samples of `rounded` are
    replaced. `buf` is the horizontal pass's row buffer, free again."""
    h, w = plane.shape
    starts, weights = _axis_taps(h, out_h, filt)
    hstarts, hweights = _axis_taps(w, out_w, filt)
    phases, taps = weights.shape
    hphases = hweights.shape[0]
    step = h * phases // out_h
    first, hfirst = int(starts.min()), int(hstarts.min())
    near = frac < eps
    near |= frac > 1.0 - eps
    hit = np.flatnonzero(near.any(axis=1)) // phases
    ka, kb = int(hit[0]), int(hit[-1]) + 1
    lo, hi = first + (k0 + ka) * step, (k0 + kb - 1) * step + int(starts.max()) + taps
    a, b = max(lo, 0), min(hi, h)
    src = np.empty((hi - lo, out_w))
    _pad_rows(plane[a:b], buf, hfirst)
    hstep, hcount = w * hphases // out_w, out_w // hphases
    _taps_sum(buf[: b - a], 1, hstarts - hfirst, hweights, hstep, hcount, src[a - lo : b - lo])
    src[: a - lo] = src[a - lo]
    src[b - lo :] = src[b - 1 - lo]
    rows = slice(ka * phases, kb * phases)
    exact = _taps_sum(src, 0, starts - first, weights, step, kb - ka, frac[rows])
    exact += 0.5
    np.floor(exact, out=exact)
    np.copyto(rounded[rows], exact, where=near[rows])


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
