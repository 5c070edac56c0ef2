"""Bjontegaard-delta statistics over rate-quality curves.

The default fit is a monotone piecewise-cubic Hermite interpolant
(Fritsch-Carlson slopes), which passes through every knot and never
overshoots monotone data. The classic global cubic-polynomial fit is
available for comparability with legacy BD tools. Deltas are averages of
the difference between the two fitted curves over the overlapping part
of their ranges:

- bd_quality integrates quality over log10(bitrate): the average quality
  gap in metric units (dB, VMAF points, ...).
- bd_rate integrates log10(bitrate) over quality and reports the average
  rate change as a percentage, 100 * (10^delta - 1).

Both share one core: overlap, fit both curves, integrate, mean gap. The
Hermite fit is integrated by Simpson's rule over evaluate_interpolant on
each knot interval, exact for a cubic; the polynomial fit by np.polyint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveError

PCHIP = "pchip"
CUBIC_POLY = "cubic_poly"


@dataclass(frozen=True)
class RQPoint:
    """One rate-quality measurement."""

    bitrate_kbps: float
    quality: float

    def __post_init__(self):
        if not self.bitrate_kbps > 0:
            raise CurveError(f"bitrate must be positive, got {self.bitrate_kbps}")
        if not math.isfinite(self.quality):
            raise CurveError(f"quality must be finite, got {self.quality}")


@dataclass
class RQCurve:
    """Rate-quality points for one method, sorted by bitrate."""

    label: str
    metric_id: str
    points: list[RQPoint]

    def __post_init__(self):
        self.points = sorted(self.points, key=lambda p: p.bitrate_kbps)
        if len(self.points) < 2:
            raise CurveError(f"curve {self.label!r} needs >= 2 points")
        rates = [p.bitrate_kbps for p in self.points]
        if any(b == a for a, b in zip(rates, rates[1:])):
            raise CurveError(f"curve {self.label!r} has duplicate bitrates")

    @property
    def log_rates(self) -> np.ndarray:
        return np.log10([p.bitrate_kbps for p in self.points])

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points], dtype=np.float64)


@dataclass
class BdResult:
    """Average gap between two fitted curves over their overlap.

    delta_quality is set by bd_quality (metric units), delta_rate_percent
    by bd_rate; the unused field is None. overlap holds the integration
    bounds: log10(bitrate) for bd_quality, quality units for bd_rate.
    """

    delta_quality: float | None
    delta_rate_percent: float | None
    overlap: tuple[float, float]
    warnings: list[str] = field(default_factory=list)
    interpolation: str = PCHIP


def pchip_slopes(xs, ys) -> np.ndarray:
    """Fritsch-Carlson monotone slopes at each knot.

    Interior knots use the weighted harmonic mean of adjacent secants,
    zero where the secants change sign or vanish. Endpoints use the
    one-sided three-point formula, clamped to keep the interpolant
    monotone where the data is.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise CurveError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 3:
        raise CurveError(f"need >= 3 points for pchip slopes, got {len(xs)}")
    h = np.diff(xs)
    if (h <= 0).any():
        raise CurveError("xs must be strictly increasing")
    d = np.diff(ys) / h

    m = np.zeros(len(xs), dtype=np.float64)
    flat = d[:-1] * d[1:] <= 0
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = (w1 + w2) / (w1 / d[:-1] + w2 / d[1:])
    m[1:-1] = np.where(flat, 0.0, harmonic)
    m[0] = _edge_slope(h[0], h[1], d[0], d[1])
    m[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])
    return m


def _edge_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    # one-sided three-point estimate, clamped to preserve monotonicity
    slope = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(slope) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(slope) > 3 * abs(d0):
        return 3 * d0
    return float(slope)


def integrate_interpolant(xs, ys, slopes, lo: float, hi: float) -> float:
    """Integral of the piecewise-cubic Hermite interpolant over [lo, hi].

    Simpson's rule over evaluate_interpolant on each knot interval's part
    inside [lo, hi], which is exact for a cubic. [lo, hi] must lie inside
    the knot range; lo == hi integrates to zero.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if lo > hi:
        raise CurveError(f"integration bounds reversed: [{lo}, {hi}]")
    if lo < xs[0] - 1e-12 or hi > xs[-1] + 1e-12:
        raise CurveError(
            f"bounds [{lo}, {hi}] outside knot range [{xs[0]}, {xs[-1]}]"
        )
    lo = min(max(lo, xs[0]), xs[-1])
    hi = min(max(hi, xs[0]), xs[-1])
    cuts = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
    a, b = cuts[:-1], cuts[1:]
    fa, fm, fb = evaluate_interpolant(xs, ys, slopes, [a, (a + b) / 2, b])
    return float(np.sum((b - a) / 6 * (fa + 4 * fm + fb)))


def evaluate_interpolant(xs, ys, slopes, x) -> np.ndarray | float:
    """Evaluate the Hermite interpolant at x: a float for a scalar, else an array of x's shape."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    h = xs[k + 1] - xs[k]
    t = (x - xs[k]) / h
    h00 = 2 * t ** 3 - 3 * t ** 2 + 1
    h10 = t ** 3 - 2 * t ** 2 + t
    h01 = -2 * t ** 3 + 3 * t ** 2
    h11 = t ** 3 - t ** 2
    out = ys[k] * h00 + h * slopes[k] * h10 + ys[k + 1] * h01 + h * slopes[k + 1] * h11
    return out if x.ndim else float(out)


def _fit_and_integrate(xs, ys, lo, hi, interpolation, warnings_out, label):
    n = len(xs)
    if n == 2:
        warnings_out.append(f"{label}: only 2 points, using linear interpolation")
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return integrate_interpolant(xs, ys, [slope, slope], lo, hi)
    if interpolation == PCHIP:
        return integrate_interpolant(xs, ys, pchip_slopes(xs, ys), lo, hi)
    if interpolation == CUBIC_POLY:
        deg = min(3, n - 1)
        if deg < 3:
            warnings_out.append(f"{label}: {n} points, cubic fit degraded to degree {deg}")
        poly = np.polyfit(xs, ys, deg)
        anti = np.polyint(poly)
        return float(np.polyval(anti, hi) - np.polyval(anti, lo))
    raise CurveError(f"unknown interpolation {interpolation!r}")


def _check_compatible(reference: RQCurve, test: RQCurve):
    if reference.metric_id != test.metric_id:
        raise CurveError(
            f"metric mismatch: {reference.metric_id!r} vs {test.metric_id!r}"
        )


def _overlap(ref_xs, test_xs, what: str) -> tuple[float, float]:
    lo = max(ref_xs.min(), test_xs.min())
    hi = min(ref_xs.max(), test_xs.max())
    if not lo < hi:
        raise CurveError(
            f"empty {what} overlap: reference [{ref_xs.min():.6g}, {ref_xs.max():.6g}] "
            f"vs test [{test_xs.min():.6g}, {test_xs.max():.6g}]"
        )
    return lo, hi


def _mean_gap(curves, what: str, interpolation: str):
    """Fit each (label, xs, ys) curve, reference then test, and integrate
    it over the overlap of their xs. Returns the mean gap (test minus
    reference), the overlap and the fits' warnings."""
    lo, hi = _overlap(curves[0][1], curves[1][1], what)
    warns: list[str] = []
    area_ref, area_test = (
        _fit_and_integrate(xs, ys, lo, hi, interpolation, warns, label) for label, xs, ys in curves
    )
    return (area_test - area_ref) / (hi - lo), (lo, hi), warns


def bd_quality(reference: RQCurve, test: RQCurve, interpolation: str = PCHIP) -> BdResult:
    """Average quality gap (test minus reference) over the shared log-rate range."""
    _check_compatible(reference, test)
    delta, overlap, warns = _mean_gap(
        [(c.label, c.log_rates, c.qualities) for c in (reference, test)], "log-rate", interpolation
    )
    return BdResult(delta, None, overlap, warns, interpolation)


def bd_rate(reference: RQCurve, test: RQCurve, interpolation: str = PCHIP) -> BdResult:
    """Average bitrate change in percent over the shared quality range.

    Positive means the test method spends more rate at equal quality. A
    warning is attached when the quality ranges overlap by less than half
    of either curve's span, since the fit then rests on extrapolation-
    prone tails.
    """
    _check_compatible(reference, test)
    curves = []
    for c in (reference, test):
        order = np.argsort(c.qualities)
        curves.append((c.label, c.qualities[order], c.log_rates[order]))
    if any(len(np.unique(xs)) != len(xs) for _, xs, _ in curves):
        raise CurveError("duplicate quality values; cannot fit rate vs quality")

    delta_log, (lo, hi), fit_warns = _mean_gap(curves, "quality", interpolation)
    warns = []
    for label, xs, _ in curves:
        full = xs.max() - xs.min()
        if full > 0 and hi - lo < 0.5 * full:
            warns.append(
                f"{label}: quality overlap covers {100 * (hi - lo) / full:.1f}% of the curve; "
                "rate delta leans on near-extrapolated fit regions"
            )
    percent = 100.0 * (10.0 ** delta_log - 1.0)
    return BdResult(None, percent, (lo, hi), warns + fit_warns, interpolation)
