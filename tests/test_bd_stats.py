import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from rqpipe import RQCurve, RQPoint, bd_quality, bd_rate, integrate_interpolant, pchip_slopes
from rqpipe.bd_stats import CUBIC_POLY, evaluate_interpolant
from rqpipe.errors import CurveError


def curve(points, label="c", metric="vmaf"):
    return RQCurve(label=label, metric_id=metric, points=[RQPoint(r, q) for r, q in points])


FOUR_POINTS = [(1000.0, 30.0), (1800.0, 33.5), (3200.0, 36.2), (6000.0, 38.0)]


class TestPchipSlopes:
    def test_collinear_data(self):
        xs = np.array([0.0, 1.0, 2.0, 3.5])
        slopes = pchip_slopes(xs, 2 * xs + 1)
        assert np.allclose(slopes, 2.0, atol=1e-14)

    def test_local_extremum_gets_zero_slope(self):
        slopes = pchip_slopes([0.0, 1.0, 2.0], [0.0, 5.0, 1.0])
        assert slopes[1] == 0.0

    def test_hand_formula_case(self):
        # h = [1, 1], d = [1, 3]: interior (w1+w2)/(w1/d0 + w2/d1) = 6/4
        # endpoints via the one-sided three-point rule: 0 and 4
        slopes = pchip_slopes([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert slopes.tolist() == [0.0, 1.5, 4.0]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_published_reference(self, seed):
        # scipy's PchipInterpolator implements the same Fritsch-Carlson rules
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(0, 10, 6))
        while np.min(np.diff(xs)) < 1e-3:
            xs = np.sort(rng.uniform(0, 10, 6))
        ys = rng.uniform(-5, 5, 6)
        ref = PchipInterpolator(xs, ys).derivative()(xs)
        assert np.allclose(pchip_slopes(xs, ys), ref, rtol=1e-12, atol=1e-12)

    def test_non_increasing_xs_rejected(self):
        with pytest.raises(CurveError):
            pchip_slopes([0.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_monotone_data_no_overshoot(self):
        xs = np.array([0.0, 1.0, 3.0, 4.0, 7.0])
        ys = np.array([0.0, 0.1, 2.9, 3.0, 3.1])
        slopes = pchip_slopes(xs, ys)
        dense = np.linspace(0, 7, 2001)
        vals = evaluate_interpolant(xs, ys, slopes, dense)
        assert (np.diff(vals) >= -1e-12).all()
        assert vals.min() >= ys.min() - 1e-12 and vals.max() <= ys.max() + 1e-12

    def test_passes_through_knots(self):
        xs = np.array([0.0, 1.0, 2.5, 4.0])
        ys = np.array([1.0, -2.0, 0.5, 3.0])
        slopes = pchip_slopes(xs, ys)
        assert np.allclose(evaluate_interpolant(xs, ys, slopes, xs), ys, atol=1e-14)

    def test_array_in_array_out(self):
        xs = np.array([0.0, 1.0, 2.5, 4.0])
        ys = np.array([1.0, -2.0, 0.5, 3.0])
        slopes = pchip_slopes(xs, ys)
        one = evaluate_interpolant(xs, ys, slopes, np.array([2.0]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert evaluate_interpolant(xs, ys, slopes, np.ones((2, 3))).shape == (2, 3)
        scalar = evaluate_interpolant(xs, ys, slopes, 2.0)
        assert type(scalar) is float and scalar == one[0]


class TestIntegrate:
    def test_linear_data_is_trapezoid(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = 3 * xs + 1
        slopes = pchip_slopes(xs, ys)
        assert integrate_interpolant(xs, ys, slopes, 0.0, 2.0) == pytest.approx(8.0, abs=1e-13)

    def test_zero_width_interval(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([1.0, 4.0, 2.0])
        slopes = pchip_slopes(xs, ys)
        assert integrate_interpolant(xs, ys, slopes, 1.3, 1.3) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_quadrature_oracle(self, seed):
        # oracle: scipy evaluates the same Hermite data, trapezoid integrates
        rng = np.random.default_rng(seed + 100)
        xs = np.sort(rng.uniform(0, 10, 5))
        while np.min(np.diff(xs)) < 1e-2:
            xs = np.sort(rng.uniform(0, 10, 5))
        ys = rng.uniform(-4, 4, 5)
        slopes = pchip_slopes(xs, ys)
        lo = xs[0] + 0.1 * (xs[-1] - xs[0])
        hi = xs[0] + 0.9 * (xs[-1] - xs[0])
        spline = CubicHermiteSpline(xs, ys, slopes)
        grid = np.linspace(lo, hi, 100_001)
        oracle = np.trapezoid(spline(grid), grid)
        mine = integrate_interpolant(xs, ys, slopes, lo, hi)
        assert mine == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pchip", [True, False])
    def test_matches_exact_integral(self, seed, pchip):
        # scipy integrates the same Hermite cubics exactly, through their
        # antiderivative; bounds cover partial intervals, knots and lo == hi
        rng = np.random.default_rng(seed + 200)
        xs = np.sort(rng.uniform(0, 10, 6))
        while np.min(np.diff(xs)) < 1e-2:
            xs = np.sort(rng.uniform(0, 10, 6))
        ys = rng.uniform(20, 40, 6)
        slopes = pchip_slopes(xs, ys) if pchip else rng.uniform(-3, 3, 6)
        spline = CubicHermiteSpline(xs, ys, slopes)
        inner = np.sort(rng.uniform(xs[0], xs[-1], 2))
        bounds = [
            (xs[0], xs[-1]), tuple(inner), (xs[1], xs[4]), (xs[2], xs[3]),
            (xs[0], inner[0]), (inner[1], xs[-1]), tuple(sorted((xs[1], inner[1]))),
            (inner[0], inner[0]), (xs[2], xs[2]),
        ]
        for lo, hi in bounds:
            np.testing.assert_allclose(
                integrate_interpolant(xs, ys, slopes, lo, hi), spline.integrate(lo, hi), rtol=1e-12
            )

    def test_out_of_range_bounds_rejected(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, 0.0])
        slopes = pchip_slopes(xs, ys)
        with pytest.raises(CurveError):
            integrate_interpolant(xs, ys, slopes, -1.0, 2.0)


class TestBdQuality:
    def test_identity_is_zero(self):
        ref = curve(FOUR_POINTS)
        test = curve(FOUR_POINTS)
        assert abs(bd_quality(ref, test).delta_quality) < 1e-12

    @pytest.mark.parametrize("delta", [0.5, 2.5, -3.0])
    def test_constant_shift_recovered_exactly(self, delta):
        ref = curve(FOUR_POINTS)
        test = curve([(r, q + delta) for r, q in FOUR_POINTS])
        assert bd_quality(ref, test).delta_quality == pytest.approx(delta, abs=1e-9)

    def test_two_point_linear_hand_case(self):
        # difference is linear in log-rate with endpoint gaps 1 and 2
        ref = curve([(1000.0, 30.0), (2000.0, 34.0)])
        test = curve([(1000.0, 31.0), (2000.0, 36.0)])
        result = bd_quality(ref, test)
        assert result.delta_quality == pytest.approx(1.5, abs=1e-12)
        assert any("linear" in w for w in result.warnings)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        pts_a = [(r, q + rng.uniform(-0.3, 0.3)) for r, q in FOUR_POINTS]
        pts_b = [(1.3 * r, q + rng.uniform(0.5, 1.0)) for r, q in FOUR_POINTS]
        a, b = curve(pts_a, "a"), curve(pts_b, "b")
        assert bd_quality(a, b).delta_quality == pytest.approx(
            -bd_quality(b, a).delta_quality, abs=1e-12
        )

    def test_rate_scale_invariance(self):
        ref = curve(FOUR_POINTS)
        test = curve([(r * 1.4, q + 1.0) for r, q in FOUR_POINTS])
        base = bd_quality(ref, test).delta_quality
        for c in (0.001, 7.0, 1e4):
            ref_c = curve([(r * c, q) for r, q in FOUR_POINTS])
            test_c = curve([(r * 1.4 * c, q + 1.0) for r, q in FOUR_POINTS])
            assert bd_quality(ref_c, test_c).delta_quality == pytest.approx(base, abs=1e-12)

    def test_empty_overlap_names_both_ranges(self):
        ref = curve([(100.0, 30.0), (200.0, 34.0)])
        test = curve([(5000.0, 31.0), (9000.0, 35.0)])
        with pytest.raises(CurveError, match="overlap"):
            bd_quality(ref, test)

    def test_metric_mismatch_rejected(self):
        ref = curve(FOUR_POINTS, metric="vmaf")
        test = curve(FOUR_POINTS, metric="psnr_y")
        with pytest.raises(CurveError, match="metric"):
            bd_quality(ref, test)

    def test_cubic_poly_mode_identity(self):
        ref = curve(FOUR_POINTS)
        test = curve(FOUR_POINTS)
        result = bd_quality(ref, test, interpolation=CUBIC_POLY)
        assert abs(result.delta_quality) < 1e-9
        assert result.interpolation == CUBIC_POLY


class TestBdRate:
    def test_identity_is_zero(self):
        assert abs(bd_rate(curve(FOUR_POINTS), curve(FOUR_POINTS)).delta_rate_percent) < 1e-9

    def test_double_rate_is_plus_hundred_percent(self):
        ref = curve(FOUR_POINTS)
        test = curve([(2 * r, q) for r, q in FOUR_POINTS])
        assert bd_rate(ref, test).delta_rate_percent == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_quality_ranges_error(self):
        ref = curve([(1000.0, 30.0), (2000.0, 34.0)])
        test = curve([(1000.0, 80.0), (2000.0, 90.0)])
        with pytest.raises(CurveError, match="overlap"):
            bd_rate(ref, test)

    def test_low_overlap_warning(self):
        ref = curve([(1000.0, 30.0), (2000.0, 32.0), (4000.0, 34.0)])
        test = curve([(900.0, 33.5), (2100.0, 36.0), (4100.0, 40.0)])
        result = bd_rate(ref, test)
        assert any("overlap" in w for w in result.warnings)


class TestCurveValidation:
    def test_needs_two_points(self):
        with pytest.raises(CurveError):
            curve([(1000.0, 30.0)])

    def test_duplicate_bitrates_rejected(self):
        with pytest.raises(CurveError):
            curve([(1000.0, 30.0), (1000.0, 31.0), (2000.0, 33.0)])

    def test_duplicate_qualities_rejected_by_bd_rate(self):
        # bd_rate fits rate against quality, so a repeated quality has two rates
        flat = curve([(1000.0, 30.0), (2000.0, 30.0), (4000.0, 35.0)])
        with pytest.raises(CurveError, match="duplicate quality values"):
            bd_rate(curve(FOUR_POINTS), flat)
        assert bd_quality(curve(FOUR_POINTS), flat).delta_quality is not None

    def test_nonpositive_bitrate_rejected(self):
        with pytest.raises(CurveError):
            RQPoint(0.0, 30.0)

    def test_points_sorted_by_bitrate(self):
        c = curve([(2000.0, 34.0), (1000.0, 30.0)])
        assert [p.bitrate_kbps for p in c.points] == [1000.0, 2000.0]
