import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rqpipe import Frame, lanczos_weight, resample_frame, resample_plane
from rqpipe.errors import ConfigError, DimensionError
from rqpipe.resample import LANCZOS3, NEAREST, ResampleFilter, _axis_taps, _filter_axis, parse_scale

HALF = Fraction(1, 2)
TWICE = Fraction(2, 1)


def oracle_resample_2d(plane, out_h, out_w, a=3):
    """Brute-force direct 2-D weighted-sum resampler, independent of the
    separable implementation: weights come straight from the kernel
    formula, taps clamp to the edge, each output pixel normalizes by the
    total 2-D weight."""

    def kernel(x):
        if x == 0.0:
            return 1.0
        if abs(x) >= a:
            return 0.0
        return a * math.sin(math.pi * x) * math.sin(math.pi * x / a) / (math.pi ** 2 * x ** 2)

    in_h, in_w = plane.shape
    sy, sx = out_h / in_h, out_w / in_w
    fy, fx = min(sy, 1.0), min(sx, 1.0)
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        cy = (i + 0.5) / sy - 0.5
        for j in range(out_w):
            cx = (j + 0.5) / sx - 0.5
            acc = 0.0
            wsum = 0.0
            for v in range(math.floor(cy - a / fy), math.ceil(cy + a / fy) + 1):
                wy = kernel((v - cy) * fy)
                if wy == 0.0:
                    continue
                for u in range(math.floor(cx - a / fx), math.ceil(cx + a / fx) + 1):
                    wx = kernel((u - cx) * fx)
                    if wx == 0.0:
                        continue
                    vv = min(max(v, 0), in_h - 1)
                    uu = min(max(u, 0), in_w - 1)
                    acc += wy * wx * float(plane[vv, uu])
                    wsum += wy * wx
            out[i, j] = acc / wsum
    return out


def oracle_filter_axis(x, axis, out_len, filt):
    """Lanczos along one axis of a float plane, as an index table with one
    row per output sample: each row holds the clamped source indices and
    the weights of one output, the rows are fancy-index gathered, and taps
    t and T-1-t are accumulated as a pair."""
    arr = x.T if axis == 0 else x
    in_len = arr.shape[1]
    scale = out_len / in_len
    stretch = min(scale, 1.0)
    half = math.ceil(filt.a / stretch)
    centers = (np.arange(out_len, dtype=np.float64) + 0.5) / scale - 0.5
    n0 = np.floor(centers).astype(np.int64)
    idx = n0[:, None] + np.arange(-half + 1, half + 1, dtype=np.int64)[None, :]
    weights = lanczos_weight((idx - centers[:, None]) * stretch, filt.a)
    weights /= np.array([math.fsum(row) for row in weights], dtype=np.float64)[:, None]
    idx = np.clip(idx, 0, in_len - 1)
    acc = np.zeros((arr.shape[0], out_len), dtype=np.float64)
    taps = weights.shape[1]
    for t in range(taps // 2):
        u = taps - 1 - t
        acc += arr[:, idx[:, t]] * weights[None, :, t] + arr[:, idx[:, u]] * weights[None, :, u]
    return acc.T if axis == 0 else acc


def gather_oracle(plane, factor, filt, bit_depth):
    """The resampler as per-output index gathers. Nearest neighbor gathers
    the index nearest each output center, ties to the lower one."""

    def nearest_indices(in_len, out_len):
        centers = (np.arange(out_len, dtype=np.float64) + 0.5) * in_len / out_len - 0.5
        return np.clip(np.ceil(centers - 0.5).astype(np.int64), 0, in_len - 1)

    h, w = plane.shape
    out_h = h * factor.numerator // factor.denominator
    out_w = w * factor.numerator // factor.denominator
    if filt.kind == "nearest":
        return plane[np.ix_(nearest_indices(h, out_h), nearest_indices(w, out_w))]
    x = plane.astype(np.float64)
    if out_w != w:
        x = oracle_filter_axis(x, 1, out_w, filt)
    if out_h != h:
        x = oracle_filter_axis(x, 0, out_h, filt)
    return np.clip(np.floor(x + 0.5), 0, (1 << bit_depth) - 1).astype(plane.dtype)


class TestLanczosWeight:
    def test_center_is_one(self):
        assert lanczos_weight(0.0, 3) == 1.0

    def test_integer_zero_crossings(self):
        for x in (1, 2, -1, -2):
            assert lanczos_weight(float(x), 3) == pytest.approx(0.0, abs=1e-15)

    def test_zero_outside_support(self):
        assert lanczos_weight(3.0, 3) == 0.0
        assert lanczos_weight(-5.7, 3) == 0.0

    def test_half_sample_value(self):
        # a=3, x=0.5: 3*sin(pi/2)*sin(pi/6)/(pi^2/4) = 6/pi^2
        assert lanczos_weight(0.5, 3) == pytest.approx(6 / math.pi ** 2, abs=1e-12)

    def test_symmetry(self):
        xs = np.linspace(-3, 3, 61)
        assert np.allclose(lanczos_weight(xs, 3), lanczos_weight(-xs, 3), atol=0)


class TestDownsample:
    def test_constant_plane_preserved_exactly(self):
        for c in (0, 1, 77, 255):
            p = np.full((12, 16), c, np.uint8)
            out = resample_plane(p, HALF, LANCZOS3, 8)
            assert out.shape == (6, 8)
            assert (out == c).all()

    def test_constant_10bit(self):
        p = np.full((8, 8), 1001, np.uint16)
        assert (resample_plane(p, HALF, LANCZOS3, 10) == 1001).all()

    def test_hd_dimensions(self):
        p = np.zeros((1080, 1920), np.uint8)
        assert resample_plane(p, HALF, LANCZOS3, 8).shape == (540, 960)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            resample_plane(np.zeros((5, 8), np.uint8), HALF, LANCZOS3, 8)

    def test_matches_direct_2d_oracle(self):
        rng = np.random.default_rng(123)
        worst = 0
        for _ in range(25):
            p = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            sep = resample_plane(p, HALF, LANCZOS3, 8).astype(int)
            ora = np.clip(np.floor(oracle_resample_2d(p, 8, 8) + 0.5), 0, 255).astype(int)
            worst = max(worst, np.abs(sep - ora).max())
        assert worst <= 0.5

    def test_impulse_matches_oracle_tap_by_tap(self):
        p = np.zeros((16, 16), np.uint8)
        p[8, 8] = 200
        sep = resample_plane(p, HALF, LANCZOS3, 8).astype(int)
        ora = np.clip(np.floor(oracle_resample_2d(p, 8, 8) + 0.5), 0, 255).astype(int)
        assert np.array_equal(sep, ora)

    def test_mirror_symmetry_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            a = resample_plane(p, HALF, LANCZOS3, 8)
            b = resample_plane(p[:, ::-1], HALF, LANCZOS3, 8)
            assert np.array_equal(a[:, ::-1], b)

    def test_partition_of_unity_every_phase_and_boundary(self):
        for in_len, out_len in [(16, 8), (18, 9), (64, 32), (10, 5), (200, 100)]:
            _, w = _axis_taps(in_len, out_len, LANCZOS3)
            assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12

    def test_nn_decimation_picks_top_left(self):
        p = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = resample_plane(p, HALF, NEAREST, 8)
        assert out.tolist() == [[0, 2], [8, 10]]

    def test_nn_decimation_inverts_nn_upsample(self):
        rng = np.random.default_rng(5)
        p = rng.integers(0, 256, (6, 7)).astype(np.uint8)
        up = resample_plane(p, TWICE, NEAREST, 8)
        assert np.array_equal(resample_plane(up, HALF, NEAREST, 8), p)


class TestUpsampleNN:
    def test_duplication_rule(self):
        p = np.array([[1, 2], [3, 4]], np.uint8)
        out = resample_plane(p, TWICE, NEAREST, 8)
        assert out.tolist() == [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]

    def test_constant_plane(self):
        p = np.full((3, 5), 9, np.uint8)
        out = resample_plane(p, TWICE, NEAREST, 8)
        assert out.shape == (6, 10) and (out == 9).all()

    def test_bit_exact_no_arithmetic(self):
        rng = np.random.default_rng(11)
        p = rng.integers(0, 1024, (9, 13)).astype(np.uint16)
        out = resample_plane(p, TWICE, NEAREST, 10)
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                assert out[i, j] == p[i // 2, j // 2]


class TestMatchesGatherOracle:
    """Bit-exact against the per-output index gather, both directions."""

    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("filt", ["nn", "lanczos:2", "lanczos:3", "lanczos:5"])
    @pytest.mark.parametrize(
        "factor", ["1/4", "1/3", "1/2", "2/3", "3/4", "3/2", "2", "3", "4"]
    )
    def test_bit_exact(self, factor, filt, bit_depth):
        factor, filt = Fraction(factor), ResampleFilter.parse(filt)
        rng = np.random.default_rng(1000 * factor.numerator + factor.denominator)
        dtype = np.uint8 if bit_depth == 8 else np.uint16
        q = factor.denominator
        # a plane narrower than the widest kernel, a few periods, many periods
        for rows, cols in [(2 * q, 3 * q), (5 * q, 7 * q), (12 * q, 31 * q)]:
            p = rng.integers(0, 1 << bit_depth, (rows, cols)).astype(dtype)
            out = resample_plane(p, factor, filt, bit_depth)
            expected = gather_oracle(p, factor, filt, bit_depth)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("filt", ["lanczos:2", "lanczos:3", "lanczos:5"])
    @pytest.mark.parametrize("factor", ["1/4", "1/2", "2", "4"])
    def test_float_sums_bit_exact(self, factor, filt):
        # at these factors every output center is an exact binary fraction,
        # so the per-output weights repeat exactly from phase to phase and
        # the unrounded sums must agree too: a change in accumulation order
        # shows here even where rounding to integers would hide it
        factor, filt = Fraction(factor), ResampleFilter.parse(filt)
        rng = np.random.default_rng(factor.numerator + 7 * factor.denominator)
        q = factor.denominator
        x = rng.random((9 * q, 11 * q)) * 1023.0
        for axis in (0, 1):
            out_len = x.shape[axis] * factor.numerator // q
            got = _filter_axis(x, axis, out_len, filt)
            assert np.array_equal(got, oracle_filter_axis(x, axis, out_len, filt))

    def test_nearest_at_fractional_enlarging_factor(self):
        # 3/2: each group of two source samples becomes three outputs, the
        # middle one tied between them and taking the lower
        p = np.array([[10, 20, 30, 40]], np.uint8)
        out = resample_plane(np.repeat(p, 2, axis=0), Fraction(3, 2), NEAREST, 8)
        assert out.tolist() == [[10, 10, 20, 30, 30, 40]] * 3


class TestKernelCost:
    def test_axis_taps_memoized_and_read_only(self):
        for filt in (LANCZOS3, NEAREST):
            starts, weights = _axis_taps(1920, 960, filt)
            assert _axis_taps(1920, 960, filt)[1] is weights
            for arr in (starts, weights):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_lanczos_half_holds_under_three_float_planes(self):
        # the edge pad is made in the plane's dtype and converted once, so
        # the horizontal pass holds one padded float64 plane, its output
        # and two half-plane product temporaries
        plane = np.random.default_rng(11).integers(0, 1024, (252, 380)).astype(np.uint16)
        resample_plane(plane, Fraction(1, 2), LANCZOS3, 10)  # warm-up
        tracemalloc.start()
        try:
            resample_plane(plane, Fraction(1, 2), LANCZOS3, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * plane.size * 8

    def test_nearest_at_scale_one_returns_a_copy(self):
        plane = np.arange(12, dtype=np.uint16).reshape(3, 4)
        out = resample_plane(plane, Fraction(1), NEAREST, 10)
        assert np.array_equal(out, plane) and out is not plane


class TestResampleFrame:
    def test_420_dimension_bookkeeping(self):
        spec_dims = (1080, 1920)
        frame = Frame(
            y=np.zeros(spec_dims, np.uint8),
            cb=np.zeros((540, 960), np.uint8),
            cr=np.zeros((540, 960), np.uint8),
        )
        out = resample_frame(frame, HALF, LANCZOS3, 8)
        assert out.y.shape == (540, 960)
        assert out.cb.shape == (270, 480)
        assert out.cr.shape == (270, 480)

    def test_mono_frame_resamples_luma_only(self):
        frame = Frame(y=np.zeros((16, 16), np.uint8))
        out = resample_frame(frame, HALF, LANCZOS3, 8)
        assert out.y.shape == (8, 8) and out.cb is None

    def test_down_then_up_preserves_constant(self):
        frame = Frame(
            y=np.full((16, 16), 42, np.uint8),
            cb=np.full((8, 8), 100, np.uint8),
            cr=np.full((8, 8), 200, np.uint8),
        )
        down = resample_frame(frame, HALF, LANCZOS3, 8)
        up = resample_frame(down, TWICE, NEAREST, 8)
        assert (up.y == 42).all() and (up.cb == 100).all() and (up.cr == 200).all()


class TestLanczosUpsample:
    """Factor 2/1 with lanczos:3, as `resample --scale 2/1 --filter lanczos:3` runs it."""

    TWICE = parse_scale("2/1")
    LANCZOS = ResampleFilter.parse("lanczos:3")

    def test_420_dimensions_double(self):
        frame = Frame(
            y=np.zeros((18, 32), np.uint8),
            cb=np.zeros((9, 16), np.uint8),
            cr=np.zeros((9, 16), np.uint8),
        )
        out = resample_frame(frame, self.TWICE, self.LANCZOS, 8)
        assert out.y.shape == (36, 64)
        assert out.cb.shape == (18, 32) and out.cr.shape == (18, 32)

    @pytest.mark.parametrize(
        "bit_depth, value",
        [(8, 0), (8, 77), (8, 255), (10, 0), (10, 513), (10, 1023)],
    )
    def test_constant_planes_stay_constant(self, bit_depth, value):
        dtype = np.uint8 if bit_depth == 8 else np.uint16
        frame = Frame(
            y=np.full((12, 16), value, dtype),
            cb=np.full((6, 8), value, dtype),
            cr=np.full((6, 8), value, dtype),
        )
        out = resample_frame(frame, self.TWICE, self.LANCZOS, bit_depth)
        for plane in out.planes():
            assert plane.dtype == dtype
            assert (plane == value).all()

    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_mirrored_input_gives_mirrored_output(self, bit_depth):
        rng = np.random.default_rng(40 + bit_depth)
        dtype = np.uint8 if bit_depth == 8 else np.uint16
        for _ in range(10):
            y = rng.integers(0, 1 << bit_depth, (14, 18)).astype(dtype)
            out = resample_frame(Frame(y=y), self.TWICE, self.LANCZOS, bit_depth).y
            for flip in (np.fliplr, np.flipud):
                flipped = resample_frame(Frame(y=flip(y)), self.TWICE, self.LANCZOS, bit_depth).y
                assert np.array_equal(flipped, flip(out))


class TestParsing:
    def test_parse_scale(self):
        assert parse_scale("1/2") == HALF
        assert parse_scale("2/1") == 2
        assert parse_scale("2/4") == HALF  # reduces to lowest terms

    def test_parse_scale_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            parse_scale("0/1")

    def test_parse_filter(self):
        assert ResampleFilter.parse("lanczos:4").a == 4
        assert ResampleFilter.parse("nn").kind == "nearest"
        with pytest.raises(ConfigError):
            ResampleFilter.parse("box")

    def test_lanczos_a_must_be_positive(self):
        with pytest.raises(ConfigError):
            ResampleFilter.lanczos(0)
