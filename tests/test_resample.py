import math
from fractions import Fraction

import numpy as np
import pytest

from rqpipe import Frame, downsample_plane, lanczos_weight, resample_frame, upsample_plane_nn
from rqpipe.errors import ConfigError, DimensionError
from rqpipe.resample import LANCZOS3, NEAREST, ResampleFilter, _axis_taps, parse_scale

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
            out = downsample_plane(p, HALF, LANCZOS3, 8)
            assert out.shape == (6, 8)
            assert (out == c).all()

    def test_constant_10bit(self):
        p = np.full((8, 8), 1001, np.uint16)
        assert (downsample_plane(p, HALF, LANCZOS3, 10) == 1001).all()

    def test_hd_dimensions(self):
        p = np.zeros((1080, 1920), np.uint8)
        assert downsample_plane(p, HALF, LANCZOS3, 8).shape == (540, 960)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            downsample_plane(np.zeros((5, 8), np.uint8), HALF, LANCZOS3, 8)

    def test_matches_direct_2d_oracle(self):
        rng = np.random.default_rng(123)
        worst = 0
        for _ in range(25):
            p = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            sep = downsample_plane(p, HALF, LANCZOS3, 8).astype(int)
            ora = np.clip(np.floor(oracle_resample_2d(p, 8, 8) + 0.5), 0, 255).astype(int)
            worst = max(worst, np.abs(sep - ora).max())
        assert worst <= 0.5

    def test_impulse_matches_oracle_tap_by_tap(self):
        p = np.zeros((16, 16), np.uint8)
        p[8, 8] = 200
        sep = downsample_plane(p, HALF, LANCZOS3, 8).astype(int)
        ora = np.clip(np.floor(oracle_resample_2d(p, 8, 8) + 0.5), 0, 255).astype(int)
        assert np.array_equal(sep, ora)

    def test_mirror_symmetry_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            a = downsample_plane(p, HALF, LANCZOS3, 8)
            b = downsample_plane(p[:, ::-1], HALF, LANCZOS3, 8)
            assert np.array_equal(a[:, ::-1], b)

    def test_partition_of_unity_every_phase_and_boundary(self):
        for in_len, out_len in [(16, 8), (18, 9), (64, 32), (10, 5), (200, 100)]:
            _, w = _axis_taps(in_len, out_len, LANCZOS3)
            assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12

    def test_nn_decimation_picks_top_left(self):
        p = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = downsample_plane(p, HALF, NEAREST, 8)
        assert out.tolist() == [[0, 2], [8, 10]]

    def test_nn_decimation_inverts_nn_upsample(self):
        rng = np.random.default_rng(5)
        p = rng.integers(0, 256, (6, 7)).astype(np.uint8)
        up = upsample_plane_nn(p, TWICE)
        assert np.array_equal(downsample_plane(up, HALF, NEAREST, 8), p)


class TestUpsampleNN:
    def test_duplication_rule(self):
        p = np.array([[1, 2], [3, 4]], np.uint8)
        out = upsample_plane_nn(p, TWICE)
        assert out.tolist() == [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]

    def test_constant_plane(self):
        p = np.full((3, 5), 9, np.uint8)
        out = upsample_plane_nn(p, TWICE)
        assert out.shape == (6, 10) and (out == 9).all()

    def test_bit_exact_no_arithmetic(self):
        rng = np.random.default_rng(11)
        p = rng.integers(0, 1024, (9, 13)).astype(np.uint16)
        out = upsample_plane_nn(p, TWICE)
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                assert out[i, j] == p[i // 2, j // 2]

    def test_fractional_factor_rejected(self):
        with pytest.raises(ConfigError):
            upsample_plane_nn(np.zeros((4, 4), np.uint8), HALF)


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
