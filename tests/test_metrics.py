import math
import sys
import tracemalloc

import numpy as np
import pytest

from rqpipe import Frame, VideoSpec, bands, mse_plane, psnr_y, psnr_y_sequence
from rqpipe.errors import ConfigError, DimensionError, ExternalToolError, MetricParseError
from rqpipe.metrics import MEAN_OF_PER_FRAME, TOOL_SUMMARY, external_metric


def naive_mse(a, b):
    """Oracle: plain double-precision Python loop."""
    total = 0.0
    h, w = a.shape
    for i in range(h):
        for j in range(w):
            d = float(a[i, j]) - float(b[i, j])
            total += d * d
    return total / (h * w)


def frame_pair(rng, size=64, bit_depth=8):
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    top = (1 << bit_depth) - 1
    a = rng.integers(0, top + 1, (size, size)).astype(dtype)
    b = rng.integers(0, top + 1, (size, size)).astype(dtype)
    return Frame(y=a), Frame(y=b)


class TestMse:
    def test_identical_planes(self):
        p = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert mse_plane(p, p) == 0.0

    def test_uniform_difference_of_one(self):
        a = np.zeros((4, 4), np.uint8)
        assert mse_plane(a, a + 1) == 1.0

    def test_hand_computed(self):
        a = np.array([[0, 2]], np.uint8)
        b = np.array([[1, 5]], np.uint8)
        assert mse_plane(a, b) == 5.0  # (1 + 9) / 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mse_plane(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = frame_pair(rng, size=16)
            assert mse_plane(a.y, b.y) == pytest.approx(naive_mse(a.y, b.y), rel=1e-12)


class TestMseKernel:
    @pytest.mark.parametrize("dtype, top", [(np.uint8, 255), (np.uint16, 1023), (np.uint16, 65535), (np.int32, 1 << 20)])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (64, 96), (61, 83)])
    def test_bitwise_equal_to_the_astype_formula(self, dtype, top, shape):
        rng = np.random.default_rng(top + shape[0])
        a = rng.integers(0, top + 1, shape).astype(dtype)
        b = rng.integers(0, top + 1, shape).astype(dtype)
        d = a.astype(np.float64) - b.astype(np.float64)
        assert mse_plane(a, b) == float(np.mean(d * d))

    def test_holds_one_float_plane(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 1024, (252, 380)).astype(np.uint16)
        b = rng.integers(0, 1024, (252, 380)).astype(np.uint16)
        mse_plane(a, b)  # warm-up
        tracemalloc.start()
        try:
            mse_plane(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.size * 8

    def test_scalars_are_one_sample(self):
        assert mse_plane(np.uint16(7), np.uint16(3)) == 16.0

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (5, 0)])
    def test_empty_plane_rejected(self, shape):
        a = np.zeros(shape, np.uint16)
        with pytest.raises(DimensionError, match="empty plane"):
            mse_plane(a, a)

    @pytest.mark.parametrize("dtype, top", [(np.uint8, 255), (np.uint16, 1023), (np.uint16, 65535), (np.int32, 1 << 20)])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (64, 96), (61, 83)])
    def test_bands_equal_one_band(self, band_budget, dtype, top, shape):
        rng = np.random.default_rng(top + shape[0])
        a = rng.integers(0, top + 1, shape).astype(dtype)
        b = rng.integers(0, top + 1, shape).astype(dtype)
        d = a.astype(np.float64) - b.astype(np.float64)
        for budget in (1, 8 * 5 * shape[1]):  # one row per band, then five
            splits = band_budget(budget)
            assert mse_plane(a, b) == float(np.mean(d * d))
            (split,) = splits
            assert len(split) == -(-shape[0] // (1 if budget == 1 else 5))

    def test_holds_three_bands(self):
        # a 1024x768 float64 plane is 6 MiB; the squares are summed by band
        rng = np.random.default_rng(6)
        a = rng.integers(0, 1024, (768, 1024)).astype(np.uint16)
        b = rng.integers(0, 1024, (768, 1024)).astype(np.uint16)
        mse_plane(a, b)  # warm-up
        tracemalloc.start()
        try:
            mse_plane(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * bands.BAND_BYTES


class TestPsnr:
    def test_identical_frames_infinite(self):
        f = Frame(y=np.full((8, 8), 3, np.uint8))
        assert psnr_y(f, f, 8) == math.inf

    def test_uniform_difference_8bit(self):
        a = Frame(y=np.zeros((8, 8), np.uint8))
        b = Frame(y=np.ones((8, 8), np.uint8))
        assert psnr_y(a, b, 8) == pytest.approx(20 * math.log10(255), abs=1e-9)

    def test_10bit_mse_16(self):
        # uniform difference of 4 gives mse 16
        a = Frame(y=np.zeros((8, 8), np.uint16))
        b = Frame(y=np.full((8, 8), 4, np.uint16))
        assert psnr_y(a, b, 10) == pytest.approx(10 * math.log10(1023 ** 2 / 16), abs=1e-9)

    def test_symmetry_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        a, b = frame_pair(rng, size=32)
        assert psnr_y(a, b, 8) == psnr_y(b, a, 8)
        a10 = Frame(y=(a.y // 2 + 10).astype(np.uint8))
        b10 = Frame(y=(b.y // 2 + 10).astype(np.uint8))
        shifted_a = Frame(y=a10.y + 5)
        shifted_b = Frame(y=b10.y + 5)
        assert psnr_y(a10, b10, 8) == pytest.approx(psnr_y(shifted_a, shifted_b, 8), abs=1e-12)

    def test_monotone_in_error_magnitude(self):
        base = np.full((16, 16), 100, np.int32)
        rng = np.random.default_rng(17)
        err = rng.integers(-5, 6, (16, 16))
        prev = math.inf
        for k in (1, 2, 3, 4):
            dist = Frame(y=np.clip(base + k * err, 0, 255).astype(np.uint8))
            val = psnr_y(Frame(y=base.astype(np.uint8)), dist, 8)
            assert val < prev
            prev = val

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a, b = frame_pair(rng)
            mine = psnr_y(a, b, 8)
            oracle = 10 * math.log10(255 ** 2 / naive_mse(a.y, b.y))
            assert mine == pytest.approx(oracle, abs=1e-9)


class TestSequenceAggregation:
    def test_mean_of_per_frame_caps_infinite(self):
        a = Frame(y=np.zeros((4, 4), np.uint8))
        b = Frame(y=np.ones((4, 4), np.uint8))
        score = psnr_y_sequence([a, a], [a, b], 8)
        assert score.per_frame[0] == math.inf
        expected = (100.0 + 20 * math.log10(255)) / 2
        assert score.sequence_value == pytest.approx(expected, abs=1e-9)
        assert score.aggregation == MEAN_OF_PER_FRAME

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigError):
            psnr_y_sequence([], [], 8)


SPEC3 = VideoSpec(4, 4, 8, "400", frame_count=3)


class TestExternalMetric:
    def test_stub_per_frame_scores(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text("import sys\nfor _ in range(3): print('95.0')\n")
        score = external_metric(
            f"{sys.executable} {stub} {{ref}} {{dist}}", "r.yuv", "d.yuv", SPEC3, "vmaf"
        )
        assert score.per_frame == [95.0, 95.0, 95.0]
        assert score.sequence_value == 95.0
        assert score.metric_id == "vmaf"

    def test_summary_key_value(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text("print('vmaf_mean=87.25')\n")
        score = external_metric(
            f"{sys.executable} {stub} {{ref}} {{dist}}", "r", "d", SPEC3, "vmaf"
        )
        assert score.sequence_value == 87.25
        assert score.aggregation == TOOL_SUMMARY

    @staticmethod
    def run_stub(tmp_path, lines, metric_id):
        stub = tmp_path / "stub.py"
        stub.write_text("".join(f"print({line!r})\n" for line in lines))
        return external_metric(f"{sys.executable} {stub} {{ref}} {{dist}}", "r", "d", SPEC3, metric_id)

    @pytest.mark.parametrize("lines, per_frame, value", [
        (["vmaf=95.125", "elapsed_s=12.5"], [], 95.125),  # the named line, not the last one
        (["90", "91", "92", "elapsed_s=1.5", "vmaf=90.5"], [90.0, 91.0, 92.0], 90.5),
        (["model=vmaf_v0.6.1", "vmaf_mean=87.25", "status=done"], [], 87.25),  # the only numeric one
    ])
    def test_summary_line_read_as_stated(self, tmp_path, lines, per_frame, value):
        score = self.run_stub(tmp_path, lines, "vmaf")
        assert (score.per_frame, score.sequence_value, score.aggregation) == (per_frame, value, TOOL_SUMMARY)

    @pytest.mark.parametrize("metric_id, lines, keys", [
        ("ms_ssim", ["vmaf=95.125", "elapsed_s=12.5"], "vmaf, elapsed_s"),  # none named, several numeric
        ("vmaf", ["vmaf=N/A", "elapsed_s=12.5"], "vmaf, elapsed_s"),  # the named one is no number
        ("vmaf", ["vmaf=95.1", "vmaf=95.2"], "vmaf, vmaf"),  # two named ones
    ])
    def test_summary_that_cannot_be_told_raises_listing_the_keys(self, tmp_path, metric_id, lines, keys):
        with pytest.raises(MetricParseError, match=rf"^{metric_id}: .*keys {keys}:"):
            self.run_stub(tmp_path, lines, metric_id)

    def test_output_file_parsing(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "open(sys.argv[1], 'w').write('1.0\\n2.0\\n3.0\\n')\n"
        )
        score = external_metric(
            f"{sys.executable} {stub} {{out}} {{ref}} {{dist}}", "r", "d", SPEC3, "m"
        )
        assert score.per_frame == [1.0, 2.0, 3.0]
        assert score.sequence_value == pytest.approx(2.0)

    def test_nonzero_exit_carries_stderr(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text("import sys\nprint('boom', file=sys.stderr)\nsys.exit(1)\n")
        with pytest.raises(ExternalToolError, match="boom") as err:
            external_metric(f"{sys.executable} {stub} {{ref}} {{dist}}", "r", "d", SPEC3)
        assert "boom" in err.value.stderr
        assert err.value.returncode == 1

    def test_template_missing_dist_rejected_before_spawn(self):
        with pytest.raises(ConfigError, match=r"\{dist\}"):
            external_metric("tool --ref {ref}", "r", "d", SPEC3)

    def test_unparseable_output(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text("print('no scores here')\n")
        with pytest.raises(MetricParseError):
            external_metric(f"{sys.executable} {stub} {{ref}} {{dist}}", "r", "d", SPEC3)

    def test_wrong_per_frame_count(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text("print('1.0')\n")
        with pytest.raises(MetricParseError, match="1 per-frame scores, expected 3"):
            external_metric(f"{sys.executable} {stub} {{ref}} {{dist}}", "r", "d", SPEC3)
