import math

import numpy as np
import pytest

from rqpipe import Frame, mock_encode_decode
from rqpipe.errors import ConfigError
from rqpipe.metrics import mse_plane
from rqpipe.pipeline.codecs import encode_plane, quant_step


def dc_hand_trace(value, qp, bit_depth=8):
    """Oracle for constant blocks: only the DC coefficient survives.

    Orthonormal 2-D DCT of a constant 8x8 block of centered value d has
    DC = 8*d and zero elsewhere, so the round trip is quantize one value,
    scale back, invert, round.
    """
    d = value - (1 << (bit_depth - 1))
    dc = 8.0 * d
    step = 2.0 ** ((qp - 4) / 6.0)
    q = math.copysign(math.floor(abs(dc) / step + 0.5), dc)
    rec = (q * step) / 8.0 + (1 << (bit_depth - 1))
    return int(min(max(math.floor(rec + 0.5), 0), (1 << bit_depth) - 1))


def random_frame(rng, size=32, bit_depth=8):
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    top = (1 << bit_depth) - 1
    return Frame(y=rng.integers(0, top + 1, (size, size)).astype(dtype))


class TestQuantStep:
    def test_anchor_at_qp4(self):
        assert quant_step(4) == 1.0

    def test_doubles_every_six(self):
        assert quant_step(10) == pytest.approx(2.0)
        assert quant_step(22) == pytest.approx(8.0)


class TestConstantPlanes:
    @pytest.mark.parametrize("qp", [0, 4, 13, 22, 37, 51, 63])
    @pytest.mark.parametrize("value", [0, 16, 100, 200, 255])
    def test_decoded_plane_is_constant_and_matches_dc_trace(self, qp, value):
        frames = [Frame(y=np.full((16, 16), value, np.uint8))]
        (decoded,), _ = mock_encode_decode(frames, qp, 8)
        expected = dc_hand_trace(value, qp)
        assert (decoded.y == expected).all()

    def test_exact_at_fine_steps(self):
        # step <= 8 keeps the DC quantization error below half an LSB
        for qp in range(0, 23):
            frames = [Frame(y=np.full((8, 8), 77, np.uint8))]
            (decoded,), _ = mock_encode_decode(frames, qp, 8)
            assert (decoded.y == 77).all(), f"qp={qp}"

    def test_specific_hand_traced_values(self):
        # qp 37: DC -224, step 2^5.5, q -5, reconstruct 99.716 -> 100
        assert dc_hand_trace(100, 37) == 100
        # qp 51: DC -896, step 2^(47/6), q -4, reconstruct 13.965 -> 14
        assert dc_hand_trace(16, 51) == 14


class TestBitAccounting:
    def test_constant_block_bits(self):
        # d=8: DC=64, 63 zero coefficients; value 64 costs 2*7+2 bits
        plane = np.full((8, 8), 136, np.uint8)
        _, _, bits = encode_plane(plane, 4, 8)
        assert bits == 63 * 1 + 16

    def test_zero_block_bits(self):
        plane = np.full((8, 8), 128, np.uint8)
        _, _, bits = encode_plane(plane, 4, 8)
        assert bits == 64

    def test_unit_coefficient_costs_four_bits(self):
        # DC quantizes to 1: 2*floor(log2(2)) + 1 + 1 = 4
        plane = np.full((8, 8), 128, np.uint8)
        plane[0, 0] = 136  # DC = 1 at step 1
        q, _, bits = encode_plane(plane, 4, 8)
        assert int(np.abs(q).sum()) >= 1


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(10))
    def test_bits_nonincreasing_over_full_range(self, seed):
        rng = np.random.default_rng(seed)
        frames = [random_frame(rng, 16)]
        prev = math.inf
        for qp in range(0, 64):
            _, bits = mock_encode_decode(frames, qp, 8)
            assert bits <= prev, f"qp={qp}"
            prev = bits

    @pytest.mark.parametrize("seed", range(10))
    def test_strictly_monotone_on_ladder(self, seed):
        rng = np.random.default_rng(100 + seed)
        frames = [random_frame(rng, 32)]
        prev_bits, prev_mse = math.inf, -1.0
        for qp in (16, 22, 27, 32, 37, 46):
            (decoded,), bits = mock_encode_decode(frames, qp, 8)
            mse = mse_plane(frames[0].y, decoded.y)
            assert bits < prev_bits
            assert mse > prev_mse  # psnr strictly decreases
            prev_bits, prev_mse = bits, mse


class TestPaddingAndShape:
    def test_non_multiple_of_eight_dims(self):
        rng = np.random.default_rng(1)
        frames = [Frame(y=rng.integers(0, 256, (12, 10)).astype(np.uint8))]
        (decoded,), _ = mock_encode_decode(frames, 22, 8)
        assert decoded.y.shape == (12, 10)

    def test_constant_survives_edge_padding(self):
        frames = [Frame(y=np.full((11, 13), 50, np.uint8))]
        (decoded,), _ = mock_encode_decode(frames, 10, 8)
        assert (decoded.y == 50).all()

    def test_chroma_planes_coded_too(self):
        rng = np.random.default_rng(2)
        frame = Frame(
            y=rng.integers(0, 256, (16, 16)).astype(np.uint8),
            cb=rng.integers(0, 256, (8, 8)).astype(np.uint8),
            cr=rng.integers(0, 256, (8, 8)).astype(np.uint8),
        )
        (decoded,), bits = mock_encode_decode([frame], 22, 8)
        assert decoded.cb is not None and decoded.cb.shape == (8, 8)
        _, y_only_bits = mock_encode_decode([Frame(y=frame.y)], 22, 8)
        assert bits > y_only_bits

    def test_10bit_content(self):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, 16, bit_depth=10)]
        (decoded,), _ = mock_encode_decode(frames, 22, bit_depth=10)
        assert decoded.y.dtype == np.uint16
        assert decoded.y.max() <= 1023


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(4)
        frames = [random_frame(rng, 24) for _ in range(3)]
        dec1, bits1 = mock_encode_decode(frames, 27, 8)
        dec2, bits2 = mock_encode_decode(frames, 27, 8)
        assert bits1 == bits2
        for a, b in zip(dec1, dec2):
            assert np.array_equal(a.y, b.y)

    def test_qp_out_of_range(self):
        with pytest.raises(ConfigError):
            mock_encode_decode([Frame(y=np.zeros((8, 8), np.uint8))], 64, 8)

    def test_rate_and_quality_drop_from_22_to_37(self):
        rng = np.random.default_rng(5)
        frames = [random_frame(rng, 32)]
        (d22,), bits22 = mock_encode_decode(frames, 22, 8)
        (d37,), bits37 = mock_encode_decode(frames, 37, 8)
        assert bits37 < bits22
        assert mse_plane(frames[0].y, d37.y) > mse_plane(frames[0].y, d22.y)
