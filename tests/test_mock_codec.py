import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from rqpipe import Frame, VideoSpec, mock_encode_decode
from rqpipe.errors import ConfigError
from rqpipe.metrics import mse_plane
from rqpipe.pipeline import MockCodec
from rqpipe.pipeline.codecs import CodedStream, decode_plane, encode_plane, quant_step


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


def encode_plane_oracle(plane, qp, bit_depth):
    """Straightforward encoder: (bh, bw, 8, 8) float64 blocks, 2-D DCT over
    the last two axes, sign * floor(|c| / step + 0.5), bits from a gather
    of the nonzero coefficients."""
    h, w = plane.shape
    x = np.pad(plane.astype(np.float64), ((0, -h % 8), (0, -w % 8)), mode="edge")
    bh, bw = x.shape[0] // 8, x.shape[1] // 8
    blocks = x.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    blocks -= 1 << (bit_depth - 1)
    coef = dctn(blocks, type=2, norm="ortho", axes=(-2, -1))
    q = np.sign(coef) * np.floor(np.abs(coef) / quant_step(qp) + 0.5)
    nz = q != 0
    bits = int(q.size - nz.sum())
    if nz.any():
        bits += int((2 * np.frexp(np.abs(q[nz]))[1] + 2).sum())
    return q, (h, w), bits


def decode_plane_oracle(q, dims, qp, bit_depth):
    rec = idctn(q * quant_step(qp), type=2, norm="ortho", axes=(-2, -1))
    bh, bw = rec.shape[:2]
    full = rec.transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)[: dims[0], : dims[1]]
    full = full + (1 << (bit_depth - 1))
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    return np.clip(np.floor(full + 0.5), 0, (1 << bit_depth) - 1).astype(dtype)


def no_timer(stage):
    return contextlib.nullcontext()


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


TIE_BLOCK_QP7 = [
    [124, 127, 128, 132, 131, 131, 134, 128],
    [127, 134, 129, 131, 130, 122, 132, 133],
    [129, 123, 134, 126, 134, 124, 122, 122],
    [128, 122, 127, 128, 123, 130, 128, 123],
    [127, 133, 130, 125, 126, 134, 129, 124],
    [130, 124, 133, 132, 124, 122, 133, 124],
    [132, 126, 132, 123, 131, 131, 132, 132],
    [125, 133, 127, 132, 122, 122, 125, 129],
]


class TestMatchesOracle:
    """encode_plane / decode_plane equal the straightforward oracle exactly:
    coefficients, bits and decoded samples."""

    @staticmethod
    def assert_equal_to_oracle(plane, qp, bit_depth):
        q, dims, bits = encode_plane(plane, qp, bit_depth)
        q_ref, dims_ref, bits_ref = encode_plane_oracle(plane, qp, bit_depth)
        assert q.dtype == np.int32
        assert dims == dims_ref and bits == bits_ref
        assert np.array_equal(q.transpose(0, 2, 1, 3), q_ref)
        dec = decode_plane(q, dims, qp, bit_depth)
        dec_ref = decode_plane_oracle(q_ref, dims_ref, qp, bit_depth)
        assert dec.dtype == dec_ref.dtype and np.array_equal(dec, dec_ref)

    @pytest.mark.parametrize("bit_depth", [8, 10, 16])
    @pytest.mark.parametrize("shape", [(7, 13), (16, 24), (36, 20)])
    def test_every_qp_on_small_planes(self, bit_depth, shape):
        rng = np.random.default_rng(bit_depth * 100 + shape[0])
        top = (1 << bit_depth) - 1
        dtype = np.uint8 if bit_depth == 8 else np.uint16
        mid = 1 << (bit_depth - 1)
        planes = [
            rng.integers(0, top + 1, shape).astype(dtype),
            (mid + rng.integers(-4, 5, shape)).astype(dtype),  # near mid-level: many ties
            np.full(shape, rng.integers(0, top + 1), dtype),
        ]
        for plane in planes:
            for qp in range(64):
                self.assert_equal_to_oracle(plane, qp, bit_depth)

    @pytest.mark.parametrize("bit_depth", [8, 10, 16])
    @pytest.mark.parametrize("shape", [(54, 96), (64, 64), (61, 83)])
    @pytest.mark.parametrize("qp", [0, 4, 22, 37, 51, 63])
    def test_larger_planes(self, bit_depth, shape, qp):
        rng = np.random.default_rng(qp + bit_depth)
        plane = rng.integers(0, 1 << bit_depth, shape).astype(
            np.uint8 if bit_depth == 8 else np.uint16
        )
        self.assert_equal_to_oracle(plane, qp, bit_depth)

    @pytest.mark.parametrize("delta", [4, -4])
    def test_half_step_ties_round_away_from_zero(self, delta):
        # At qp 4 (step 1) one sample 4 away from mid-level gives AC
        # coefficients (0, 4) and (4, 0) of exactly +-0.5 and a DC of 0.5 plus
        # one ulp: each quantizes to +-1 and costs 2*1 + 2 = 4 bits.
        plane = np.full((8, 8), 128, np.uint8)
        plane[0, 0] = 128 + delta
        coef = dctn(plane - 128.0, type=2, norm="ortho")
        assert coef[0, 4] == coef[4, 0] == math.copysign(0.5, delta)
        q, _, bits = encode_plane(plane, 4, 8)
        block = q[0, :, 0, :]
        for u, v in ((0, 0), (0, 4), (4, 0)):
            assert block[u, v] == math.copysign(1, delta)
        magnitudes = np.abs(block).ravel()
        expected = sum(1 if m == 0 else 2 * int(m).bit_length() + 2 for m in magnitudes)
        assert bits == expected
        self.assert_equal_to_oracle(plane, 4, 8)

    def test_half_step_tie_at_an_irrational_step(self):
        # At qp 7 (step sqrt(2)) coefficient (6, 2) of this block is 6.3639...,
        # and dividing by the step gives exactly 4.5, which quantizes to 5.
        # Multiplying by 1 / step instead gives 4.4999... and quantizes to 4.
        plane = np.array(TIE_BLOCK_QP7, np.uint8)
        coef = dctn(plane - 128.0, type=2, norm="ortho")
        assert abs(coef[6, 2]) / quant_step(7) == 4.5
        q, _, _ = encode_plane(plane, 7, 8)
        assert abs(q[0, 6, 0, 2]) == 5
        self.assert_equal_to_oracle(plane, 7, 8)


class TestCodecMemory:
    def test_peak_does_not_grow_with_frame_count(self):
        # Frames are coded one at a time, so eight frames peak only by the
        # decoded frames kept for the caller (2 bytes per 10-bit sample)
        # above two frames; a float64 payload per frame adds 8 more.
        spec = VideoSpec(64, 64, 10, "420", frame_count=8)
        rng = np.random.default_rng(7)
        frames = [
            Frame(
                y=rng.integers(0, 1024, (64, 64)).astype(np.uint16),
                cb=rng.integers(0, 1024, (32, 32)).astype(np.uint16),
                cr=rng.integers(0, 1024, (32, 32)).astype(np.uint16),
            )
            for _ in range(8)
        ]
        samples_per_frame = 64 * 64 * 3 // 2

        def peak(count):
            tracemalloc.start()
            try:
                list(CodedStream(MockCodec().encode_decode(frames[:count], spec, 27, None, "t", no_timer)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: first-call allocations inside numpy and scipy
        growth = peak(8) - peak(2)
        assert growth < 6 * 4 * samples_per_frame

    def test_encode_plane_holds_under_two_float_planes(self):
        # besides its int32 result, encode_plane keeps at most one float64
        # plane (samples, then coefficients in place) and a byte of sign per
        # coefficient
        plane = np.random.default_rng(3).integers(0, 1024, (252, 380)).astype(np.uint16)
        encode_plane(plane, 27, 10)  # warm-up
        tracemalloc.start()
        try:
            encode_plane(plane, 27, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * plane.size * 8
