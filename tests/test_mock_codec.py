import contextlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from rqpipe import Frame, VideoSpec, bands, mock_encode_decode, synthetic_sequence
from rqpipe.errors import ConfigError
from rqpipe.metrics import mse_plane
from rqpipe.pipeline import MockCodec
from rqpipe.pipeline import codecs
from rqpipe.pipeline.codecs import CodedStream, decode_plane, encode_plane, quant_step
from rqpipe.synthetic import synthetic_plane


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

    @staticmethod
    def bincount_bits(mags):
        # the exp-Golomb price as a histogram of the magnitudes: a zero costs
        # 1 bit, m > 0 costs 2 * frexp(m)[1] + 2
        hist = np.bincount(mags.ravel())
        cost = 2 * np.frexp(np.arange(hist.size, dtype=np.float64))[1] + 2
        cost[0] = 1
        return int(hist @ cost)

    def test_code_bits_at_powers_of_two(self):
        # every float32 exponent the magnitudes can take, and both sides of
        # each step of it; the histogram of 2^23 + 1 entries would take
        # 64 MB, so each price is also checked one value at a time
        for k in range(1, 24):
            mags = np.array([0, 1, (1 << k) - 1, 1 << k], np.int32)
            expected = sum(1 if m == 0 else 2 * int(m).bit_length() + 2 for m in mags.tolist())
            bits = codecs._code_bits(mags)
            assert bits == expected and type(bits) is int, k  # a numpy int would not serialize to JSON
            if k <= 19:
                assert codecs._code_bits(mags) == self.bincount_bits(mags), k

    def test_code_bits_at_the_largest_magnitude(self):
        # 16-bit samples at QP 0: an all-zero block has the largest DC,
        # 8 * 2^15, which quantizes to 2^18 / 2^(-2/3) + 0.5
        plane = np.random.default_rng(3).integers(0, 1 << 16, (64, 64)).astype(np.uint16)
        plane[:8, :8] = 0
        plane[8:16, :8] = 0xFFFF
        mags = np.abs(encode_plane(plane, 0, 16)[0])
        assert mags.max() == math.floor((1 << 18) / quant_step(0) + 0.5)
        assert codecs._code_bits(mags) == self.bincount_bits(mags)


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


def every_value_plane(bit_depth):
    """A plane of constant 8x8 blocks, one of every bit_depth-bit sample
    value, 32 blocks wide. Blocks are coded independently, so it codes as a
    constant plane of each value would."""
    values = np.arange(1 << bit_depth).reshape(-1, 32)
    return np.kron(values, np.ones((8, 8), np.int64)).astype(np.uint8 if bit_depth == 8 else np.uint16)


class TestTieGuard:
    """The GEMM transform differs from scipy's in the last bits, so blocks
    with a value next to a rounding point go through scipy again
    (codecs._near_ties); the coefficients, bits and samples stay scipy's."""

    @pytest.mark.parametrize("bit_depth", [8, 10])
    def test_constant_planes_of_every_value_at_every_qp(self, bit_depth):
        # a constant block's DC is 8 * (value - mid): at the power-of-two
        # steps of QP 28, 34, ... half of the values sit on an exact .5 tie
        plane = every_value_plane(bit_depth)
        for qp in range(64):
            TestMatchesOracle.assert_equal_to_oracle(plane, qp, bit_depth)

    @pytest.mark.parametrize("qp", [16, 22])
    def test_1080p_synthetic_luma(self, qp):
        # steps 4 and 8 put exact .5 ties on 6-11% of this plane's blocks
        plane = np.floor(synthetic_plane(1920, 1080, 0, 1023, np.random.default_rng(1)) + 0.5).astype(np.uint16)
        TestMatchesOracle.assert_equal_to_oracle(plane, qp, 10)

    @staticmethod
    def count_fallbacks(monkeypatch):
        calls = {"dctn": [], "idctn": []}

        def spy(name, fn):
            def wrapped(x, *args, **kwargs):
                calls[name].append(x.shape[0])
                return fn(x, *args, **kwargs)

            monkeypatch.setattr(codecs, name, wrapped)

        spy("dctn", codecs.dctn)
        spy("idctn", codecs.idctn)
        return calls

    def test_fallback_runs_on_the_tied_blocks_only(self, monkeypatch):
        calls = self.count_fallbacks(monkeypatch)
        plane = np.full((16, 16), 513, np.uint16)
        # QP 28, step 16: every block's DC is 8, and 8 / 16 + 0.5 is exactly 1
        TestMatchesOracle.assert_equal_to_oracle(plane, 28, 10)
        assert calls == {"dctn": [4], "idctn": []}
        calls["dctn"].clear()
        # QP 27: 8 / 2^(23/6) + 0.5 = 1.06, and the decoded samples are
        # 514.28 before rounding: no value is next to a rounding point
        TestMatchesOracle.assert_equal_to_oracle(plane, 27, 10)
        assert calls == {"dctn": [], "idctn": []}
        # a lone DC of 1 at QP 16, step 4, decodes to exactly mid + 0.5 + 0.5
        # in its block; the all-zero block beside it to mid + 0.5
        q = np.zeros((1, 8, 2, 8), np.int32)
        q[0, 0, 0, 0] = 1
        dec = decode_plane(q, (8, 16), 16, 10)
        assert calls == {"dctn": [], "idctn": [1]}
        assert np.array_equal(dec, decode_plane_oracle(q.transpose(0, 2, 1, 3), (8, 16), 16, 10))

    @pytest.mark.parametrize("qp", [0, 63])
    @pytest.mark.parametrize("pattern", ["random", "checkerboard"])
    def test_gemm_error_is_far_below_the_tie_margin(self, pattern, qp):
        # 16-bit full-swing samples give the largest coefficients, QP 0 and
        # 63 the smallest and largest steps
        bit_depth, mid, step = 16, 1 << 15, quant_step(qp)
        if pattern == "random":
            plane = np.random.default_rng(qp).integers(0, 1 << 16, (64, 64))
        else:
            plane = np.indices((64, 64)).sum(axis=0) % 2 * 0xFFFF
        blocks = (plane - mid).astype(np.float64).reshape(8, 8, 8, 8)
        encode_eps, decode_eps = codecs._tie_eps(bit_depth, step)

        coef = blocks.copy()
        codecs._transform(coef, np.empty_like(coef), codecs._BASIS, codecs._BASIS_T)
        ref = dctn(blocks, type=2, norm="ortho", axes=(1, 3))
        encode_error = np.abs((np.abs(coef) / step + 0.5) - (np.abs(ref) / step + 0.5)).max()
        assert encode_error * 100 <= encode_eps

        scaled = encode_plane(plane.astype(np.uint16), qp, bit_depth)[0] * step
        rec = scaled.copy()
        codecs._transform(rec, np.empty_like(rec), codecs._BASIS_T, codecs._BASIS)
        ref = idctn(scaled, type=2, norm="ortho", axes=(1, 3))
        decode_error = np.abs((rec + mid + 0.5) - (ref + mid + 0.5)).max()
        assert decode_error * 100 <= decode_eps


class TestPocketfftKernel:
    """codecs.dctn and idctn call scipy's pocketfft kernel, loaded from its
    file, with the arguments scipy.fft.dctn and idctn pass it: their values
    are the public functions', bit for bit, without importing scipy."""

    @staticmethod
    def assert_kernel_is_scipys(blocks):
        for ours, public in ((codecs.dctn, dctn), (codecs.idctn, idctn)):
            expected = public(blocks, type=2, norm="ortho", axes=(1, 2))
            x = blocks.copy()
            got = ours(x, (1, 2))
            assert np.shares_memory(got, x)  # in place, as overwrite_x=True
            assert got.dtype == np.float64 and np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 4, 37])
    def test_random_blocks(self, n):
        rng = np.random.default_rng(n)
        self.assert_kernel_is_scipys(rng.uniform(-600.0, 600.0, (n, 8, 8)))
        self.assert_kernel_is_scipys(rng.integers(-512, 512, (n, 8, 8)).astype(np.float64))

    def test_blocks_on_exact_ties(self):
        # the flat 513 plane's blocks at 10 bits, whose DC of 8 (scipy's is
        # one ulp above) sits on a tie at QP 28 (step 16); and a lone DC of 1
        # at QP 16 (step 4), which decodes to exactly mid + 0.5 + 0.5
        self.assert_kernel_is_scipys(np.full((4, 8, 8), 513.0 - 512))
        lone = np.zeros((1, 8, 8))
        lone[0, 0, 0] = quant_step(16)
        self.assert_kernel_is_scipys(lone)
        assert np.all(codecs.idctn(lone.copy(), (1, 2)) + 512 + 0.5 == 513.0)

    def test_missing_extension_names_where_it_looked(self, monkeypatch):
        # no other path: without the extension, loading fails, naming the
        # directory searched and scipy's version
        monkeypatch.setattr(codecs, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        with pytest.raises(ImportError, match=r"_pocketfft \(scipy \d+\.\d+"):
            codecs._load_pocketfft()

    def test_coding_imports_no_scipy_module(self):
        # a child process imports rqpipe and codes a plane whose 4 blocks
        # are tied, so the kernel runs; importing scipy.fft would have
        # loaded scipy, scipy.fft and scipy.special, among others
        child = """
import json, sys
import numpy as np
from rqpipe import Frame, mock_encode_decode
from rqpipe.pipeline import codecs
calls = []
dctn = codecs.dctn
codecs.dctn = lambda x, *args, **kwargs: calls.append(len(x)) or dctn(x, *args, **kwargs)
mock_encode_decode([Frame(np.full((16, 16), 513, np.uint16))], 28, 10)
print(json.dumps([calls, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(codecs.__file__).parents[2])}
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == [[4], []]


class TestRowBands:
    """encode_plane and decode_plane in bands of block rows equal one
    whole-plane pass: coefficients, bits and decoded samples."""

    @pytest.mark.parametrize("bit_depth", [8, 10])
    @pytest.mark.parametrize("shape", [(61, 83), (45, 30), (100, 9)])
    def test_bands_equal_one_band(self, band_budget, shape, bit_depth):
        rng = np.random.default_rng(shape[0] + bit_depth)
        plane = rng.integers(0, 1 << bit_depth, shape).astype(np.uint8 if bit_depth == 8 else np.uint16)
        default = bands.BAND_BYTES
        for qp in (4, 27, 51):
            splits = band_budget(default)
            q, dims, bits = encode_plane(plane, qp, bit_depth)
            dec = decode_plane(q, dims, qp, bit_depth)
            assert [len(split) for split in splits] == [1, 1]
            TestMatchesOracle.assert_equal_to_oracle(plane, qp, bit_depth)
            for budget in (1, 5000, 12000):
                splits = band_budget(budget)
                got_q, got_dims, got_bits = encode_plane(plane, qp, bit_depth)
                got_dec = decode_plane(q, dims, qp, bit_depth)
                assert all(len(split) > 1 for split in splits) and len(splits) == 2
                assert got_dims == dims and got_bits == bits
                assert got_q.dtype == q.dtype and np.array_equal(got_q, q)
                assert got_dec.dtype == dec.dtype and np.array_equal(got_dec, dec)


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

    def test_codes_one_plane_at_a_time(self):
        # each plane is decoded before the next is encoded, so a 1080p 10-bit
        # 4:2:0 frame peaks at one luma plane of int32 coefficients (4 bytes
        # a luma sample) beside the decoded frame (3) and scratch bands:
        # 13.8 MiB. Coding the frame's planes together held the coefficients
        # of all three (6 bytes a luma sample): 19.9 MiB
        spec = VideoSpec(1920, 1080, 10, "420", frame_count=1)
        rng = np.random.default_rng(9)
        frame = Frame(*(rng.integers(0, 1024, shape).astype(np.uint16) for shape in spec.plane_shapes))

        def code():
            return list(CodedStream(MockCodec().encode_decode([frame], spec, 27, None, "t", no_timer)))

        code()  # warm-up
        tracemalloc.start()
        try:
            code()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        luma = spec.width * spec.height
        assert peak < (4 + 3) * luma + 3 * bands.BAND_BYTES

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

    def test_encode_and_decode_hold_their_result_and_three_bands(self):
        # a 1024x768 float64 plane is 6 MiB; both run through it in bands
        plane = np.random.default_rng(4).integers(0, 1024, (768, 1024)).astype(np.uint16)
        q, dims, _ = encode_plane(plane, 27, 10)  # warm-up
        dec = decode_plane(q, dims, 27, 10)
        for run, result in ((lambda: encode_plane(plane, 27, 10), q), (lambda: decode_plane(q, dims, 27, 10), dec)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < result.nbytes + 3 * bands.BAND_BYTES


class TestGolden:
    """The codec's bits and samples on one fixed input, by the ARITHMETIC
    the resume key takes in: a change that moves them fails here until it
    states a new ARITHMETIC, so that old records of it are rerun."""

    GOLDEN = {  # ARITHMETIC -> (bits, sha256 of the decoded planes as 16-bit words)
        "dct gemm, pocketfft ties 1": (16306, "ee93942e06086ef3e780d74016228e30ce42ea0ab8a192e763014f763d44f584"),
    }

    def test_bits_and_recon_are_pinned(self):
        frames = synthetic_sequence(VideoSpec(48, 32, 10, "420", frame_count=2), seed=7)
        decoded, bits = mock_encode_decode(frames, 27, 10)
        digest = sha256(b"".join(p.astype("<u2").tobytes() for f in decoded for p in f.planes())).hexdigest()
        assert (bits, digest) == self.GOLDEN[codecs.ARITHMETIC]
