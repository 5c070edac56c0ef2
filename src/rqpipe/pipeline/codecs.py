"""Codec adapters: a hermetic mock transform codec and external command hooks.

The mock codec exists so the whole experiment pipeline can run without
any codec binaries: per 8x8 block it applies an orthonormal 2-D DCT-II
to centered samples, quantizes uniformly with step 2^((qp - 4) / 6),
and prices the quantized coefficients with exp-Golomb code lengths.
A plane is viewed, without a transpose, in block-row layout
(H/8, 8, W/8, 8) and transformed along axes 1 and 3; the coefficients
are kept as int32 in that layout, and the bits are priced from a
histogram of their magnitudes. Encode and decode run over bands of block
rows (rqpipe.bands), so the float64 samples and coefficients in flight
are one band's, not a plane's.
External codecs are driven through command templates, run by
errors.run_tool, and their bitrate is taken from the bitstream size.

Adapter contract: `encode_decode(frames, spec, qp, workdir, tag, timer)`
takes an iterable of frames and is a generator. It yields one decoded
frame per input frame, in order, and returns the stream's coded bits
when it ends; `CodedStream` iterates it and keeps that count. The mock
codec codes each frame as it arrives, encoding and then decoding one
plane at a time, and yields it before it takes the next one, so a stream
holds one plane of coefficients. An external codec must see the whole
input file before it can encode, so it consumes every input frame before
it yields the first decoded one, which it then reads back from its output
file one at a time.
Its raw input file is removed once the encoder returns, and its decoded
file once the stream ends, is abandoned or fails.
"""

from __future__ import annotations

from contextlib import closing, nullcontext
from pathlib import Path

import numpy as np
from scipy.fft import dctn, idctn

from ..bands import row_bands
from ..errors import ConfigError, check_template, run_tool
from ..frame_io import Frame, VideoSpec, read_sequence, write_sequence

BLOCK = 8
QP_MIN, QP_MAX = 0, 63
# the placeholders of an external codec's encode and decode templates
ENCODE_FIELDS = ("in", "out", "qp", "w", "h")
DECODE_FIELDS = ("in", "out")


def quant_step(qp: int) -> float:
    """Uniform quantizer step: 2^((qp - 4) / 6); 1.0 at qp = 4."""
    return 2.0 ** ((qp - 4) / 6.0)


def _code_bits(mags: np.ndarray) -> int:
    # zero coefficients cost 1 bit; value v costs 2*floor(log2(2|v|)) + 1 + sign,
    # and frexp's exponent of |v| is floor(log2(2|v|))
    hist = np.bincount(mags.ravel())
    cost = 2 * np.frexp(np.arange(hist.size, dtype=np.float64))[1] + 2
    cost[0] = 1
    return int(hist @ cost)


def encode_plane(plane: np.ndarray, qp: int, bit_depth: int):
    """Quantized DCT coefficients plus their coded size in bits.

    The coefficients are int32 in block-row layout (H/8, 8, W/8, 8): block
    (i, j) is q[i, :, j, :], with H and W rounded up to multiples of 8 by
    edge padding. The plane is coded in bands of block rows
    (rqpipe.bands): besides the int32 result, only one band's centered
    samples, coefficients and signs are live at a time. A block's DCT does
    not depend on the other blocks, and each band's bit count is an exact
    integer, so the split changes neither coefficients nor bits.
    """
    h, w = plane.shape
    bh, bw = -(-h // BLOCK), -(-w // BLOCK)
    q = np.empty((bh, BLOCK, bw, BLOCK), dtype=np.int32)
    bits = 0
    for b0, b1 in row_bands(bh, BLOCK * bw * BLOCK * 8):
        rows = plane[b0 * BLOCK : b1 * BLOCK]
        pad = ((0, (b1 - b0) * BLOCK - rows.shape[0]), (0, -w % BLOCK))
        if pad[0][1] or pad[1][1]:
            rows = np.pad(rows, pad, mode="edge")
        x = np.subtract(rows, 1 << (bit_depth - 1), dtype=np.float64)
        coef = dctn(x.reshape(b1 - b0, BLOCK, bw, BLOCK), type=2, norm="ortho", axes=(1, 3), overwrite_x=True)
        del rows, x  # a padded copy and the centered samples are not needed again
        sign = 1 - 2 * np.signbit(coef).view(np.int8)  # +1 or -1, one byte per coefficient
        mag = np.abs(coef, out=coef)
        mag /= quant_step(qp)  # not * (1 / step): that moves exact .5 ties
        mag += 0.5
        np.floor(mag, out=mag)
        band = q[b0:b1]
        band[...] = mag
        del coef, mag
        bits += _code_bits(band)
        band *= sign
    return q, (h, w), bits


def decode_plane(q: np.ndarray, dims: tuple[int, int], qp: int, bit_depth: int) -> np.ndarray:
    """Reconstruct an (h, w) plane from encode_plane's block-row coefficients.

    Decodes in bands of block rows, as encode_plane codes them. The
    mid-level and the rounding half are added as two separate float
    adds, in that order, as in the reference decoder the tests compare
    against: one add of (mid + 0.5) can round a sum differently in its last
    bit, so the order is kept for the float sums to match, not only the
    rounded samples.
    """
    bh, _, bw, _ = q.shape
    h, w = dims
    out = np.empty(dims, dtype=np.uint8 if bit_depth == 8 else np.uint16)
    for b0, b1 in row_bands(bh, BLOCK * bw * BLOCK * 8):
        rec = idctn(q[b0:b1] * quant_step(qp), type=2, norm="ortho", axes=(1, 3), overwrite_x=True)
        rec = rec.reshape((b1 - b0) * BLOCK, bw * BLOCK)
        rec += 1 << (bit_depth - 1)
        rec += 0.5
        np.floor(rec, out=rec)
        np.clip(rec, 0, (1 << bit_depth) - 1, out=rec)
        out[b0 * BLOCK : b1 * BLOCK] = rec[: min(b1 * BLOCK, h) - b0 * BLOCK, :w]
    return out


class CodedStream:
    """Iterates a codec adapter's stream once and keeps its coded bits.

    Yields the decoded frames of `frames`, a generator that returns the
    stream's bit count when it ends; `bits` is None until then.
    """

    def __init__(self, frames):
        self._frames = frames
        self.bits: int | None = None

    def __iter__(self):
        self.bits = yield from self._frames


def _code_frames(frames, qp: int, bit_depth: int, timer):
    """Encode then decode each frame as it arrives, plane by plane; yields
    the decoded frames and returns the total bits.

    Each plane is decoded before the next is encoded, so one plane's int32
    coefficients are live at a time, not a frame's. mock_encode and
    mock_decode are looked up on this module at each call, so anything that
    wraps those names sees every plane.
    """
    total_bits = 0
    for frame in frames:
        planes = []
        for plane in frame.planes():
            with timer("encode"):
                payload, bits = mock_encode([Frame(plane)], qp, bit_depth)
            with timer("decode"):
                (decoded,) = mock_decode(payload, qp, bit_depth)
            del payload  # not held while the next plane is encoded
            planes.append(decoded.y)
            total_bits += bits
        del frame  # not held while the caller works on the decoded frame
        yield Frame(*planes)
    return total_bits


def mock_encode_decode(frames, qp: int, bit_depth: int):
    """Encode and decode a frame list; returns (decoded frames, total bits).

    Deterministic: identical inputs always produce identical outputs.
    """
    stream = CodedStream(_code_frames(frames, qp, bit_depth, nullcontext))  # untimed
    decoded = list(stream)
    return decoded, stream.bits


def mock_encode(frames, qp: int, bit_depth: int):
    if not QP_MIN <= qp <= QP_MAX:
        raise ConfigError(f"qp {qp} outside [{QP_MIN}, {QP_MAX}]")
    payload = []
    total_bits = 0
    for frame in frames:
        coded = []
        for plane in frame.planes():
            q, dims, bits = encode_plane(plane, qp, bit_depth)
            coded.append((q, dims))
            total_bits += bits
        payload.append(coded)
    return payload, total_bits


def mock_decode(payload, qp: int, bit_depth: int):
    frames = []
    for coded in payload:
        planes = [decode_plane(q, dims, qp, bit_depth) for q, dims in coded]
        if len(planes) == 1:
            frames.append(Frame(y=planes[0]))
        else:
            frames.append(Frame(y=planes[0], cb=planes[1], cr=planes[2]))
    return frames


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------


class MockCodec:
    """In-process codec adapter. kind 'mock', block 8, DCT-II transform."""

    def describe(self) -> dict:
        return {"kind": "mock", "block": BLOCK, "transform": "dct2_ortho"}

    def encode_decode(self, frames, spec: VideoSpec, qp: int, workdir, tag, timer):
        return _code_frames(frames, qp, spec.bit_depth, timer)


class ExternalCodec:
    """Codec driven by encode/decode command templates.

    encode_cmd takes exactly the placeholders {in} {out} {qp} {w} {h};
    decode_cmd takes exactly {in} {out}. Both run through run_tool, one
    argument per placeholder. The encode output is the bitstream
    <tag>.bin, whose byte size supplies the rate; the decode output is a
    raw sequence matching the input spec. The raw input and decoded files
    are removed once read; the bitstream is kept. A command that exits
    non-zero or outlives `timeout` seconds raises ExternalToolError.
    """

    def __init__(self, encode_cmd: str, decode_cmd: str, timeout: float | None = None):
        check_template(encode_cmd, ENCODE_FIELDS, what="encode")
        check_template(decode_cmd, DECODE_FIELDS, what="decode")
        self.encode_cmd = encode_cmd
        self.decode_cmd = decode_cmd
        self.timeout = timeout

    def describe(self) -> dict:
        return {
            "kind": "external",
            "encode_cmd": self.encode_cmd,
            "decode_cmd": self.decode_cmd,
            "timeout": self.timeout,
        }

    def encode_decode(self, frames, spec: VideoSpec, qp: int, workdir, tag, timer):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        src = workdir / f"{tag}_in.yuv"
        bitstream = workdir / f"{tag}.bin"
        recon = workdir / f"{tag}_dec.yuv"
        try:
            with timer("encode"):
                write_sequence(frames, spec, src)
                fields = {"in": src, "out": bitstream, "qp": qp, "w": spec.width, "h": spec.height}
                run_tool(self.encode_cmd, "codec", self.timeout, fields)
        finally:
            src.unlink(missing_ok=True)
        total_bits = bitstream.stat().st_size * 8
        try:
            with timer("decode"):
                run_tool(self.decode_cmd, "codec", self.timeout, {"in": bitstream, "out": recon})
                decoded = read_sequence(recon, spec)
            with closing(decoded):
                for _ in range(spec.frame_count):
                    with timer("decode"):
                        frame = next(decoded)
                    yield frame
        finally:  # also when the decoder fails or the stream is abandoned
            recon.unlink(missing_ok=True)
        return total_bits
