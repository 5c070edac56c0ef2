"""Codec adapters: a hermetic mock transform codec and external command hooks.

The mock codec exists so the whole experiment pipeline can run without
any codec binaries: per 8x8 block it applies an orthonormal 2-D DCT-II
to centered samples, quantizes uniformly with step 2^((qp - 4) / 6),
and prices the quantized coefficients with exp-Golomb code lengths.
A plane is viewed, without a transpose, in block-row layout
(H/8, 8, W/8, 8) and transformed along axes 1 and 3; the coefficients
are kept as int32 in that layout, and the bits are priced from a
histogram of their magnitudes.
External codecs are driven through shell command templates and their
bitrate is taken from the bitstream size.

Adapter contract: `encode_decode(frames, spec, qp, workdir, tag, timer)`
takes an iterable of frames and is a generator. It yields one decoded
frame per input frame, in order, and returns the stream's coded bits
when it ends; `CodedStream` iterates it and keeps that count. The mock
codec codes each frame as it arrives, encode then decode, and yields it
before it takes the next one, so a stream holds one frame of
coefficients. An external codec must see the whole input file before it
can encode, so it consumes every input frame before it yields the first
decoded one, which it then reads back from its output file one at a time.
"""

from __future__ import annotations

import shlex
import subprocess
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from scipy.fft import dctn, idctn

from ..errors import ConfigError, ExternalToolError
from ..frame_io import Frame, VideoSpec, read_sequence, write_sequence

BLOCK = 8
QP_MIN, QP_MAX = 0, 63


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
    edge padding. Besides the int32 result, at most the centered samples or
    the coefficients are live as a float64 plane at any one time.
    """
    h, w = plane.shape
    if h % BLOCK or w % BLOCK:
        plane = np.pad(plane, ((0, -h % BLOCK), (0, -w % BLOCK)), mode="edge")
    x = np.subtract(plane, 1 << (bit_depth - 1), dtype=np.float64)
    bh, bw = x.shape[0] // BLOCK, x.shape[1] // BLOCK
    coef = dctn(x.reshape(bh, BLOCK, bw, BLOCK), type=2, norm="ortho", axes=(1, 3), overwrite_x=True)
    del plane, x  # a padded copy and the centered samples are not needed again
    sign = 1 - 2 * np.signbit(coef).view(np.int8)  # +1 or -1, one byte per coefficient
    mag = np.abs(coef, out=coef)
    mag /= quant_step(qp)  # not * (1 / step): that moves exact .5 ties
    mag += 0.5
    np.floor(mag, out=mag)
    q = mag.astype(np.int32)
    del coef, mag
    bits = _code_bits(q)
    q *= sign
    return q, (h, w), bits


def decode_plane(q: np.ndarray, dims: tuple[int, int], qp: int, bit_depth: int) -> np.ndarray:
    """Reconstruct an (h, w) plane from encode_plane's block-row coefficients.

    The mid-level and the rounding half are added as two separate float
    adds, in that order, as in the reference decoder the tests compare
    against: one add of (mid + 0.5) can round a sum differently in its last
    bit, so the order is kept for the float sums to match, not only the
    rounded samples.
    """
    bh, _, bw, _ = q.shape
    rec = idctn(q * quant_step(qp), type=2, norm="ortho", axes=(1, 3), overwrite_x=True)
    rec = rec.reshape(bh * BLOCK, bw * BLOCK)
    rec += 1 << (bit_depth - 1)
    rec += 0.5
    np.floor(rec, out=rec)
    np.clip(rec, 0, (1 << bit_depth) - 1, out=rec)
    return rec[: dims[0], : dims[1]].astype(np.uint8 if bit_depth == 8 else np.uint16)


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
    """Encode then decode each frame as it arrives; yields the decoded frames
    and returns the total bits.

    mock_encode and mock_decode are looked up on this module at each call,
    so anything that wraps those names sees every frame.
    """
    total_bits = 0
    for frame in frames:
        with timer("encode"):
            payload, bits = mock_encode([frame], qp, bit_depth)
        with timer("decode"):
            (decoded,) = mock_decode(payload, qp, bit_depth)
        del frame, payload  # not held while the caller works on the decoded frame
        total_bits += bits
        yield decoded
    return total_bits


def _untimed(stage: str):
    return nullcontext()


def mock_encode_decode(frames, qp: int, bit_depth: int):
    """Encode and decode a frame list; returns (decoded frames, total bits).

    Deterministic: identical inputs always produce identical outputs.
    """
    stream = CodedStream(_code_frames(frames, qp, bit_depth, _untimed))
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

    kind = "mock"

    def describe(self) -> dict:
        return {"kind": "mock", "block": BLOCK, "transform": "dct2_ortho"}

    def encode_decode(self, frames, spec: VideoSpec, qp: int, workdir, tag, timer):
        return _code_frames(frames, qp, spec.bit_depth, timer)


class ExternalCodec:
    """Codec driven by encode/decode command templates.

    encode_cmd must contain {in} {out} {qp} {w} {h}; decode_cmd must
    contain {in} {out}. The encode output is the bitstream whose byte
    size supplies the rate; the decode output is a raw sequence matching
    the input spec.
    """

    kind = "external"

    def __init__(self, encode_cmd: str, decode_cmd: str, bitstream_ext: str = ".bin"):
        for ph in ("{in}", "{out}", "{qp}", "{w}", "{h}"):
            if ph not in encode_cmd:
                raise ConfigError(f"encode template missing {ph}: {encode_cmd!r}")
        for ph in ("{in}", "{out}"):
            if ph not in decode_cmd:
                raise ConfigError(f"decode template missing {ph}: {decode_cmd!r}")
        self.encode_cmd = encode_cmd
        self.decode_cmd = decode_cmd
        self.bitstream_ext = bitstream_ext

    def describe(self) -> dict:
        return {
            "kind": "external",
            "encode_cmd": self.encode_cmd,
            "decode_cmd": self.decode_cmd,
        }

    def _run(self, template: str, **fields) -> None:
        cmd = template.format(**fields)
        proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True)
        if proc.returncode != 0:
            raise ExternalToolError(
                f"codec command exited {proc.returncode}: {cmd}",
                stdout=proc.stdout,
                stderr=proc.stderr,
                returncode=proc.returncode,
            )

    def encode_decode(self, frames, spec: VideoSpec, qp: int, workdir, tag, timer):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        src = workdir / f"{tag}_in.yuv"
        bitstream = workdir / f"{tag}{self.bitstream_ext}"
        recon = workdir / f"{tag}_dec.yuv"
        with timer("encode"):
            write_sequence(frames, spec, src)
            self._run(
                self.encode_cmd,
                **{"in": src, "out": bitstream, "qp": qp, "w": spec.width, "h": spec.height},
            )
        total_bits = bitstream.stat().st_size * 8
        with timer("decode"):
            self._run(self.decode_cmd, **{"in": bitstream, "out": recon})
            decoded = read_sequence(recon, spec)
        for _ in range(spec.frame_count):
            with timer("decode"):
                frame = next(decoded)
            yield frame
        return total_bits
