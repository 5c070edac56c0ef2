"""Codec adapters: a hermetic mock transform codec and external command hooks.

The mock codec exists so the whole experiment pipeline can run without
any codec binaries: per 8x8 block it applies an orthonormal 2-D DCT-II
to centered samples, quantizes uniformly with step 2^((qp - 4) / 6),
and prices the quantized coefficients with exp-Golomb code lengths.
External codecs are driven through shell command templates and their
bitrate is taken from the bitstream size.
"""

from __future__ import annotations

import shlex
import subprocess
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


def _blockify(plane: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    h, w = plane.shape
    ph, pw = (-h) % BLOCK, (-w) % BLOCK
    x = np.pad(plane.astype(np.float64), ((0, ph), (0, pw)), mode="edge")
    bh, bw = x.shape[0] // BLOCK, x.shape[1] // BLOCK
    return x.reshape(bh, BLOCK, bw, BLOCK).transpose(0, 2, 1, 3), (h, w)


def _unblockify(blocks: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    bh, bw = blocks.shape[:2]
    full = blocks.transpose(0, 2, 1, 3).reshape(bh * BLOCK, bw * BLOCK)
    return full[: dims[0], : dims[1]]


def _code_bits(q: np.ndarray) -> int:
    # zero coefficients cost 1 bit; value v costs 2*floor(log2(2|v|)) + 1 + sign
    nz = q != 0
    zero_bits = int(q.size - nz.sum())
    if not nz.any():
        return zero_bits
    exps = np.frexp(np.abs(q[nz]))[1]  # frexp exponent of |v| = floor(log2(2|v|))
    return zero_bits + int((2 * exps + 2).sum())


def encode_plane(plane: np.ndarray, qp: int, bit_depth: int):
    """Quantized DCT coefficients plus their coded size in bits."""
    blocks, dims = _blockify(plane)
    blocks -= 1 << (bit_depth - 1)
    coef = dctn(blocks, type=2, norm="ortho", axes=(-2, -1))
    step = quant_step(qp)
    q = np.sign(coef) * np.floor(np.abs(coef) / step + 0.5)
    return q, dims, _code_bits(q)


def decode_plane(q: np.ndarray, dims: tuple[int, int], qp: int, bit_depth: int) -> np.ndarray:
    rec = idctn(q * quant_step(qp), type=2, norm="ortho", axes=(-2, -1))
    rec = _unblockify(rec, dims) + (1 << (bit_depth - 1))
    maxv = (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    return np.clip(np.floor(rec + 0.5), 0, maxv).astype(dtype)


def mock_encode_decode(frames, qp: int, bit_depth: int):
    """Encode and decode a frame list; returns (decoded frames, total bits).

    Deterministic: identical inputs always produce identical outputs.
    """
    enc, bits = mock_encode(frames, qp, bit_depth)
    return mock_decode(enc, qp, bit_depth), bits


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
        with timer("encode"):
            payload, bits = mock_encode(frames, qp, spec.bit_depth)
        with timer("decode"):
            decoded = mock_decode(payload, qp, spec.bit_depth)
        return decoded, bits


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
        write_sequence(frames, spec, src)
        with timer("encode"):
            self._run(
                self.encode_cmd,
                **{"in": src, "out": bitstream, "qp": qp, "w": spec.width, "h": spec.height},
            )
        total_bits = bitstream.stat().st_size * 8
        with timer("decode"):
            self._run(self.decode_cmd, **{"in": bitstream, "out": recon})
        decoded = list(read_sequence(recon, spec))
        return decoded, total_bits
