"""Codec adapters: a hermetic mock transform codec and external command hooks.

The mock codec exists so the whole experiment pipeline can run without
any codec binaries: per 8x8 block it applies an orthonormal 2-D DCT-II
to centered samples, quantizes uniformly with step 2^((qp - 4) / 6),
and prices the quantized coefficients with exp-Golomb code lengths.
A plane is viewed, without a transpose, in block-row layout
(H/8, 8, W/8, 8), and the DCT and its inverse are two GEMMs with K = 8
on that view, against the 8x8 basis matrix. The coefficients are kept as
int32 in that layout, and the bits are priced from the float32 exponents
of their magnitudes. Encode and decode run over bands of block rows
(rqpipe.bands), each with two float64 buffers, so the samples and
coefficients in flight are one band's, not a plane's.
The coefficients, bits and samples are those of scipy's `dctn` and
`idctn`: the GEMMs sum in another order, so the few blocks holding a
value within a stated error bound of a rounding point are transformed
again by scipy's pocketfft kernel, the one `scipy.fft.dctn` calls,
loaded on its own (see encode_plane and decode_plane).
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
file one at a time. The runner goes by that order alone: while a codec
returns each frame before it takes the next, a job keeps the one source
frame to score; once it takes a frame before it returned the last, the
job keeps none and scores against a second read of the source.
Its raw input file is removed once the encoder returns, and its decoded
file once the stream ends, is abandoned or fails, except when the file
itself cannot be read (SampleRangeError, TruncatedFileError): then it is
kept, so the file the failed record names can be inspected.

A stream that several jobs share is coded once: a SharedStream tees the
decoded frames of any adapter's stream, at the coded size, into a raw
file of the workdir, and replays them from there for the other jobs,
with the coder's bits, without calling the adapter again. As only this
module reads an external codec's decoded file, only it writes and reads
the stream file.
"""

from __future__ import annotations

import importlib.util
import math
from contextlib import closing, nullcontext
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

from ..bands import row_bands
from ..errors import ConfigError, SampleRangeError, TruncatedFileError, check_template, run_tool
from ..frame_io import Frame, VideoSpec, read_sequence, write_frame, write_sequence

# the mock codec's sums, which a job's resume key takes in. A constant, not
# a setting: a change that moves any bit or sample it outputs changes it
ARITHMETIC = "dct gemm, pocketfft ties 1"

BLOCK = 8
QP_MIN, QP_MAX = 0, 63
# the placeholders of an external codec's encode and decode templates
ENCODE_FIELDS = ("in", "out", "qp", "w", "h")
DECODE_FIELDS = ("in", "out")


def _load_pocketfft():
    """scipy's compiled pocketfft module, loaded from its file without
    importing scipy: `import scipy.fft` also imports scipy.special, the
    array-API layers, numpy.testing and unittest: about 21 MB of resident
    set and 0.1-0.15 s of start-up (2-CPU VM) that this module does not use."""
    scipy = importlib.util.find_spec("scipy")  # a top-level package is found, not imported
    if scipy is None:
        raise ImportError("the mock codec needs scipy's pocketfft extension, and scipy is not installed")
    where = Path(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec("pypocketfft")
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"no pypocketfft extension in {where} (scipy {version('scipy')}); the mock codec needs it")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()


# scipy.fft.dctn and idctn of float64 blocks with type=2, norm="ortho",
# overwrite_x=True and one worker call the kernel with these arguments: DCT
# type 2, or 3 for the inverse, normalization 1 (ortho), out=x, 1 thread;
# its last parameter, orthogonalize (scipy >= 1.11), is left at its default
# of None, as those calls pass it
def dctn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """scipy.fft.dctn(x, 2, axes=axes, norm="ortho", overwrite_x=True)."""
    return _pocketfft.dct(x, 2, axes, 1, x, 1)


def idctn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """scipy.fft.idctn(x, 2, axes=axes, norm="ortho", overwrite_x=True)."""
    return _pocketfft.dct(x, 3, axes, 1, x, 1)


def quant_step(qp: int) -> float:
    """Uniform quantizer step: 2^((qp - 4) / 6); 1.0 at qp = 4."""
    return 2.0 ** ((qp - 4) / 6.0)


def _code_bits(mags: np.ndarray) -> int:
    """Exp-Golomb bits of int32 magnitudes below 2^24: a zero costs 1 bit,
    and m > 0 costs 2 * floor(log2(2m)) + 1 + sign = 2 * floor(log2 m) + 4.

    Below 2^24 the float32 of m is exact, and its biased exponent field,
    bits >> 23, is floor(log2 m) + 127 for m > 0 and 0 for m = 0, so the
    total is 2 * sum(exponents) - 250 * N + 251 * zeros. Magnitudes stay
    below 2^19 at every bit depth up to 16 and every QP.
    """
    exps = mags.astype(np.float32).view(np.int32)
    exps >>= 23
    zeros = mags.size - int(np.count_nonzero(mags))
    return 2 * int(exps.sum(dtype=np.int64)) - 250 * mags.size + 251 * zeros


def _cos_pi(m: int, d: int) -> float:
    """cos(pi * m / d) to about an ulp: the angle is folded to at most
    pi / 4 first, since a large angle loses its low bits when rounded."""
    m %= 2 * d
    m = min(m, 2 * d - m)  # now 0 <= m <= d
    sign = 1.0
    if 2 * m > d:
        m, sign = d - m, -1.0  # cos(pi - a) = -cos(a); now 0 <= m <= d / 2
    return sign * (math.cos(math.pi * m / d) if 4 * m <= d else math.sin(math.pi * (d - 2 * m) / (2 * d)))


def _dct_basis(n: int) -> np.ndarray:
    # from math, not numpy: the first call of numpy's vectorized cos adds
    # about 256 KB of its code to the process's resident set
    return np.array([
        [math.sqrt((1 if k == 0 else 2) / n) * _cos_pi((2 * x + 1) * k, 2 * n) for x in range(n)]
        for k in range(n)
    ])


# the orthonormal 8x8 DCT-II: block x has coefficients _BASIS @ x @ _BASIS.T.
# Both are kept C-contiguous: a transposed view as the right operand of the
# tall first GEMM makes OpenBLAS take a path about 3x slower
_BASIS = _dct_basis(BLOCK)
_BASIS_T = np.ascontiguousarray(_BASIS.T)


def _transform(x: np.ndarray, scratch: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Every 8x8 block b of x, in block-row layout (nb, 8, bw, 8), becomes
    left @ b @ right, in place, as two GEMMs with K = 8: the rows of every
    block times `right` into scratch, then `left` times each block row."""
    nb, _, bw, _ = x.shape
    np.matmul(x.reshape(-1, BLOCK), right, out=scratch.reshape(-1, BLOCK))
    np.matmul(left, scratch.reshape(nb, BLOCK, bw * BLOCK), out=x.reshape(nb, BLOCK, bw * BLOCK))


_NO_BLOCKS = (np.empty(0, np.intp), np.empty(0, np.intp))


def _near_ties(frac: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of the blocks of `frac`, in block-row layout, that
    hold a value within eps of 0 or 1: the fractional part of a value that
    lies within eps of a point where floor steps."""
    near = frac < eps
    near |= frac > 1.0 - eps
    if not near.any():
        return _NO_BLOCKS
    # the 8 flags of one row of a block are 8 contiguous bytes: one uint64
    nb, _, bw, _ = frac.shape
    return np.nonzero(near.view(np.uint64).reshape(nb, BLOCK, bw).any(axis=1))


def _tie_eps(bit_depth: int, step: float) -> tuple[float, float]:
    """The tie margins of encode_plane and decode_plane, whose docstrings
    give the error bounds behind them."""
    unit = 2.0 ** (bit_depth - 36)
    return unit / min(step, 1.0), unit * max(step, 1.0)


def encode_plane(plane: np.ndarray, qp: int, bit_depth: int):
    """Quantized DCT coefficients plus their coded size in bits.

    The coefficients are int32 in block-row layout (H/8, 8, W/8, 8): block
    (i, j) is q[i, :, j, :], with H and W rounded up to multiples of 8 by
    edge padding. The plane is coded in bands of block rows
    (rqpipe.bands): besides the int32 result, only one band's two float64
    buffers (the samples, then the coefficients, and a GEMM scratch that
    then holds the quantizer's values) and its signs are live at a time. A
    block's DCT does not depend on the other blocks, and each band's bit
    count is an exact integer, so the split changes neither coefficients
    nor bits.

    The DCT is two GEMMs with K = 8 (_transform), and each coefficient c
    is quantized to sign(c) * floor(|c| / step + 0.5), as against scipy's
    `dctn`. The GEMMs sum in another order than scipy, and the band
    multiplies |c| by 1 / step where the reference divides, so their value
    can differ from scipy's in its last bits, and where |c| / step + 0.5
    lies next to an integer, so can its floor. Every block holding a value
    within eps = 2^(bit_depth - 36) / min(step, 1) of an integer is
    transformed again by scipy's pocketfft kernel, the one
    `scipy.fft.dctn` calls, loaded on its own (dctn), and quantized from
    scipy's coefficients.
    The error bound behind eps: centered samples are at most 2^(bit_depth
    - 1) in magnitude, every basis row has a 1-norm of at most sqrt(8) and
    every basis entry is within an ulp, so the two rounded 8-term sums of
    each coefficient are off the exact DCT by less than 2^(bit_depth - 46); scipy's FFT has an error bound of
    the same order. With the rounding of the division and the add, the
    two values |c| / step + 0.5 differ by less than 2^(bit_depth - 44) /
    min(step, 1). The multiply by 1 / step rounds twice where the division
    rounds once, which adds at most 2u |c| / step < 2^(bit_depth - 50) /
    step (u = 2^-53, |c| <= 2^(bit_depth + 2)): still less than
    2^(bit_depth - 43.9) / min(step, 1), over 2^7.9 times below eps (tests
    pin the measured difference at least 100 times below it). Every other
    value is at least eps from an integer, and there both floors agree:
    the coefficients and bits are scipy's, whatever sum order BLAS takes.
    """
    h, w = plane.shape
    bh, bw = -(-h // BLOCK), -(-w // BLOCK)
    step = quant_step(qp)
    eps, _ = _tie_eps(bit_depth, step)
    mid = 1 << (bit_depth - 1)
    q = np.empty((bh, BLOCK, bw, BLOCK), dtype=np.int32)
    bits = 0
    for b0, b1 in row_bands(bh, 2 * BLOCK * bw * BLOCK * 8):  # two float64 buffers a band
        rows = plane[b0 * BLOCK : b1 * BLOCK]
        pad = ((0, (b1 - b0) * BLOCK - rows.shape[0]), (0, -w % BLOCK))
        if pad[0][1] or pad[1][1]:
            rows = np.pad(rows, pad, mode="edge")
        blocks = rows.reshape(b1 - b0, BLOCK, bw, BLOCK)
        coef, v = np.empty((2, *blocks.shape))
        np.subtract(blocks, mid, out=coef, dtype=np.float64)
        _transform(coef, v, _BASIS, _BASIS_T)
        np.abs(coef, out=v)
        v *= 1.0 / step  # within two ulps of |c| / step; the guard below takes any tie
        v += 0.5
        band = q[b0:b1]
        band[...] = v  # v >= 0.5, so the cast's truncation is floor
        v -= band  # the fractional part
        i, j = _near_ties(v, eps)
        if i.size:
            tied = np.subtract(blocks[i, :, j, :], mid, dtype=np.float64)
            coef[i, :, j, :] = tied = dctn(tied, (1, 2))
            band[i, :, j, :] = np.abs(tied) / step + 0.5  # scipy's values, divided; the cast floors
        sign = 1 - 2 * np.signbit(coef).view(np.int8)  # +1 or -1, one byte per coefficient
        del coef, v  # the float64 buffers are not needed again
        bits += _code_bits(band)
        band *= sign
    return q, (h, w), bits


def decode_plane(q: np.ndarray, dims: tuple[int, int], qp: int, bit_depth: int) -> np.ndarray:
    """Reconstruct an (h, w) plane from encode_plane's block-row coefficients.

    Decodes in bands of block rows, as encode_plane codes them, with two
    float64 buffers a band. The inverse DCT is _transform with the two
    basis matrices swapped. The mid-level and the rounding half are added
    as two separate float adds, in that order, as in the reference decoder
    the tests compare against: one add of (mid + 0.5) can round a sum
    differently in its last bit, so the order is kept for the float sums
    to match, not only the rounded samples.

    As in encode_plane, every block holding a value rec + mid + 0.5 within
    eps = 2^(bit_depth - 36) * max(step, 1) of an integer is reconstructed
    again by scipy's pocketfft kernel, the one `scipy.fft.idctn` calls,
    loaded on its own (idctn), and every other sample is scipy's. For
    coefficients that encode_plane made from bit_depth-bit samples,
    |q * step| is at most 2^(bit_depth + 2) + step, so by the same sums
    the GEMMs are off the exact inverse by about 2^(bit_depth - 43) *
    max(step, 1) at most, and with scipy's error of the same order the two
    values differ by about 2^6 times less than eps at most.
    """
    bh, _, bw, _ = q.shape
    h, w = dims
    step = quant_step(qp)
    _, eps = _tie_eps(bit_depth, step)
    mid = 1 << (bit_depth - 1)
    out = np.empty(dims, dtype=np.uint8 if bit_depth == 8 else np.uint16)
    for b0, b1 in row_bands(bh, 2 * BLOCK * bw * BLOCK * 8):
        coefs = q[b0:b1]
        rec, floor = np.empty((2, *coefs.shape))
        np.multiply(coefs, step, out=rec)
        _transform(rec, floor, _BASIS_T, _BASIS)
        rec += mid
        rec += 0.5
        np.floor(rec, out=floor)
        rec -= floor
        i, j = _near_ties(rec, eps)
        if i.size:
            tied = idctn(coefs[i, :, j, :] * step, (1, 2))
            tied += mid
            tied += 0.5
            floor[i, :, j, :] = np.floor(tied)
        np.clip(floor, 0, (1 << bit_depth) - 1, out=floor)
        floor = floor.reshape((b1 - b0) * BLOCK, bw * BLOCK)
        out[b0 * BLOCK : b1 * BLOCK] = floor[: min(b1 * BLOCK, h) - b0 * BLOCK, :w]
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


class SharedStream:
    """One coded stream that several jobs share, kept as a raw file at `path`.

    The stream's coder runs `tee` over the adapter's stream: it writes each
    decoded frame, at the coded size, to the file as the frame passes. Once
    the coder has ended the texture stream and coded the depth stream, if
    there is one, it calls `done` with their bits, and the stream is
    complete. Only then do the other jobs `replay` the file in place of
    coding. Completion is known only to this object, so no file that
    another run left is trusted: a tee writes the file anew.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.bits: int | None = None  # the texture's bits, once complete
        self.depth_bits: int | None = None

    @property
    def complete(self) -> bool:
        return self.bits is not None

    def tee(self, frames, spec: VideoSpec, timer):
        """Yields the decoded frames of `frames`, an adapter's stream, and
        writes each to the file, timed as 'write'; returns the stream's bits."""
        coded = CodedStream(frames)
        with open(self.path, "wb") as fh:
            k = 0  # a count, not enumerate, which holds its last frame during the next pull
            for frame in coded:
                with timer("write"):
                    write_frame(fh, frame, spec, k)
                k += 1
                yield frame
                del frame  # not held while the next frame is pulled
        return coded.bits

    def done(self, bits: int, depth_bits: int | None) -> None:
        """Mark the stream complete: its coder coded it whole, with these bits."""
        self.bits, self.depth_bits = bits, depth_bits

    def replay(self, spec: VideoSpec, timer):
        """Yields the complete stream's decoded frames from the file, each
        read timed as 'decode'; returns the texture's bits."""
        frames = read_sequence(self.path, spec)
        with closing(frames):
            for _ in range(spec.frame_count):
                with timer("decode"):
                    frame = next(frames)
                yield frame
                del frame  # not held while the next frame is read
        return self.bits


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
        del planes, decoded  # not held while the next frame is pulled
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
    return [Frame(*(decode_plane(q, dims, qp, bit_depth) for q, dims in coded)) for coded in payload]


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
    are removed once read; the bitstream is kept, and so is a decoded file
    that cannot be read as the spec states. A command that exits
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
        unreadable = False
        try:
            with timer("decode"):
                run_tool(self.decode_cmd, "codec", self.timeout, {"in": bitstream, "out": recon})
                decoded = read_sequence(recon, spec)
            with closing(decoded):
                for _ in range(spec.frame_count):
                    with timer("decode"):
                        frame = next(decoded)
                    yield frame
        except (SampleRangeError, TruncatedFileError):
            unreadable = True  # keep the file the error names
            raise
        finally:  # also when the decoder fails or the stream is abandoned
            if not unreadable:
                recon.unlink(missing_ok=True)
        return total_bits
