"""From-scratch CNN inference for residual dense post-processing networks.

A network is a small DAG of layers (conv2d, activation, add, concat) over
(channels, height, width) float tensors, every one as large as the plane:
each conv has an odd kernel, so stride 1 and pad (kernel - 1) / 2, each
activation is relu or leaky_relu, and the output is one channel
(NetworkSpec.validate, which from_json, build_mfrnet_style and the
storage plan call). Planes are normalized to [0, 1]
before inference and rounded back to integers after, with an optional
global residual that adds the network input to its output.
The conv engine is same-size only: no stride, and a pad of half the
kernel less one. A k x k conv is one GEMM per output row, with no im2col
column buffer: the (kM, kC) weights times a (kC, W + 2p) view of the
row's k input rows in a zero-padded, row-major slab, which makes the k
column taps' partial sums, then one reduce that adds them into the
output in column-tap order. A chunk of rows runs in one batched matmul,
its GEMM output bounded by BAND_BYTES; a 1x1 conv multiplies its input
rows as they are. ARITHMETIC names these sums, which a run's resume key
takes in.
apply_network runs the whole graph in one pass of row bands, top to
bottom (the fused-layer schedule of Alwani et al., MICRO 2016, line
buffered: each value lags the input by the conv pads on its way), and
each value lives in a ring of rows that keeps only what its readers still
read, for a 3x3 conv's input its run plus the halo rows, so no row is
computed twice or moved and the working set grows with the band, not the
plane. A GEMM's shape depends on the plane's width alone, so the output
does not depend on how the pass cuts the plane into rows, for a given
BLAS kernel and thread count. A storage plan, derived once per
NetworkSpec from the graph's readers (never from layer names), gives
every value its store.
Concats follow one rule: one whose inputs are not placed yet puts them
side by side in a fresh shared store and is a slice of it; one whose
inputs already sit in order in one store is a slice of that; any other
is a copy. The bias, and an activation that is a conv's only reader,
are applied to each band right after its GEMM; an add accumulates into
its first input when nothing else reads that.
build_mfrnet_style constructs the residual dense block cascade used for
decoder-side enhancement; trained weights arrive through a small binary
weight-file format, so any training pipeline can feed this engine.

Weight file format (little-endian throughout):

    magic   5 bytes  b"RQPW1"
    count   uint32   number of layer records
    record  uint16   byte length of the layer id
            bytes    layer id, utf-8
            uint32*4 out_ch, in_ch, kh, kw
            f32*     weights, row-major (out_ch, in_ch, kh, kw)
            f32*     bias, length out_ch

Layer ids are unique; trailing bytes after the last record are an error.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate
from typing import ClassVar, NamedTuple

import numpy as np

from .bands import BAND_BYTES, row_bands
from .errors import ConfigError, ShapeError, WeightFormatError

MAGIC = b"RQPW1"

# the sums the output comes from, which a job's resume key takes in. A
# constant, not a setting: a change that moves any output bit changes it
ARITHMETIC = "row-window gemm, dj-ordered taps 1"

CONV2D = "conv2d"
ACTIVATION = "activation"
ADD = "add"
CONCAT = "concat"

RELU = "relu"
LEAKY_RELU = "leaky_relu"


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer graph; inputs reference earlier layer ids."""

    id: str
    op: str
    inputs: tuple[str, ...]
    in_ch: int = 0
    out_ch: int = 0
    kernel: int = 0
    act: str = LEAKY_RELU
    alpha: float = 0.2

    # a conv keeps the plane size: stride 1, zero padded by (kernel - 1) / 2
    stride: ClassVar[int] = 1

    @property
    def pad(self) -> int:
        return (self.kernel - 1) // 2


def _conv_shape_error(layer_id, kernel, stride, pad) -> ShapeError:
    return ShapeError(
        f"conv layer {layer_id!r}: kernel {kernel}, stride {stride}, pad {pad};"
        " a conv keeps the plane size, with a positive odd kernel, stride 1 and pad (kernel - 1) / 2"
    )


def conv_layer(layer_id, inp, in_ch, out_ch, kernel) -> LayerSpec:
    return LayerSpec(layer_id, CONV2D, (inp,), in_ch=in_ch, out_ch=out_ch, kernel=kernel)


def act_layer(layer_id, inp, kind=LEAKY_RELU, alpha=0.2) -> LayerSpec:
    return LayerSpec(layer_id, ACTIVATION, (inp,), act=kind, alpha=alpha)


def add_layer(layer_id, inputs) -> LayerSpec:
    return LayerSpec(layer_id, ADD, tuple(inputs))


def concat_layer(layer_id, inputs) -> LayerSpec:
    return LayerSpec(layer_id, CONCAT, tuple(inputs))


# the keys each op has besides id, op and inputs, in the order to_json writes them
_OP_KEYS = {CONV2D: ("in_ch", "out_ch", "kernel"), ACTIVATION: ("act", "alpha"), ADD: (), CONCAT: ()}
# from_json also reads a conv's stride and pad, only to check that they are a same-size conv's
_READ_KEYS = _OP_KEYS | {CONV2D: (*_OP_KEYS[CONV2D], "stride", "pad")}


@dataclass(frozen=True)
class NetworkSpec:
    """Layer graph in topological order, from input_id to output_id."""

    layers: tuple[LayerSpec, ...]
    input_id: str = "input"
    output_id: str = "output"
    residual_global: bool = True
    meta: dict = field(default_factory=dict)

    def validate(self) -> dict[str, int]:
        """Check reference order, channel arithmetic and layer kinds; returns
        id -> channels. Every value is as large as the plane: a conv must
        have a positive odd kernel, and an activation is relu or
        leaky_relu. The output, a plane's correction, is one channel."""
        channels = {self.input_id: 1}
        for layer in self.layers:
            if layer.id in channels:
                raise ShapeError(f"duplicate layer id {layer.id!r}")
            for ref in layer.inputs:
                if ref not in channels:
                    raise ShapeError(
                        f"layer {layer.id!r} references {ref!r} before it is defined"
                    )
            ins = [channels[r] for r in layer.inputs]
            if layer.op == CONV2D:
                if len(ins) != 1:
                    raise ShapeError(f"conv layer {layer.id!r} needs exactly one input")
                if ins[0] != layer.in_ch:
                    raise ShapeError(
                        f"layer {layer.id!r}: in_ch {layer.in_ch} != producing channels {ins[0]}"
                    )
                if layer.kernel < 1 or layer.kernel % 2 == 0:
                    raise _conv_shape_error(layer.id, layer.kernel, layer.stride, layer.pad)
                channels[layer.id] = layer.out_ch
            elif layer.op == ACTIVATION:
                if len(ins) != 1:
                    raise ShapeError(f"activation {layer.id!r} needs exactly one input")
                if layer.act not in (RELU, LEAKY_RELU):
                    raise ShapeError(f"activation {layer.id!r}: unknown kind {layer.act!r}, not relu or leaky_relu")
                channels[layer.id] = ins[0]
            elif layer.op == ADD:
                if len(set(ins)) != 1:
                    raise ShapeError(f"add layer {layer.id!r} mixes channel counts {ins}")
                channels[layer.id] = ins[0]
            elif layer.op == CONCAT:
                if not ins:
                    raise ShapeError(f"concat layer {layer.id!r} has no inputs")
                channels[layer.id] = sum(ins)
            else:
                raise ShapeError(f"unknown op {layer.op!r} in layer {layer.id!r}")
        if self.output_id not in channels:
            raise ShapeError(f"output id {self.output_id!r} never produced")
        if channels[self.output_id] != 1:
            raise ShapeError(f"network output has {channels[self.output_id]} channels, expected 1")
        return channels

    @cached_property
    def storage_plan(self) -> StoragePlan:
        """Where the band pass keeps each value; planned once per spec."""
        return _plan_storage(self)

    def conv_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.op == CONV2D]

    def to_json(self) -> str:
        entries = [
            {"id": l.id, "op": l.op, "inputs": list(l.inputs)} | {k: getattr(l, k) for k in _OP_KEYS.get(l.op, ())}
            for l in self.layers
        ]
        doc = {
            "input_id": self.input_id,
            "output_id": self.output_id,
            "residual_global": self.residual_global,
            "meta": self.meta,
            "layers": entries,
        }
        return json.dumps(doc, indent=2)

    @cached_property
    def sha256(self) -> str:
        """sha256 of to_json(), computed once per spec."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ShapeError(f"network JSON does not parse: {exc}") from None
        entries = doc.get("layers") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ShapeError("network JSON needs a 'layers' list")
        names = {int: "an integer", float: "a number", str: "a string", list: "a list of strings",
                 bool: "true or false", dict: "an object"}
        top = {"layers": list, "input_id": str, "output_id": str, "residual_global": bool, "meta": dict}
        for key, value in doc.items():
            if key not in top:
                raise ShapeError(f"unknown top-level key {key!r}")
            if not isinstance(value, top[key]):
                raise ShapeError(f"key {key!r} must be {names[top[key]]}, got {value!r}")
        # each layer key takes its default's JSON type; an int counts as a float, a bool as no number
        common = {"id": str, "op": str, "inputs": list}
        types = {f.name: type(f.default) for f in fields(LayerSpec)} | {"stride": int, "pad": int} | common
        layers = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ShapeError(f"layer {i}: expected an object, got {entry!r}")
            for key, value in entry.items():
                if key not in types:
                    raise ShapeError(f"layer {i}: unknown key {key!r}")
                want = types[key]
                ok = isinstance(value, (int, float) if want is float else want) and not isinstance(value, bool)
                if not ok or want is list and not all(isinstance(v, str) for v in value):
                    raise ShapeError(f"layer {i}: key {key!r} must be {names[want]}, got {value!r}")
            for key in ("id", "op"):
                if key not in entry:
                    raise ShapeError(f"layer {i}: missing key {key!r}")
            for key in entry:
                # an unknown op may carry any layer key: validate names the op
                if key not in common and key not in _READ_KEYS.get(entry["op"], types):
                    raise ShapeError(f"layer {entry['id']!r}: key {key!r} is not read by a {entry['op']} layer")
            entry = dict(entry)
            entry["inputs"] = tuple(entry.get("inputs", ()))
            if entry["op"] == CONV2D:
                # a stride and pad, where given, must be the ones the conv has
                kernel = entry.get("kernel", 0)
                stride, pad = entry.pop("stride", 1), entry.pop("pad", (kernel - 1) // 2)
                if (stride, pad) != (1, (kernel - 1) // 2):
                    raise _conv_shape_error(entry["id"], kernel, stride, pad)
            layers.append(LayerSpec(**entry))
        net = cls(
            layers=tuple(layers),
            input_id=doc.get("input_id", "input"),
            output_id=doc.get("output_id", "output"),
            residual_global=doc.get("residual_global", True),
            meta=doc.get("meta", {}),
        )
        net.validate()
        return net


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------


def save_weights(path, weights: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Write {layer_id: (weights(out,in,kh,kw), bias(out,))} to the binary format."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(weights)))
        for layer_id, (w, b) in weights.items():
            w = np.asarray(w, dtype=np.float32)
            b = np.asarray(b, dtype=np.float32)
            if w.ndim != 4 or b.shape != (w.shape[0],):
                raise WeightFormatError(
                    f"{layer_id}: weights must be (out,in,kh,kw) with matching bias"
                )
            ident = layer_id.encode("utf-8")
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<IIII", *w.shape))
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())


def load_weights(path, sha256: str | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read a weight file; trailing bytes, short reads and a layer id that
    appears twice are format errors, and so is a file whose bytes do not
    hash to `sha256`, when given. Each array is held in the memory order
    its conv multiplies (see _gemm_order)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if sha256 is not None and (actual := hashlib.sha256(blob).hexdigest()) != sha256:
        raise WeightFormatError(f"{path}: changed, its sha256 is {actual}, not {sha256}")
    if blob[:5] != MAGIC:
        raise WeightFormatError(f"{path}: bad magic {blob[:5]!r}")
    pos = 5
    try:
        (count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for _ in range(count):
            (id_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            layer_id = blob[pos : pos + id_len].decode("utf-8")
            pos += id_len
            out_ch, in_ch, kh, kw = struct.unpack_from("<IIII", blob, pos)
            pos += 16
            n = out_ch * in_ch * kh * kw
            w = _gemm_order(np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(out_ch, in_ch, kh, kw))
            pos += 4 * n
            b = np.frombuffer(blob, dtype="<f4", count=out_ch, offset=pos).copy()
            pos += 4 * out_ch
            if layer_id in weights:
                raise WeightFormatError(f"{path}: layer id {layer_id!r} appears twice")
            weights[layer_id] = (w, b)
    except WeightFormatError:
        raise
    except (struct.error, ValueError) as exc:
        raise WeightFormatError(f"{path}: truncated weight file") from exc
    if pos != len(blob):
        raise WeightFormatError(f"{path}: {len(blob) - pos} trailing bytes")
    return weights


def _gemm_order(w: np.ndarray) -> np.ndarray:
    """A float32 copy of (out, in, kh, kw) weights in (kw, out, kh, in) memory
    order, whose GEMM matrix is then a view (see _kernel)."""
    return w.transpose(3, 0, 2, 1).astype(np.float32, order="C").transpose(1, 3, 2, 0)


def validate_weights(net: NetworkSpec, weights) -> None:
    """Every conv layer must have a weight entry of the declared shape."""
    for layer in net.conv_layers():
        if layer.id not in weights:
            raise WeightFormatError(f"missing weights for layer {layer.id!r}")
        w, b = weights[layer.id]
        expect = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)
        if w.shape != expect:
            raise WeightFormatError(
                f"layer {layer.id!r}: weight shape {w.shape} != {expect}"
            )
        if b.shape != (layer.out_ch,):
            raise WeightFormatError(
                f"layer {layer.id!r}: bias shape {b.shape} != ({layer.out_ch},)"
            )


def random_weights(net: NetworkSpec, seed: int = 0, scale: float = 0.05):
    """Small random weights for every conv layer; handy for demos and tests."""
    rng = np.random.default_rng(seed)
    out = {}
    for layer in net.conv_layers():
        shape = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)
        out[layer.id] = (
            _gemm_order(rng.normal(0.0, scale, shape)),
            rng.normal(0.0, scale, layer.out_ch).astype(np.float32),
        )
    return out


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


class _Kernel(NamedTuple):
    """A same-size conv's weights as its GEMM takes them, and its odd size.
    Both arrays may share memory with the caller's weights and bias, so
    nothing writes to them."""

    wmat: np.ndarray  # (size*out_ch, size*in_ch), or (2, in_ch) for one 1x1 output; see _kernel
    bias: np.ndarray  # (out_ch, 1)
    size: int


def _kernel(weights: np.ndarray, bias: np.ndarray, dtype) -> _Kernel:
    # weights held in (kw, M, kh, C) memory order in `dtype`, as load_weights
    # and random_weights hold them, are multiplied where they are: a view,
    # not a copy of the network on every call
    out_ch, in_ch, size, _ = weights.shape
    wmat = np.ascontiguousarray(weights.transpose(3, 0, 2, 1), dtype=dtype).reshape(size * out_ch, size * in_ch)
    if len(wmat) == 1:
        # numpy sends a one-row weight matrix to GEMV, whose sums depend on
        # the column count and the thread split; a zero second row keeps a
        # one-channel 1x1 conv on GEMM
        wmat = np.vstack([wmat, np.zeros_like(wmat)])
    return _Kernel(wmat, bias.astype(dtype, copy=False)[:, None], size)


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size cross-correlation of (C,H,W) input with (O,C,k,k) weights:
    stride 1, zero padded by (k - 1) / 2, so the output is (O,H,W). A
    kernel that is not square and odd is a ShapeError.

    Computed as one GEMM per output row, over chunks of rows (see _conv).
    The input is copied into a zero-padded slab stored row by row,
    (H + 2p, C, W + 2p), and each output row multiplies the (k*O, k*C)
    weights, rows in (dj, out) and columns in (di, in) order, by its k
    slab rows seen as one (k*C, W + 2p) matrix, with no copy; the k
    column taps of the product, each shifted by its dj, are then added in
    order dj = 0..k-1. A 1x1 conv multiplies each row's (C, W) view of
    the input, with no slab. The bias is added after the last chunk.

    The accumulation order within an output pixel is whatever BLAS uses
    for the GEMM's shape, then the taps in dj order, and with one GEMM per
    row that shape is (k*O, k*C) x (k*C, W + 2p) however the rows are
    chunked. So the band pass of apply_network, which runs a conv a few
    rows at a time, gives this whole-plane run's bits by construction, for
    one BLAS kernel and thread count (TestGemmBanding and TestShortRuns
    check it).
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    if x.ndim != 3 or 0 in x.shape[1:]:
        raise ShapeError(f"input must be a non-empty (C,H,W), got shape {x.shape}")
    out_ch, in_ch, kh, kw = weights.shape
    if x.shape[0] != in_ch:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {in_ch}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"kernel {kh}x{kw}: a same-size conv needs a square, odd kernel")
    out = np.empty((out_ch, *x.shape[1:]), dtype=x.dtype)
    _conv(_kernel(weights, bias, x.dtype), x, x.shape[1], out, 0)
    return out


def _ring_rows(ring: np.ndarray, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows r0..r1 of a (C, n, W) ring that holds row r at ring row r % n:
    a view, or a copy (into `out` when given) where they run across the
    ring's end. With `out`, they are always copied into it: in one copy,
    or two where they run across the end."""
    n = ring.shape[1]
    i = r0 % n
    k = min(r1 - r0, n - i)
    if out is None:
        if k == r1 - r0:
            return ring[:, i : i + k]
        out = np.empty((ring.shape[0], r1 - r0, ring.shape[2]), dtype=ring.dtype)
    out[:, :k] = ring[:, i : i + k]
    if k < r1 - r0:
        out[:, k:] = ring[:, : r1 - r0 - k]
    return out


def _conv(k: _Kernel, x: np.ndarray, h: int, out: np.ndarray, r0: int, act: LayerSpec | None = None) -> None:
    """Output rows r0, r0 + 1, ... of a same-size conv into `out`
    (out_ch, rows, W), with `act` applied after the bias. `x` is a ring of
    input rows (see _ring_rows) that holds the rows they read of an input
    h rows tall, padded by k.size // 2; a whole input is a ring as tall as
    itself.

    Every GEMM covers one output row. A k x k conv copies the input rows
    it reads into a zero-padded, row-major slab, (rows, C, W + 2p), in one
    copy unless they run across the ring's end; output row r's operand,
    slab rows r..r+k-1, is then a (kC, W + 2p) view. The (kM, kC) weights
    (see _kernel) times it give g[r, dj*M + m, j + dj], the partial sum of
    column tap dj, and one np.add.reduce over a strided view of g adds the
    taps into `out` in order dj = 0..k-1. A 1x1 conv multiplies its input
    rows as they are, or a copy of them where they run across the ring's
    end. The rows go in chunks that keep the GEMM output within BAND_BYTES
    (row_bands), each in one batched np.matmul, which calls the BLAS GEMM
    once a row. So the GEMM's shape depends on W alone, and an output
    pixel is summed in the same order however the rows are split.

    The bias and `act` then run once over all the rows; a leaky ReLU
    multiplies into the spent GEMM output when that holds the run. So a
    3x3 run of one chunk, clear of the plane's top and bottom, makes seven
    array operations, each of which drops and retakes the GIL that worker
    threads share: the pad columns' zeros, the slab, the GEMM, the tap
    sum, the bias and the leaky ReLU's multiply and max; each further
    chunk adds two."""
    out_ch, n, w = out.shape
    in_ch, size, pad = len(x), k.size, k.size // 2
    if size == 1:
        src = _ring_rows(x, r0, r0 + n).transpose(1, 0, 2)
    else:
        # zero-padded copy of just the input rows this run reads, row-major
        top, bottom = r0 - pad, r0 + n + pad
        lo, hi = max(top, 0), min(bottom, h)
        slab = np.empty((bottom - top, in_ch, w + 2 * pad), dtype=x.dtype)
        if top < lo:
            slab[: lo - top] = 0
        if hi < bottom:
            slab[hi - top :] = 0
        if pad == 1:
            slab[:, :, :: w + 1] = 0  # both pad columns in one call
        else:
            slab[:, :, :pad] = 0
            slab[:, :, pad + w :] = 0
        _ring_rows(x, lo, hi, slab[lo - top : hi - top, :, pad : pad + w].transpose(1, 0, 2))
        # output row r reads slab rows r..r+k-1, one (kC, W + 2p) block
        sr, sc, sw = slab.strides
        src = np.ndarray((n, size * in_ch, w + 2 * pad), slab.dtype, slab, 0, (sr, sc, sw))
    km = len(k.wmat)
    spent = None  # GEMM output no longer needed, as large as the run's values
    if km == out_ch:  # a 1x1 conv of 2+ outputs multiplies into `out` itself
        np.matmul(k.wmat, src, out=out.transpose(1, 0, 2))
    else:
        chunks = row_bands(n, km * (w + 2 * pad) * x.itemsize)
        g = np.empty((max(c1 - c0 for c0, c1 in chunks), km, w + 2 * pad), dtype=x.dtype)
        gr, gm, gw = g.strides
        # tap dj of output (r, m, j) is g[r, dj*M + m, j + dj]; a one-channel
        # 1x1 conv's tap is row 0 of its two (see _kernel)
        taps = np.ndarray((size, len(g), out_ch, w), g.dtype, g, 0, (out_ch * gm + gw, gr, gm, gw))
        for c0, c1 in chunks:
            np.matmul(k.wmat, src[c0:c1], out=g[: c1 - c0])
            np.add.reduce(taps[:, : c1 - c0], axis=0, out=out[:, c0:c1].transpose(1, 0, 2))
        if g.size >= out.size:  # a chunked run's g may be smaller than the run
            spent = g.reshape(-1)[: out.size].reshape(out_ch, n * w)
    band = out.reshape(out_ch, n * w)
    band += k.bias
    if act is not None:
        _activate_in_place(band, act, spent)


def _activate_in_place(v: np.ndarray, act: LayerSpec, scratch: np.ndarray | None = None) -> None:
    # for 0 < alpha <= 1, max(v, alpha*v) is v for v >= 0 and alpha*v
    # below, bit for bit the np.where of _run_layer, -0.0, infinities and
    # NaN included. At alpha = 0 it is not: 0 * inf is NaN, so +inf would
    # become NaN where np.where keeps it. alpha*v goes into `scratch`, of
    # v's shape, when given
    if act.act == RELU:
        np.maximum(v, 0, out=v)
    else:
        np.maximum(v, np.multiply(np.asarray(act.alpha, v.dtype), v, out=scratch), out=v)


class _Step(NamedTuple):
    """How the band pass runs one layer."""

    out: str | None  # id of the value it makes; None for an activation run by its conv
    act: LayerSpec | None  # activation applied to each band of this conv
    inplace: bool  # an add that accumulates into its first input
    view: bool  # a concat that is a slice of the store its inputs sit in; other concats copy


class StoragePlan(NamedTuple):
    """Where each value of a NetworkSpec lives while the band pass runs it.

    steps follows net.layers; stores holds the channel count of each store,
    shared or not; slots gives every value, the network input included, its
    (store, first channel, channels). lags gives every value its lag behind
    the input in rows, and reach each store the rows its ring keeps beside
    a band's; _schedule turns them into a plane's bands and rings.
    """

    steps: tuple[_Step, ...]
    stores: tuple[int, ...]
    slots: dict[str, tuple[int, int, int]]
    lags: dict[str, int]
    reach: tuple[int, ...]


def _plan_storage(net: NetworkSpec) -> StoragePlan:
    """Storage for every value, from the graph's readers alone.

    Values that share storage form a group named by its first value: a conv
    and the ReLU, or leaky ReLU with 0 < alpha <= 1, that is its only
    reader (applied band by band as the conv runs); an add and its first
    input when the add is that input's only reader and the input is neither
    the network input nor a concat (accumulated in place).

    Concats are placed largest first, by one rule. With nested concats
    expanded, a concat none of whose inputs is placed yet puts them side by
    side in a fresh shared store and is a slice of it; one whose inputs
    all sit in one store, in order and in line, is a slice of that store;
    any other is copied, as is one whose inputs repeat or include the
    network input. Each group is placed once, so the groups of a store
    never share a channel. Every group left over, a copied concat included,
    gets a store of its own.
    A value's lag is the longest path of conv pads from the input to it; a
    store's reach, the most that a reader's lag plus its pad exceeds the
    least lag of its values, a value's writer counting as a reader.
    """
    channels = net.validate()
    layers = {l.id: l for l in net.layers}
    reads = Counter(ref for l in net.layers for ref in l.inputs)
    reads[net.output_id] += 1

    root = {v: v for v in channels}
    fused: dict[str, LayerSpec] = {}
    inplace: set[str] = set()
    for l in net.layers:
        src = layers.get(l.inputs[0]) if l.inputs else None
        if src is None or reads[src.id] != 1:
            continue
        if l.op == ACTIVATION and src.op == CONV2D and (l.act == RELU or 0 < l.alpha <= 1):
            fused[src.id] = l
        elif l.op == ADD and src.op != CONCAT:
            inplace.add(l.id)
        else:
            continue
        root[l.id] = root[src.id]

    def leaves(v):
        l = layers.get(v)
        if l is None or l.op != CONCAT:
            return [v]
        return [u for ref in l.inputs for u in leaves(ref)]

    sizes: list[int] = []
    home: dict[str, tuple[int, int]] = {}  # group -> (store, first channel)
    views: dict[str, tuple[int, int]] = {}  # concat -> (store, first channel)
    for cat in sorted((l for l in net.layers if l.op == CONCAT), key=lambda l: -channels[l.id]):
        vals = leaves(cat.id)
        groups = [root[v] for v in vals]
        if net.input_id in groups or len(set(groups)) != len(groups):
            continue
        offsets = accumulate((channels[v] for v in vals), initial=0)
        if not any(g in home for g in groups):
            b = len(sizes)
            sizes.append(channels[cat.id])
            home.update((g, (b, o)) for g, o in zip(groups, offsets))
            views[cat.id] = (b, 0)
        elif all(g in home for g in groups):
            b, base = home[groups[0]]
            if all(home[g] == (b, base + o) for g, o in zip(groups, offsets)):
                views[cat.id] = (b, base)
    for g in channels:
        if root[g] == g and g not in home and g not in views:
            home[g] = (len(sizes), 0)
            sizes.append(channels[g])
    slots = {v: (*(views.get(v) or home[root[v]]), channels[v]) for v in channels}

    run_by_conv = {a.id for a in fused.values()}
    steps = tuple(
        _Step(
            out=None if l.id in run_by_conv else (fused.get(l.id) or l).id,
            act=fused.get(l.id),
            inplace=l.id in inplace,
            view=l.id in views,
        )
        for l in net.layers
    )

    lags = {net.input_id: 0}
    far = dict(lags)  # per value, the most of a reader's lag plus its pad
    for l in net.layers:
        pad = l.pad if l.op == CONV2D else 0
        lags[l.id] = far[l.id] = max(lags[ref] for ref in l.inputs) + pad
        for ref in l.inputs:
            far[ref] = max(far[ref], lags[l.id] + pad)
    hi, lo = [0] * len(sizes), [max(lags.values())] * len(sizes)
    for v, (s, _, _) in slots.items():
        hi[s], lo[s] = max(hi[s], far[v]), min(lo[s], lags[v])
    return StoragePlan(steps, tuple(sizes), slots, lags, tuple(a - b for a, b in zip(hi, lo)))


def _band_rows(net: NetworkSpec, shape: tuple[int, int, int], dtype) -> int:
    """Input rows per band of the band pass over an input of `shape`: as
    many as fit one row of every store within BAND_BYTES, so a band's
    working set stays about as large as the other kernels' bands."""
    return max(1, BAND_BYTES // (sum(net.storage_plan.stores) * shape[2] * np.dtype(dtype).itemsize))


class _Band(NamedTuple):
    """One band of the band pass, in the order the pass runs it."""

    rows: tuple[int, int]  # output rows the band yields
    work: tuple[tuple[int, int, int], ...]  # (layer index, -1 for the input; first row; end row)


class _Bands(Sequence):
    """The bands of a pass over h input rows, each made when asked for (see
    _schedule): n bands of the input, as row_bands cuts it, then bands of
    b rows. runs holds (layer index, lag) of the input, as layer -1, and
    of each layer the pass runs, in graph order; out is the output's lag."""

    def __init__(self, h: int, n: int, b: int, runs: tuple[tuple[int, int], ...], out: int):
        self.h, self.n, self.b, self.runs, self.out = h, n, b, runs, out

    def edge(self, k: int) -> int:
        """Band k's first input row, past the input's end included."""
        n, h = self.n, self.h
        return k * h // n if k < n else (n - 1) * h // n + (k - n + 1) * self.b

    def __len__(self) -> int:
        return self.n - 1 + -(-(self.h + self.out - self.edge(self.n - 1)) // self.b)

    def __getitem__(self, k: int) -> _Band:
        k = range(len(self))[k]
        e0, e1, h = self.edge(k), self.edge(k + 1), self.h
        work = []
        for i, lag in self.runs:
            r0, r1 = max(e0 - lag, 0), min(e1 - lag, h)
            if r1 > r0:
                work.append((i, r0, r1))
        r0 = max(e0 - self.out, 0)
        return _Band((r0, max(r0, min(e1 - self.out, h))), tuple(work))


class _Schedule(NamedTuple):
    bands: _Bands
    rows: tuple[int, ...]  # rows of each store's ring


def _schedule(net: NetworkSpec, shape: tuple[int, int, int], dtype) -> _Schedule:
    """For an input of `shape`, (1, H, W), which rows of each layer every
    band computes, and how many rows each store keeps, in closed form: the
    line-buffered fused-layer schedule. Every value is H x W
    (NetworkSpec.validate), and a conv's row r reads its input's rows
    r - pad to r + pad.

    The input comes in n bands of at most _band_rows rows, as row_bands
    cuts it, the tallest c rows, and the bands go on every c rows past its
    end. Band k, from input row e_k to e_(k+1), makes each layer's rows
    e_k - lag to e_(k+1) - lag, clipped to [0, H), in graph order, and
    yields the output's; a value's lag (StoragePlan.lags) is the longest
    path of conv pads from the input to it. So a conv reads only rows its
    input has made, the start-up and the drain are the same rule at the
    plane's edges, and the pass ends with the band that yields the output's
    last row: ceil((H + its lag) / c) bands where c divides H. An input of
    one band is the whole pass in one band. A conv's GEMMs cover one output
    row each (see _conv), so how many rows it runs at a time never changes
    its bits.

    While a band runs, a store holds from the first row a reader of its
    values reads, the reader's lag plus its pad above the band's input
    rows, to the last row the band makes of them, the least lag of its
    values above their end: c rows plus the store's reach
    (StoragePlan.reach). So each ring is min(H, c + reach) rows, and a
    schedule is O(layers) numbers, made for each plane.
    """
    plan = net.storage_plan
    h, out = shape[1], plan.lags[net.output_id]
    n = max(1, -(-h // _band_rows(net, shape, dtype)))
    c = -(-h // n)
    runs = [(i, plan.lags[l.id]) for i, (l, step) in enumerate(zip(net.layers, plan.steps))
            if step.out is not None and not step.view]
    bands = _Bands(h, n, c if n > 1 else max(1, h + out), ((-1, 0), *runs), out)
    return _Schedule(bands, tuple(min(h, c + r) for r in plan.reach))


def _run_layer(layer: LayerSpec, step: _Step, ins: list[np.ndarray], out: np.ndarray) -> None:
    """Rows of an activation, an add or a copied concat into `out`."""
    if layer.op == CONCAT:
        c = 0
        for v in ins:
            out[c : c + len(v)] = v
            c += len(v)
    elif layer.op == ACTIVATION:
        v = ins[0]
        if layer.act == RELU:
            np.maximum(v, 0, out=out)
        else:
            out[...] = np.where(v >= 0, v, np.asarray(layer.alpha, v.dtype) * v)
    elif layer.op == ADD:
        if not step.inplace:
            out[...] = ins[0]
        for other in ins[1:]:
            out += other
    else:
        raise ShapeError(f"unknown op {layer.op!r}")


def _put_ring_rows(ring: np.ndarray, r0: int, rows: np.ndarray) -> None:
    """Store `rows`, made in a copy by _ring_rows, as rows r0.. of `ring`."""
    i = r0 % ring.shape[1]
    k = ring.shape[1] - i
    ring[:, i:], ring[:, : rows.shape[1] - k] = rows[:, :k], rows[:, k:]


def _bands(net: NetworkSpec, weights, sched: _Schedule, src: np.ndarray, dtype, scale=None):
    """Run the graph over `src`, (1, H, W), in the bands of `sched`.

    Yields (first row, end row, rows) for each band of output rows; the
    rows are only valid until the next band starts. The input rows are
    cast to `dtype` and divided by `scale` when given. Each store
    is a ring of rows (see _schedule): image row r sits in ring row
    r % rows, so the rows no reader needs any more are written over in
    place, and each layer's new rows go after the ones it made before, so
    no row is computed twice or moved. A k x k conv copies its input rows
    from the ring into its padded slab; other rows that run across the end
    of a ring are read into, or made in, a copy.
    """
    plan = net.storage_plan
    _, h, w = src.shape
    stores = [np.empty((c, r, w), dtype=dtype) for c, r in zip(plan.stores, sched.rows)]
    rings = {v: stores[s][c0 : c0 + c] for v, (s, c0, c) in plan.slots.items()}
    kernels = {l.id: _kernel(*weights[l.id], dtype) for l in net.conv_layers()}
    for band in sched.bands:
        for i, r0, r1 in band.work:
            layer = net.layers[i] if i >= 0 else None
            v = net.input_id if layer is None else layer.id
            out = _ring_rows(rings[v], r0, r1)
            if layer is None:
                out[...] = src[:, r0:r1]
                if scale is not None:
                    out /= scale
            elif layer.op == CONV2D:
                (ref,) = layer.inputs
                _conv(kernels[v], rings[ref], h, out, r0, plan.steps[i].act)
            else:
                _run_layer(layer, plan.steps[i], [_ring_rows(rings[ref], r0, r1) for ref in layer.inputs], out)
            if out.base is None:  # made in a copy where the ring wraps
                _put_ring_rows(rings[v], r0, out)
        e0, e1 = band.rows
        if e1 > e0:
            yield e0, e1, _ring_rows(rings[net.output_id], e0, e1)


def apply_network(net: NetworkSpec, weights, plane: np.ndarray, bit_depth: int) -> np.ndarray:
    """Run the network over one integer plane in float32.

    Normalizes by 1/(2^bit_depth - 1), evaluates the graph, adds the
    global residual when flagged, then de-normalizes, rounds, and clamps.
    All of it runs in one pass of row bands through the whole graph
    (_bands): each value keeps only the rows its readers still need, so
    the working set grows with the plane's width and the band, not its
    height, and the only whole plane made is the integer output. Each
    conv multiplies one GEMM per output row, whose shape depends on the
    width alone (see _conv), so the output does not depend on the band
    height, and repeated runs are bit-identical. The bits do depend on
    the BLAS kernel and thread count; `rqpipe run` and `rqpipe postproc`
    hold OpenBLAS at one thread.
    """
    maxv = (1 << bit_depth) - 1
    sched = _schedule(net, (1, *plane.shape), np.float32)  # plans the net's storage, so validates it first
    validate_weights(net, weights)
    out = np.empty(plane.shape, plane.dtype)
    for r0, r1, y in _bands(net, weights, sched, plane[None], np.float32, np.float32(maxv)):
        # float64 rounding in row bands (rqpipe.bands), after the float32 residual add
        for a, b in row_bands(r1 - r0, y.shape[2] * 8):
            band = y[0, a:b]
            if net.residual_global:  # the input rows, cast and scaled as the band pass's are
                band = band + np.divide(plane[r0 + a : r0 + b], maxv, dtype=np.float32)
            band = band.astype(np.float64)
            band *= maxv
            band += 0.5
            np.floor(band, out=band)
            out[r0 + a : r0 + b] = np.clip(band, 0, maxv, out=band)
        del band, y  # let go of the last chunk, and a wrapped band's copy, before the next band runs
    return out


def planned_bytes(net: NetworkSpec, shape: tuple[int, int]) -> int:
    """The bytes apply_network plans to hold over an (H, W) plane, besides
    the integer output it returns: every store's ring (see _schedule); the
    most that one step of the band pass, or the rounding of one band of
    output rows, holds besides; and the pass's Python objects, about 5 KiB
    and 512 bytes a layer. It is a closed form over the rings and n, the
    rows of the tallest band (c of _schedule, or H where the input is one
    band): no run of a layer, and no band of output rows, is longer.

    A run of n rows of a conv holds a copy of its n output rows, where
    they run across the ring's end, or else its activation's products; a
    k x k conv also its padded slab, one chunk of GEMM output and the tap
    sum's two iterator buffers (np.getbufsize() values each; see _conv),
    a 1x1 conv a copy of its input rows. Any other layer holds copies of
    its input and output rows and one result. A band of output rows is a
    copy of them and up to four float32 values a sample of rounding, which
    apply_network lets go before the next band runs."""
    h, w = shape
    sched = _schedule(net, (1, h, w), np.float32)
    channels = net.validate()
    n = min(sched.bands.b, h)
    chunk = lambda row_bytes: min(n, max(1, BAND_BYTES // row_bytes))  # row_bands' longest of a run
    step = 0
    for i, _ in sched.bands.runs[1:]:
        l = net.layers[i]
        if l.op != CONV2D:
            step = max(step, n * w * (sum(channels[v] for v in l.inputs) + 2 * channels[l.id]))
            continue
        run = values = n * l.out_ch * w
        if l.kernel > 1 or l.out_ch == 1:
            row = max(2, l.kernel * l.out_ch) * (w + 2 * l.pad)
            run += row * chunk(row * 4)
        if l.kernel > 1:
            run += (n + 2 * l.pad) * l.in_ch * (w + 2 * l.pad) + 2 * min(np.getbufsize(), values)
        else:
            run += n * l.in_ch * w
        step = max(step, run)
    rounding = n * w + 4 * chunk(w * 8) * w
    rings = sum(c * r for c, r in zip(net.storage_plan.stores, sched.rows)) * w
    return 4 * (rings + max(step, rounding)) + 512 * (len(net.layers) + 10)


# ---------------------------------------------------------------------------
# network builder
# ---------------------------------------------------------------------------


def build_mfrnet_style(
    blocks: int = 4,
    convs_per_block: int = 4,
    channels: int = 32,
    growth: int = 16,
) -> NetworkSpec:
    """Residual dense block cascade for plane post-processing.

    Head conv lifts the plane to `channels` features. Each block runs
    `convs_per_block` 3x3 convs, where conv j sees the block input
    concatenated with all previous in-block features (`growth` channels
    each), then a 1x1 fusion conv back to `channels` and a block-level
    residual add. Every block's output is concatenated into the next
    block's input (feature reuse) and fused by a 1x1 entry conv. A tail
    conv returns to one channel and the global residual adds the network
    input.
    """
    if min(blocks, convs_per_block, channels, growth) < 1:
        raise ConfigError("blocks, convs_per_block, channels, growth must all be >= 1")
    layers: list[LayerSpec] = []
    layers.append(conv_layer("head", "input", 1, channels, 3))
    layers.append(act_layer("head_act", "head"))

    block_outputs: list[str] = []
    for b in range(blocks):
        if b == 0:
            entry = "head_act"
        else:
            cat = f"b{b}_reuse"
            layers.append(concat_layer(cat, list(reversed(block_outputs))))
            layers.append(conv_layer(f"b{b}_entry", cat, len(block_outputs) * channels, channels, 1))
            entry = f"b{b}_entry"
        feats = [entry]
        for j in range(convs_per_block):
            src = feats[0] if len(feats) == 1 else f"b{b}_cat{j}"
            if len(feats) > 1:
                layers.append(concat_layer(src, feats))
            in_ch = channels + (len(feats) - 1) * growth
            layers.append(conv_layer(f"b{b}_conv{j}", src, in_ch, growth, 3))
            layers.append(act_layer(f"b{b}_act{j}", f"b{b}_conv{j}"))
            feats.append(f"b{b}_act{j}")
        fuse_cat = f"b{b}_fuse_cat"
        layers.append(concat_layer(fuse_cat, feats))
        layers.append(
            conv_layer(f"b{b}_fuse", fuse_cat, channels + convs_per_block * growth, channels, 1)
        )
        layers.append(add_layer(f"b{b}_out", [f"b{b}_fuse", entry]))
        block_outputs.append(f"b{b}_out")

    layers.append(conv_layer("tail", block_outputs[-1], channels, 1, 3))
    net = NetworkSpec(
        layers=tuple(layers),
        input_id="input",
        output_id="tail",
        residual_global=True,
        meta={
            "style": "mfrnet",
            "blocks": blocks,
            "convs_per_block": convs_per_block,
            "channels": channels,
            "growth": growth,
        },
    )
    net.validate()
    return net
