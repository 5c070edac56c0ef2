"""From-scratch CNN inference for residual dense post-processing networks.

A network is a small DAG of layers (conv2d, activation, add, concat) over
(channels, height, width) float tensors. Planes are normalized to [0, 1]
before inference and rounded back to integers after, with an optional
global residual that adds the network input to its output.
Each conv is im2col + one GEMM per band of output rows, with the column
buffer bounded by _COLS_BYTES, and each intermediate tensor is freed once
its last consumer has run, so the working set is a few live tensors plus
one band rather than every channel of the network.
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

Trailing bytes after the last record are an error.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, WeightFormatError

MAGIC = b"RQPW1"

# upper bound on one conv2d column buffer, which sets how many output rows
# a band holds. At 8 MB the buffer is reused from the heap and mostly stays
# in cache, which runs the default net faster than 64 MB does. When a plane
# needs more than one band, each float32 band still fills a third of the
# budget, so its GEMM has M*N*K >= 2 * 7e5, above OpenBLAS's small-matrix
# cutoff (1e6)
_COLS_BYTES = 8 << 20

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
    stride: int = 1
    pad: int = 0
    act: str = LEAKY_RELU
    alpha: float = 0.2


def conv_layer(layer_id, inp, in_ch, out_ch, kernel, stride=1, pad=None) -> LayerSpec:
    if pad is None:
        pad = (kernel - 1) // 2
    return LayerSpec(layer_id, CONV2D, (inp,), in_ch=in_ch, out_ch=out_ch,
                     kernel=kernel, stride=stride, pad=pad)


def act_layer(layer_id, inp, kind=LEAKY_RELU, alpha=0.2) -> LayerSpec:
    if kind not in (RELU, LEAKY_RELU):
        raise ConfigError(f"unknown activation {kind!r}")
    return LayerSpec(layer_id, ACTIVATION, (inp,), act=kind, alpha=alpha)


def add_layer(layer_id, inputs) -> LayerSpec:
    return LayerSpec(layer_id, ADD, tuple(inputs))


def concat_layer(layer_id, inputs) -> LayerSpec:
    return LayerSpec(layer_id, CONCAT, tuple(inputs))


@dataclass(frozen=True)
class NetworkSpec:
    """Layer graph in topological order, from input_id to output_id."""

    layers: tuple[LayerSpec, ...]
    input_id: str = "input"
    output_id: str = "output"
    residual_global: bool = True
    meta: dict = field(default_factory=dict)

    def validate(self) -> dict[str, int]:
        """Check reference order and channel arithmetic; returns id -> channels."""
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
                channels[layer.id] = layer.out_ch
            elif layer.op == ACTIVATION:
                if len(ins) != 1:
                    raise ShapeError(f"activation {layer.id!r} needs exactly one input")
                channels[layer.id] = ins[0]
            elif layer.op == ADD:
                if len(set(ins)) != 1:
                    raise ShapeError(f"add layer {layer.id!r} mixes channel counts {ins}")
                channels[layer.id] = ins[0]
            elif layer.op == CONCAT:
                channels[layer.id] = sum(ins)
            else:
                raise ShapeError(f"unknown op {layer.op!r} in layer {layer.id!r}")
        if self.output_id not in channels:
            raise ShapeError(f"output id {self.output_id!r} never produced")
        return channels

    def conv_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.op == CONV2D]

    def receptive_radius(self) -> int:
        """Input pixels (each side) that can influence one output pixel."""
        radius = {self.input_id: 0}
        for layer in self.layers:
            r = max(radius[ref] for ref in layer.inputs)
            if layer.op == CONV2D:
                if layer.stride != 1:
                    raise ConfigError(
                        f"receptive radius only defined for stride-1 nets (layer {layer.id!r})"
                    )
                r += (layer.kernel - 1) // 2
            radius[layer.id] = r
        return radius[self.output_id]

    def to_json(self) -> str:
        entries = []
        for l in self.layers:
            entry = {"id": l.id, "op": l.op, "inputs": list(l.inputs)}
            if l.op == CONV2D:
                entry.update(in_ch=l.in_ch, out_ch=l.out_ch, kernel=l.kernel,
                             stride=l.stride, pad=l.pad)
            elif l.op == ACTIVATION:
                entry.update(act=l.act, alpha=l.alpha)
            entries.append(entry)
        doc = {
            "input_id": self.input_id,
            "output_id": self.output_id,
            "residual_global": self.residual_global,
            "meta": self.meta,
            "layers": entries,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        doc = json.loads(text)
        layers = []
        for entry in doc["layers"]:
            entry = dict(entry)
            entry["inputs"] = tuple(entry.get("inputs", ()))
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


def load_weights(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read a weight file; trailing bytes or short reads are format errors."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
            w = np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(
                out_ch, in_ch, kh, kw
            ).copy()
            pos += 4 * n
            b = np.frombuffer(blob, dtype="<f4", count=out_ch, offset=pos).copy()
            pos += 4 * out_ch
            weights[layer_id] = (w, b)
    except (struct.error, ValueError) as exc:
        raise WeightFormatError(f"{path}: truncated weight file") from exc
    if pos != len(blob):
        raise WeightFormatError(f"{path}: {len(blob) - pos} trailing bytes")
    return weights


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
            rng.normal(0.0, scale, shape).astype(np.float32),
            rng.normal(0.0, scale, layer.out_ch).astype(np.float32),
        )
    return out


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of (C,H,W) input with (O,C,kh,kw) weights, zero padded.

    Computed as im2col + GEMM over bands of output rows. Each band pads
    only the input rows it reads, fills a (C, kh, kw, rows, ow) column
    buffer with one strided slice per tap, and multiplies it by the
    weights reshaped to (O, C*kh*kw); the bias is added once at the end.
    The rows are split into equal bands whose buffers stay under
    _COLS_BYTES, so no band is a thin remainder.

    The accumulation order within an output pixel is whatever BLAS uses
    for the GEMM's shape: OpenBLAS, for one, sends products with
    M*N*K <= 1e6 to a small-matrix kernel that sums in another order.
    Tiled and banded evaluation matching one whole-plane run bit for bit
    is therefore a tested property (test_default_net_tiled_equals_untiled,
    test_default_net_tiles_equal_whole_before_rounding,
    test_row_bands_equal_one_band), not a guarantee by construction.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"input must be (C,H,W), got shape {x.shape}")
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    out_ch, in_ch, kh, kw = weights.shape
    if x.shape[0] != in_ch:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {in_ch}")
    _, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}"
        )
    k = in_ch * kh * kw
    # numpy sends a one-row weight matrix to GEMV, whose sums depend on the
    # column count and the thread split; a zero second row keeps it on GEMM
    m = max(out_ch, 2)
    wmat = np.zeros((m, k), dtype=x.dtype)
    wmat[:out_ch] = weights.reshape(out_ch, k)
    bands = -(-oh // max(1, _COLS_BYTES // (k * ow * x.itemsize)))
    buf = np.empty(k * -(-oh // bands) * ow, dtype=x.dtype)
    out = np.empty((m, oh * ow), dtype=x.dtype)
    for i in range(bands):
        r0, r1 = oh * i // bands, oh * (i + 1) // bands
        rows = r1 - r0
        # zero-padded copy of just the input rows this band reads
        top, bottom = r0 * stride - pad, (r1 - 1) * stride + kh - pad
        lo = max(top, 0)
        hi = max(min(bottom, h), lo)
        slab = np.zeros((in_ch, bottom - top, w + 2 * pad), dtype=x.dtype)
        slab[:, lo - top : hi - top, pad : pad + w] = x[:, lo:hi]
        cols = buf[: k * rows * ow].reshape(in_ch, kh, kw, rows, ow)
        for di in range(kh):
            for dj in range(kw):
                cols[:, di, dj] = slab[:, di : di + rows * stride : stride, dj : dj + ow * stride : stride]
        np.matmul(wmat, cols.reshape(k, -1), out=out[:, r0 * ow : r1 * ow])
    out = out[:out_ch]
    out += bias.astype(x.dtype)[:, None]
    return out.reshape(out_ch, oh, ow)


def _run_layer(layer: LayerSpec, ins: list[np.ndarray], weights) -> np.ndarray:
    if layer.op == CONV2D:
        w, b = weights[layer.id]
        return conv2d(ins[0], w, b, layer.stride, layer.pad)
    if layer.op == ACTIVATION:
        v = ins[0]
        if layer.act == RELU:
            return np.maximum(v, 0)
        return np.where(v >= 0, v, np.asarray(layer.alpha, v.dtype) * v)
    if layer.op == ADD:
        acc = ins[0].copy()
        for other in ins[1:]:
            if other.shape != acc.shape:
                raise ShapeError(f"add layer {layer.id!r} mixes shapes")
            acc += other
        return acc
    if layer.op == CONCAT:
        return np.concatenate(ins, axis=0)
    raise ShapeError(f"unknown op {layer.op!r}")


def _apply_layers(net: NetworkSpec, weights, x: np.ndarray) -> np.ndarray:
    # each value is dropped after the last layer that reads it (a value
    # nothing reads, right after it is made); only the output is kept
    last_use = {layer.id: i for i, layer in enumerate(net.layers)}
    for i, layer in enumerate(net.layers):
        for ref in layer.inputs:
            last_use[ref] = i
    values = {net.input_id: x}
    for i, layer in enumerate(net.layers):
        values[layer.id] = _run_layer(layer, [values[r] for r in layer.inputs], weights)
        for ref in {layer.id, *layer.inputs}:
            if last_use[ref] == i and ref != net.output_id:
                del values[ref]
    return values[net.output_id]


def apply_network(net: NetworkSpec, weights, plane: np.ndarray, bit_depth: int) -> np.ndarray:
    """Run the network over one integer plane in float32.

    Normalizes by 1/(2^bit_depth - 1), evaluates the graph, adds the
    global residual when flagged, then de-normalizes, rounds, and clamps.
    Repeated runs are bit-identical.
    """
    net.validate()
    validate_weights(net, weights)
    maxv = (1 << bit_depth) - 1
    x = (plane.astype(np.float32) / np.float32(maxv))[None, :, :]
    y = _apply_layers(net, weights, x)
    if y.shape[0] != 1:
        raise ShapeError(f"network output has {y.shape[0]} channels, expected 1")
    if net.residual_global:
        if y.shape != x.shape:
            raise ShapeError(
                f"global residual needs matching shapes, got {y.shape} vs {x.shape}"
            )
        y = y + x
    out = np.floor(y[0].astype(np.float64) * maxv + 0.5)
    return np.clip(out, 0, maxv).astype(plane.dtype)


def tiled_apply(
    net: NetworkSpec,
    weights,
    plane: np.ndarray,
    bit_depth: int,
    tile: int,
    overlap: int | None = None,
) -> np.ndarray:
    """Memory-bounded inference: process tile x tile regions with margins.

    Each tile is evaluated with `overlap` extra pixels on every side and
    only its interior is kept. With overlap >= the network's
    receptive-field radius every output pixel sees the same inputs as in
    the untiled network; that the sums then also match bit for bit
    depends on BLAS (see conv2d) and is tested on the default network.
    """
    needed = net.receptive_radius()
    if overlap is None:
        overlap = needed
    if overlap < needed:
        raise ConfigError(
            f"overlap {overlap} below receptive-field radius; need >= {needed}"
        )
    if tile <= 0:
        raise ConfigError(f"tile size must be positive, got {tile}")
    h, w = plane.shape
    out = np.empty_like(plane)
    for y0 in range(0, h, tile):
        for x0 in range(0, w, tile):
            y1 = min(y0 + tile, h)
            x1 = min(x0 + tile, w)
            ty0 = max(0, y0 - overlap)
            tx0 = max(0, x0 - overlap)
            ty1 = min(h, y1 + overlap)
            tx1 = min(w, x1 + overlap)
            region = apply_network(net, weights, plane[ty0:ty1, tx0:tx1], bit_depth)
            out[y0:y1, x0:x1] = region[y0 - ty0 : y1 - ty0, x0 - tx0 : x1 - tx0]
    return out


# ---------------------------------------------------------------------------
# network builder
# ---------------------------------------------------------------------------


def build_mfrnet_style(
    blocks: int = 4,
    convs_per_block: int = 4,
    channels: int = 32,
    growth: int = 16,
    alpha: float = 0.2,
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
    layers.append(act_layer("head_act", "head", alpha=alpha))

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
            layers.append(act_layer(f"b{b}_act{j}", f"b{b}_conv{j}", alpha=alpha))
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
