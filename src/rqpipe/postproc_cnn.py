"""From-scratch CNN inference for residual dense post-processing networks.

A network is a small DAG of layers (conv2d, activation, add, concat) over
(channels, height, width) float tensors. Planes are normalized to [0, 1]
before inference and rounded back to integers after, with an optional
global residual that adds the network input to its output.
Each conv is im2col + one GEMM per band of output rows, with the column
buffer bounded by _COLS_BYTES; a 1x1 conv multiplies the band's view of
its input and needs no column buffer. A storage plan, derived once per
NetworkSpec from the graph's readers and liveness (never from layer
names), gives every value its place. Concats follow one rule: one whose
inputs are not placed yet puts them side by side in a fresh shared
(C, H, W) buffer and is a slice of it; one whose inputs already sit in
order in one buffer is a slice of that; any other is a copy. The bias,
and an activation that is a conv's only reader, are applied to each band
right after its GEMM; an add accumulates into its first input when
nothing else reads that. Each value is freed once its last consumer has
run, so the working set is a few live buffers plus one band rather than
every channel of the network; over _PLANE_BYTES, apply_network runs the
graph over row strips, bounding it at any size.
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

import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .bands import row_bands
from .errors import ConfigError, ShapeError, WeightFormatError

MAGIC = b"RQPW1"

# upper bound on one conv2d column buffer, which sets how many output rows
# a band holds. At 8 MB the buffer is reused from the heap and mostly stays
# in cache, which runs the default net faster than 64 MB does. When a plane
# needs more than one band, each float32 band still fills a third of the
# budget, so its GEMM has M*N*K >= 2 * 7e5, above OpenBLAS's small-matrix
# cutoff (1e6)
_COLS_BYTES = 8 << 20

# upper bound on the working set of one graph evaluation in apply_network.
# At 2 GiB the default net (192 live channels) runs every plane up to 1080p
# whole, at 1.6 GB, and a 4096x2048 plane (6.4 GB whole) as four strips of
# 512 rows at 1.7 GB each, so two workers fit in 8 GB
_PLANE_BYTES = 2 << 30

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
                if not ins:
                    raise ShapeError(f"concat layer {layer.id!r} has no inputs")
                channels[layer.id] = sum(ins)
            else:
                raise ShapeError(f"unknown op {layer.op!r} in layer {layer.id!r}")
        if self.output_id not in channels:
            raise ShapeError(f"output id {self.output_id!r} never produced")
        return channels

    @cached_property
    def storage_plan(self) -> StoragePlan:
        """Where _apply_layers keeps each value; planned once per spec."""
        return _plan_storage(self)

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
        types = {f.name: type(f.default) for f in fields(LayerSpec)} | {"id": str, "op": str, "inputs": list}
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


def load_weights(path, sha256: str | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read a weight file; trailing bytes or short reads are format errors,
    and so is a file whose bytes do not hash to `sha256`, when given."""
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


def _conv_hw(x: np.ndarray, weights: np.ndarray, stride: int, pad: int) -> tuple[int, int]:
    """Output height and width of a conv, after checking the input against the weights."""
    if x.ndim != 3:
        raise ShapeError(f"input must be (C,H,W), got shape {x.shape}")
    _, in_ch, kh, kw = weights.shape
    if x.shape[0] != in_ch:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {in_ch}")
    _, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}"
        )
    return oh, ow


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of (C,H,W) input with (O,C,kh,kw) weights, zero padded.

    Computed as im2col + GEMM over bands of output rows. Each band pads
    only the input rows it reads, fills a (C, kh, kw, rows, ow) column
    buffer with one strided slice per tap, and multiplies it by the
    weights reshaped to (O, C*kh*kw); a 1x1, stride-1, unpadded conv
    multiplies the band's (C, rows*W) view of the input instead, with no
    column buffer. The bias is added to each band after its GEMM.
    The rows are split into equal bands whose buffers stay under
    _COLS_BYTES, so no band is a thin remainder.

    The accumulation order within an output pixel is whatever BLAS uses
    for the GEMM's shape: OpenBLAS, for one, sends products with
    M*N*K <= 1e6 to a small-matrix kernel that sums in another order.
    Strips (apply_network) and bands matching one whole-plane run bit for
    bit is therefore a tested property (TestGemmBanding), not a guarantee
    by construction.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    return _conv(x, weights, bias, stride, pad)


def _conv(x, weights, bias, stride, pad, out=None, act: LayerSpec | None = None) -> np.ndarray:
    """conv2d into `out` (fresh when None), with `act` applied to each band."""
    oh, ow = _conv_hw(x, weights, stride, pad)
    out_ch, in_ch, kh, kw = weights.shape
    _, h, w = x.shape
    if out is None:
        out = np.empty((out_ch, oh, ow), dtype=x.dtype)
    k = in_ch * kh * kw
    # numpy sends a one-row weight matrix to GEMV, whose sums depend on the
    # column count and the thread split; a zero second row keeps it on GEMM
    m = max(out_ch, 2)
    wmat = np.zeros((m, k), dtype=x.dtype)
    wmat[:out_ch] = weights.reshape(out_ch, k)
    bias = bias.astype(x.dtype)[:, None]
    out2d = out.reshape(out_ch, oh * ow)
    gemm_out = out2d if m == out_ch else np.empty((m, oh * ow), dtype=x.dtype)
    bands = row_bands(oh, k * ow * x.itemsize, _COLS_BYTES)
    direct = kh == kw == 1 and stride == 1 and pad == 0
    if direct:
        x2d = x.reshape(in_ch, h * w)
    else:
        buf = np.empty(k * -(-oh // len(bands)) * ow, dtype=x.dtype)
    for r0, r1 in bands:
        rows = r1 - r0
        if direct:
            cols = x2d[:, r0 * ow : r1 * ow]
        else:
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
            cols = cols.reshape(k, -1)
        np.matmul(wmat, cols, out=gemm_out[:, r0 * ow : r1 * ow])
        band = out2d[:, r0 * ow : r1 * ow]
        if gemm_out is not out2d:
            band[...] = gemm_out[:out_ch, r0 * ow : r1 * ow]
        band += bias
        if act is not None:
            _activate_in_place(band, act)
    return out


def _activate_in_place(v: np.ndarray, act: LayerSpec) -> None:
    # for 0 < alpha <= 1, max(v, alpha*v) is v for v >= 0 and alpha*v
    # below, bit for bit the np.where of _run_layer, -0.0, infinities and
    # NaN included. At alpha = 0 it is not: 0 * inf is NaN, so +inf would
    # become NaN where np.where keeps it
    if act.act == RELU:
        np.maximum(v, 0, out=v)
    else:
        np.maximum(v, np.asarray(act.alpha, v.dtype) * v, out=v)


class _Step(NamedTuple):
    """How _apply_layers runs one layer."""

    out: str | None  # id of the value it makes; None for an activation run by its conv
    slot: tuple[int, int, int] | None  # (buffer, first channel, channels) of that value;
    # a concat with a slot is a slice of its buffer, one without is a copy
    act: LayerSpec | None  # activation applied to each band of this conv
    inplace: bool  # an add that accumulates into its first input
    release: tuple[int, ...]  # buffers no later layer writes into or slices
    drop: tuple[str, ...]  # values no later layer reads


class StoragePlan(NamedTuple):
    """Where each value of a NetworkSpec lives while _apply_layers runs it.

    steps follows net.layers; buffers holds the channel count of each shared
    (C, H, W) buffer; live_channels counts, per layer, the channels of the
    buffers and unshared values held while it runs (the input included).
    """

    steps: tuple[_Step, ...]
    buffers: tuple[int, ...]
    live_channels: tuple[int, ...]


def _plan_storage(net: NetworkSpec) -> StoragePlan:
    """Storage for every value, from the graph's readers and liveness alone.

    Values that share storage form a group named by its first value: a conv
    and the ReLU, or leaky ReLU with 0 < alpha <= 1, that is its only
    reader (applied band by band as the conv runs); an add and its first
    input when the add is that input's only reader and the input is neither
    the network input nor a concat (accumulated in place).

    Concats are placed largest first, by one rule. With nested concats
    expanded, a concat none of whose inputs is placed yet puts them side by
    side in a fresh shared buffer and is a slice of it; one whose inputs
    all sit in one buffer, in order and in line, is a slice of that buffer;
    any other is copied, as is one whose inputs repeat or include the
    network input. Each group is placed once, so the groups of a buffer
    never share a channel. A buffer lives from the first layer of its
    groups until the last read of any of them or of a concat sliced from
    it, and is released after the last layer that has a slot in it.
    """
    channels = net.validate()
    layers = {l.id: l for l in net.layers}
    n = len(net.layers)
    index = {l.id: i for i, l in enumerate(net.layers)}
    index[net.input_id] = 0
    reads = Counter(ref for l in net.layers for ref in l.inputs)
    reads[net.output_id] += 1
    last_use = dict(index)
    for i, l in enumerate(net.layers):
        for ref in l.inputs:
            last_use[ref] = i
    last_use[net.output_id] = n - 1

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
    group_last: dict[str, int] = {}
    for v, g in root.items():
        group_last[g] = max(group_last.get(g, -1), last_use[v])

    def leaves(v):
        l = layers.get(v)
        if l is None or l.op != CONCAT:
            return [v]
        return [u for ref in l.inputs for u in leaves(ref)]

    sizes: list[int] = []
    home: dict[str, tuple[int, int]] = {}  # group -> (buffer, first channel)
    views: dict[str, tuple[int, int]] = {}  # concat -> (buffer, first channel)
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

    release: list[list[int]] = [[] for _ in range(n)]
    live = [0] * n
    for b, size in enumerate(sizes):
        groups = [g for g, (gb, _) in home.items() if gb == b]
        cats = [c for c, (cb, _) in views.items() if cb == b]
        release[max(index[v] for v in groups + cats)].append(b)
        last = max([group_last[g] for g in groups] + [last_use[c] for c in cats])
        for i in range(min(index[g] for g in groups), last + 1):
            live[i] += size
    drop: list[list[str]] = [[] for _ in range(n)]
    for v in root:
        if v not in fused and v != net.output_id:
            drop[last_use[v]].append(v)
    for g, last in group_last.items():
        if g not in home and g not in views:
            for i in range(index[g], last + 1):
                live[i] += channels[g]

    run_by_conv = {a.id for a in fused.values()}
    steps = []
    for i, l in enumerate(net.layers):
        place = views.get(l.id) or home.get(l.id)
        act = fused.get(l.id)
        steps.append(_Step(
            out=None if l.id in run_by_conv else (act or l).id,
            slot=None if place is None else (*place, channels[l.id]),
            act=act,
            inplace=l.id in inplace,
            release=tuple(release[i]),
            drop=tuple(drop[i]),
        ))
    return StoragePlan(tuple(steps), tuple(sizes), tuple(live))


def _slot(step: _Step, buffers: dict, sizes, hw, dtype) -> np.ndarray | None:
    """The planned storage of a layer's value, allocating its buffer on first use."""
    if step.slot is None:
        return None
    b, first, ch = step.slot
    buf = buffers.get(b)
    if buf is None:
        buf = buffers[b] = np.empty((sizes[b], *hw), dtype=dtype)
    elif buf.shape[1:] != tuple(hw):
        raise ShapeError(f"concatenated values differ in height or width: {buf.shape[1:]} vs {tuple(hw)}")
    return buf[first : first + ch]


def _run_layer(layer: LayerSpec, step: _Step, ins: list[np.ndarray], weights, buffers, sizes) -> np.ndarray:
    if layer.op == CONV2D:
        w, b = weights[layer.id]
        x = ins[0]
        out = _slot(step, buffers, sizes, _conv_hw(x, w, layer.stride, layer.pad), x.dtype)
        return _conv(x, w, b, layer.stride, layer.pad, out, step.act)
    dest = _slot(step, buffers, sizes, ins[0].shape[1:], ins[0].dtype)
    if layer.op == CONCAT:
        return np.concatenate(ins, axis=0) if dest is None else dest
    if layer.op == ACTIVATION:
        v = ins[0]
        if layer.act == RELU:
            v = np.maximum(v, 0)
        else:
            v = np.where(v >= 0, v, np.asarray(layer.alpha, v.dtype) * v)
    elif layer.op == ADD:
        if step.inplace:
            v = ins[0]
        elif dest is None:
            v = ins[0].copy()
        else:
            v = dest
            v[...] = ins[0]
        for other in ins[1:]:
            if other.shape != v.shape:
                raise ShapeError(f"add layer {layer.id!r} mixes shapes")
            v += other
        return v
    else:
        raise ShapeError(f"unknown op {layer.op!r}")
    if dest is None:
        return v
    dest[...] = v
    return dest


def _apply_layers(net: NetworkSpec, weights, x: np.ndarray) -> np.ndarray:
    # each layer writes into the storage net.storage_plan gives it; a value
    # is dropped after the last layer that reads it, and a shared buffer
    # lives on in the slices taken of it
    plan = net.storage_plan
    values = {net.input_id: x}
    buffers: dict[int, np.ndarray] = {}
    for layer, step in zip(net.layers, plan.steps):
        if step.out is not None:
            values[step.out] = _run_layer(
                layer, step, [values[r] for r in layer.inputs], weights, buffers, plan.buffers
            )
        for b in step.release:
            del buffers[b]
        for ref in step.drop:
            del values[ref]
    return values[net.output_id]


def _strip_rows(net: NetworkSpec, x: np.ndarray) -> int:
    """Most output rows one graph evaluation in apply_network may cover."""
    _, h, w = x.shape
    per_row = max(net.storage_plan.live_channels, default=1) * w * x.itemsize
    keeps_size = all(l.stride == 1 and 2 * l.pad == l.kernel - 1 for l in net.conv_layers())
    if per_row * h + _COLS_BYTES <= _PLANE_BYTES or not keeps_size:
        return h
    return max(1, (_PLANE_BYTES - _COLS_BYTES) // per_row - 2 * net.receptive_radius())


def _apply_strips(net: NetworkSpec, weights, x: np.ndarray, rows: int) -> np.ndarray:
    """_apply_layers over full-width strips of at most `rows` output rows,
    of equal height like _conv's bands, each with receptive_radius() rows
    of margin above and below."""
    h = x.shape[1]
    if rows >= h:
        return _apply_layers(net, weights, x)
    strips = -(-h // rows)
    margin = net.receptive_radius()
    y = np.empty((net.validate()[net.output_id], h, x.shape[2]), dtype=x.dtype)
    for i in range(strips):
        r0, r1 = h * i // strips, h * (i + 1) // strips
        top = max(r0 - margin, 0)
        y[:, r0:r1] = _apply_layers(net, weights, x[:, top : r1 + margin])[:, r0 - top : r1 - top]
    return y


def apply_network(net: NetworkSpec, weights, plane: np.ndarray, bit_depth: int) -> np.ndarray:
    """Run the network over one integer plane in float32.

    Normalizes by 1/(2^bit_depth - 1), evaluates the graph, adds the
    global residual when flagged, then de-normalizes, rounds, and clamps.
    When the graph's working set, peak live channels x H x W x 4 bytes plus
    _COLS_BYTES, exceeds _PLANE_BYTES (2 GiB), it runs over the fewest
    full-width row strips that fit with receptive_radius() rows of margin
    on each side; a net whose convs change the plane size runs whole.
    Repeated runs are bit-identical; strips equal one whole run (see conv2d).
    Normalizing and the residual add work in place, and the float64
    rounding runs over row bands (rqpipe.bands) into the integer output,
    so no whole float64 plane is made.
    """
    maxv = (1 << bit_depth) - 1
    x = plane.astype(np.float32)[None, :, :]
    x /= np.float32(maxv)
    rows = _strip_rows(net, x)  # its net.storage_plan validates the net
    validate_weights(net, weights)
    y = _apply_strips(net, weights, x, rows)
    if y.shape[0] != 1:
        raise ShapeError(f"network output has {y.shape[0]} channels, expected 1")
    if net.residual_global:
        if y.shape != x.shape:
            raise ShapeError(
                f"global residual needs matching shapes, got {y.shape} vs {x.shape}"
            )
        y += x  # also when the output is the input itself: x + x either way
    out = np.empty(y.shape[1:], plane.dtype)
    for r0, r1 in row_bands(out.shape[0], out.shape[1] * 8):
        band = y[0, r0:r1].astype(np.float64)
        band *= maxv
        band += 0.5
        np.floor(band, out=band)
        out[r0:r1] = np.clip(band, 0, maxv, out=band)
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
