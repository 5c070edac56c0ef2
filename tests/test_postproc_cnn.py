import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rqpipe.postproc_cnn as postproc_cnn
from rqpipe import bands
from rqpipe import (
    NetworkSpec,
    apply_network,
    build_mfrnet_style,
    conv2d,
    load_weights,
    random_weights,
    save_weights,
)
from rqpipe.errors import ConfigError, ShapeError, WeightFormatError
from rqpipe.postproc_cnn import (
    CONCAT,
    CONV2D,
    LayerSpec,
    _activate_in_place,
    act_layer,
    add_layer,
    concat_layer,
    conv_layer,
)


def conv2d_oracle(x, w, b, stride=1, pad=0):
    """Brute-force quadruple-loop cross-correlation."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_ch, in_ch, kh, kw = w.shape
    _, h, ww = x.shape
    oh = (h - kh) // stride + 1
    ow = (ww - kw) // stride + 1
    out = np.zeros((out_ch, oh, ow))
    for o in range(out_ch):
        for i in range(oh):
            for j in range(ow):
                acc = float(b[o])
                for c in range(in_ch):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += float(w[o, c, di, dj]) * float(
                                x[c, i * stride + di, j * stride + dj]
                            )
                out[o, i, j] = acc
    return out


def conv2d_row_window_oracle(x, weights, bias):
    """conv2d over a zero-padded copy of the whole input stored row by row,
    (H + 2p, C, W + 2p): for each output row, a contiguous copy of its
    (kC, W + 2p) window of rows r..r+k-1 times the (kM, kC) weights, rows
    in (dj, out) order and columns in (di, in) order (a one-channel 1x1
    conv's over a zero second row, as the engine multiplies), then the k
    column taps added in dj order, and the bias once after the last row."""
    out_ch, in_ch, k, _ = weights.shape
    _, h, w = x.shape
    p = k // 2
    wmat = weights.transpose(3, 0, 2, 1).reshape(k * out_ch, k * in_ch).astype(x.dtype)
    if len(wmat) == 1:
        wmat = np.vstack([wmat, np.zeros_like(wmat)])
    xp = np.zeros((h + 2 * p, in_ch, w + 2 * p), x.dtype)
    xp[p : p + h, :, p : p + w] = x.transpose(1, 0, 2)
    out = np.empty((out_ch, h, w), x.dtype)
    for r in range(h):
        g = np.matmul(wmat, xp[r : r + k].reshape(k * in_ch, w + 2 * p).copy())
        acc = g[:out_ch, :w].copy()
        for dj in range(1, k):
            acc += g[dj * out_ch : (dj + 1) * out_ch, dj : dj + w]
        out[:, r] = acc
    out += bias.astype(x.dtype)[:, None, None]
    return out


def run_layer_oracle(layer, ins, weights):
    if layer.op == "conv2d":
        w, b = weights[layer.id]
        return conv2d_row_window_oracle(ins[0], w, b)
    if layer.op == "activation":
        v = ins[0]
        if layer.act == "relu":
            return np.maximum(v, 0)
        return np.where(v >= 0, v, np.asarray(layer.alpha, v.dtype) * v)
    if layer.op == "add":
        acc = ins[0].copy()
        for other in ins[1:]:
            acc += other
        return acc
    return np.concatenate(ins, axis=0)


def apply_layers_oracle(net, weights, x):
    """Network evaluation with every value in its own array: each concat
    and activation a copy, each add a fresh sum."""
    last_use = {layer.id: i for i, layer in enumerate(net.layers)}
    for i, layer in enumerate(net.layers):
        for ref in layer.inputs:
            last_use[ref] = i
    values = {net.input_id: x}
    for i, layer in enumerate(net.layers):
        values[layer.id] = run_layer_oracle(layer, [values[r] for r in layer.inputs], weights)
        for ref in {layer.id, *layer.inputs}:
            if last_use[ref] == i and ref != net.output_id:
                del values[ref]
    return values[net.output_id]


def sequential_matmul(a, b, out=None):
    """a @ b with every output summed in k order, whatever the shapes, for
    2-D operands or stacks of them: a stand-in for BLAS, whose order
    depends on them."""
    acc = a[..., :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        acc += a[..., k : k + 1] * b[..., k : k + 1, :]
    if out is None:
        return acc
    out[...] = acc
    return out


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    uint = f"u{a.itemsize}"
    assert np.array_equal(a.view(uint), b.view(uint))


def json_net(layers, output_id):
    return NetworkSpec.from_json(json.dumps(
        {"layers": layers, "output_id": output_id, "residual_global": False}
    ))


def conv_entry(layer_id, inp, in_ch, out_ch, kernel=3):
    return {"id": layer_id, "op": "conv2d", "inputs": [inp], "in_ch": in_ch,
            "out_ch": out_ch, "kernel": kernel, "pad": kernel // 2}


def apply_in_bands(net, weights, plane, bits, rows=None, **patch):
    """apply_network with bands of at most `rows` input rows (the planned
    height when None) and the postproc_cnn attributes in `patch` replaced;
    also returns the (first, end) rows of each band of the input."""
    runs = []
    schedule = postproc_cnn._schedule

    def spy(*args):
        sched = schedule(*args)
        runs[:] = [(r0, r1) for band in sched.bands for i, r0, r1 in band.work if i < 0]
        return sched

    with pytest.MonkeyPatch.context() as m:
        for name, value in patch.items():
            m.setattr(postproc_cnn, name, value)
        if rows is not None:
            m.setattr(postproc_cnn, "_band_rows", lambda *args: rows)
        m.setattr(postproc_cnn, "_schedule", spy)
        return apply_network(net, weights, plane, bits), runs


def apply_layers(net, weights, x):
    """The band pass's float output for a (1, H, W) float input, before the
    global residual and rounding, gathered into one array."""
    postproc_cnn.validate_weights(net, weights)
    sched = postproc_cnn._schedule(net, x.shape, x.dtype)
    y = np.empty((net.validate()[net.output_id], *x.shape[1:]), dtype=x.dtype)
    for r0, r1, rows in postproc_cnn._bands(net, weights, sched, x, x.dtype):
        y[:, r0:r1] = rows
    return y


def layers_in_bands(net, weights, x, rows):
    """apply_layers in bands of at most `rows` input rows."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(postproc_cnn, "_band_rows", lambda *args: rows)
        return apply_layers(net, weights, x)


def traced_peak(net, weights, plane, bit_depth=10):
    """tracemalloc's peak over one apply_network, after a first call has
    planned this plane size."""
    apply_network(net, weights, plane, bit_depth)
    tracemalloc.start()
    try:
        apply_network(net, weights, plane, bit_depth)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ring_spans(net, sched):
    """Each store's rows in use during each band of `sched`, derived from
    its work alone: from the first row that this band or a later one reads
    (a conv's run with its halo, any other layer's rows, the output rows
    the band yields) to the last row made so far; 0 when none is read."""
    store = {v: s for v, (s, _, _) in net.storage_plan.slots.items()}
    made, reads = [], []
    for band in sched.bands:
        made.append([(store[net.layers[i].id if i >= 0 else net.input_id], r1) for i, _, r1 in band.work])
        reads.append([
            (store[v], max(r0 - net.layers[i].pad, 0) if net.layers[i].op == CONV2D else r0)
            for i, r0, _ in band.work if i >= 0 for v in net.layers[i].inputs
        ])
        if band.rows[1] > band.rows[0]:
            reads[-1].append((store[net.output_id], band.rows[0]))
    his, hi = [], [0] * len(sched.rows)
    for wr in made:
        for s, r in wr:
            hi[s] = max(hi[s], r)
        his.append(list(hi))
    spans, lo = [None] * len(made), list(hi)
    for b in reversed(range(len(made))):
        for s, r in reads[b]:
            lo[s] = min(lo[s], r)
        spans[b] = [max(0, top - min(low, top)) for top, low in zip(his[b], lo)]
    return spans


def lags(net):
    """Each value's lag behind the input: the longest path of conv pads."""
    lag = {net.input_id: 0}
    for l in net.layers:
        lag[l.id] = max(lag[ref] for ref in l.inputs) + (l.pad if l.op == CONV2D else 0)
    return lag


def ring_formula(net, h, c):
    """Each store's ring from the graph alone, for bands of c rows:
    min(H, c + the most that a reader's lag plus its pad exceeds the least
    lag of the store's values), the output's yield a reader at its lag."""
    lag = lags(net)
    rows = []
    for s in range(len(net.storage_plan.stores)):
        vals = {v for v, (t, _, _) in net.storage_plan.slots.items() if t == s}
        far = [lag[l.id] + (l.pad if l.op == CONV2D else 0) for l in net.layers if vals & set(l.inputs)]
        far += [lag[net.output_id]] * (net.output_id in vals)
        rows.append(min(h, c + max(far) - min(lag[v] for v in vals)))
    return tuple(rows)


def five_by_five_net():
    """A 5x5 conv, a concat that is copied (it takes the network input) and
    an add beside the default net's 3x3 and 1x1 convs."""
    return json_net([
        conv_entry("a", "input", 1, 4, kernel=5),
        conv_entry("b", "a", 4, 3),
        {"id": "cat", "op": "concat", "inputs": ["input", "b", "a"]},
        conv_entry("c", "cat", 8, 2, kernel=5),
        {"id": "r", "op": "activation", "inputs": ["c"], "act": "relu"},
        {"id": "s", "op": "add", "inputs": ["r", "c"]},
        conv_entry("out", "s", 2, 1, kernel=1),
    ], "out")


def identity_net(residual=False):
    return NetworkSpec(
        layers=(conv_layer("c", "input", 1, 1, 1),),
        output_id="c",
        residual_global=residual,
    )


class TestConv2d:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 7))
        w = np.zeros((3, 3, 1, 1))
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        out = conv2d(x, w, np.zeros(3))
        assert np.array_equal(out, x)

    def test_all_ones_3x3_on_constant(self):
        c = 2.5
        x = np.full((1, 6, 6), c)
        out = conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1))
        assert out[0, 2, 3] == pytest.approx(9 * c)  # interior: 9 taps in bounds
        assert out[0, 0, 0] == pytest.approx(4 * c)  # corner: 4 taps in bounds
        assert out[0, 0, 3] == pytest.approx(6 * c)  # edge: 6 taps in bounds

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 5, 5))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        mine = conv2d(x, w, b)
        oracle = conv2d_oracle(x, w, b, pad=1)
        assert np.abs(mine - oracle).max() < 1e-5

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shapes_vs_oracle(self, seed):
        rng = np.random.default_rng(seed + 50)
        in_ch = int(rng.integers(1, 4))
        out_ch = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        size = int(rng.integers(k, k + 6))
        x = rng.normal(size=(in_ch, size, size))
        w = rng.normal(size=(out_ch, in_ch, k, k))
        b = rng.normal(size=out_ch)
        mine = conv2d(x, w, b)
        oracle = conv2d_oracle(x, w, b, pad=k // 2)
        assert mine.shape == oracle.shape
        assert np.abs(mine - oracle).max() < 1e-5 * max(1.0, np.abs(oracle).max())

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        b = np.zeros(3)
        alpha, beta = 1.7, -0.4
        lhs = conv2d(alpha * x + beta * y, w, b)
        rhs = alpha * conv2d(x, w, b) + beta * conv2d(y, w, b)
        denom = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / denom < 1e-6

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 12, 12))
        w = rng.normal(size=(1, 1, 3, 3))
        b = np.zeros(1)
        base = conv2d(x, w, b)
        shifted = conv2d(np.roll(x, 1, axis=2), w, b)
        # columns touched by the roll wrap-around or the pad are not interior
        assert np.allclose(shifted[:, :, 2:-1], base[:, :, 1:-2], atol=1e-12)

    def test_widest_default_conv_within_a_derived_bound(self):
        # The im2col oracles share the engine's geometry, so this check does
        # not: the default net's widest conv, (16, 80, 3, 3) weights, K = 720,
        # against the float64 sum of its float32 products. An output is
        # y = fl(fl(s) + b) for the true dot product s of K products. In any
        # summation order, FMAs included, |fl(s) - s| <= g S, with
        # S = sum |w x|, g = K u / (1 - K u) and u = 2^-24 (Higham, Accuracy
        # and Stability of Numerical Algorithms, 3.1); the bias add rounds
        # once more, by at most u |fl(s) + b| <= u (|s + b| + g S). The
        # reference's products are exact in float64 (24 + 24 bits), and its
        # K + 1 terms, bias included, sum within g64 (S + |b|), with g64 the
        # same gamma at 2^-53 for K + 1 terms.
        rng = np.random.default_rng(47)
        h, w, k = 8, 100, 720
        x = rng.random((80, h, w)).astype(np.float32)
        weights = rng.normal(0, 0.05, (16, 80, 3, 3)).astype(np.float32)
        bias = rng.normal(0, 0.05, 16).astype(np.float32)
        got = conv2d(x, weights, bias).astype(np.float64)
        xp = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros(got.shape)
        mag = np.zeros(got.shape)
        for di in range(3):
            for dj in range(3):
                tap = weights[:, :, di, dj].astype(np.float64)
                window = xp[:, di : di + h, dj : dj + w]
                ref += np.einsum("oc,chw->ohw", tap, window)
                mag += np.einsum("oc,chw->ohw", np.abs(tap), window)  # x >= 0
        ref += bias[:, None, None]
        u, u64 = 2.0**-24, 2.0**-53
        g, g64 = k * u / (1 - k * u), (k + 1) * u64 / (1 - (k + 1) * u64)
        slack = g64 * (mag + np.abs(bias)[:, None, None])  # the reference's own error
        bound = g * mag + u * (np.abs(ref) + slack + g * mag) + slack
        assert np.all(np.abs(got - ref) <= bound)
        assert bound.max() < 1e-3  # 0.05 is a bias's scale: a lost bias or tap shows

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    @pytest.mark.parametrize("kh, kw", [(2, 2), (4, 4), (3, 1)])
    def test_kernel_not_square_and_odd(self, kh, kw):
        # a same-size conv pads by (k - 1) / 2; a 2x2 kernel used to give a
        # smaller output without a word
        with pytest.raises(ShapeError, match=rf"^kernel {kh}x{kw}: a same-size conv needs a square, odd kernel"):
            conv2d(np.zeros((1, 6, 6)), np.zeros((1, 1, kh, kw)), np.zeros(1))


class TestApplyNetwork:
    def test_identity_conv_reproduces_input(self):
        net = identity_net(residual=False)
        weights = {"c": (np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        rng = np.random.default_rng(5)
        plane = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert np.array_equal(apply_network(net, weights, plane, 8), plane)

    def test_zero_weights_with_global_residual(self):
        net = identity_net(residual=True)
        weights = {"c": (np.zeros((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        rng = np.random.default_rng(6)
        plane = rng.integers(0, 1024, (12, 12)).astype(np.uint16)
        assert np.array_equal(apply_network(net, weights, plane, bit_depth=10), plane)

    def test_global_residual_is_a_float32_add(self):
        # a bias of half a step puts every sample next to a rounding tie, where a
        # float32 and a float64 add of the residual round apart (500 of these
        # 1024 samples): the add is float32, of the input cast and scaled as the
        # band pass's own input is
        net = identity_net(residual=True)
        bias = np.float32(0.5 / 1023)
        weights = {"c": (np.zeros((1, 1, 1, 1), np.float32), np.array([bias], np.float32))}
        plane = np.arange(1024, dtype=np.uint16).reshape(32, 32)
        want = np.floor((bias + plane.astype(np.float32) / np.float32(1023)).astype(np.float64) * 1023 + 0.5)
        assert np.array_equal(apply_network(net, weights, plane, 10), want)

    def test_three_layer_net_matches_scripted_oracle(self):
        # conv3x3 -> leaky relu -> conv1x1, no residual, evaluated by a
        # straight-line float64 script
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 2, 3),
                act_layer("a1", "c1", alpha=0.2),
                conv_layer("c2", "a1", 2, 1, 1),
            ),
            output_id="c2",
            residual_global=False,
        )
        rng = np.random.default_rng(7)
        w1 = rng.normal(0, 0.3, (2, 1, 3, 3)).astype(np.float32)
        b1 = rng.normal(0, 0.1, 2).astype(np.float32)
        w2 = rng.normal(0, 0.3, (1, 2, 1, 1)).astype(np.float32)
        b2 = rng.normal(0, 0.1, 1).astype(np.float32)
        weights = {"c1": (w1, b1), "c2": (w2, b2)}
        plane = rng.integers(0, 256, (8, 8)).astype(np.uint8)

        x = plane.astype(np.float64) / 255.0
        xp = np.pad(x, 1)
        feat = np.zeros((2, 8, 8))
        for o in range(2):
            for i in range(8):
                for j in range(8):
                    acc = float(b1[o])
                    for di in range(3):
                        for dj in range(3):
                            acc += float(w1[o, 0, di, dj]) * xp[i + di, j + dj]
                    feat[o, i, j] = acc
        feat = np.where(feat >= 0, feat, 0.2 * feat)
        final = float(b2[0]) + float(w2[0, 0, 0, 0]) * feat[0] + float(w2[0, 1, 0, 0]) * feat[1]
        expected = np.clip(np.floor(final * 255.0 + 0.5), 0, 255).astype(np.uint8)

        got = apply_network(net, weights, plane, 8)
        assert np.abs(got.astype(int) - expected.astype(int)).max() <= 1

    def test_deterministic_repeat_runs(self):
        net = build_mfrnet_style(1, 2, 4, 4)
        weights = random_weights(net, seed=8)
        rng = np.random.default_rng(9)
        plane = rng.integers(0, 256, (24, 24)).astype(np.uint8)
        a = apply_network(net, weights, plane, 8)
        b = apply_network(net, weights, plane, 8)
        assert np.array_equal(a, b)

    def test_intermediates_freed_after_last_use(self):
        net = build_mfrnet_style()
        weights = random_weights(net, seed=24)
        h, w = 64, 96
        plane = np.random.default_rng(25).integers(0, 1024, (h, w)).astype(np.uint16)
        all_values = sum(net.validate().values()) * h * w * 4
        tracemalloc.start()
        try:
            apply_network(net, weights, plane, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * all_values, f"peak {peak} of {all_values} bytes"

    def test_default_net_peak_at_benchmark_size(self):
        # the default net on the 192x108 plane of the post-processing
        # benchmark: its GEMM outputs are chunks of one-row GEMMs under
        # BAND_BYTES, and no run waits for rows to keep a GEMM wide. A
        # column budget of 8 MB, with waits and padded runs, peaked at 7.19 MiB
        net = build_mfrnet_style()
        weights = random_weights(net, seed=48)
        plane = np.random.default_rng(49).integers(0, 1024, (108, 192)).astype(np.uint16)
        peak = traced_peak(net, weights, plane)
        assert peak < 6 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_default_net_peak_at_paper_width(self):
        # one 8x4096 plane: the rings are a few rows of 4096, and a 3x3 conv
        # holds its slab and one chunk of GEMM output, kM x (W + 2) values a
        # row; an im2col column buffer of 9C x W values a row, and the slab
        # it was filled from, made this peak 73.5 MiB
        net = build_mfrnet_style()
        weights = random_weights(net, seed=48)
        plane = np.random.default_rng(49).integers(0, 1024, (8, 4096)).astype(np.uint16)
        peak = traced_peak(net, weights, plane)
        assert peak < 68 << 20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("h, w, mib", [(108, 192, 3.8), (64, 1920, 29.5)])
    def test_default_net_peak_with_steady_state_rings(self, h, w, mib):
        # the drain runs within the rings the steady state needs (see
        # _schedule), and a leaky ReLU's products go into the spent GEMM
        # output. Rings sized by the drain made these peaks 4.12 and 31.51 MiB
        net = build_mfrnet_style()
        weights = random_weights(net, seed=48)
        plane = np.random.default_rng(49).integers(0, 1024, (h, w)).astype(np.uint16)
        peak = traced_peak(net, weights, plane)
        assert peak < mib * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("h, w", [(108, 192), (64, 1920), (8, 4096), (64, 96)])
    def test_planned_bytes_bound_the_traced_peak(self, h, w):
        # the planner, with the integer output it leaves out, is at least
        # the traced peak and at most half as much again
        net = build_mfrnet_style()
        weights = random_weights(net, seed=48)
        plane = np.random.default_rng(49).integers(0, 1024, (h, w)).astype(np.uint16)
        peak = traced_peak(net, weights, plane)
        planned = postproc_cnn.planned_bytes(net, (h, w)) + plane.nbytes
        assert peak <= planned <= 1.5 * peak, f"planned {planned / 2**20:.2f}, peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("residual", [False, True])
    def test_planned_bytes_bound_a_one_conv_peak(self, residual):
        # one 1x1 conv over a 1080p plane runs bands of 68 rows, so a band's
        # float64 rounding is as large as its conv run. apply_network lets
        # the last chunk and the band's copied rows go before the next band
        # runs, and the planner counts the larger of the two; holding them
        # made this peak 8.45 MiB, against 7.44 MiB planned
        net = identity_net(residual=residual)
        weights = {"c": (np.full((1, 1, 1, 1), 0.5, np.float32), np.full(1, 0.01, np.float32))}
        plane = np.random.default_rng(26).integers(0, 1024, (1080, 1920)).astype(np.uint16)
        peak = traced_peak(net, weights, plane)
        planned = postproc_cnn.planned_bytes(net, plane.shape) + plane.nbytes
        assert peak <= planned <= 1.5 * peak, f"planned {planned / 2**20:.2f}, peak {peak / 2**20:.2f} MiB"

    def test_loaded_weights_are_not_copied_per_call(self, tmp_path):
        # the same plane with the weights a job loads from its file: a copy
        # of every conv's weights on every call made this peak 5.32 MiB
        net = build_mfrnet_style()
        save_weights(tmp_path / "w.rqpw", random_weights(net, seed=48))
        weights = load_weights(tmp_path / "w.rqpw")
        plane = np.random.default_rng(49).integers(0, 1024, (108, 192)).astype(np.uint16)
        peak = traced_peak(net, weights, plane)
        assert peak < 5 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_kernel_multiplies_the_weights_where_they_are(self):
        # every conv's (kM, kC) matrix is a view of the weights, the 3x3 convs'
        # and the one-channel tail's included; only a one-channel 1x1 conv
        # gets a new matrix: its weights over a zero second row (see _kernel)
        convs = random_weights(build_mfrnet_style()).values()
        assert {w.shape[0] for w, _ in convs if w.shape[2] == 3} == {1, 16, 32}
        for w, b in convs:
            m, c, size, _ = w.shape
            k = postproc_cnn._kernel(w, b, np.float32)
            assert np.shares_memory(k.bias, b)
            assert np.shares_memory(k.wmat, w) and k.wmat.shape == (size * m, size * c)
            for dj in range(size):  # rows in (dj, out) order, columns in (di, in) order
                block = k.wmat[dj * m : (dj + 1) * m].reshape(m, size, c).transpose(0, 2, 1)
                assert np.array_equal(block, w[..., dj])
        (w, b), = random_weights(identity_net()).values()
        k = postproc_cnn._kernel(w, b, np.float32)
        assert k.wmat.shape == (2, 1) and k.wmat[0, 0] == w.item() and k.wmat[1, 0] == 0

    @pytest.mark.parametrize("residual", [False, True])
    def test_no_whole_float64_plane(self, residual):
        # A one-conv 1x1 net at 1080p holds the float32 input (4 B/px), the
        # one-channel conv's two-row GEMM output (8 B/px, see _conv) and its
        # float32 result (4 B/px). Normalizing and the residual add work in
        # place and the rounding runs in row bands, so the peak is 16 B/px
        # plus band scratch; whole float64 rounding temporaries made it 26.
        net = identity_net(residual=residual)
        weights = {"c": (np.full((1, 1, 1, 1), 0.5, np.float32), np.full(1, 0.01, np.float32))}
        plane = np.random.default_rng(26).integers(0, 1024, (1080, 1920)).astype(np.uint16)
        tracemalloc.start()
        try:
            out = apply_network(net, weights, plane, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == plane.shape and out.dtype == np.uint16
        assert peak < 16 * plane.size + 2 * bands.BAND_BYTES

    @pytest.mark.parametrize("residual", [False, True])
    def test_one_channel_conv_gemm_output_is_band_sized(self, residual):
        # The same net's one-channel conv writes its two-row GEMM output (see
        # _kernel) to scratch for one band of its rows, not for the plane
        # (8 B/px). The rest of the peak is the integer output (2 B/px) and
        # rings, GEMM scratch and rounding of a few hundred rows.
        net = identity_net(residual=residual)
        weights = {"c": (np.full((1, 1, 1, 1), 0.5, np.float32), np.full(1, 0.01, np.float32))}
        plane = np.random.default_rng(26).integers(0, 1024, (1080, 1920)).astype(np.uint16)
        tracemalloc.start()
        try:
            apply_network(net, weights, plane, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * plane.size + 2 * bands.BAND_BYTES

    def test_missing_weights_rejected(self):
        net = identity_net()
        with pytest.raises(WeightFormatError, match="c"):
            apply_network(net, {}, np.zeros((4, 4), np.uint8), 8)

    def test_multichannel_output_rejected(self):
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 2, 1),),
            output_id="c",
            residual_global=False,
        )
        weights = {"c": (np.zeros((2, 1, 1, 1), np.float32), np.zeros(2, np.float32))}
        with pytest.raises(ShapeError, match="channels"):
            apply_network(net, weights, np.zeros((4, 4), np.uint8), 8)


class TestStoragePlan:
    """The band pass runs each layer into the storage net.storage_plan gives
    it; its float output must equal the copy-based oracle's bit for bit, in
    one band and in bands of a few rows."""

    @staticmethod
    def float_input(h, w, bits=10, seed=30):
        plane = np.random.default_rng(seed).integers(0, 1 << bits, (h, w))
        return (plane.astype(np.float32) / np.float32((1 << bits) - 1))[None]

    def check(self, net, h, w, seed=31):
        weights = random_weights(net, seed=seed, scale=0.3)
        x = self.float_input(h, w)
        want = apply_layers_oracle(net, weights, x)
        assert_bits_equal(apply_layers(net, weights, x), want)
        for rows in (1, 3):
            assert_bits_equal(layers_in_bands(net, weights, x, rows), want)
        # with a GEMM whose sums do not depend on its shape, in bands where
        # rows wrap around the rings, the pass must still give the oracle's
        # bits: a wrong row or tap would show here, not only a sum order
        with pytest.MonkeyPatch.context() as m:
            m.setattr(np, "matmul", sequential_matmul)
            want = apply_layers_oracle(net, weights, x)
            for rows in (1, 2, 5):
                assert_bits_equal(layers_in_bands(net, weights, x, rows), want)

    def views(self, net):
        return {l.id: step.view for l, step in zip(net.layers, net.storage_plan.steps) if l.op == CONCAT}

    @pytest.mark.parametrize("h, w", [(72, 100), (108, 192)])
    def test_default_net(self, h, w):
        net = build_mfrnet_style()
        weights = random_weights(net, seed=32)
        x = self.float_input(h, w)
        assert_bits_equal(apply_layers(net, weights, x), apply_layers_oracle(net, weights, x))

    @pytest.mark.parametrize("rows", [1, 3, 7, 64])
    def test_default_net_in_row_bands(self, rows):
        # bands of `rows` input rows; each conv's GEMMs cover one output row
        # each, as the whole-plane oracle's do, so they sum in its order
        net = build_mfrnet_style()
        weights = random_weights(net, seed=33)
        x = self.float_input(72, 100)
        assert_bits_equal(layers_in_bands(net, weights, x, rows), apply_layers_oracle(net, weights, x))

    @pytest.mark.parametrize("shape", [(1, 1, 4, 4), (2, 2, 8, 4)])
    def test_small_mfrnet_styles(self, shape):
        self.check(build_mfrnet_style(*shape), 24, 40)

    @pytest.mark.parametrize("shape", [(4, 4, 32, 16), (1, 1, 4, 4), (2, 2, 8, 4), (3, 5, 8, 16), (5, 1, 4, 4)],
                             ids=lambda shape: "-".join(map(str, shape)))
    def test_default_net_concatenates_nothing(self, monkeypatch, shape):
        net = build_mfrnet_style(*shape)
        assert all(self.views(net).values())

        def refuse(*args, **kwargs):
            raise AssertionError("np.concatenate ran")

        weights = random_weights(net, seed=34)
        x = self.float_input(20, 24)
        monkeypatch.setattr(np, "concatenate", refuse)
        apply_layers(net, weights, x)

    def test_block_buffers_share_storage(self):
        net = build_mfrnet_style(2, 4, 32, 16)
        steps = dict(zip((l.id for l in net.layers), net.storage_plan.steps))
        slots = net.storage_plan.slots
        block = {slots[c][0] for c in ("b0_cat1", "b0_cat2", "b0_cat3", "b0_fuse_cat")}
        assert len(block) == 1
        assert slots["b0_fuse_cat"][1:] == (0, 96)
        assert steps["b0_conv0"].act is not None and steps["b0_act0"].out is None
        assert steps["b0_out"].inplace

    def test_reuse_concats_share_one_buffer(self):
        net = build_mfrnet_style()
        slots = net.storage_plan.slots
        # laid out [b2_out | b1_out | b0_out]
        assert slots["b3_reuse"][1:] == (0, 96)
        reuse = slots["b3_reuse"][0]
        assert slots["b2_reuse"] == (reuse, 32, 64)
        assert slots["b1_reuse"] == (reuse, 64, 32)
        assert slots["b0_fuse"] == (reuse, 64, 32)
        assert slots["b2_fuse"] == (reuse, 0, 32)

    def test_input_concatenated_with_itself_is_copied(self):
        net = json_net([
            {"id": "cat", "op": "concat", "inputs": ["input", "input"]},
            conv_entry("out", "cat", 2, 1),
        ], "out")
        assert self.views(net) == {"cat": False}
        self.check(net, 12, 17)

    def test_same_inputs_in_two_orders(self):
        net = json_net([
            conv_entry("a", "input", 1, 2),
            conv_entry("b", "input", 1, 3),
            {"id": "ab", "op": "concat", "inputs": ["a", "b"]},
            {"id": "ba", "op": "concat", "inputs": ["b", "a"]},
            conv_entry("c1", "ab", 5, 2),
            conv_entry("c2", "ba", 5, 2),
            {"id": "s", "op": "add", "inputs": ["c1", "c2"]},
            conv_entry("out", "s", 2, 1, kernel=1),
        ], "out")
        assert self.views(net) == {"ab": True, "ba": False}
        self.check(net, 12, 17)

    def test_concat_with_network_input_is_copied(self):
        net = json_net([
            conv_entry("a", "input", 1, 2),
            {"id": "cat", "op": "concat", "inputs": ["a", "input"]},
            conv_entry("out", "cat", 3, 1),
        ], "out")
        assert self.views(net) == {"cat": False}
        self.check(net, 12, 17)

    def test_range_overlapping_a_live_value_is_copied(self):
        # [a, b] is placed first; [a, c] would put c over b while b is live
        net = json_net([
            conv_entry("a", "input", 1, 2),
            conv_entry("b", "input", 1, 3),
            conv_entry("c", "input", 1, 2),
            {"id": "ab", "op": "concat", "inputs": ["a", "b"]},
            {"id": "ac", "op": "concat", "inputs": ["a", "c"]},
            conv_entry("d", "ab", 5, 1),
            conv_entry("e", "ac", 4, 1),
            {"id": "out", "op": "add", "inputs": ["d", "e"]},
        ], "out")
        assert self.views(net) == {"ab": True, "ac": False}
        self.check(net, 12, 17)

    @pytest.mark.parametrize("kind, alpha, fused", [
        ("leaky_relu", 0.0, False),
        ("leaky_relu", 0.2, True),
        ("leaky_relu", 1.0, True),
        ("leaky_relu", 1.5, False),
        ("relu", 0.2, True),
    ])
    def test_activation_in_conv_epilogue(self, kind, alpha, fused):
        net = json_net([
            conv_entry("c", "input", 1, 4),
            {"id": "a", "op": "activation", "inputs": ["c"], "act": kind, "alpha": alpha},
            conv_entry("d", "a", 4, 4),
            {"id": "s", "op": "add", "inputs": ["d", "a"]},
            conv_entry("out", "s", 4, 1),
        ], "out")
        steps = net.storage_plan.steps
        assert (steps[0].act is not None) == fused
        assert steps[3].inplace
        self.check(net, 12, 17)

    def test_relu_on_an_add_of_a_value_read_again(self):
        # c is read by d as well as by the add, so the add copies it before
        # it accumulates, and the ReLU reads an add, not a conv, so it runs
        # on its own rows
        net = json_net([
            conv_entry("c", "input", 1, 4),
            conv_entry("d", "c", 4, 4),
            {"id": "s", "op": "add", "inputs": ["c", "d"]},
            {"id": "a", "op": "activation", "inputs": ["s"], "act": "relu"},
            conv_entry("out", "a", 4, 1),
        ], "out")
        steps = net.storage_plan.steps
        assert not steps[2].inplace
        assert steps[3].out == "a" and steps[1].act is None
        self.check(net, 12, 17)

    def test_conv_read_by_activation_and_concat(self):
        net = json_net([
            conv_entry("c", "input", 1, 4),
            {"id": "a", "op": "activation", "inputs": ["c"], "act": "leaky_relu", "alpha": 0.2},
            {"id": "cat", "op": "concat", "inputs": ["c", "a"]},
            conv_entry("out", "cat", 8, 1),
        ], "out")
        assert net.storage_plan.steps[0].act is None
        assert self.views(net) == {"cat": True}
        self.check(net, 12, 17)

    def test_peak_memory_with_small_column_buffer(self, monkeypatch):
        # with the kernels' BAND_BYTES cut to the widest conv's 2-row im2col
        # budget (the bands and the convs' chunks of GEMM output follow it)
        # the peak stays under what layer-at-a-time evaluation with concats
        # as slices holds: one block's buffer and the reuse buffer, 192
        # whole-plane channels, plus one budget for a chunk's GEMM output and
        # one more for its padded slab and the band temporaries. The band
        # pass peaked at 4.2 MB with im2col columns; copying every concat, at
        # 7.0 MB
        net = build_mfrnet_style()
        h, w = 64, 96
        budget = 2 * 720 * w * 4
        monkeypatch.setattr(bands, "BAND_BYTES", budget)
        weights = random_weights(net, seed=24)
        plane = np.random.default_rng(25).integers(0, 1024, (h, w)).astype(np.uint16)
        bound = 2 * 96 * h * w * 4 + 2 * budget
        tracemalloc.start()
        try:
            apply_network(net, weights, plane, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak} above {bound} bytes"

    def test_rings_keep_rows_not_planes(self):
        # a store's ring holds the rows its readers still read, which depend
        # on the plane's width and the net, not on its height: a 1080p plane
        # and one four times as tall plan the same rings, each 96-channel
        # block buffer a few rows. On a narrow plane, where a band holds
        # many rows, no 96-channel ring is a quarter of the plane
        net = build_mfrnet_style()

        def rings(h, w=1920):
            sched = postproc_cnn._schedule(net, (1, h, w), np.float32)
            return [r for c, r in zip(net.storage_plan.stores, sched.rows) if c == 96]

        assert rings(1080) == rings(4320)
        assert max(rings(1080)) <= 10
        assert max(rings(1080)) <= 9
        assert max(rings(64, 96)) <= 16

    def test_drain_runs_within_the_steady_state_rings(self):
        # each store's ring is as tall as the most rows it spans before the
        # band that brings the input's last rows: the drain after it spans
        # no more. Both sides come from the schedule's work (ring_spans),
        # and no band spans more than its ring
        net = build_mfrnet_style()
        h = 4320
        sched = postproc_cnn._schedule(net, (1, h, 1920), np.float32)
        last = next(b for b, band in enumerate(sched.bands) if (-1, h) in ((i, r1) for i, _, r1 in band.work))
        spans = ring_spans(net, sched)
        assert all(max(col) <= rows for col, rows in zip(zip(*spans), sched.rows))
        assert sched.rows == tuple(max(col) for col in zip(*spans[:last]))
        assert last < len(sched.bands) - 2

    def test_input_ring_keeps_only_what_the_head_conv_reads(self):
        # apply_network adds the global residual from the plane itself, so the
        # input's ring holds no rows for it
        net = build_mfrnet_style()
        store = net.storage_plan.slots[net.input_id][0]
        for h, w in ((1080, 1920), (108, 192)):
            assert postproc_cnn._schedule(net, (1, h, w), np.float32).rows[store] <= 4

    @pytest.mark.parametrize("make", [build_mfrnet_style, five_by_five_net], ids=["default", "5x5"])
    @pytest.mark.parametrize("w", [1920, 192, 96, 40])
    def test_rings_are_the_closed_form(self, make, w):
        # in bands of b rows (1, 2, 5 and 12 for the default net) each ring
        # is the formula over the graph's lags (see _schedule), and exactly
        # the most rows its store spans in the schedule's work
        net = make()
        b = postproc_cnn._band_rows(net, (1, 1, w), np.float32)
        assert make is five_by_five_net or b == {1920: 1, 192: 2, 96: 5, 40: 12}[w]
        h = 40 * b
        sched = postproc_cnn._schedule(net, (1, h, w), np.float32)
        assert sched.rows == ring_formula(net, h, b) == tuple(max(col) for col in zip(*ring_spans(net, sched)))

    @pytest.mark.parametrize("h, w", [(1, 5), (9, 7), (8, 4096)])
    def test_band_count_is_the_closed_form(self, h, w):
        # ceil((H + the output's lag) / b) bands, the last one yielding the
        # output's last row; the default net's output lags its input by 18
        net = build_mfrnet_style()
        assert lags(net)[net.output_id] == 18
        b = postproc_cnn._band_rows(net, (1, h, w), np.float32)
        bands = postproc_cnn._schedule(net, (1, h, w), np.float32).bands
        assert len(bands) == -(-(h + 18) // b) == len(list(bands))
        assert bands[-1].rows[1] == h and [r for band in bands for r in range(*band.rows)] == list(range(h))

    def test_a_plan_keeps_no_band(self):
        # a fresh plan of a 2048x4096 plane is O(layers) numbers; simulating
        # the pass and keeping each band's work took 6.0 MiB
        net = build_mfrnet_style()
        tracemalloc.start()
        try:
            sched = postproc_cnn._schedule(net, (1, 2048, 4096), np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sched.bands) == 2066 and peak < 64 << 10, f"peak {peak} bytes"


class TestInPlaceLeakyRelu:
    F32 = np.finfo(np.float32)
    SPECIAL = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, F32.max, -F32.max,
         F32.smallest_subnormal, -F32.smallest_subnormal, 3 * F32.smallest_subnormal,
         -F32.tiny, F32.tiny, 1.0, -1.0],
        dtype=np.float32,
    )

    @staticmethod
    def where(v, alpha):
        return np.where(v >= 0, v, np.asarray(alpha, v.dtype) * v)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
    def test_equals_where_bitwise(self, alpha):
        v = np.concatenate([self.SPECIAL, np.random.default_rng(37).normal(0, 10, 200).astype(np.float32)])
        want = self.where(v, alpha)
        got = v.copy()
        _activate_in_place(got, act_layer("a", "c", alpha=alpha))
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        got, scratch = v.copy(), np.full_like(v, np.nan)  # products in a spent buffer, as _conv gives it
        _activate_in_place(got, act_layer("a", "c", alpha=alpha), scratch)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_alpha_zero_is_not_run_in_place(self):
        # max(v, 0*v) turns +inf into NaN (0 * inf), which np.where keeps as
        # +inf; every other special value agrees
        v = self.SPECIAL.copy()
        with np.errstate(invalid="ignore"):
            want = self.where(v, 0.0)
            _activate_in_place(v, act_layer("a", "c", alpha=0.0))
        differ = v.view(np.uint32) != want.view(np.uint32)
        assert list(self.SPECIAL[differ]) == [np.inf]
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 1, 3), act_layer("a", "c", alpha=0.0)),
            output_id="a",
            residual_global=False,
        )
        assert net.storage_plan.steps[0].act is None


class TestTiledApply:
    """apply_network over bands of rows, with their height patched."""

    def setup_method(self):
        self.net = build_mfrnet_style(1, 1, 4, 4)
        self.weights = random_weights(self.net, seed=10)
        rng = np.random.default_rng(11)
        self.plane = rng.integers(0, 256, (64, 64)).astype(np.uint8)

    def test_single_tile_equals_apply_network(self):
        whole = apply_network(self.net, self.weights, self.plane, 8)
        got, runs = apply_in_bands(self.net, self.weights, self.plane, 8, rows=64)
        assert runs == [(0, 64)]
        assert np.array_equal(whole, got)

    def test_small_tiles_bit_exact_with_sufficient_overlap(self):
        # the rows a band's kernels overlap above it stay in the rings, so
        # bands need no margin and no row is computed twice
        whole = apply_network(self.net, self.weights, self.plane, 8)
        for rows in (32, 24, 16):
            got, runs = apply_in_bands(self.net, self.weights, self.plane, 8, rows=rows)
            assert len(runs) == -(-64 // rows) and max(r1 - r0 for r0, r1 in runs) <= rows
            assert np.array_equal(whole, got), f"rows={rows}"

    def test_bands_are_balanced(self):
        # at most 24 of 64 rows: three bands of 21, 21 and 22 rows, not 24,
        # 24 and a thinner 16
        _, runs = apply_in_bands(self.net, self.weights, self.plane, 8, rows=24)
        assert runs == [(0, 21), (21, 42), (42, 64)]

    def test_working_set_at_paper_sizes(self):
        # the default net's planned working set (planned_bytes): at
        # 4096x2048 under 512 MB, where the whole-plane evaluation needed
        # 6.4 GB (four strips of 1805 MB); at 1080p under 64 MB, against
        # 1.6 GB whole. With rings sized by the drain it planned 65.6 and
        # 31.1 MiB
        net = build_mfrnet_style()
        assert postproc_cnn.planned_bytes(net, (2048, 4096)) < 512 << 20
        assert postproc_cnn.planned_bytes(net, (1080, 1920)) < 64 << 20
        assert postproc_cnn.planned_bytes(net, (2048, 4096)) < 58 << 20
        assert postproc_cnn.planned_bytes(net, (1080, 1920)) < 28 << 20

    def test_peak_memory_bounded_by_the_band(self):
        # 4096 wide, 32 and then 128 rows tall: the rings are the same, so
        # the peak grows by the whole-plane terms only (the integer output),
        # within 16 B/px. A whole-plane evaluation grows by every live
        # channel, 4 B/px each
        net = build_mfrnet_style(2, 2, 8, 4)
        weights = random_weights(net, seed=26)
        rng = np.random.default_rng(27)

        def peak(h):
            plane = rng.integers(0, 1024, (h, 4096)).astype(np.uint16)
            apply_network(net, weights, plane, 10)  # plans this size once
            tracemalloc.start()
            try:
                apply_network(net, weights, plane, 10)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(128) - peak(32) <= 16 * 96 * 4096


class TestLayerContract:
    """Every value is as large as the plane, so NetworkSpec.validate rejects
    a conv without a positive odd kernel, and an activation that is not
    relu or leaky_relu, naming the layer. A conv has no stride or pad of
    its own: from_json rejects any but stride 1 and pad (kernel - 1) / 2."""

    BAD_CONVS = pytest.mark.parametrize(
        "kernel, stride, pad", [(3, 2, 1), (3, 1, 0), (3, 1, 2), (2, 1, 0), (-1, 1, -1)]
    )

    @staticmethod
    def conv_error(kernel, stride, pad):
        return rf"^conv layer 'c': kernel {kernel}, stride {stride}, pad {pad}; a conv keeps the plane size"

    @BAD_CONVS
    def test_from_json_names_the_layer(self, kernel, stride, pad):
        second = conv_entry("c", "h", 1, 1) | {"kernel": kernel, "stride": stride, "pad": pad}
        doc = {"layers": [conv_entry("h", "input", 1, 1), second], "output_id": "c"}
        with pytest.raises(ShapeError, match=self.conv_error(kernel, stride, pad)):
            NetworkSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("kernel, stride, pad", [(2, 1, 0), (-1, 1, -1)])
    def test_apply_network_names_the_layer(self, kernel, stride, pad):
        conv = LayerSpec("c", CONV2D, ("input",), in_ch=1, out_ch=1, kernel=kernel)
        assert (conv.stride, conv.pad) == (stride, pad)
        net = NetworkSpec(layers=(conv,), output_id="c")
        k = max(kernel, 1)
        weights = {"c": (np.ones((1, 1, k, k), np.float32), np.zeros(1, np.float32))}
        with pytest.raises(ShapeError, match=self.conv_error(kernel, stride, pad)):
            apply_network(net, weights, np.zeros((64, 64), np.uint8), 8)

    def test_json_3x3_conv_without_pad(self):
        # a conv has no pad of its own: an entry without one is same-size,
        # and to_json writes neither stride nor pad, so they are not part of
        # a network's hash
        doc = {"layers": [{k: v for k, v in conv_entry("c", "input", 1, 1).items() if k != "pad"}], "output_id": "c"}
        net = NetworkSpec.from_json(json.dumps(doc))
        assert (net.layers[0].stride, net.layers[0].pad) == (1, 1)
        assert all(not {"stride", "pad"} & entry.keys() for entry in json.loads(net.to_json())["layers"])
        assert NetworkSpec.from_json(net.to_json()) == net

    def test_unknown_activation_kind_from_json(self):
        # it used to run as a leaky ReLU with alpha 0.2
        tanh = {"id": "a", "op": "activation", "inputs": ["c"], "act": "tanh"}
        doc = {"layers": [conv_entry("c", "input", 1, 1), tanh], "output_id": "a"}
        with pytest.raises(ShapeError, match=r"^activation 'a': unknown kind 'tanh', not relu or leaky_relu"):
            NetworkSpec.from_json(json.dumps(doc))

    def test_unknown_activation_kind_built_directly(self):
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 1, 1), act_layer("a", "c", "tanh")),
            output_id="a",
        )
        with pytest.raises(ShapeError, match=r"^activation 'a': unknown kind 'tanh'"):
            net.validate()
        weights = {"c": (np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        with pytest.raises(ShapeError, match=r"^activation 'a': unknown kind 'tanh'"):
            apply_network(net, weights, np.zeros((4, 4), np.uint8), 8)


class TestGemmBanding:
    """GEMM accumulation order may depend on the matrix shape, so bands of
    rows are checked on the default network's real shapes (K up to 720):
    each GEMM covers one output row, so its shape must not depend on the
    bands."""

    def setup_method(self):
        self.net = build_mfrnet_style()
        self.weights = random_weights(self.net, seed=21)
        rng = np.random.default_rng(22)
        self.plane = rng.integers(0, 1024, (72, 100)).astype(np.uint16)

    def test_default_net_tiled_equals_untiled(self):
        whole = apply_network(self.net, self.weights, self.plane, 10)
        for rows in (16, 37, 64, 100):
            got, runs = apply_in_bands(self.net, self.weights, self.plane, 10, rows=rows)
            assert len(runs) == -(-72 // rows)
            assert np.array_equal(whole, got), f"rows={rows}"

    def test_default_net_tiles_equal_whole_before_rounding(self):
        # rounding to 10 bits hides a last-ulp difference, so the float
        # output of the bands is compared with the whole-plane oracle's, on
        # this plane and on a taller one split into more bands
        tall = np.random.default_rng(29).integers(0, 1024, (100, 144)).astype(np.uint16)
        for plane in (self.plane, tall):
            x = (plane.astype(np.float32) / np.float32(1023))[None]
            whole = apply_layers_oracle(self.net, self.weights, x)
            for rows in (16, 37, 64, 100):
                assert_bits_equal(layers_in_bands(self.net, self.weights, x, rows), whole)

    @pytest.mark.parametrize("rows, width", [(1, 100), (7, 100), (4, 41), (3, 100)])
    def test_row_bands_equal_one_band(self, monkeypatch, rows, width):
        # the default net's widest conv: K = 80*3*3 = 720, 16 outputs, in
        # chunks of at most `rows` rows (a budget of that many rows' GEMM
        # output, 3*16 x (W + 2) values each) against one chunk. Every GEMM
        # is (48, 240) @ (240, W + 2) whatever the chunk, so OpenBLAS sums it
        # the same way, also where it falls under the small-matrix cutoff
        # (M*N*K <= 1e6), as at 41 wide, where the 4-row budget gives chunks
        # of 3-4 rows
        rng = np.random.default_rng(23)
        x = rng.normal(size=(80, 30, width)).astype(np.float32)
        w = rng.normal(0, 0.05, (16, 80, 3, 3)).astype(np.float32)
        b = rng.normal(0, 0.05, 16).astype(np.float32)
        one_band = conv2d(x, w, b)
        monkeypatch.setattr(bands, "BAND_BYTES", rows * 3 * 16 * (width + 2) * 4)
        assert np.array_equal(conv2d(x, w, b), one_band)


class TestShortRuns:
    """The band pass runs a conv a few rows at a time. Each GEMM covers one
    output row, so a short run's GEMMs have the whole plane's shapes; that
    holds below OpenBLAS's small-matrix cutoff (M*N*K <= 1e6), where the
    sums depend on the column count and on a column's place in the
    matrix's tail, as above it. The run must give the whole-plane
    conv2d's bits."""

    @pytest.mark.parametrize("out_ch, in_ch, kernel, h, w", [
        (1, 4, 3, 10, 37),  # one-channel: a (3, 12) GEMM
        (1, 4, 1, 10, 37),  # one-channel 1x1: the zero second weight row
        (2, 16, 3, 9, 45),
        (4, 4, 1, 10, 37),  # 1x1
        (32, 1, 3, 64, 96),  # the default head
        (16, 32, 3, 40, 100),
        (32, 32, 1, 40, 100),  # 1x1
        # the default net's head, widest dense conv and tail at the widths
        # the benchmark and the paper run
        (16, 80, 3, 7, 192),
        (32, 1, 3, 7, 1920),
        (16, 80, 3, 7, 1920),
        (1, 32, 3, 7, 1920),
        (16, 80, 3, 7, 4096),
    ])
    def test_runs_equal_whole_plane(self, out_ch, in_ch, kernel, h, w):
        rng = np.random.default_rng(40)
        weights = rng.normal(0, 0.3, (out_ch, in_ch, kernel, kernel)).astype(np.float32)
        bias = rng.normal(0, 0.3, out_ch).astype(np.float32)
        x = rng.random((in_ch, h, w)).astype(np.float32)
        whole = conv2d(x, weights, bias)
        k = postproc_cnn._kernel(weights, bias, np.float32)
        for rows in (1, 2, 3, 5):
            out = np.empty_like(whole)
            for r0 in range(0, h, rows):
                postproc_cnn._conv(k, x, h, out[:, r0 : r0 + rows], r0)
            assert_bits_equal(out, whole)


class TestWindowFill:
    """A conv run copies its input rows into a padded slab, stored row by
    row, in one copy unless they run across a ring's end; each output row's
    GEMM reads a view of its window of slab rows, and each chunk of rows
    adds its taps in one reduce. The output must be the row-window oracle's
    bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_conv2d_equals_slice_oracle(self, monkeypatch, kernel, dtype):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 17, 23)).astype(dtype)
        for out_ch in (1, 4):
            w = rng.normal(0, 0.3, (out_ch, 3, kernel, kernel)).astype(np.float32)
            b = rng.normal(0, 0.3, out_ch).astype(np.float32)
            assert_bits_equal(conv2d(x, w, b), conv2d_row_window_oracle(x, w, b))
            with monkeypatch.context() as m:
                # chunks of at most 3 output rows of GEMM output
                m.setattr(bands, "BAND_BYTES", 3 * max(2, kernel * out_ch) * (23 + kernel - 1) * x.itemsize)
                assert_bits_equal(conv2d(x, w, b), conv2d_row_window_oracle(x, w, b))

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_taps_sum_in_dj_order(self, kernel):
        # on a plane of ones, with weights only in the middle kernel row,
        # column tap dj of an interior output is exactly its weight v[dj].
        # 2^25 - 2^25 + 1 + ... is exact only summed from dj = 0 up: any other
        # order loses the ones to rounding
        v = np.array([1.0] if kernel == 1 else [2.0**25, -(2.0**25)] + [1.0] * (kernel - 2), np.float32)
        w = np.zeros((1, 1, kernel, kernel), np.float32)
        w[0, 0, kernel // 2] = v
        in_order = np.float32(0)
        for tap in v:
            in_order += tap
        assert in_order == max(1, kernel - 2)
        if kernel > 1:
            assert v[-1] + v[1] + v[0] != in_order and v[0] + (v[1] + v[2]) != in_order
        out = conv2d(np.ones((1, 6, 13), np.float32), w, np.zeros(1, np.float32))
        p = kernel // 2
        assert np.all(out[0, :, p : 13 - p] == in_order)

    @pytest.mark.parametrize("out_ch, in_ch, kernel, rows", [
        (16, 32, 3, 4),
        (8, 4, 5, 4),  # a 5x5 slab across the ring's end
        (32, 32, 1, 4),  # 1x1: a copy of the run's rows multiplied as they are
        (32, 32, 1, 12),
    ])
    def test_run_on_rows_across_a_ring_end(self, out_ch, in_ch, kernel, rows):
        # the band pass's conv runs read their input from a ring that holds
        # row r at ring row r % n; here the run's rows start two ring rows
        # before its end, and the rows nobody reads are NaN
        rng = np.random.default_rng(44)
        h, w, pad = 64, 100, kernel // 2
        weights = rng.normal(0, 0.3, (out_ch, in_ch, kernel, kernel)).astype(np.float32)
        bias = rng.normal(0, 0.3, out_ch).astype(np.float32)
        x = rng.random((in_ch, h, w)).astype(np.float32)
        n = rows + 2 * pad + 1
        first = 2 * n - 2
        r0 = first + pad
        ring = np.full((in_ch, n, w), np.nan, np.float32)
        for r in range(first, r0 + rows + pad):
            ring[:, r % n] = x[:, r]
        out = np.empty((out_ch, rows, w), np.float32)
        postproc_cnn._conv(postproc_cnn._kernel(weights, bias, np.float32), ring, h, out, r0)
        assert_bits_equal(out, conv2d(x, weights, bias)[:, r0 : r0 + rows])


class TestGolden:
    """The default net's float output on one fixed plane, by the ARITHMETIC
    and the OpenBLAS core the resume key takes in. A change to the engine
    that moves a bit fails here until it states a new ARITHMETIC, so that
    old post-processed records are rerun. The Haswell hash is checked in
    TestBlasKernels' child process."""

    GOLDEN = {  # ARITHMETIC -> OpenBLAS core -> sha256 of the float32 output before the residual and rounding
        "row-window gemm, dj-ordered taps 1": {
            "SkylakeX": "aaa002faca35a0b5ddb886d97d2af150558a034eaf1ef2268fb6a59dd6ee8ccb",
            "Haswell": "049391bf0f5b8cf1873f55f80f8b4bc6b26ae9e93dd4bcb020b9860967417cd8",
        },
    }

    def test_default_net_output_is_pinned(self):
        from rqpipe.pipeline.runner import _openblas

        pinned = self.GOLDEN[postproc_cnn.ARITHMETIC]
        core = (_openblas() or [None] * 3)[2]
        if core not in pinned:
            pytest.skip(f"no golden output for the OpenBLAS core {core}")
        net = build_mfrnet_style()
        plane = np.random.default_rng(0).integers(0, 1024, (24, 40))
        x = (plane.astype(np.float32) / np.float32(1023))[None]
        y = apply_layers(net, random_weights(net, seed=0), x)
        assert hashlib.sha256(y.tobytes()).hexdigest() == pinned[core]


def cpu_flags():
    try:
        return Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return []


class TestBlasKernels:
    """The bit-exactness classes under another OpenBLAS kernel set, in a
    child process, since OpenBLAS picks its kernels as it loads. Under
    the Haswell kernels the last columns of a GEMM sum in another order
    than the same columns inside a wider GEMM, so every band and
    schedule invariance failed there while a GEMM's width followed the
    band; with one GEMM per output row they hold by construction."""

    @pytest.mark.skipif("avx2" not in cpu_flags(), reason="OpenBLAS's Haswell kernels need AVX2")
    def test_bit_exactness_classes_under_haswell_kernels(self):
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        probe = "from rqpipe.pipeline.runner import _openblas; print((_openblas() or [None] * 3)[2])"
        core = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        if core.stdout.strip() != "Haswell":
            pytest.skip(f"numpy's BLAS did not load the Haswell kernels: {core.stdout.strip()}")
        classes = " or ".join(("TestGemmBanding", "TestShortRuns", "TestWindowFill", "TestStoragePlan", "TestGolden"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", classes],
            cwd=root, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout[-4000:]


class TestThreads:
    def test_worker_threads_share_one_net(self):
        # the runner's worker threads share a method's NetworkSpec: each
        # plans its plane size from the shared storage plan and runs its
        # band pass at the same time as the others, with a short switch
        # interval to interleave them often. Every output must be the one a
        # single thread gives, bit for bit
        weights = random_weights(build_mfrnet_style(), seed=45)
        rng = np.random.default_rng(46)
        planes = [rng.integers(0, 1024, shape).astype(np.uint16) for shape in ((108, 192), (54, 96)) * 2]
        alone = build_mfrnet_style()
        want = [apply_network(alone, weights, plane, 10) for plane in planes]
        net = build_mfrnet_style()  # nothing planned yet
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(planes)) as pool:
                futures = [pool.submit(apply_network, net, weights, plane, 10) for plane in planes]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestBuildMfrnetStyle:
    def test_default_has_four_blocks(self):
        net = build_mfrnet_style(4, 4, 32, 16)
        assert net.meta["blocks"] == 4
        fuse_layers = [l for l in net.layers if l.id.endswith("_fuse")]
        assert len(fuse_layers) == 4
        net.validate()

    @pytest.mark.parametrize("args, sha256", [
        ((), "844392b274eae4d860d444e55a1a0667551f0aab54f900b6d54105cb70b642de"),
        ((1, 1, 4, 4), "ceac8945fd414115db18af97b694abd699256a405677a81ea7c76ba938bb773d"),
    ])
    def test_network_hash_is_pinned(self, args, sha256):
        # every post-processed job's config_sha256 includes this hash, so a
        # change to the builder or to to_json would redo every such job on resume
        assert build_mfrnet_style(*args).sha256 == sha256

    def test_minimal_instance_validates(self):
        net = build_mfrnet_style(1, 1, 1, 1)
        channels = net.validate()
        assert channels[net.output_id] == 1

    def test_channel_table_2_2_8_4(self):
        # hand-derived: head lifts to 8; dense convs add growth 4 each;
        # fusion returns to 8; block 1 reuses block 0's output
        net = build_mfrnet_style(2, 2, 8, 4)
        channels = net.validate()
        expected = {
            "head": 8,
            "head_act": 8,
            "b0_conv0": 4,
            "b0_act0": 4,
            "b0_cat1": 12,
            "b0_conv1": 4,
            "b0_act1": 4,
            "b0_fuse_cat": 16,
            "b0_fuse": 8,
            "b0_out": 8,
            "b1_reuse": 8,
            "b1_entry": 8,
            "b1_conv0": 4,
            "b1_act0": 4,
            "b1_cat1": 12,
            "b1_conv1": 4,
            "b1_act1": 4,
            "b1_fuse_cat": 16,
            "b1_fuse": 8,
            "b1_out": 8,
            "tail": 1,
        }
        for key, value in expected.items():
            assert channels[key] == value, key

    def test_feature_reuse_grows_with_blocks(self):
        net = build_mfrnet_style(3, 1, 8, 4)
        channels = net.validate()
        assert channels["b2_reuse"] == 16  # outputs of blocks 0 and 1 concatenated

    def test_json_roundtrip(self):
        for net in (build_mfrnet_style(2, 2, 8, 4), build_mfrnet_style()):
            back = NetworkSpec.from_json(net.to_json())
            assert back == net and back.sha256 == net.sha256

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            build_mfrnet_style(0, 1, 8, 4)


class TestReceptiveField:
    def test_dag_radius_matches_bruteforce_measurement(self):
        # conv5 (r2) -> leaky -> conv3 (r1): radius 3
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 2, 5),
                act_layer("a1", "c1"),
                conv_layer("c2", "a1", 2, 1, 3),
            ),
            output_id="c2",
            residual_global=False,
        )
        weights = random_weights(net, seed=12, scale=0.5)
        size = 15
        center = size // 2
        x = np.zeros((1, size, size))
        base = apply_layers(net, weights, x)
        x2 = x.copy()
        x2[0, center, center] = 1.0
        diff = np.abs(apply_layers(net, weights, x2) - base)[0]
        affected = np.argwhere(diff > 1e-12)
        radius = np.abs(affected - center).max()
        assert radius == 3


class TestWeightFiles:
    def test_roundtrip(self, tmp_path):
        net = build_mfrnet_style(1, 1, 4, 4)
        weights = random_weights(net, seed=13)
        path = tmp_path / "w.rqpw"
        save_weights(path, weights)
        back = load_weights(path)
        assert set(back) == set(weights)
        for key in weights:
            assert np.array_equal(back[key][0], weights[key][0])
            assert np.array_equal(back[key][1], weights[key][1])

    def test_repeated_layer_id(self, tmp_path):
        # save_weights takes a dict, so the records are packed by hand
        def record(weight):
            return struct.pack("<H", 1) + b"c" + struct.pack("<IIIIff", 1, 1, 1, 1, weight, 0.0)

        path = tmp_path / "w.rqpw"
        path.write_bytes(b"RQPW1" + struct.pack("<I", 1) + record(1.0))
        assert load_weights(path)["c"][0].item() == 1.0
        path.write_bytes(b"RQPW1" + struct.pack("<I", 2) + record(1.0) + record(2.0))
        with pytest.raises(WeightFormatError, match=r"w\.rqpw: layer id 'c' appears twice"):
            load_weights(path)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.rqpw"
        path.write_bytes(b"NOPE!" + bytes(16))
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path)

    def test_trailing_bytes_forbidden(self, tmp_path):
        net = identity_net()
        weights = {"c": (np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        path = tmp_path / "w.rqpw"
        save_weights(path, weights)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(WeightFormatError, match="trailing"):
            load_weights(path)

    def test_truncated_file(self, tmp_path):
        net = identity_net()
        weights = {"c": (np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        path = tmp_path / "w.rqpw"
        save_weights(path, weights)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_shape_mismatch_against_net(self, tmp_path):
        net = identity_net()
        path = tmp_path / "w.rqpw"
        save_weights(path, {"c": (np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))})
        with pytest.raises(WeightFormatError, match="shape"):
            apply_network(net, load_weights(path), np.zeros((4, 4), np.uint8), 8)


class TestMalformedJson:
    @staticmethod
    def doc(**change):
        # a good first layer, then the second with `change` applied (None deletes a key)
        second = conv_entry("c", "h", 1, 1) | change
        second = {k: v for k, v in second.items() if v is not None}
        return json.dumps({"layers": [conv_entry("h", "input", 1, 1), second], "output_id": "c"})

    def test_unknown_key_names_layer_and_key(self):
        with pytest.raises(ShapeError, match=r"layer 1: unknown key 'kernal'"):
            NetworkSpec.from_json(self.doc(kernal=3))

    @pytest.mark.parametrize("key", ["id", "op"])
    def test_missing_key_names_layer_and_key(self, key):
        with pytest.raises(ShapeError, match=rf"layer 1: missing key '{key}'"):
            NetworkSpec.from_json(self.doc(**{key: None}))

    def test_entry_that_is_not_an_object(self):
        with pytest.raises(ShapeError, match="layer 0"):
            NetworkSpec.from_json(json.dumps({"layers": ["conv"], "output_id": "c"}))

    def test_text_that_is_not_json(self):
        with pytest.raises(ShapeError, match="does not parse"):
            NetworkSpec.from_json('{"layers": [')

    def test_missing_layer_list(self):
        with pytest.raises(ShapeError, match="layers"):
            NetworkSpec.from_json(json.dumps({"output_id": "c"}))

    @pytest.mark.parametrize("key, value, want", [
        ("kernel", "3", "an integer"),
        ("kernel", 3.0, "an integer"),
        ("pad", True, "an integer"),
        ("alpha", "0.2", "a number"),
        ("alpha", False, "a number"),
        ("act", 1, "a string"),
        ("id", 7, "a string"),
        ("inputs", "h", "a list of strings"),
        ("inputs", ["h", 1], "a list of strings"),
    ])
    def test_value_of_the_wrong_type_names_layer_and_key(self, key, value, want):
        with pytest.raises(ShapeError, match=rf"layer 1: key '{key}' must be {want}, got "):
            NetworkSpec.from_json(self.doc(**{key: value}))

    @pytest.mark.parametrize("key, value, want", [
        ("residual_global", "false", "true or false"),
        ("residual_global", 0, "true or false"),
        ("output_id", ["c"], "a string"),
        ("input_id", 1, "a string"),
        ("meta", ["note"], "an object"),
    ])
    def test_top_level_value_of_the_wrong_type_names_the_key(self, key, value, want):
        doc = json.loads(self.doc())
        doc[key] = value
        with pytest.raises(ShapeError, match=rf"^key '{key}' must be {want}, got "):
            NetworkSpec.from_json(json.dumps(doc))

    def test_unknown_top_level_key(self):
        doc = json.loads(self.doc())
        doc["residual"] = False
        with pytest.raises(ShapeError, match=r"unknown top-level key 'residual'"):
            NetworkSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("layer, key", [
        ({"op": "conv2d", "in_ch": 1, "out_ch": 1, "kernel": 1, "pad": 0, "act": "relu", "alpha": 5.0}, "act"),
        ({"op": "activation", "kernel": 7, "pad": 3, "in_ch": 9}, "kernel"),
        ({"op": "add", "alpha": 0.5}, "alpha"),
        ({"op": "concat", "out_ch": 2}, "out_ch"),
    ], ids=["conv-act", "activation-kernel", "add-alpha", "concat-out_ch"])
    def test_key_its_op_does_not_read(self, layer, key):
        # such a key used to load and be ignored: a conv's "act" ran no
        # activation, and to_json dropped it
        doc = json.loads(self.doc())
        doc["layers"].append({"id": "x", "inputs": ["c"], **layer})
        doc["output_id"] = "x"
        with pytest.raises(ShapeError, match=rf"^layer 'x': key '{key}' is not read by a {layer['op']} layer$"):
            NetworkSpec.from_json(json.dumps(doc))

    def test_int_accepted_as_a_float(self):
        doc = json.loads(self.doc())
        doc["layers"].append({"id": "a", "op": "activation", "inputs": ["c"], "alpha": 1})
        doc["output_id"] = "a"
        net = NetworkSpec.from_json(json.dumps(doc))
        assert net.layers[-1].alpha == 1.0


class TestGraphValidation:
    def test_channel_mismatch_names_layer(self):
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 4, 3),
                conv_layer("c2", "c1", 8, 1, 3),  # wrong: c1 yields 4 channels
            ),
            output_id="c2",
        )
        with pytest.raises(ShapeError, match="c2"):
            net.validate()

    def test_forward_reference_rejected(self):
        net = NetworkSpec(
            layers=(
                act_layer("a", "later"),
                conv_layer("later", "input", 1, 1, 1),
            ),
            output_id="later",
        )
        with pytest.raises(ShapeError, match="later"):
            net.validate()

    def test_add_requires_equal_channels(self):
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 2, 1),
                conv_layer("c2", "input", 1, 3, 1),
                add_layer("s", ["c1", "c2"]),
            ),
            output_id="s",
        )
        with pytest.raises(ShapeError, match="s"):
            net.validate()

    def test_concat_without_inputs_rejected(self):
        net = NetworkSpec(layers=(concat_layer("cat", []),), output_id="cat")
        with pytest.raises(ShapeError, match="cat"):
            net.validate()

    def test_duplicate_layer_id_rejected(self):
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 1, 1), conv_layer("c", "c", 1, 1, 1)), output_id="c"
        )
        with pytest.raises(ShapeError, match="^duplicate layer id 'c'$"):
            net.validate()

    def test_output_id_never_produced_rejected(self):
        net = NetworkSpec(layers=(conv_layer("c", "input", 1, 1, 1),), output_id="out")
        with pytest.raises(ShapeError, match="^output id 'out' never produced$"):
            net.validate()

    def test_concat_sums_channels(self):
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 2, 1),
                conv_layer("c2", "input", 1, 3, 1),
                concat_layer("cat", ["c1", "c2"]),
                conv_layer("out", "cat", 5, 1, 1),
            ),
            output_id="out",
        )
        assert net.validate()["cat"] == 5
