import json
import tracemalloc
import weakref

import numpy as np
import pytest

import rqpipe.postproc_cnn as postproc_cnn
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
    _activate_in_place,
    _apply_layers,
    _apply_strips,
    _strip_rows,
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


def conv2d_im2col_oracle(x, weights, bias, stride=1, pad=0):
    """conv2d before the storage plan: every kernel, 1x1 included, fills a
    padded slab and a column buffer per band of _COLS_BYTES, and the bias is
    added once after the last band."""
    out_ch, in_ch, kh, kw = weights.shape
    _, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    k = in_ch * kh * kw
    m = max(out_ch, 2)
    wmat = np.zeros((m, k), dtype=x.dtype)
    wmat[:out_ch] = weights.reshape(out_ch, k)
    bands = -(-oh // max(1, postproc_cnn._COLS_BYTES // (k * ow * x.itemsize)))
    buf = np.empty(k * -(-oh // bands) * ow, dtype=x.dtype)
    out = np.empty((m, oh * ow), dtype=x.dtype)
    for i in range(bands):
        r0, r1 = oh * i // bands, oh * (i + 1) // bands
        rows = r1 - r0
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


def run_layer_oracle(layer, ins, weights):
    if layer.op == "conv2d":
        w, b = weights[layer.id]
        return conv2d_im2col_oracle(ins[0], w, b, layer.stride, layer.pad)
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


def strip_budget(net, width, rows):
    """A _PLANE_BYTES under which apply_network splits a plane `width`
    wide into strips of at most `rows` output rows."""
    per_row = max(net.storage_plan.live_channels) * width * 4
    return postproc_cnn._COLS_BYTES + per_row * (rows + 2 * net.receptive_radius())


def apply_in_strips(monkeypatch, net, weights, plane, bits, **patch):
    """apply_network with the postproc_cnn attributes in `patch` replaced;
    also returns the input height of each _apply_layers call, one per strip."""
    heights = []
    apply_layers = postproc_cnn._apply_layers

    def spy(net, weights, x):
        heights.append(x.shape[1])
        return apply_layers(net, weights, x)

    with monkeypatch.context() as m:
        for name, value in patch.items():
            m.setattr(postproc_cnn, name, value)
        m.setattr(postproc_cnn, "_apply_layers", spy)
        return apply_network(net, weights, plane, bits), heights


def identity_net(residual=False):
    return NetworkSpec(
        layers=(conv_layer("c", "input", 1, 1, 1, pad=0),),
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
        out = conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), pad=1)
        assert out[0, 2, 3] == pytest.approx(9 * c)  # interior: 9 taps in bounds
        assert out[0, 0, 0] == pytest.approx(4 * c)  # corner: 4 taps in bounds
        assert out[0, 0, 3] == pytest.approx(6 * c)  # edge: 6 taps in bounds

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 5, 5))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        mine = conv2d(x, w, b, pad=1)
        oracle = conv2d_oracle(x, w, b, pad=1)
        assert np.abs(mine - oracle).max() < 1e-5

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shapes_vs_oracle(self, seed):
        rng = np.random.default_rng(seed + 50)
        in_ch = int(rng.integers(1, 4))
        out_ch = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, k))
        size = int(rng.integers(k, k + 6))
        x = rng.normal(size=(in_ch, size, size))
        w = rng.normal(size=(out_ch, in_ch, k, k))
        b = rng.normal(size=out_ch)
        mine = conv2d(x, w, b, stride=stride, pad=pad)
        oracle = conv2d_oracle(x, w, b, stride=stride, pad=pad)
        assert mine.shape == oracle.shape
        assert np.abs(mine - oracle).max() < 1e-5 * max(1.0, np.abs(oracle).max())

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        b = np.zeros(3)
        alpha, beta = 1.7, -0.4
        lhs = conv2d(alpha * x + beta * y, w, b, pad=1)
        rhs = alpha * conv2d(x, w, b, pad=1) + beta * conv2d(y, w, b, pad=1)
        denom = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / denom < 1e-6

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 12, 12))
        w = rng.normal(size=(1, 1, 3, 3))
        b = np.zeros(1)
        base = conv2d(x, w, b, pad=1)
        shifted = conv2d(np.roll(x, 1, axis=2), w, b, pad=1)
        # columns touched by the roll wrap-around or the pad are not interior
        assert np.allclose(shifted[:, :, 2:-1], base[:, :, 1:-2], atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))


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

    def test_three_layer_net_matches_scripted_oracle(self):
        # conv3x3 -> leaky relu -> conv1x1, no residual, evaluated by a
        # straight-line float64 script
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 2, 3, pad=1),
                act_layer("a1", "c1", alpha=0.2),
                conv_layer("c2", "a1", 2, 1, 1, pad=0),
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

    def test_missing_weights_rejected(self):
        net = identity_net()
        with pytest.raises(WeightFormatError, match="c"):
            apply_network(net, {}, np.zeros((4, 4), np.uint8), 8)

    def test_multichannel_output_rejected(self):
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 2, 1, pad=0),),
            output_id="c",
            residual_global=False,
        )
        weights = {"c": (np.zeros((2, 1, 1, 1), np.float32), np.zeros(2, np.float32))}
        with pytest.raises(ShapeError, match="channels"):
            apply_network(net, weights, np.zeros((4, 4), np.uint8), 8)


class TestStoragePlan:
    """_apply_layers runs each layer into the storage net.storage_plan gives
    it; its float output must equal the copy-based oracle's bit for bit."""

    @staticmethod
    def float_input(h, w, bits=10, seed=30):
        plane = np.random.default_rng(seed).integers(0, 1 << bits, (h, w))
        return (plane.astype(np.float32) / np.float32((1 << bits) - 1))[None]

    def check(self, net, h, w, seed=31):
        weights = random_weights(net, seed=seed, scale=0.3)
        x = self.float_input(h, w)
        assert_bits_equal(_apply_layers(net, weights, x), apply_layers_oracle(net, weights, x))

    def views(self, net):
        return {l.id: step.slot is not None for l, step in zip(net.layers, net.storage_plan.steps) if l.op == CONCAT}

    @pytest.mark.parametrize("h, w", [(72, 100), (108, 192)])
    def test_default_net(self, h, w):
        net = build_mfrnet_style()
        weights = random_weights(net, seed=32)
        x = self.float_input(h, w)
        assert_bits_equal(_apply_layers(net, weights, x), apply_layers_oracle(net, weights, x))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_default_net_in_row_bands(self, monkeypatch, rows):
        # budget of `rows` output rows of the widest conv (K = 80*3*3)
        monkeypatch.setattr(postproc_cnn, "_COLS_BYTES", rows * 720 * 100 * 4)
        net = build_mfrnet_style()
        weights = random_weights(net, seed=33)
        x = self.float_input(72, 100)
        assert_bits_equal(_apply_layers(net, weights, x), apply_layers_oracle(net, weights, x))

    @pytest.mark.parametrize("shape", [(1, 1, 4, 4), (2, 2, 8, 4)])
    def test_small_mfrnet_styles(self, shape):
        self.check(build_mfrnet_style(*shape), 24, 40)

    def test_default_net_concatenates_nothing(self, monkeypatch):
        net = build_mfrnet_style()
        assert all(self.views(net).values())

        def refuse(*args, **kwargs):
            raise AssertionError("np.concatenate ran")

        weights = random_weights(net, seed=34)
        x = self.float_input(20, 24)
        monkeypatch.setattr(np, "concatenate", refuse)
        _apply_layers(net, weights, x)

    def test_block_buffers_share_storage(self):
        net = build_mfrnet_style(2, 4, 32, 16)
        steps = dict(zip((l.id for l in net.layers), net.storage_plan.steps))
        block = {steps[c].slot[0] for c in ("b0_cat1", "b0_cat2", "b0_cat3", "b0_fuse_cat")}
        assert len(block) == 1
        assert steps["b0_fuse_cat"].slot[1:] == (0, 96)
        assert steps["b0_conv0"].act is not None and steps["b0_act0"].out is None
        assert steps["b0_out"].inplace

    def test_reuse_concats_share_one_buffer(self):
        net = build_mfrnet_style()
        steps = dict(zip((l.id for l in net.layers), net.storage_plan.steps))
        # laid out [b2_out | b1_out | b0_out]
        assert steps["b3_reuse"].slot[1:] == (0, 96)
        reuse = steps["b3_reuse"].slot[0]
        assert steps["b2_reuse"].slot == (reuse, 32, 64)
        assert steps["b1_reuse"].slot == (reuse, 64, 32)
        assert steps["b0_fuse"].slot == (reuse, 64, 32)
        assert steps["b2_fuse"].slot == (reuse, 0, 32)

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
            conv_entry("d", "ab", 5, 2),
            conv_entry("e", "ac", 4, 2),
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
        # with a 2-row column budget the live values dominate the peak: the
        # plan's largest live channel count, plus one column buffer and one
        # more budget for its padded slab and the band temporaries. Copying
        # concats peak above that (284 channels of 64x96 against 228)
        net = build_mfrnet_style()
        h, w = 64, 96
        budget = 2 * 720 * w * 4
        monkeypatch.setattr(postproc_cnn, "_COLS_BYTES", budget)
        weights = random_weights(net, seed=24)
        plane = np.random.default_rng(25).integers(0, 1024, (h, w)).astype(np.uint16)
        live = max(net.storage_plan.live_channels)
        assert live == 2 * 96  # one block's buffer and the reuse buffer
        bound = live * h * w * 4 + 2 * budget
        tracemalloc.start()
        try:
            apply_network(net, weights, plane, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak} above {bound} bytes"

    def test_block_buffer_freed_before_next_block(self, monkeypatch):
        net = build_mfrnet_style()
        weights = random_weights(net, seed=36)
        run_layer = postproc_cnn._run_layer
        buffers, alive_later = {}, {}

        def watch(layer, step, ins, *rest):
            if layer.id.endswith("_conv1"):
                block = int(layer.id[1])
                if block - 1 in buffers:
                    alive_later[block - 1] = buffers[block - 1]() is not None
                # b<k>_cat1 is a slice of block k's buffer
                buffers[block] = weakref.ref(ins[0].base)
            return run_layer(layer, step, ins, *rest)

        monkeypatch.setattr(postproc_cnn, "_run_layer", watch)
        _apply_layers(net, weights, self.float_input(20, 24))
        assert alive_later == {0: False, 1: False, 2: False}


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
    """apply_network over row strips, with _PLANE_BYTES patched down."""

    def setup_method(self):
        self.net = build_mfrnet_style(1, 1, 4, 4)
        self.weights = random_weights(self.net, seed=10)
        rng = np.random.default_rng(11)
        self.plane = rng.integers(0, 256, (64, 64)).astype(np.uint8)

    def test_single_tile_equals_apply_network(self, monkeypatch):
        whole = apply_network(self.net, self.weights, self.plane, 8)
        budget = strip_budget(self.net, 64, 64)
        got, heights = apply_in_strips(monkeypatch, self.net, self.weights, self.plane, 8, _PLANE_BYTES=budget)
        assert heights == [64]
        assert np.array_equal(whole, got)

    def test_small_tiles_bit_exact_with_sufficient_overlap(self, monkeypatch):
        whole = apply_network(self.net, self.weights, self.plane, 8)
        radius = self.net.receptive_radius()
        for rows in (32, 24, 16):
            budget = strip_budget(self.net, 64, rows)
            got, heights = apply_in_strips(monkeypatch, self.net, self.weights, self.plane, 8, _PLANE_BYTES=budget)
            assert len(heights) == -(-64 // rows) and max(heights) <= rows + 2 * radius
            assert np.array_equal(whole, got), f"rows={rows}"

    def test_strips_are_balanced(self, monkeypatch):
        # at most 24 of 64 rows: three strips of 21, 21 and 22 rows, not
        # 24, 24 and a thinner 16, each read with 3 rows of margin
        assert self.net.receptive_radius() == 3
        budget = strip_budget(self.net, 64, 24)
        _, heights = apply_in_strips(monkeypatch, self.net, self.weights, self.plane, 8, _PLANE_BYTES=budget)
        assert heights == [21 + 3, 3 + 21 + 3, 3 + 22]

    def test_strips_at_paper_sizes(self):
        # the default net holds 192 live channels: 1080p (1.6 GB) fits the
        # 2 GiB budget whole, 4096x2048 (6.4 GB) runs as four 512-row strips
        net = build_mfrnet_style()
        assert max(net.storage_plan.live_channels) == 192
        for h, w, strips in ((1080, 1920, 1), (2048, 4096, 4)):
            x = np.broadcast_to(np.float32(0), (1, h, w))
            assert -(-h // _strip_rows(net, x)) == strips, f"{w}x{h}"

    def test_peak_memory_bounded_by_the_strip_budget(self, monkeypatch):
        # a budget of 12-row strips (48 rows with margins) against the whole
        # 72 rows: the peak stays under the budget, one more column budget
        # for the padded slab and band temporaries, and eight planes' worth
        # of whole-plane float terms (input, output, residual, rounding).
        # One whole-plane run peaks above that bound (6.4 MB against 5.1 MB)
        net = build_mfrnet_style()
        h, w = 72, 100
        cols = 2 * 720 * w * 4
        monkeypatch.setattr(postproc_cnn, "_COLS_BYTES", cols)
        budget = strip_budget(net, w, 12)
        monkeypatch.setattr(postproc_cnn, "_PLANE_BYTES", budget)
        weights = random_weights(net, seed=26)
        plane = np.random.default_rng(27).integers(0, 1024, (h, w)).astype(np.uint16)
        whole = max(net.storage_plan.live_channels) * h * w * 4 + cols
        bound = budget + cols + 8 * h * w * 4
        assert bound < whole
        tracemalloc.start()
        try:
            apply_network(net, weights, plane, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak} above {bound} bytes"

    @pytest.mark.parametrize("stride, pad", [(2, 1), (1, 0)])
    def test_size_changing_net_runs_whole(self, monkeypatch, stride, pad):
        # no receptive radius to margin strips with: one run at any budget
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 1, 3, stride=stride, pad=pad),),
            output_id="c",
            residual_global=False,
        )
        weights = random_weights(net, seed=28, scale=0.3)
        whole = apply_network(net, weights, self.plane, 8)
        got, heights = apply_in_strips(monkeypatch, net, weights, self.plane, 8, _PLANE_BYTES=1)
        assert heights == [64]
        assert np.array_equal(whole, got)


class TestGemmBanding:
    """GEMM accumulation order may depend on the matrix shape, so row strips
    and row bands are checked on the default network's real shapes (K up
    to 720)."""

    def setup_method(self):
        self.net = build_mfrnet_style()
        self.weights = random_weights(self.net, seed=21)
        rng = np.random.default_rng(22)
        self.plane = rng.integers(0, 1024, (72, 100)).astype(np.uint16)

    def test_default_net_tiled_equals_untiled(self, monkeypatch):
        whole = apply_network(self.net, self.weights, self.plane, 10)
        for rows in (16, 37, 64, 100):
            got, heights = apply_in_strips(
                monkeypatch, self.net, self.weights, self.plane, 10, _strip_rows=lambda net, x, rows=rows: rows
            )
            assert len(heights) == -(-72 // rows)
            assert np.array_equal(whole, got), f"rows={rows}"

    def test_default_net_tiles_equal_whole_before_rounding(self):
        # rounding to 10 bits hides a last-ulp difference, so the float
        # output of the strips is compared with the whole plane's, on this
        # plane and on a taller one split into more strips
        tall = np.random.default_rng(29).integers(0, 1024, (100, 144)).astype(np.uint16)
        for plane in (self.plane, tall):
            x = (plane.astype(np.float32) / np.float32(1023))[None]
            whole = _apply_layers(self.net, self.weights, x)
            for rows in (16, 37, 64, 100):
                got = _apply_strips(self.net, self.weights, x, rows)
                assert_bits_equal(got, whole)

    @pytest.mark.parametrize("rows, width, stride", [(1, 100, 1), (7, 100, 1), (4, 41, 1), (3, 100, 2)])
    def test_row_bands_equal_one_band(self, monkeypatch, rows, width, stride):
        # the default net's widest conv: K = 80*3*3 = 720, 16 outputs. A
        # 4-row budget over 30 rows of 41 must give bands of 3-4 rows, not
        # 7x4 + 2: a 2-row remainder (82 columns) falls under OpenBLAS's
        # small-matrix cutoff (M*N*K <= 1e6), whose sums differ in the last
        # ulp. 1-row bands of 41 columns fall under it too, which the 8 MB
        # budget never produces, so the other cases use 100 columns.
        rng = np.random.default_rng(23)
        x = rng.normal(size=(80, 30, width)).astype(np.float32)
        w = rng.normal(0, 0.05, (16, 80, 3, 3)).astype(np.float32)
        b = rng.normal(0, 0.05, 16).astype(np.float32)
        one_band = conv2d(x, w, b, stride=stride, pad=1)
        ow = one_band.shape[2]
        monkeypatch.setattr(postproc_cnn, "_COLS_BYTES", rows * 80 * 3 * 3 * ow * 4)
        assert np.array_equal(conv2d(x, w, b, stride=stride, pad=1), one_band)


class TestBuildMfrnetStyle:
    def test_default_has_four_blocks(self):
        net = build_mfrnet_style(4, 4, 32, 16)
        assert net.meta["blocks"] == 4
        fuse_layers = [l for l in net.layers if l.id.endswith("_fuse")]
        assert len(fuse_layers) == 4
        net.validate()

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
        net = build_mfrnet_style(2, 2, 8, 4)
        back = NetworkSpec.from_json(net.to_json())
        assert back == net

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            build_mfrnet_style(0, 1, 8, 4)


class TestReceptiveField:
    def test_dag_radius_matches_bruteforce_measurement(self):
        # conv5 (r2) -> leaky -> conv3 (r1): radius 3
        net = NetworkSpec(
            layers=(
                conv_layer("c1", "input", 1, 2, 5, pad=2),
                act_layer("a1", "c1"),
                conv_layer("c2", "a1", 2, 1, 3, pad=1),
            ),
            output_id="c2",
            residual_global=False,
        )
        assert net.receptive_radius() == 3
        weights = random_weights(net, seed=12, scale=0.5)
        size = 15
        center = size // 2
        x = np.zeros((1, size, size))
        base = _apply_layers(net, weights, x)
        x2 = x.copy()
        x2[0, center, center] = 1.0
        diff = np.abs(_apply_layers(net, weights, x2) - base)[0]
        affected = np.argwhere(diff > 1e-12)
        radius = np.abs(affected - center).max()
        assert radius == 3

    def test_mfrnet_style_radius(self):
        # head(1) + blocks*convs(1 each) + tail(1)
        net = build_mfrnet_style(2, 2, 4, 4)
        assert net.receptive_radius() == 1 + 4 + 1


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
