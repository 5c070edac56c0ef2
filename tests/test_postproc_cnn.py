import tracemalloc

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
    tiled_apply,
)
from rqpipe.errors import ConfigError, ShapeError, WeightFormatError
from rqpipe.postproc_cnn import _apply_layers, act_layer, add_layer, concat_layer, conv_layer


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


class TestTiledApply:
    def setup_method(self):
        self.net = build_mfrnet_style(1, 1, 4, 4)
        self.weights = random_weights(self.net, seed=10)
        rng = np.random.default_rng(11)
        self.plane = rng.integers(0, 256, (64, 64)).astype(np.uint8)

    def test_single_tile_equals_apply_network(self):
        whole = apply_network(self.net, self.weights, self.plane, 8)
        tiled = tiled_apply(self.net, self.weights, self.plane, 8, tile=64, overlap=8)
        assert np.array_equal(whole, tiled)

    def test_small_tiles_bit_exact_with_sufficient_overlap(self):
        whole = apply_network(self.net, self.weights, self.plane, 8)
        radius = self.net.receptive_radius()
        for tile in (32, 24, 16):
            tiled = tiled_apply(self.net, self.weights, self.plane, 8, tile=tile, overlap=radius)
            assert np.array_equal(whole, tiled), f"tile={tile}"

    def test_default_overlap_is_receptive_radius(self):
        whole = apply_network(self.net, self.weights, self.plane, 8)
        tiled = tiled_apply(self.net, self.weights, self.plane, 8, tile=20)
        assert np.array_equal(whole, tiled)

    def test_insufficient_overlap_reports_required_minimum(self):
        net = NetworkSpec(
            layers=(conv_layer("c", "input", 1, 1, 3, pad=1),),
            output_id="c",
            residual_global=False,
        )
        weights = {"c": (np.ones((1, 1, 3, 3), np.float32) / 9, np.zeros(1, np.float32))}
        with pytest.raises(ConfigError, match=">= 1"):
            tiled_apply(net, weights, self.plane, 8, tile=16, overlap=0)


class TestGemmBanding:
    """GEMM accumulation order may depend on the matrix shape, so tiling and
    row banding are checked on the default network's real shapes (K up to 720)."""

    def setup_method(self):
        self.net = build_mfrnet_style()
        self.weights = random_weights(self.net, seed=21)
        rng = np.random.default_rng(22)
        self.plane = rng.integers(0, 1024, (72, 100)).astype(np.uint16)

    def test_default_net_tiled_equals_untiled(self):
        whole = apply_network(self.net, self.weights, self.plane, 10)
        for tile in (16, 37, 64, 100):
            tiled = tiled_apply(self.net, self.weights, self.plane, 10, tile=tile)
            assert np.array_equal(whole, tiled), f"tile={tile}"

    def test_default_net_tiles_equal_whole_before_rounding(self):
        # rounding to 10 bits hides a last-ulp difference, so the float
        # output of each tile's region is compared with the whole plane's
        h, w = self.plane.shape
        r = self.net.receptive_radius()
        x = (self.plane.astype(np.float32) / np.float32(1023))[None]
        whole = _apply_layers(self.net, self.weights, x)[0]
        for tile in (16, 37, 64, 100):
            for y0 in range(0, h, tile):
                for x0 in range(0, w, tile):
                    y1, x1 = min(y0 + tile, h), min(x0 + tile, w)
                    ty0, tx0 = max(0, y0 - r), max(0, x0 - r)
                    region = _apply_layers(
                        self.net, self.weights, x[:, ty0 : y1 + r, tx0 : x1 + r]
                    )[0]
                    got = region[y0 - ty0 : y1 - ty0, x0 - tx0 : x1 - tx0]
                    assert np.array_equal(got, whole[y0:y1, x0:x1]), f"tile={tile} at {y0},{x0}"

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
