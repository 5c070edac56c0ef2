"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every tolerance and budget is pinned here; nothing is deferred
to later calibration.
"""

import csv
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from rqpipe import (
    Frame,
    RQCurve,
    RQPoint,
    bd_quality,
    bd_rate,
    build_mfrnet_style,
    conv2d,
    integrate_interpolant,
    mock_encode_decode,
    pchip_slopes,
    psnr_y,
    random_weights,
    resample_plane,
    run_experiment,
    tiled_apply,
)
from rqpipe.metrics import mse_plane
from rqpipe.pipeline import assemble_report
from rqpipe.postproc_cnn import apply_network
from rqpipe.resample import LANCZOS3, NEAREST, _axis_taps

from test_postproc_cnn import conv2d_oracle, identity_net
from test_resample import oracle_resample_2d

HALF = Fraction(1, 2)


def announce(name):
    print(f"[ACCEPTANCE] {name}: PASS")


class TestAcceptance:
    def test_resampling(self):
        start = time.perf_counter()

        # partition of unity at every phase and boundary, 1e-12
        for in_len, out_len in [(16, 8), (18, 9), (64, 32), (130, 65), (1920, 960)]:
            _, w = _axis_taps(in_len, out_len, LANCZOS3)
            assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12

        # constant planes preserved exactly
        for c in (0, 31, 255):
            assert (resample_plane(np.full((16, 16), c, np.uint8), HALF, LANCZOS3, 8) == c).all()
        assert (resample_plane(np.full((12, 12), 1000, np.uint16), HALF, LANCZOS3, 10) == 1000).all()

        # separable equals the direct 2-D oracle within 0.5 LSB, 200 planes
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            p = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            sep = resample_plane(p, HALF, LANCZOS3, 8).astype(float)
            direct = np.clip(np.floor(oracle_resample_2d(p, 8, 8) + 0.5), 0, 255)
            worst = max(worst, np.abs(sep - direct).max())
        assert worst <= 0.5

        # nearest-neighbor upsampling is bit-exact duplication
        p = rng.integers(0, 1024, (16, 16)).astype(np.uint16)
        up = resample_plane(p, Fraction(2, 1), NEAREST, 10)
        assert np.array_equal(up, np.repeat(np.repeat(p, 2, 0), 2, 1))
        assert np.array_equal(up[::2, ::2], p)

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"resampling criterion took {elapsed:.1f}s"
        announce("resampling")

    def test_psnr_y(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.integers(0, 256, (64, 64)).astype(np.uint8)
            b = rng.integers(0, 256, (64, 64)).astype(np.uint8)
            total = 0.0
            for i in range(64):
                for j in range(64):
                    d = float(a[i, j]) - float(b[i, j])
                    total += d * d
            oracle = 10.0 * math.log10(255.0 ** 2 / (total / 4096.0))
            assert abs(psnr_y(Frame(y=a), Frame(y=b), 8) - oracle) < 1e-9

        # analytic uniform-difference case
        a = Frame(y=np.zeros((16, 16), np.uint8))
        b = Frame(y=np.ones((16, 16), np.uint8))
        assert abs(psnr_y(a, b, 8) - 48.1308) < 1e-4
        announce("psnr_y")

    def test_bd_statistics(self):
        points = [(1000.0, 30.0), (1800.0, 33.5), (3200.0, 36.2), (6000.0, 38.0)]
        ref = RQCurve("ref", "m", [RQPoint(r, q) for r, q in points])

        same = RQCurve("same", "m", [RQPoint(r, q) for r, q in points])
        assert abs(bd_quality(ref, same).delta_quality) < 1e-12

        for delta in (0.5, 2.5, -3.0):
            test = RQCurve("t", "m", [RQPoint(r, q + delta) for r, q in points])
            assert abs(bd_quality(ref, test).delta_quality - delta) < 1e-9

        rng = np.random.default_rng(11)
        other = RQCurve(
            "o", "m", [RQPoint(1.4 * r, q + rng.uniform(0.2, 1.5)) for r, q in points]
        )
        assert abs(
            bd_quality(ref, other).delta_quality + bd_quality(other, ref).delta_quality
        ) < 1e-12
        for c in (0.01, 250.0):
            ref_c = RQCurve("rc", "m", [RQPoint(c * r, q) for r, q in points])
            other_c = RQCurve("oc", "m", [RQPoint(c * p.bitrate_kbps, p.quality) for p in other.points])
            assert abs(
                bd_quality(ref_c, other_c).delta_quality - bd_quality(ref, other).delta_quality
            ) < 1e-12

        # closed-form integral vs 1e5-sample trapezoid quadrature
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            xs = np.sort(r2.uniform(0, 10, 5))
            while np.min(np.diff(xs)) < 1e-2:
                xs = np.sort(r2.uniform(0, 10, 5))
            ys = r2.uniform(-4, 4, 5)
            slopes = pchip_slopes(xs, ys)
            grid = np.linspace(xs[0], xs[-1], 100_001)
            oracle = np.trapezoid(CubicHermiteSpline(xs, ys, slopes)(grid), grid)
            mine = integrate_interpolant(xs, ys, slopes, xs[0], xs[-1])
            assert abs(mine - oracle) <= 1e-6 * max(abs(oracle), 1e-12)

        doubled = RQCurve("d", "m", [RQPoint(2 * r, q) for r, q in points])
        assert abs(bd_rate(ref, doubled).delta_rate_percent - 100.0) < 1e-9
        announce("bd_statistics")

    def test_qp_schedule(self, experiment_dir):
        manifest = run_experiment(experiment_dir / "exp.ini", workers=1)
        anchor = sorted(r.qp_texture for r in manifest.ok_jobs() if r.method == "anchor")
        rescaled = sorted(r.qp_texture for r in manifest.ok_jobs() if r.method == "rescaled")
        assert anchor == [22, 27, 32, 37]
        assert rescaled == [16, 21, 26, 31]
        announce("qp_schedule")

    def test_mock_codec(self):
        ladder = (16, 22, 27, 32, 37, 46)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            frame = Frame(y=rng.integers(0, 256, (32, 32)).astype(np.uint8))
            prev_bits, prev_mse = math.inf, -1.0
            for qp in ladder:
                (dec,), bits = mock_encode_decode([frame], qp, 8)
                mse = mse_plane(frame.y, dec.y)
                assert bits < prev_bits, f"seed {seed} qp {qp}: bits not decreasing"
                assert mse > prev_mse, f"seed {seed} qp {qp}: psnr not decreasing"
                prev_bits, prev_mse = bits, mse

        rng = np.random.default_rng(99)
        frames = [Frame(y=rng.integers(0, 256, (24, 24)).astype(np.uint8)) for _ in range(2)]
        dec1, bits1 = mock_encode_decode(frames, 27, 8)
        dec2, bits2 = mock_encode_decode(frames, 27, 8)
        assert bits1 == bits2
        assert all(np.array_equal(a.y, b.y) for a, b in zip(dec1, dec2))
        announce("mock_codec")

    def test_cnn_inference(self):
        start = time.perf_counter()

        # conv2d vs brute force on 50 random shapes, 1e-5 relative
        rng = np.random.default_rng(31)
        for _ in range(50):
            in_ch = int(rng.integers(1, 4))
            out_ch = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            stride = int(rng.choice([1, 2]))
            pad = int(rng.integers(0, k))
            size = int(rng.integers(k, k + 5))
            x = rng.normal(size=(in_ch, size, size))
            w = rng.normal(size=(out_ch, in_ch, k, k))
            b = rng.normal(size=out_ch)
            mine = conv2d(x, w, b, stride=stride, pad=pad)
            oracle = conv2d_oracle(x, w, b, stride=stride, pad=pad)
            assert np.abs(mine - oracle).max() <= 1e-5 * max(1.0, np.abs(oracle).max())

        # identity and zero-residual networks reproduce the input exactly
        plane = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        ident = identity_net(residual=False)
        w_ident = {"c": (np.ones((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        assert np.array_equal(apply_network(ident, w_ident, plane, 8), plane)
        zero = identity_net(residual=True)
        w_zero = {"c": (np.zeros((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))}
        assert np.array_equal(apply_network(zero, w_zero, plane, 8), plane)

        # tiled inference is bit-exact against untiled with enough overlap
        net = build_mfrnet_style(1, 2, 4, 4)
        weights = random_weights(net, seed=5)
        big = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        whole = apply_network(net, weights, big, 8)
        for tile in (16, 24, 64):
            assert np.array_equal(whole, tiled_apply(net, weights, big, 8, tile=tile))

        # four dense blocks in the default-style build
        four = build_mfrnet_style(4, 4, 32, 16)
        four.validate()
        assert four.meta["blocks"] == 4
        assert sum(1 for l in four.layers if l.id.endswith("_fuse")) == 4

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"cnn criterion took {elapsed:.1f}s"
        announce("cnn_inference")

    def test_end_to_end(self, experiment_dir):
        start = time.perf_counter()
        manifest = run_experiment(experiment_dir / "exp_wide.ini")
        jobs = manifest.ok_jobs()
        assert len(jobs) == 12  # 3 methods x 4 qp pairs
        assert all(math.isfinite(r.bitrate_kbps) and r.bitrate_kbps > 0 for r in jobs)
        assert all(math.isfinite(r.scores["psnr_y"]["sequence_value"]) for r in jobs)

        bundle = assemble_report(manifest, experiment_dir / "report")
        assert ("synthA", "psnr_y") in bundle.rq_csvs

        for method in ("rescaled", "postproc"):
            table = bundle.bd_values[method]
            seq_rows = [v["psnr_y"] for k, v in table.items() if k != "Total"]
            assert seq_rows, f"no BD rows computed for {method}"
            assert table["Total"]["psnr_y"] == pytest.approx(
                float(np.mean(seq_rows)), abs=1e-12
            )
            with open(bundle.bd_tables[method]) as fh:
                rows = list(csv.DictReader(fh))
            assert rows[-1]["sequence"] == "Total"

        with open(bundle.timing_csv) as fh:
            timing = list(csv.DictReader(fh))
        stages = {r["stage"] for r in timing}
        assert {"encode", "decode", "metrics", "total"} <= stages
        assert any(
            r["pct_delta_vs_anchor"] not in ("", None) for r in timing if r["method"] != "anchor"
        )
        assert all("pct_of_method_total" in r for r in timing)

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"end-to-end run took {elapsed:.1f}s"
        announce("end_to_end")

    def test_dogfood_rate_shift(self, experiment_dir):
        manifest = run_experiment(experiment_dir / "exp.ini", workers=1)
        jobs = manifest.ok_jobs()
        for qi in range(4):
            anchor = next(r for r in jobs if r.method == "anchor" and r.qp_index == qi)
            rescaled = next(r for r in jobs if r.method == "rescaled" and r.qp_index == qi)
            assert rescaled.bitrate_kbps < anchor.bitrate_kbps, (
                f"qp index {qi}: rescaled {rescaled.bitrate_kbps:.1f} kbps "
                f"not below anchor {anchor.bitrate_kbps:.1f} kbps"
            )
        announce("dogfood_rate_shift")
