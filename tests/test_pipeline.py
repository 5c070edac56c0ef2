import csv
import json
import math
import time
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from rqpipe import (
    LANCZOS3,
    VideoSpec,
    build_mfrnet_style,
    random_weights,
    read_frame,
    read_sequence,
    resample_frame,
    run_experiment,
    save_weights,
    synthetic_sequence,
    write_sequence,
)
from rqpipe.errors import ConfigError, DimensionError
from rqpipe.pipeline import (
    DEFAULT_QP_PAIRS,
    HALF_RES_QP_OFFSET,
    QpPair,
    RunManifest,
    assemble_report,
    dump_patch,
    load_experiment,
)
from rqpipe.pipeline import runner
from rqpipe.pipeline.manifest import JobRecord, sha256_file


class TestPresets:
    def test_default_qp_pairs_are_the_ctc_ladder(self):
        assert DEFAULT_QP_PAIRS == ((22, 4), (27, 7), (32, 11), (37, 15))

    def test_half_resolution_shift(self):
        shifted = [t + HALF_RES_QP_OFFSET for t, _ in DEFAULT_QP_PAIRS]
        assert shifted == [16, 21, 26, 31]

    def test_qp_pair_range(self):
        with pytest.raises(ConfigError):
            QpPair(64, 4)


class TestConfigLoading:
    def test_full_config(self, experiment_dir):
        cfg = load_experiment(experiment_dir / "exp.ini")
        assert [m.label for m in cfg.methods] == ["anchor", "rescaled", "postproc"]
        assert [p.qp_texture for p in cfg.qp_pairs] == [22, 27, 32, 37]
        assert cfg.methods[1].qp_texture_offset == -6
        assert cfg.methods[2].postproc is not None
        assert cfg.methods[0].resamples is False

    def test_missing_frame_rate_rejected(self, tmp_path):
        (tmp_path / "bad.ini").write_text(
            "[sequence.x]\npath = x.yuv\nwidth = 8\nheight = 8\nframe_count = 1\n"
            "[method.anchor]\ncodec = mock\n"
        )
        with pytest.raises(ConfigError, match="frame_rate"):
            load_experiment(tmp_path / "bad.ini")

    def test_missing_weights_rejected_before_run(self, experiment_dir):
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace("w37.rqpw", "absent.rqpw"))
        with pytest.raises(ConfigError, match="absent.rqpw"):
            load_experiment(experiment_dir / "broken.ini")

    def test_offset_leaving_qp_range_rejected(self, experiment_dir):
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(
            text.replace("qp_texture_offset = -6", "qp_texture_offset = -23", 1)
        )
        with pytest.raises(ConfigError, match="outside"):
            load_experiment(experiment_dir / "broken.ini")

    def test_upscaling_method_rejected(self, experiment_dir):
        # the runner shrinks before coding, so a scale above 1 is a config error
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace("scale = 1/2", "scale = 2/1", 1))
        with pytest.raises(ConfigError, match="scale must be in"):
            load_experiment(experiment_dir / "broken.ini")

    def test_nearest_qp_model_selection(self, experiment_dir):
        cfg = load_experiment(experiment_dir / "exp.ini")
        pp = cfg.methods[2].postproc
        assert pp.select_weights_qp(22) == 22
        assert pp.select_weights_qp(24) == 22
        assert pp.select_weights_qp(25) == 27
        assert pp.select_weights_qp(60) == 37


class TestRunExperiment:
    @pytest.fixture
    def manifest(self, experiment_dir):
        return run_experiment(experiment_dir / "exp.ini", workers=1)

    def test_twelve_jobs_all_finite(self, manifest):
        jobs = manifest.ok_jobs()
        assert len(jobs) == 12
        for rec in jobs:
            assert rec.bitrate_kbps > 0 and math.isfinite(rec.bitrate_kbps)
            assert math.isfinite(rec.scores["psnr_y"]["sequence_value"])

    def test_anchor_qp_schedule(self, manifest):
        anchors = sorted(
            r.qp_texture for r in manifest.ok_jobs() if r.method == "anchor"
        )
        assert anchors == [22, 27, 32, 37]

    def test_rescaled_qp_schedule(self, manifest):
        rescaled = sorted(
            r.qp_texture for r in manifest.ok_jobs() if r.method == "rescaled"
        )
        assert rescaled == [16, 21, 26, 31]

    def test_depth_qp_not_shifted(self, manifest):
        for rec in manifest.ok_jobs():
            base = dict(DEFAULT_QP_PAIRS)[rec.base_qp_texture]
            assert rec.qp_depth == base

    def test_rescaled_cheaper_than_anchor_at_matched_index(self, manifest):
        jobs = manifest.ok_jobs()
        for qi in range(4):
            anchor = next(r for r in jobs if r.method == "anchor" and r.qp_index == qi)
            rescaled = next(r for r in jobs if r.method == "rescaled" and r.qp_index == qi)
            assert rescaled.bitrate_kbps < anchor.bitrate_kbps

    def test_scores_against_native_reference(self, manifest):
        hashes = {r.reference_sha256 for r in manifest.ok_jobs()}
        assert len(hashes) == 1 and hashes.pop()

    def test_stage_timings_present(self, manifest):
        anchor = next(r for r in manifest.ok_jobs() if r.method == "anchor")
        assert {"encode", "decode", "metrics"} <= set(anchor.stage_seconds)
        assert "downsample" not in anchor.stage_seconds  # scale 1/1: no resampling
        rescaled = next(r for r in manifest.ok_jobs() if r.method == "rescaled")
        assert {"downsample", "upsample"} <= set(rescaled.stage_seconds)
        postproc = next(r for r in manifest.ok_jobs() if r.method == "postproc")
        assert "postproc" in postproc.stage_seconds
        assert postproc.postproc_weights_qp == postproc.base_qp_texture

    def test_artifacts_exist_and_hash_match(self, manifest):
        from rqpipe.pipeline.manifest import sha256_file

        rec = manifest.ok_jobs()[0]
        info = rec.artifacts["recon"]
        assert sha256_file(info["path"]) == info["sha256"]

    def test_manifest_reload_roundtrip(self, manifest):
        again = RunManifest.load(manifest.path)
        assert set(again.jobs) == set(manifest.jobs)
        assert again.header["version"]
        assert again.header["config"]["conventions"]["resample_phase"] == "center_aligned"


class TestDeterminismAndResume:
    @staticmethod
    def strip_volatile(manifest):
        out = []
        for key in sorted(manifest.jobs):
            doc = json.loads(manifest.jobs[key].to_line())
            doc.pop("stage_seconds")
            doc.pop("stage_cpu_seconds")
            doc["artifacts"] = {
                name: info["sha256"] for name, info in doc["artifacts"].items()
            }
            out.append(doc)
        return out

    def test_reruns_bit_identical_modulo_timing(self, experiment_dir):
        m1 = run_experiment(experiment_dir / "exp.ini", workdir=experiment_dir / "r1", workers=1)
        m2 = run_experiment(experiment_dir / "exp.ini", workdir=experiment_dir / "r2", workers=2)
        assert self.strip_volatile(m1) == self.strip_volatile(m2)

    def test_resume_skips_intact_jobs(self, experiment_dir):
        run_experiment(experiment_dir / "exp.ini", workers=1)
        before = (experiment_dir / "out" / "manifest.jsonl").read_text()
        manifest = run_experiment(experiment_dir / "exp.ini", workers=1)
        after = (experiment_dir / "out" / "manifest.jsonl").read_text()
        assert before == after  # nothing re-appended
        assert len(manifest.ok_jobs()) == 12

    def test_resume_redoes_tampered_artifact(self, experiment_dir):
        manifest = run_experiment(experiment_dir / "exp.ini", workers=1)
        rec = manifest.ok_jobs()[0]
        with open(rec.artifacts["recon"]["path"], "r+b") as fh:
            fh.write(b"\xff")
        again = run_experiment(experiment_dir / "exp.ini", workers=1)
        assert len(again.ok_jobs()) == 12
        lines = (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 12 + 1  # header + first run + one redone job

    def test_resume_redoes_jobs_of_a_changed_source(self, experiment_dir):
        first = run_experiment(experiment_dir / "exp.ini", workers=1)
        old_hash = first.ok_jobs()[0].reference_sha256
        source = experiment_dir / "synthA.yuv"
        spec = VideoSpec(64, 64, 8, "420", frame_count=8)
        write_sequence(synthetic_sequence(spec, seed=2), spec, source)
        new_hash = sha256_file(source)
        assert new_hash != old_hash
        again = run_experiment(experiment_dir / "exp.ini", workers=1)
        lines = (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 12 + 12  # every job ran again
        assert {r.reference_sha256 for r in again.ok_jobs()} == {new_hash}
        assert len(again.ok_jobs()) == 12

    def test_resume_redoes_a_job_torn_mid_append(self, experiment_dir):
        # a crash while appending leaves the last line cut short, with no
        # newline: resume drops it, redoes that job and appends cleanly
        first = run_experiment(experiment_dir / "exp.ini", workers=1)
        path = experiment_dir / "out" / "manifest.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:40])
        again = run_experiment(experiment_dir / "exp.ini", workers=1)
        after = path.read_text().splitlines(keepends=True)
        assert after[:-1] == lines[:-1] and after[-1].endswith("\n")
        torn = json.loads(lines[-1])
        redone = json.loads(after[-1])
        assert (redone["sequence"], redone["method"], redone["qp_index"]) == (
            torn["sequence"], torn["method"], torn["qp_index"]
        )
        assert self.strip_volatile(again) == self.strip_volatile(first)
        assert self.strip_volatile(RunManifest.load(path)) == self.strip_volatile(first)


class TestWorkerCount:
    def test_env_override_and_argument_priority(self, monkeypatch):
        from rqpipe.pipeline.runner import _worker_count

        monkeypatch.setenv("RQPIPE_WORKERS", "3")
        assert _worker_count(None) == 3
        assert _worker_count(5) == 5  # explicit argument beats the env
        monkeypatch.delenv("RQPIPE_WORKERS")
        assert _worker_count(None) >= 1

    def test_non_integer_env_is_config_error(self, monkeypatch):
        from rqpipe.pipeline.runner import _worker_count

        monkeypatch.setenv("RQPIPE_WORKERS", "two")
        with pytest.raises(ConfigError, match="RQPIPE_WORKERS.*'two'"):
            _worker_count(None)


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread (get, set), restored after the test."""
    from rqpipe.pipeline.runner import _openblas

    hook = _openblas()
    if hook is None:
        pytest.skip("numpy's OpenBLAS exposes no thread-count functions")
    before = hook[0]()
    yield hook
    hook[1](before)


class TestBlasThreads:
    CONFIG = """
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 96
height = 64
bit_depth = 10
chroma = 420
frame_count = 1
frame_rate = 30

[method.postproc]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
codec = mock
postproc_net = mfrnet
postproc_weights = 22=w.rqpw

[qps]
pairs = 22:4, 37:15
"""

    @pytest.fixture
    def default_net_experiment(self, tmp_path):
        # the default net at 96x64: GEMMs large enough for OpenBLAS to split
        # them over threads
        from rqpipe import build_mfrnet_style, random_weights, save_weights

        spec = VideoSpec(96, 64, 10, "420", frame_count=1)
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        save_weights(tmp_path / "w.rqpw", random_weights(build_mfrnet_style(), seed=5))
        (tmp_path / "exp.ini").write_text(self.CONFIG)
        return tmp_path / "exp.ini"

    def test_recon_equal_at_one_and_two_workers(self, default_net_experiment, tmp_path, blas):
        runs = {
            n: run_experiment(default_net_experiment, workdir=tmp_path / f"w{n}", workers=n)
            for n in (1, 2)
        }
        hashes = {
            n: {key: rec.artifacts["recon"]["sha256"] for key, rec in m.jobs.items()}
            for n, m in runs.items()
        }
        assert len(hashes[1]) == 2 and hashes[1] == hashes[2]
        from rqpipe.pipeline.runner import _cpu_count

        get, set_ = blas
        for n, m in runs.items():
            env = m.header["environment"]
            assert env["workers"] == n and env["cpu_count"] == _cpu_count()
            set_(max(1, _cpu_count() // n))  # OpenBLAS caps it at its build's maximum
            assert env["blas_threads"] == get()
            assert env["numpy"] == np.__version__

    def test_threads_restored_after_failed_job(self, tmp_path, blas):
        get, set_ = blas
        set_(1)
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            """
[run]
workdir = out
[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30
[method.anchor]
codec = external
encode_cmd = false {in} {out} {qp} {w} {h}
decode_cmd = false {in} {out}
[qps]
pairs = 22:4
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        assert [r.status for r in manifest.jobs.values()] == ["failed"]
        assert manifest.header["environment"]["blas_threads_before"] == 1
        assert get() == 1

    def test_threads_restored_when_the_run_raises(self, experiment_dir, monkeypatch, blas):
        from rqpipe.pipeline import runner

        get, set_ = blas
        set_(1)

        def crash(*args):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(runner, "_run_job", crash)
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_experiment(experiment_dir / "exp.ini", workers=2)
        assert get() == 1


class TestDepthStream:
    @pytest.fixture
    def config_with_depth(self, tmp_path):
        spec = VideoSpec(32, 32, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        depth_spec = VideoSpec(32, 32, 8, "400", frame_count=2)
        write_sequence(synthetic_sequence(depth_spec, seed=5), depth_spec, tmp_path / "s_depth.yuv")
        (tmp_path / "exp.ini").write_text(
            """
[run]
workdir = out

[sequence.s]
path = s.yuv
depth_path = s_depth.yuv
width = 32
height = 32
frame_count = 2
frame_rate = 30

[method.anchor]
codec = mock

[method.rescaled]
scale = 1/2
qp_texture_offset = -6
depth_down_filter = nn
codec = mock

[qps]
pairs = 27:7

[metrics]
psnr_y = native
"""
        )
        return tmp_path

    def test_depth_bits_summed_into_bitrate(self, config_with_depth):
        manifest = run_experiment(config_with_depth / "exp.ini", workers=1)
        for rec in manifest.ok_jobs():
            depth_bits = rec.notes["depth_bits"]
            assert depth_bits > 0
            assert rec.total_bits > depth_bits
            assert rec.bitrate_kbps == pytest.approx(
                rec.total_bits * 30.0 / 2 / 1000.0
            )

    def test_depth_coded_at_depth_qp(self, config_with_depth):
        manifest = run_experiment(config_with_depth / "exp.ini", workers=1)
        rescaled = next(r for r in manifest.ok_jobs() if r.method == "rescaled")
        assert rescaled.qp_texture == 21  # shifted
        assert rescaled.qp_depth == 7  # untouched by the texture offset

    def test_only_texture_is_up_sampled(self, config_with_depth, monkeypatch):
        # the decoded depth frames only give bits, so they are not restored
        factors = []
        resample = runner.resample_frame

        def counting(frame, factor, *args):
            factors.append(factor)
            return resample(frame, factor, *args)

        monkeypatch.setattr(runner, "resample_frame", counting)
        manifest = run_experiment(config_with_depth / "exp.ini", workers=1)
        assert len(manifest.ok_jobs()) == 2
        assert sorted(factors) == [Fraction(1, 2)] * 4 + [Fraction(2)] * 2


class TestMonochromeTexture:
    def test_depth_filter_leaves_texture_alone(self, tmp_path):
        # a 4:0:0 texture sequence without a depth stream is downsampled
        # with down_filter whether or not depth_down_filter is set
        spec = VideoSpec(32, 32, 8, "400", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=3), spec, tmp_path / "s.yuv")
        body = """
[sequence.s]
path = s.yuv
width = 32
height = 32
chroma = 400
frame_count = 2
frame_rate = 30

[method.rescaled]
scale = 1/2
down_filter = lanczos:3
codec = mock

[qps]
pairs = 27:7

[metrics]
psnr_y = native
"""
        results = []
        for name, extra in (("plain", ""), ("depth_nn", "depth_down_filter = nn\n")):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(body.replace("codec = mock\n", "codec = mock\n" + extra))
            (rec,) = run_experiment(ini, workdir=tmp_path / name, workers=1).ok_jobs()
            results.append((rec.artifacts["recon"]["sha256"], rec.total_bits))
        assert results[0] == results[1]


class TestPostprocLumaOnly:
    def test_chroma_untouched_by_default(self, experiment_dir):
        manifest = run_experiment(experiment_dir / "exp.ini", workers=1)
        jobs = manifest.ok_jobs()
        spec = VideoSpec(64, 64, 8, "420", frame_count=8)
        for qi in (0,):
            plain = next(r for r in jobs if r.method == "rescaled" and r.qp_index == qi)
            pp = next(r for r in jobs if r.method == "postproc" and r.qp_index == qi)
            f_plain = read_frame(plain.artifacts["recon"]["path"], spec, 0)
            f_pp = read_frame(pp.artifacts["recon"]["path"], spec, 0)
            assert np.array_equal(f_plain.cb, f_pp.cb)
            assert np.array_equal(f_plain.cr, f_pp.cr)
            assert not np.array_equal(f_plain.y, f_pp.y)


class TestExternalMetricInPipeline:
    def test_stub_metric_scored_per_job(self, tmp_path):
        import sys as _sys

        stub = tmp_path / "stub_metric.py"
        stub.write_text(
            "import sys\n"
            "assert '--ref' in sys.argv and '--dist' in sys.argv\n"
            "for _ in range(2): print('91.5')\n"
        )
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=8), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30

[method.anchor]
codec = mock

[qps]
pairs = 27:7

[metrics]
psnr_y = native
fakevmaf = {_sys.executable} {stub} --ref {{ref}} --dist {{dist}} -w {{w}} -h {{h}} -b {{bitdepth}}
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        (rec,) = manifest.ok_jobs()
        assert rec.scores["fakevmaf"]["sequence_value"] == 91.5
        assert rec.scores["fakevmaf"]["per_frame"] == [91.5, 91.5]
        assert "psnr_y" in rec.scores
        assert manifest.header["config"]["metrics"]["fakevmaf"].startswith(_sys.executable)


class TestJobStreaming:
    """A job streams its frames one at a time: read, code, restore, write and score."""

    @pytest.fixture
    def config(self, tmp_path):
        # one 8-frame file read as a 2-frame and an 8-frame sequence. A
        # frame is 576 KiB, so both recon files exceed the 1 MiB hash chunk
        # and hashing them allocates the same.
        spec = VideoSpec(512, 384, 10, "420", frame_count=8)
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        net = build_mfrnet_style(1, 1, 4, 4)
        (tmp_path / "net.json").write_text(net.to_json())
        save_weights(tmp_path / "w.rqpw", random_weights(net, seed=3, scale=0.02))
        sequences = "".join(
            f"[sequence.{label}]\npath = s.yuv\nwidth = 512\nheight = 384\nbit_depth = 10\n"
            f"frame_count = {count}\nframe_rate = 30\n\n"
            for label, count in (("two", 2), ("eight", 8))
        )
        (tmp_path / "exp.ini").write_text(
            sequences
            + """
[method.anchor]
codec = mock

[method.rescaled]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
codec = mock

[method.postproc]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
codec = mock
postproc_net = net.json
postproc_weights = 27=w.rqpw
postproc_luma_only = false

[qps]
pairs = 27:7
"""
        )
        return load_experiment(tmp_path / "exp.ini")

    @staticmethod
    def run_job(cfg, label, method):
        seq = next(s for s in cfg.sequences if s.label == label)
        meth = next(m for m in cfg.methods if m.label == method)
        cfg.workdir.mkdir(exist_ok=True)
        rec = runner._run_job(seq, meth, 0, cfg.qp_pairs[0], cfg, cfg.workdir, "x")
        assert rec.status == "ok", rec.error
        return rec

    @pytest.mark.parametrize("method", ["anchor", "rescaled", "postproc"])
    def test_peak_does_not_grow_with_frame_count(self, config, method):
        frame_bytes = 512 * 384 * 3 // 2 * 2

        def peak(label):
            tracemalloc.start()
            try:
                self.run_job(config, label, method)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("two")  # warm-up: first-call allocations inside numpy and scipy
        assert peak("eight") - peak("two") < frame_bytes

    def test_stage_times_fit_in_the_job_wall_time(self, config):
        start = time.perf_counter()
        rec = self.run_job(config, "eight", "postproc")
        wall = time.perf_counter() - start
        assert set(rec.stage_seconds) == set(rec.stage_cpu_seconds)
        assert {"read", "downsample", "encode", "decode", "upsample", "postproc", "write", "metrics"} == set(
            rec.stage_seconds
        )
        assert sum(rec.stage_seconds.values()) <= wall
        assert sum(rec.stage_cpu_seconds.values()) <= wall

    def test_nested_time_goes_to_the_innermost_stage(self, monkeypatch):
        clock = [0.0]
        fake = types.SimpleNamespace(perf_counter=lambda: clock[0], thread_time=lambda: clock[0] / 2)
        monkeypatch.setattr(runner, "time", fake)
        timer = runner._StageTimer()
        with timer("write"):
            clock[0] += 1.0
            with timer("read"):
                clock[0] += 2.0
            clock[0] += 4.0
        with timer("read"):
            clock[0] += 8.0
        assert timer.seconds == {"write": 5.0, "read": 10.0}
        assert timer.cpu_seconds == {"write": 2.5, "read": 5.0}


class TestFailureHandling:
    def test_external_codec_success_path(self, tmp_path):
        # a lossless "codec": encode copies the raw input into the
        # bitstream, decode copies it back out
        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        frames = synthetic_sequence(spec, seed=6)
        write_sequence(frames, spec, tmp_path / "s.yuv")
        import sys as _sys

        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30

[method.anchor]
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = {_sys.executable} {codec} {{in}} {{out}}

[qps]
pairs = 22:4

[metrics]
psnr_y = native
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        (rec,) = manifest.ok_jobs()
        # bitstream is the raw file itself: 16x16x1.5 x 2 frames x 8 bits
        assert rec.total_bits == 16 * 16 * 3 // 2 * 2 * 8
        assert rec.scores["psnr_y"]["sequence_value"] == 100.0  # lossless, capped

    def test_external_codec_input_is_the_downsampled_stream(self, tmp_path):
        # the input file is written from the stream of down-sampled frames,
        # and the lossless codec's output comes back through the up-sampler
        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        spec = VideoSpec(32, 24, 10, "420", frame_count=3, label="s")
        frames = synthetic_sequence(spec, seed=8)
        write_sequence(frames, spec, tmp_path / "s.yuv")
        import sys as _sys

        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 32
height = 24
bit_depth = 10
frame_count = 3
frame_rate = 30

[method.anchor]
codec = mock

[method.ext]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = {_sys.executable} {codec} {{in}} {{out}}

[qps]
pairs = 27:7
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        rec = manifest.jobs[("s", "ext", 0)]
        assert rec.status == "ok"
        half = [resample_frame(f, Fraction(1, 2), LANCZOS3, 10) for f in frames]
        coded = list(read_sequence(tmp_path / "out" / "s_ext_qp0_in.yuv", spec.scaled(Fraction(1, 2))))
        recon = list(read_sequence(tmp_path / "out" / "s_ext_qp0_recon.yuv", spec))
        assert len(coded) == len(recon) == 3
        for want, got, out in zip(half, coded, recon):
            for a, b, c in zip(want.planes(), got.planes(), out.planes()):
                assert np.array_equal(a, b)
                assert np.array_equal(np.repeat(np.repeat(a, 2, axis=0), 2, axis=1), c)

    def test_external_codec_failure_marks_job_and_continues(self, tmp_path):
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            """
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30

[method.anchor]
codec = mock

[method.broken]
codec = external
encode_cmd = false {in} {out} {qp} {w} {h}
decode_cmd = false {in} {out}

[qps]
pairs = 22:4

[metrics]
psnr_y = native
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        assert len(manifest.jobs) == 2
        failed = [r for r in manifest.jobs.values() if r.status == "failed"]
        assert len(failed) == 1 and failed[0].method == "broken"
        assert "exited" in failed[0].error
        assert len(manifest.ok_jobs()) == 1


    def test_tool_failure_keeps_exit_code_and_stderr(self, tmp_path):
        import sys as _sys

        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30

[method.anchor]
codec = mock

[method.broken]
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = sh -c 'echo boom >&2; exit 3' {{in}} {{out}}

[qps]
pairs = 22:4

[metrics]
psnr_y = native
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        (failed,) = [r for r in manifest.jobs.values() if r.status == "failed"]
        assert failed.method == "broken"
        assert failed.notes["exit_code"] == 3
        assert "boom" in failed.notes["stderr_tail"]
        (ok,) = manifest.ok_jobs()
        assert "exit_code" not in ok.notes and "stderr_tail" not in ok.notes

    def test_any_exception_ends_in_failed_record(self, tmp_path):
        # a decoder that exits 0 without writing its output makes the
        # reader raise FileNotFoundError, which is not an RqpipeError
        import sys as _sys

        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30

[method.anchor]
codec = mock

[method.silent]
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = true {{in}} {{out}}

[method.rescaled]
scale = 1/2
codec = mock

[qps]
pairs = 22:4, 32:11

[metrics]
psnr_y = native
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=2)
        assert len(manifest.jobs) == 6
        failed = [r for r in manifest.jobs.values() if r.status == "failed"]
        assert sorted((r.method, r.qp_index) for r in failed) == [("silent", 0), ("silent", 1)]
        assert all(r.error.startswith("FileNotFoundError: ") for r in failed)
        assert sorted((r.method, r.qp_index) for r in manifest.ok_jobs()) == [
            ("anchor", 0), ("anchor", 1), ("rescaled", 0), ("rescaled", 1)
        ]


def synthetic_record(sequence, method, qi, rate, quality):
    return JobRecord(
        sequence=sequence,
        method=method,
        qp_index=qi,
        base_qp_texture=[22, 27, 32, 37][qi],
        qp_texture=[22, 27, 32, 37][qi],
        qp_depth=[4, 7, 11, 15][qi],
        bitrate_kbps=rate,
        total_bits=int(rate * 1000),
        frame_count=8,
        frame_rate=30.0,
        scores={"psnr_y": {"per_frame": [], "sequence_value": quality, "aggregation": "mean_of_per_frame"}},
        stage_seconds={"encode": 1.0, "decode": 0.5, "metrics": 0.1},
        reference_sha256="x",
    )


class TestAssembleReport:
    RATES = [500.0, 900.0, 1600.0, 2800.0]
    QUALS = [31.0, 34.0, 36.5, 38.0]

    def build_manifest(self, tmp_path, deltas_by_seq):
        manifest = RunManifest(tmp_path / "m.jsonl")
        for seq, delta in deltas_by_seq.items():
            for qi in range(4):
                manifest.append_job(
                    synthetic_record(seq, "anchor", qi, self.RATES[qi], self.QUALS[qi])
                )
                manifest.append_job(
                    synthetic_record(seq, "rescaled", qi, self.RATES[qi], self.QUALS[qi] + delta)
                )
        return manifest

    def test_duplicate_of_anchor_gives_zero_bd_and_zero_total(self, tmp_path):
        manifest = self.build_manifest(tmp_path, {"s1": 0.0, "s2": 0.0})
        bundle = assemble_report(manifest, tmp_path / "report")
        table = bundle.bd_values["rescaled"]
        assert abs(table["s1"]["psnr_y"]) < 1e-12
        assert abs(table["s2"]["psnr_y"]) < 1e-12
        assert abs(table["Total"]["psnr_y"]) < 1e-12

    def test_total_row_is_mean_of_sequence_rows(self, tmp_path):
        manifest = self.build_manifest(tmp_path, {"s1": 2.0, "s2": 1.0})
        bundle = assemble_report(manifest, tmp_path / "report")
        table = bundle.bd_values["rescaled"]
        assert table["s1"]["psnr_y"] == pytest.approx(2.0, abs=1e-9)
        assert table["s2"]["psnr_y"] == pytest.approx(1.0, abs=1e-9)
        assert table["Total"]["psnr_y"] == pytest.approx(1.5, abs=1e-9)

    def test_csv_outputs_written(self, tmp_path):
        manifest = self.build_manifest(tmp_path, {"s1": 1.0})
        bundle = assemble_report(manifest, tmp_path / "report")
        rq = bundle.rq_csvs[("s1", "psnr_y")]
        with open(rq) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 methods x 4 qps
        assert rows[0]["method"] == "anchor"
        bd_path = bundle.bd_tables["rescaled"]
        with open(bd_path) as fh:
            bd_rows = list(csv.DictReader(fh))
        assert [r["sequence"] for r in bd_rows] == ["s1", "Total"]

    def test_timing_summary_has_percent_deltas(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        for qi in range(2):
            rec_a = synthetic_record("s", "anchor", qi, 100.0 * (qi + 1), 30.0 + qi)
            rec_a.stage_cpu_seconds = {"decode": 1.0}
            manifest.append_job(rec_a)
            rec_b = synthetic_record("s", "rescaled", qi, 90.0 * (qi + 1), 30.5 + qi)
            rec_b.stage_cpu_seconds = {"decode": 0.6, "postproc": 0.4}
            manifest.append_job(rec_b)
        bundle = assemble_report(manifest, tmp_path / "report")
        rows = {(r["method"], r["stage"]): r for r in bundle.timing_rows}
        assert rows[("rescaled", "decode")]["pct_delta_vs_anchor"] == "-40.00"
        assert rows[("rescaled", "postproc")]["pct_of_method_total"] == "40.00"
        assert rows[("anchor", "decode")]["pct_delta_vs_anchor"] == ""

    def test_missing_anchor_rejected(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        for qi in range(2):
            manifest.append_job(synthetic_record("s", "other", qi, 100.0 * (qi + 1), 30.0 + qi))
        with pytest.raises(ConfigError, match="anchor"):
            assemble_report(manifest, tmp_path / "report")


class TestDumpPatch:
    @pytest.fixture
    def sequence(self, tmp_path):
        spec = VideoSpec(32, 24, 8, "420", frame_count=3)
        frames = synthetic_sequence(spec, seed=2)
        path = tmp_path / "s.yuv"
        write_sequence(frames, spec, path)
        return path, spec, frames

    def test_full_frame_patch_lossless(self, sequence, tmp_path):
        path, spec, frames = sequence
        out = dump_patch(path, spec, 1, 0, 0, 32, 24, tmp_path / "p.pgm")
        blob = out.read_bytes()
        header = b"P5\n32 24\n255\n"
        assert blob.startswith(header)
        data = np.frombuffer(blob[len(header):], np.uint8).reshape(24, 32)
        assert np.array_equal(data, frames[1].y)

    def test_crop_dimensions(self, sequence, tmp_path):
        path, spec, _ = sequence
        out = dump_patch(path, spec, 2, 5, 3, 8, 6, tmp_path / "p.pgm")
        assert out.read_bytes().startswith(b"P5\n8 6\n255\n")

    def test_10bit_shifts_to_8(self, tmp_path):
        spec = VideoSpec(4, 4, 10, "400", frame_count=1)
        from rqpipe import Frame

        frame = Frame(y=np.full((4, 4), 1023, np.uint16))
        path = tmp_path / "d.yuv"
        write_sequence([frame], spec, path)
        out = dump_patch(path, spec, 0, 0, 0, 4, 4, tmp_path / "p.pgm")
        data = out.read_bytes().split(b"\n", 3)[3]
        assert set(data) == {255}

    def test_out_of_bounds_names_valid_range(self, sequence, tmp_path):
        path, spec, _ = sequence
        with pytest.raises(DimensionError, match="32"):
            dump_patch(path, spec, 0, 30, 0, 8, 8, tmp_path / "p.pgm")
