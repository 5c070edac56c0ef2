import configparser
import csv
import hashlib
import json
import logging
import math
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import types
from collections import deque
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

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
from rqpipe.errors import ConfigError, DimensionError, ExternalToolError, SampleRangeError, ShapeError, run_tool
from rqpipe.pipeline import (
    DEFAULT_QP_PAIRS,
    HALF_RES_QP_OFFSET,
    QpPair,
    RunManifest,
    assemble_report,
    dump_patch,
    load_experiment,
)
from rqpipe import postproc_cnn, resample
from rqpipe.pipeline import codecs, config, runner
from rqpipe.pipeline.config import ExperimentConfig
from rqpipe.pipeline import manifest as manifest_module
from rqpipe.pipeline.manifest import HASH_CHUNK, JobRecord, sha256_file


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

    @pytest.mark.parametrize("old, new, match", [
        ("psnr_y = native", "psnr_y = native\nvmaf = echo {ref} {width}", r"missing \{dist\}; unknown \{width\}"),
        ("codec = mock", "codec = external\nencode_cmd = enc {in} {out} {qp} {w} {h} {fps}\n"
         "decode_cmd = dec {in} {out}", r"encode template unknown \{fps\}"),
        ("codec = mock", "codec = external\nencode_cmd = enc {in} {out} {qp} {w} {h}\n"
         "decode_cmd = dec {in}", r"decode template missing \{out\}"),
        ("codec = mock", "codec = external\nencode_cmd = enc {in} {out} {qp} {w} {h}\n"
         "decode_cmd = dec {in} {out} 'unclosed",
         r"decode template does not parse \(No closing quotation\): \"dec \{in\} \{out\} 'unclosed\""),
    ], ids=["metric", "encode", "decode", "unbalanced-quote"])
    def test_bad_tool_template_rejected_at_load(self, experiment_dir, old, new, match):
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=match):
            load_experiment(experiment_dir / "broken.ini")

    @pytest.mark.parametrize("metric", ["vmaf", "psnr"])
    def test_only_psnr_y_is_native(self, experiment_dir, metric):
        # any other id set to native used to be scored as PSNR-Y under its name
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace("psnr_y = native", f"psnr_y = native\n{metric} = native"))
        with pytest.raises(ConfigError, match=rf"metric '{metric}': only psnr_y is computed natively"):
            load_experiment(experiment_dir / "broken.ini")
        cfg = load_experiment(experiment_dir / "exp.ini")
        cfg.metrics[metric] = "native"
        with pytest.raises(ConfigError, match=metric):
            cfg.validate()

    @pytest.mark.parametrize("stride, pad", [(1, 0), (2, 1)], ids=["3x3-pad-0", "stride-2"])
    def test_size_changing_net_rejected_at_load(self, experiment_dir, stride, pad):
        # such a net used to load, and every post-processed job then failed after its CNN ran
        doc = json.loads((experiment_dir / "net.json").read_text())
        doc["layers"][0].update(stride=stride, pad=pad)
        (experiment_dir / "net.json").write_text(json.dumps(doc))
        with pytest.raises(ShapeError, match=rf"^conv layer 'head': kernel 3, stride {stride}, pad {pad};"):
            load_experiment(experiment_dir / "exp.ini")

    def test_duplicate_method_labels_rejected(self, experiment_dir):
        # an INI file cannot name a section twice, so only a config built
        # in code reaches this check
        cfg = load_experiment(experiment_dir / "exp.ini")
        cfg.methods.append(cfg.methods[0])
        labels = r"\['anchor', 'rescaled', 'postproc', 'anchor'\]"
        with pytest.raises(ConfigError, match=rf"^duplicate method labels: {labels}$"):
            cfg.validate()

    def test_timeouts(self, experiment_dir):
        cfg = load_experiment(experiment_dir / "exp.ini")
        assert cfg.metric_timeout is None
        text = (experiment_dir / "exp.ini").read_text().replace(
            "workdir = out", "workdir = out\ncodec_timeout = 2.5\nmetric_timeout = 30"
        ).replace("[method.anchor]\nscale = 1/1\ncodec = mock", "[method.anchor]\ncodec = external\n"
                  "encode_cmd = enc {in} {out} {qp} {w} {h}\ndecode_cmd = dec {in} {out}")
        (experiment_dir / "timed.ini").write_text(text)
        cfg = load_experiment(experiment_dir / "timed.ini")
        assert cfg.metric_timeout == 30.0
        assert cfg.methods[0].codec.timeout == 2.5
        assert cfg.methods[0].codec.describe()["timeout"] == 2.5

    @pytest.mark.parametrize("value", ["0", "-1", "soon", "inf"])
    def test_bad_timeout_rejected(self, experiment_dir, value):
        text = (experiment_dir / "exp.ini").read_text()
        for key in ("codec_timeout", "metric_timeout"):
            (experiment_dir / "broken.ini").write_text(text.replace("workdir = out", f"workdir = out\n{key} = {value}"))
            with pytest.raises(ConfigError, match=rf"\[run\] {key} must be a positive number of seconds"):
                load_experiment(experiment_dir / "broken.ini")

    @pytest.mark.parametrize("old, new, match", [
        ("qp_texture_offset = -6", "qp_textur_offset = -6", r"\[method\.rescaled\]: unknown key qp_textur_offset"),
        ("workdir = out", "workdir = out\nworkers = 2", r"\[run\]: unknown key workers"),
        ("frame_rate = 30", "frame_rate = 30\nfps = 30", r"\[sequence\.synthA\]: unknown key fps"),
        ("pairs = ", "pair = ", r"\[qps\]: unknown key pair"),
        ("[metrics]", "[metric]", r"unknown section \[metric\]"),
        ("[method.anchor]", "[method]", r"unknown section \[method\]"),
    ], ids=["method", "run", "sequence", "qps", "section", "unlabelled-method"])
    def test_unknown_key_or_section_rejected(self, experiment_dir, old, new, match):
        # a misspelt key used to be ignored: the method then ran with no offset
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=match):
            load_experiment(experiment_dir / "broken.ini")

    def test_default_keys_and_metric_ids_are_not_flagged(self, experiment_dir):
        text = (experiment_dir / "exp.ini").read_text().replace("frame_rate = 30\n", "")
        (experiment_dir / "shared.ini").write_text(
            "[DEFAULT]\nframe_rate = 25\n" + text.replace("psnr_y = native", "psnr_y = native\nvmaf = tool {ref} {dist}")
        )
        cfg = load_experiment(experiment_dir / "shared.ini")
        assert cfg.sequences[0].frame_rate == 25.0
        assert cfg.metrics == {"psnr_y": "native", "vmaf": "tool {ref} {dist}"}

    @pytest.mark.parametrize("old, new, match", [
        ("frame_count = 8", "frame_count = 0", r"sequence 'synthA': frame_count must be at least 1"),
        ("frame_rate = 30", "frame_rate = 0", r"sequence 'synthA': frame_rate must be a finite number > 0, got 0"),
        ("frame_rate = 30", "frame_rate = -30", r"sequence 'synthA': frame_rate must be a finite number > 0"),
        ("frame_rate = 30", "frame_rate = nan", r"sequence 'synthA': frame_rate must be a finite number > 0"),
        ("frame_rate = 30", "frame_rate = inf", r"sequence 'synthA': frame_rate must be a finite number > 0"),
        ("frame_rate = 30", "frame_rate = thirty", r"sequence 'synthA': frame_rate must be a number, got 'thirty'"),
        ("scale = 1/2", "scale = 1/3",
         r"method 'rescaled' cannot code sequence 'synthA': scale 1/3 of 64x64 is not integral"),
        ("scale = 1/2", "scale = 1/64",
         r"method 'rescaled' cannot code sequence 'synthA': 4:2:0 requires even dimensions, got 1x1"),
        ("down_filter = lanczos:3", "down_filter = lanczos:x", r"method 'rescaled': cannot parse filter 'lanczos:x'"),
        ("up_filter = nn", "up_filter = box", r"method 'rescaled': cannot parse filter 'box'"),
        ("frame_rate = 30", "frame_rate = 30\ndepth_path = absent.yuv",
         r"sequence 'synthA': file missing: .*absent\.yuv"),
    ], ids=["frame-count", "rate-zero", "rate-negative", "rate-nan", "rate-inf", "rate-text",
            "scale-fraction", "scale-odd", "down-filter", "up-filter", "depth-missing"])
    def test_value_that_fails_every_job_rejected_at_load(self, experiment_dir, old, new, match):
        # each used to fail every job of its sequence or method, or, for a
        # zero or non-finite frame rate, drop every curve from the report
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=match):
            load_experiment(experiment_dir / "broken.ini")

    @pytest.mark.parametrize("old, new, match", [
        # each of these used to escape as a bare ValueError or TypeError
        ("qp_texture_offset = -6", "qp_texture_offset = -6.5",
         r"method 'rescaled': qp_texture_offset must be an integer, got '-6\.5'"),
        ("workdir = out", "workdir = out\npsnr_inf_cap = high", r"\[run\] psnr_inf_cap must be a number, got 'high'"),
        ("path = synthA.yuv\n", "", r"sequence 'synthA': path must be set"),
        ("frame_rate = 30", "frame_rate = 30\ndepth_path = synthA.yuv\ndepth_bit_depth = ten",
         r"sequence 'synthA': depth_bit_depth must be 8 or 10, got 'ten'"),
        ("postproc_weights", "postproc_luma_only = maybe\npostproc_weights",
         r"method 'postproc': postproc_luma_only must be true or false, got 'maybe'"),
        # these used to read "bad or missing spec fields"
        ("bit_depth = 8", "bit_depth = 12", r"sequence 'synthA': bit_depth must be 8 or 10, got '12'"),
        ("chroma = 420", "chroma = 444", r"sequence 'synthA': chroma must be 420 or 400, got '444'"),
        ("width = 64", "width = sixty", r"sequence 'synthA': width must be a positive integer, got 'sixty'"),
        ("width = 64", "width = 0", r"sequence 'synthA': width must be a positive integer, got '0'"),
        ("width = 64", "width = 63", r"sequence 'synthA': 4:2:0 requires even dimensions, got 63x64"),
        # the last weight file for a QP used to replace the first without a word
        ("27=w27.rqpw", "22=w27.rqpw", r"method 'postproc': two weight files for qp 22 \(postproc_weights = '22="),
        # these used to escape as a bare OSError
        ("postproc_net = net.json", "postproc_net = absent.json",
         r"method 'postproc': .*absent\.json.* \(postproc_net = 'absent\.json'\)"),
        ("postproc_net = net.json", "postproc_net = .", r"method 'postproc': .*directory.* \(postproc_net = '\.'\)"),
        # and this as a configparser error
        ("frame_rate = 30", "frame_rate = 30\nframe_rate = 25",
         r"option 'frame_rate' in section 'sequence\.synthA' already exists"),
    ], ids=["offset-fraction", "inf-cap-text", "no-path", "depth-bit-depth-text", "luma-only-text",
            "bit-depth", "chroma", "width-text", "width-zero", "width-odd", "weights-twice",
            "net-missing", "net-directory", "key-twice"])
    def test_bad_value_is_a_config_error_naming_key_and_value(self, experiment_dir, old, new, match):
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=match):
            load_experiment(experiment_dir / "broken.ini")

    @pytest.mark.parametrize("old, new, match", [
        ("postproc_net = net.json\n", "", r"method 'postproc': postproc_weights without postproc_net"),
        ("frame_rate = 30", "frame_rate = 30\ndepth_bit_depth = 10",
         r"sequence 'synthA': depth_bit_depth without depth_path"),
        ("scale = 1/1\ncodec = mock", "scale = 1/1\ncodec = mock\nencode_cmd = enc {in} {out} {qp} {w} {h}",
         r"method 'anchor': encode_cmd needs codec = external, got codec = mock"),
        ("scale = 1/1\ncodec = mock", "scale = 1/1\ncodec = mock\ndecode_cmd = dec {in} {out}",
         r"method 'anchor': decode_cmd needs codec = external, got codec = mock"),
        ("scale = 1/1\ncodec = mock", "scale = 1/1\ncodec = external\nencode_cmd = enc {in} {out} {qp} {w} {h}",
         r"method 'anchor': codec external needs encode_cmd and decode_cmd"),
        ("postproc_weights = 22=w22.rqpw, 27=w27.rqpw, 32=w32.rqpw, 37=w37.rqpw\n", "",
         r"method 'postproc': postproc_net without postproc_weights"),
    ], ids=["weights-without-net", "depth-bit-depth-without-path", "encode-under-mock", "decode-under-mock",
            "external-without-decode", "net-without-weights"])
    def test_key_without_the_key_it_acts_with_rejected(self, experiment_dir, old, new, match):
        # each used to be ignored: the method ran with no post-processing,
        # the sequence with no depth stream, the mock codec in place of the
        # commands
        text = (experiment_dir / "exp.ini").read_text()
        assert old in text
        (experiment_dir / "broken.ini").write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=match):
            load_experiment(experiment_dir / "broken.ini")

    def test_undecodable_config_is_a_config_error(self, tmp_path):
        # used to escape as a bare UnicodeDecodeError
        (tmp_path / "bad.ini").write_bytes(b"[run]\nworkdir = \xff\n")
        with pytest.raises(ConfigError, match=r"cannot read experiment config .*bad\.ini: .*can't decode byte 0xff"):
            load_experiment(tmp_path / "bad.ini")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_psnr_inf_cap_must_be_finite_and_positive(self, experiment_dir, value):
        # a NaN cap used to load, and since NaN != NaN every run then wrote
        # a new manifest header
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace("workdir = out", f"workdir = out\npsnr_inf_cap = {value}"))
        with pytest.raises(ConfigError, match=r"\[run\] psnr_inf_cap must be a finite number > 0"):
            load_experiment(experiment_dir / "broken.ini")
        cfg = load_experiment(experiment_dir / "exp.ini")
        cfg.psnr_inf_cap = float(value)
        with pytest.raises(ConfigError, match="psnr_inf_cap"):
            cfg.validate()

    def test_module_docstring_lists_every_key_with_its_default(self, tmp_path):
        # the example in the docstring is the key list: it parses as INI, it
        # names the keys the loader reads, with their defaults, and it loads
        example = textwrap.dedent("    [run]" + config.__doc__.split("    [run]", 1)[1].split("\n\nRelative", 1)[0])
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(example)
        documented = {name.partition(".")[0] + name.partition(".")[1]: parser[name] for name in parser.sections()}
        assert documented.pop("metrics")
        assert documented.keys() == config._KEYS.keys()
        for kind, keys in config._KEYS.items():
            assert set(documented[kind]) == set(keys), kind
            for key, (_, _, default) in keys.items():
                if default is not config._REQUIRED:
                    assert documented[kind][key] == (default or ""), key
        spec = VideoSpec(64, 64, 8, "420", frame_count=8)
        (tmp_path / "seqs").mkdir()
        write_sequence(synthetic_sequence(spec, seed=1), spec, tmp_path / "seqs" / "a.yuv")
        (tmp_path / "example.ini").write_text(example)
        cfg = load_experiment(tmp_path / "example.ini")
        assert cfg.workdir == tmp_path / "rqpipe_out" and cfg.psnr_inf_cap == 100.0
        assert [m.label for m in cfg.methods] == ["<label>"] and cfg.methods[0].postproc is None

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

    def test_a_config_path_is_validated_once(self, experiment_dir, monkeypatch):
        # load_experiment validates the config it parses, reading every weight
        # file; run_experiment does not validate it again. A config passed in
        # as an object is validated by run_experiment
        calls = []
        validate = ExperimentConfig.validate

        def counting(cfg):
            calls.append(cfg)
            return validate(cfg)

        monkeypatch.setattr(ExperimentConfig, "validate", counting)
        run_experiment(experiment_dir / "exp.ini", workers=1)
        assert len(calls) == 1
        cfg = load_experiment(experiment_dir / "exp.ini")
        run_experiment(cfg, workers=1)
        assert calls[1:] == [cfg, cfg]

    def test_manifest_reload_roundtrip(self, manifest):
        again = RunManifest.load(manifest.path)
        assert set(again.jobs) == set(manifest.jobs)
        assert again.header["version"]
        assert again.header["config"]["conventions"]["resample_phase"] == "center_aligned"

    def test_post_processed_method_at_full_size(self, experiment_dir):
        # at scale 1/1 nothing is upsampled, so a CNN on the anchor's coded
        # frames needs no up_filter: it codes the anchor's stream and ends ok
        (experiment_dir / "full.ini").write_text(
            """
[sequence.synthA]
path = synthA.yuv
width = 64
height = 64
frame_count = 8
frame_rate = 30

[method.anchor]
codec = mock

[method.cnn]
postproc_net = net.json
postproc_weights = 22=w22.rqpw, 27=w27.rqpw

[qps]
pairs = 27:7
"""
        )
        manifest = run_experiment(experiment_dir / "full.ini", workdir=experiment_dir / "full", workers=1)
        anchor, cnn = manifest.jobs[("synthA", "anchor", 0)], manifest.jobs[("synthA", "cnn", 0)]
        assert cnn.status == "ok" and cnn.postproc_weights_qp == 27
        assert "postproc" in cnn.stage_seconds and "upsample" not in cnn.stage_seconds
        assert cnn.total_bits == anchor.total_bits
        assert cnn.artifacts["recon"]["sha256"] != anchor.artifacts["recon"]["sha256"]

    def test_per_frame_psnr_recorded_as_the_mean_counts_it(self, tmp_path):
        # at QP 0 every frame scores about 70 dB: each is recorded at the
        # 40 dB cap, as the sequence value counts it, so the sequence value
        # is the mean of the recorded values at every QP
        spec = VideoSpec(32, 32, 8, "420", frame_count=3, label="s")
        write_sequence(synthetic_sequence(spec, seed=5), spec, tmp_path / "s.yuv")
        (tmp_path / "cap.ini").write_text(
            """
[run]
psnr_inf_cap = 40

[sequence.s]
path = s.yuv
width = 32
height = 32
frame_count = 3
frame_rate = 30

[method.anchor]
codec = mock

[qps]
pairs = 0:0, 37:15
"""
        )
        manifest = run_experiment(tmp_path / "cap.ini", workers=1)
        scores = [manifest.jobs[("s", "anchor", qi)].scores["psnr_y"] for qi in (0, 1)]
        assert scores[0]["per_frame"] == [40.0, 40.0, 40.0] and scores[0]["sequence_value"] == 40.0
        assert 30 < min(scores[1]["per_frame"]) and max(scores[1]["per_frame"]) < 40
        for score in scores:
            assert np.mean(score["per_frame"]) == pytest.approx(score["sequence_value"], abs=1e-6)


def cpu_flags():
    try:
        return Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return []


class TestDeterminismAndResume:
    @staticmethod
    def strip_volatile(manifest):
        out = []
        for key in sorted(manifest.jobs):
            doc = json.loads(manifest.jobs[key].to_line())
            doc.pop("stage_seconds")
            doc.pop("stage_cpu_seconds")
            for name in ("process_peak_rss_mb", "run_start_peak_rss_mb"):
                doc["notes"].pop(name, None)  # measurements, as the timings are
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

    def test_each_finished_job_logs_one_progress_line(self, experiment_dir, caplog):
        # one INFO line per job as it ends: key, status, wall seconds and
        # how many of the jobs to run are done; none for a job resume skips
        def progress():
            return [r.getMessage() for r in caplog.records if r.name == "rqpipe.pipeline.runner"]

        with caplog.at_level(logging.INFO, logger="rqpipe.pipeline.runner"):
            run_experiment(experiment_dir / "exp.ini", workers=2)
            lines = progress()
            caplog.clear()
            run_experiment(experiment_dir / "exp.ini", workers=2)
            assert progress() == []
        pattern = re.compile(r"job synthA/(anchor|rescaled|postproc)/([0-3]) ok in \d+\.\d\d s \((\d+)/12\)")
        found = [pattern.fullmatch(line) for line in lines]
        assert all(found), lines
        assert sorted((m[1], int(m[2])) for m in found) == sorted(
            (method, qi) for method in ("anchor", "rescaled", "postproc") for qi in range(4)
        )
        assert [int(m[3]) for m in found] == list(range(1, 13))

    def test_long_job_logs_its_frames(self, tmp_path, monkeypatch, caplog):
        # a frame line at most once per PROGRESS_SECONDS of a job's wall
        # time: none for a fast job, every frame's with the gap set to 0
        spec = VideoSpec(32, 32, 8, "420", frame_count=3, label="s")
        write_sequence(synthetic_sequence(spec, seed=5), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            "[sequence.s]\npath = s.yuv\nwidth = 32\nheight = 32\nframe_count = 3\nframe_rate = 30\n\n"
            "[method.anchor]\ncodec = mock\n\n[qps]\npairs = 27:7\n"
        )

        def frame_lines(gap):
            monkeypatch.setattr(runner, "PROGRESS_SECONDS", gap)
            caplog.clear()
            run_experiment(tmp_path / "exp.ini", workdir=tmp_path / f"out{gap}", workers=1)
            lines = [r.getMessage() for r in caplog.records if r.name == "rqpipe.pipeline.runner"]
            return [line for line in lines if ": frame " in line]

        with caplog.at_level(logging.INFO, logger="rqpipe.pipeline.runner"):
            assert frame_lines(runner.PROGRESS_SECONDS) == []
            lines = frame_lines(0)
        pattern = re.compile(r"job s/anchor/0: frame (\d)/3 in \d+\.\d s")
        assert [pattern.fullmatch(line)[1] for line in lines] == ["1", "2", "3"]

    def test_each_record_holds_the_process_peak_rss(self, experiment_dir):
        run_experiment(experiment_dir / "exp.ini", workers=2)
        docs = [json.loads(line) for line in (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()]
        peaks = [doc["notes"]["process_peak_rss_mb"] for doc in docs if doc["record"] == "job"]
        assert len(peaks) == 12 and peaks[0] > 0
        assert peaks == sorted(peaks)  # a high-water mark, read as each record is appended

    def test_each_record_holds_the_peak_rss_at_its_run_start(self, experiment_dir):
        # 64 MB touched before the run: every record's run-start peak holds
        # it, and lies at or below the process's peak as the record is
        # written, within 1 MB: the kernel reads ru_maxrss from its per-CPU
        # RSS counters, which lag their exact sum, VmHWM, by up to a batch
        # of pages a CPU
        held = np.ones(64 << 20, np.uint8)
        run_experiment(experiment_dir / "exp.ini", workers=1)
        del held
        docs = [json.loads(line) for line in (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()]
        notes = [doc["notes"] for doc in docs if doc["record"] == "job"]
        assert len(notes) == 12 and len({n["run_start_peak_rss_mb"] for n in notes}) == 1
        for n in notes:
            assert 64 <= n["run_start_peak_rss_mb"] <= n["process_peak_rss_mb"] + 1

    def test_inputs_in_another_directory_resume_appends_no_job(self, experiment_dir):
        # the config hash covers the files' contents, not their paths
        first = run_experiment(experiment_dir / "exp.ini", workers=1)
        moved = experiment_dir / "moved"
        moved.mkdir()
        for name in ["exp.ini", "synthA.yuv", "net.json", *(f"w{qp}.rqpw" for qp in (22, 27, 32, 37))]:
            (moved / name).write_bytes((experiment_dir / name).read_bytes())
        again = run_experiment(moved / "exp.ini", workdir=experiment_dir / "out", workers=1)
        docs = [json.loads(line) for line in (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()]
        assert [doc["record"] for doc in docs].count("job") == 12
        assert {k: r.config_sha256 for k, r in again.jobs.items()} == {
            k: r.config_sha256 for k, r in first.jobs.items()
        }

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


    def test_resume_redoes_a_record_with_an_unknown_field(self, experiment_dir, caplog):
        # a record with a field this version does not know (written by a newer
        # one) is skipped with a warning that names the field: resume redoes
        # its job, and a report of the manifest as loaded leaves it out
        first = run_experiment(experiment_dir / "exp.ini", workers=1)
        path = experiment_dir / "out" / "manifest.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        doc = json.loads(lines[-1]) | {"gpu_seconds": 1.5}
        path.write_text("".join(lines[:-1]) + json.dumps(doc) + "\n")
        key = (doc["sequence"], doc["method"], doc["qp_index"])
        with caplog.at_level(logging.WARNING, logger="rqpipe.pipeline.manifest"):
            loaded = RunManifest.load(path)
        assert "gpu_seconds" in caplog.text
        assert key not in loaded.jobs and len(loaded.ok_jobs()) == 11
        bundle = assemble_report(loaded, experiment_dir / "report")
        with open(bundle.rq_csvs[("synthA", "psnr_y")]) as fh:
            assert len(list(csv.DictReader(fh))) == 11
        again = run_experiment(experiment_dir / "exp.ini", workers=1)
        after = path.read_text().splitlines()
        assert len(after) == len(lines) + 1
        assert tuple(json.loads(after[-1])[k] for k in ("sequence", "method", "qp_index")) == key
        assert self.strip_volatile(again) == self.strip_volatile(first)

    def test_resume_redoes_jobs_of_a_changed_config(self, tmp_path):
        spec = VideoSpec(16, 16, 8, "420", frame_count=2)
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        body = """
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
qp_texture_offset = 0
[qps]
pairs = 27:7
"""
        (tmp_path / "exp.ini").write_text(body)
        first = run_experiment(tmp_path / "exp.ini", workers=1)
        (old,) = first.ok_jobs()
        assert old.qp_texture == 27 and old.config_sha256
        (tmp_path / "exp.ini").write_text(body.replace("qp_texture_offset = 0", "qp_texture_offset = -10"))
        again = run_experiment(tmp_path / "exp.ini", workers=1)
        (new,) = again.ok_jobs()
        assert new.qp_texture == 17 and new.total_bits > old.total_bits
        assert new.config_sha256 != old.config_sha256
        path = tmp_path / "out" / "manifest.jsonl"
        kinds = [json.loads(line)["record"] for line in path.read_text().splitlines()]
        assert kinds == ["run_header", "job", "run_header", "job"]
        assert RunManifest.load(path).header["config"]["methods"][0]["qp_texture_offset"] == -10

    def test_resume_redoes_jobs_of_a_changed_weight_file(self, experiment_dir):
        from rqpipe import build_mfrnet_style

        run_experiment(experiment_dir / "exp.ini", workers=1)
        save_weights(experiment_dir / "w27.rqpw", random_weights(build_mfrnet_style(1, 1, 4, 4), seed=1, scale=0.02))
        again = run_experiment(experiment_dir / "exp.ini", workers=1)
        lines = (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 12 + 1  # same config echo, so no new header
        redone = json.loads(lines[-1])
        assert (redone["method"], redone["qp_index"]) == ("postproc", 1)
        assert len(again.ok_jobs()) == 12

    def test_resume_with_the_same_config_object_redoes_jobs_of_a_rewritten_weight_file(self, experiment_dir):
        # validate() hashes a weight file again when its os.stat signature
        # changed, so the config object that ran the jobs sees the new
        # values of the same shapes; an untouched resume appends nothing
        cfg = load_experiment(experiment_dir / "exp.ini")
        first = run_experiment(cfg, workers=1)
        path = experiment_dir / "out" / "manifest.jsonl"
        size = path.stat().st_size
        run_experiment(cfg, workers=1)
        assert path.stat().st_size == size
        save_weights(experiment_dir / "w27.rqpw", random_weights(build_mfrnet_style(1, 1, 4, 4), seed=1, scale=0.02))
        again = run_experiment(cfg, workers=1)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 12 + 1
        key = ("synthA", "postproc", 1)
        assert json.loads(lines[-1])["qp_index"] == 1 and again.jobs[key].status == "ok"
        assert again.jobs[key].config_sha256 != first.jobs[key].config_sha256
        size = path.stat().st_size
        run_experiment(cfg, workers=1)
        assert path.stat().st_size == size

    def test_resume_redoes_records_without_a_config_hash(self, experiment_dir):
        run_experiment(experiment_dir / "exp.ini", workers=1)
        path = experiment_dir / "out" / "manifest.jsonl"
        old = []
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            doc.pop("config_sha256", None)
            old.append(json.dumps(doc, sort_keys=True))
        path.write_text("\n".join(old) + "\n")
        run_experiment(experiment_dir / "exp.ini", workers=1)
        assert len(path.read_text().splitlines()) == 1 + 12 + 12

    def test_a_weight_file_changed_after_validation_fails_its_job(self, experiment_dir, monkeypatch):
        # the config records each weight file's sha256 when it validates it;
        # a job refuses weights that no longer hash to it. The file changes
        # after the run's own validate(), as a job starts
        cfg = load_experiment(experiment_dir / "exp.ini")
        run_experiment(cfg, workers=1)
        validate = ExperimentConfig.validate

        def validate_then_rewrite(self):
            validate(self)
            save_weights(experiment_dir / "w27.rqpw", random_weights(build_mfrnet_style(1, 1, 4, 4), seed=1, scale=0.02))

        monkeypatch.setattr(ExperimentConfig, "validate", validate_then_rewrite)
        manifest = run_experiment(cfg, workers=1, resume=False)
        (failed,) = [r for r in manifest.jobs.values() if r.status != "ok"]
        assert (failed.method, failed.qp_index) == ("postproc", 1)
        assert "w27.rqpw: changed, its sha256 is" in failed.error

    def test_resume_keeps_jobs_when_only_the_codec_timeout_changes(self, tmp_path):
        # a longer timeout cannot change a job that succeeded: no ok record
        # is redone, and the new echo gets its own header
        import sys as _sys

        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=1, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        body = f"""
[run]
workdir = out
codec_timeout = {{timeout}}

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 1
frame_rate = 30

[method.ext]
codec = external
encode_cmd = {_sys.executable} {codec} {{{{in}}}} {{{{out}}}} {{{{qp}}}} {{{{w}}}} {{{{h}}}}
decode_cmd = {_sys.executable} {codec} {{{{in}}}} {{{{out}}}}

[qps]
pairs = 22:4, 37:15
"""
        (tmp_path / "exp.ini").write_text(body.format(timeout=30))
        assert len(run_experiment(tmp_path / "exp.ini", workers=1).ok_jobs()) == 2
        (tmp_path / "exp.ini").write_text(body.format(timeout=60))
        again = run_experiment(tmp_path / "exp.ini", workers=1)
        lines = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1
        assert json.loads(lines[-1])["config"]["methods"][0]["codec"]["timeout"] == 60
        assert len(again.ok_jobs()) == 2

    def test_a_record_is_appended_when_its_job_ends(self, experiment_dir, monkeypatch):
        # the first job waits, for at most 10 s, until the second job's
        # record is in the manifest file: it is there only if records are
        # appended as jobs end, not in submission order
        path = experiment_dir / "out" / "manifest.jsonl"
        run_job = runner._run_job
        seen = []

        def second_on_disk():
            lines = path.read_text().split("\n")[:-1] if path.exists() else []
            return any(
                (doc.get("method"), doc.get("qp_index")) == ("anchor", 1) for doc in map(json.loads, lines)
            )

        def job(seq, method, qi, *args):
            if (method.label, qi) == ("anchor", 0):
                deadline = time.monotonic() + 10.0
                while not second_on_disk() and time.monotonic() < deadline:
                    time.sleep(0.01)
                seen.append(second_on_disk())
            return run_job(seq, method, qi, *args)

        monkeypatch.setattr(runner, "_run_job", job)
        manifest = run_experiment(experiment_dir / "exp.ini", workers=2)
        assert seen == [True]
        assert len(manifest.ok_jobs()) == 12

    def test_post_processed_jobs_run_first(self, experiment_dir, monkeypatch):
        # at one worker the jobs run as submitted, a stream at a time: every
        # stream that holds a post-processed job, the longest, before any
        # other, each its coder and then its replayers in the config's
        # order; the records are those of the config's order
        (experiment_dir / "two.ini").write_text(
            (experiment_dir / "exp.ini").read_text() + "\n[sequence.synthB]\npath = synthA.yuv\n"
            "width = 64\nheight = 64\nbit_depth = 8\nchroma = 420\nframe_count = 2\nframe_rate = 30\n"
        )
        run_job, order = runner._run_job, []

        def spy(seq, method, qi, *args):
            order.append((seq.label, method.label, qi))
            return run_job(seq, method, qi, *args)

        def anchors(s):
            return [(s, "anchor", qi) for qi in range(4)]

        def shared(s):  # the streams that rescaled codes and postproc replays
            return [(s, m, qi) for qi in range(4) for m in ("rescaled", "postproc")]

        monkeypatch.setattr(runner, "_run_job", spy)
        first = run_experiment(experiment_dir / "two.ini", workdir=experiment_dir / "first", workers=1)
        assert order == shared("synthA") + shared("synthB") + anchors("synthA") + anchors("synthB")
        order.clear()
        monkeypatch.setattr(runner, "sorted", lambda jobs, key: list(jobs), raising=False)  # the config's order
        in_order = run_experiment(experiment_dir / "two.ini", workdir=experiment_dir / "in_order", workers=1)
        assert order == anchors("synthA") + shared("synthA") + anchors("synthB") + shared("synthB")
        assert self.strip_volatile(first) == self.strip_volatile(in_order)

    def test_resume_redoes_a_missing_recon_and_a_recon_that_is_not_a_file(self, experiment_dir):
        manifest = run_experiment(experiment_dir / "exp.ini", workers=1)
        gone, folder = (manifest.jobs[("synthA", "anchor", qi)] for qi in (1, 2))
        os.unlink(gone.artifacts["recon"]["path"])
        os.unlink(folder.artifacts["recon"]["path"])
        os.mkdir(folder.artifacts["recon"]["path"])
        run_experiment(experiment_dir / "exp.ini", workers=1)
        lines = (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()
        redone = sorted(map(json.loads, lines[13:]), key=lambda doc: doc["qp_index"])
        assert [(doc["method"], doc["qp_index"], doc["status"]) for doc in redone] == [
            ("anchor", 1, "ok"), ("anchor", 2, "failed")  # a job cannot write over a folder
        ]
        assert redone[1]["error"].startswith("IsADirectoryError")

    def test_recon_is_hashed_as_it_is_written(self, experiment_dir, monkeypatch):
        # each record's recon sha256 is taken from the bytes write_sequence
        # writes: a first run opens no recon to read it, and the hash is the
        # file's, as a read-back gave it
        reads = []
        real_open = open

        def spy(file, mode="r", *args, **kwargs):
            if str(file).endswith("_recon.yuv") and "r" in mode:
                reads.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        manifest = run_experiment(experiment_dir / "exp.ini", workers=2)
        monkeypatch.undo()
        assert reads == []
        assert len(manifest.ok_jobs()) == 12
        for rec in manifest.jobs.values():
            assert rec.artifacts["recon"]["sha256"] == sha256_file(rec.artifacts["recon"]["path"])

    @staticmethod
    def appended_jobs(path, before):
        """(method, qp index) of every job record appended to the manifest
        at `path` after its first `before` bytes."""
        docs = map(json.loads, path.read_bytes()[before:].decode().splitlines())
        return sorted((doc["method"], doc["qp_index"]) for doc in docs if doc["record"] == "job")

    @pytest.mark.parametrize("engine, methods", [
        (postproc_cnn, ["postproc"]),
        (codecs, ["anchor", "postproc", "rescaled"]),
        (resample, ["postproc", "rescaled"]),
    ], ids=["postproc_cnn", "mock-codec", "resample"])
    def test_resume_reruns_exactly_the_jobs_of_a_changed_arithmetic(self, experiment_dir, monkeypatch,
                                                                      engine, methods):
        # a record made with other sums than the running code's is not
        # resumed: every job that runs the engine is redone once, and no other
        manifest = experiment_dir / "out" / "manifest.jsonl"
        run_experiment(experiment_dir / "exp.ini", workers=2)
        before = manifest.stat().st_size
        monkeypatch.setattr(engine, "ARITHMETIC", engine.ARITHMETIC + " changed")
        run_experiment(experiment_dir / "exp.ini", workers=2)
        assert self.appended_jobs(manifest, before) == [(m, qi) for m in methods for qi in range(4)]
        before = manifest.stat().st_size
        run_experiment(experiment_dir / "exp.ini", workers=2)
        assert manifest.stat().st_size == before

    @pytest.mark.skipif("avx2" not in cpu_flags(), reason="OpenBLAS's Haswell kernels need AVX2")
    def test_resume_under_another_blas_core_reruns_only_post_processed_jobs(self, experiment_dir):
        # the CNN's sums follow the OpenBLAS kernels, the codec's and the
        # resampler's do not: a workdir resumed under the Haswell kernels,
        # which OpenBLAS picks as it loads, so in a child process, redoes
        # its post-processed jobs once and no other
        manifest = run_experiment(experiment_dir / "exp.ini", workers=2)
        if manifest.header["environment"]["blas_core"] in (None, "Haswell"):
            pytest.skip(f"this run's OpenBLAS core is {manifest.header['environment']['blas_core']}")
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        resume = (
            "import sys; from rqpipe import run_experiment; from rqpipe.pipeline.runner import _openblas;"
            " print((_openblas() or [None] * 3)[2]); run_experiment(sys.argv[1], workers=2)"
        )
        path = experiment_dir / "out" / "manifest.jsonl"
        for appended in ([("postproc", qi) for qi in range(4)], []):
            before = path.stat().st_size
            child = subprocess.run([sys.executable, "-c", resume, str(experiment_dir / "exp.ini")],
                                   env=env, capture_output=True, text=True, timeout=300, check=True)
            if child.stdout.strip() != "Haswell":
                pytest.skip(f"numpy's BLAS did not load the Haswell kernels: {child.stdout.strip()}")
            assert self.appended_jobs(path, before) == appended
        redone = RunManifest.load(path).jobs[("synthA", "postproc", 0)]
        assert redone.notes["blas_core"] == "Haswell"

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Every non-empty file above the hash gate, so each source and recon
        hash of the fixture runs on the worker pool."""
        monkeypatch.setattr(manifest_module, "HASH_CHUNK", 0)

    def test_pooled_full_resume_appends_nothing(self, experiment_dir, pooled):
        run_experiment(experiment_dir / "exp.ini", workers=2)
        before = (experiment_dir / "out" / "manifest.jsonl").read_bytes()
        manifest = run_experiment(experiment_dir / "exp.ini", workers=2)
        assert (experiment_dir / "out" / "manifest.jsonl").read_bytes() == before
        assert len(manifest.ok_jobs()) == 12

    def test_pooled_a_tampered_recon_redoes_exactly_its_job(self, experiment_dir, pooled):
        manifest = run_experiment(experiment_dir / "exp.ini", workers=2)
        rec = manifest.jobs[("synthA", "rescaled", 2)]
        with open(rec.artifacts["recon"]["path"], "r+b") as fh:
            fh.write(b"\xff")
        run_experiment(experiment_dir / "exp.ini", workers=2)
        lines = (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 12 + 1
        redone = json.loads(lines[-1])
        assert (redone["sequence"], redone["method"], redone["qp_index"]) == rec.key

    def test_pooled_a_changed_source_redoes_every_job(self, experiment_dir, pooled):
        run_experiment(experiment_dir / "exp.ini", workers=2)
        spec = VideoSpec(64, 64, 8, "420", frame_count=8)
        write_sequence(synthetic_sequence(spec, seed=2), spec, experiment_dir / "synthA.yuv")
        again = run_experiment(experiment_dir / "exp.ini", workers=2)
        lines = (experiment_dir / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 12 + 12
        assert {r.reference_sha256 for r in again.ok_jobs()} == {sha256_file(experiment_dir / "synthA.yuv")}

    def test_pooled_one_and_two_workers_give_the_same_records(self, experiment_dir, pooled):
        resumed = []
        for workers in (1, 2):
            workdir = experiment_dir / f"w{workers}"
            first = run_experiment(experiment_dir / "exp.ini", workdir=workdir, workers=workers)
            with open(first.jobs[("synthA", "postproc", 3)].artifacts["recon"]["path"], "r+b") as fh:
                fh.write(b"\xff")
            resumed.append(run_experiment(experiment_dir / "exp.ini", workdir=workdir, workers=workers))
            assert len((workdir / "manifest.jsonl").read_text().splitlines()) == 1 + 12 + 1
        assert self.strip_volatile(resumed[0]) == self.strip_volatile(resumed[1])

    def test_an_interrupted_hash_cancels_the_queued_ones(self, experiment_dir, pooled, monkeypatch):
        # the third hash (the second recon's) raises KeyboardInterrupt on the
        # one worker; the hashes after it wait 0.2 s, time enough for the
        # calling thread to cancel the queue, so most of them never run
        run_experiment(experiment_dir / "exp.ini", workers=1)
        path = experiment_dir / "out" / "manifest.jsonl"
        before = path.read_bytes()
        hash_file, hashed, ran = manifest_module.sha256_file, [], []

        def interrupting(path, *args, **kwargs):
            hashed.append(path)
            if len(hashed) == 3:
                raise KeyboardInterrupt
            if len(hashed) > 3:
                time.sleep(0.2)
            return hash_file(path, *args, **kwargs)

        monkeypatch.setattr(manifest_module, "sha256_file", interrupting)
        monkeypatch.setattr(runner, "_run_job", lambda *job: ran.append(job))
        with pytest.raises(KeyboardInterrupt):
            run_experiment(experiment_dir / "exp.ini", workers=1)
        assert 3 <= len(hashed) < 1 + 12  # the source and the 12 recons were queued
        assert ran == []
        assert path.read_bytes() == before

    def test_only_files_above_the_hash_chunk_hash_off_the_calling_thread(self, tmp_path, monkeypatch):
        # a 1024x512 8-bit 4:2:0 source of 2 frames is 1.5 MiB, a 16x16 one 768 bytes
        body = "[run]\nworkdir = out\n[method.anchor]\ncodec = mock\n[qps]\npairs = 27:7\n"
        for label, width, height in (("big", 1024, 512), ("small", 16, 16)):
            spec = VideoSpec(width, height, 8, "420", frame_count=2)
            write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / f"{label}.yuv")
            body += (f"[sequence.{label}]\npath = {label}.yuv\nwidth = {width}\nheight = {height}\n"
                     "frame_count = 2\nframe_rate = 30\n")
        (tmp_path / "exp.ini").write_text(body)
        run_experiment(tmp_path / "exp.ini", workers=2)
        caller, calls = threading.current_thread(), []

        def spy(fn):
            def sha(path, *args, **kwargs):
                calls.append((os.path.getsize(path), threading.current_thread() is caller))
                return fn(path, *args, **kwargs)
            return sha

        for module in (runner, manifest_module):
            monkeypatch.setattr(module, "sha256_file", spy(module.sha256_file))
        run_experiment(tmp_path / "exp.ini", workers=2)
        big = 1024 * 512 * 3 // 2 * 2
        assert big > HASH_CHUNK > 768
        assert sorted(calls) == [(768, True), (768, True), (big, False), (big, False)]  # sources and recons


class TestSharedStreams:
    """Jobs whose coded streams are equal share one stream: the first of
    them in the config's method order codes it, and the others replay its
    decoded frames."""

    strip_volatile = staticmethod(TestDeterminismAndResume.strip_volatile)

    @staticmethod
    def config(experiment_dir, name, methods, **changes):
        """exp.ini with only the method sections `methods`, in that order,
        each updated by changes[label], and workdir `name`; returns its path."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(experiment_dir / "exp.ini")
        out = configparser.ConfigParser(interpolation=None)
        out.read_dict({s: parser[s] for s in parser.sections() if not s.startswith("method.")})
        out.read_dict({f"method.{m}": {**parser[f"method.{m}"], **changes.get(m, {})} for m in methods})
        out["run"]["workdir"] = name
        path = experiment_dir / f"{name}.ini"
        with open(path, "w") as fh:
            out.write(fh)
        return path

    @staticmethod
    def replayed(rec):
        """Whether the job replayed a stream that another job coded."""
        return not {"downsample", "encode"} & set(rec.stage_seconds)

    @staticmethod
    def external(experiment_dir):
        """A lossless external codec: both commands copy their input."""
        codec = experiment_dir / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        return {
            "codec": "external",
            "encode_cmd": f"{sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}",
            "decode_cmd": f"{sys.executable} {codec} {{in}} {{out}}",
        }

    @pytest.fixture
    def encoded_qps(self, monkeypatch):
        """The QP of every plane that mock_encode codes."""
        encode, qps = codecs.mock_encode, []

        def spy(frames, qp, bit_depth):
            qps.extend([qp] * sum(len(list(frame.planes())) for frame in frames))
            return encode(frames, qp, bit_depth)

        monkeypatch.setattr(codecs, "mock_encode", spy)
        return qps

    def test_records_equal_those_of_each_method_alone(self, experiment_dir):
        both = run_experiment(self.config(experiment_dir, "both", ("rescaled", "postproc")), workers=2)
        for rec in both.jobs.values():
            assert rec.status == "ok" and self.replayed(rec) == (rec.method == "postproc")
        postproc = both.jobs[("synthA", "postproc", 0)]
        assert {"read", "decode", "upsample", "postproc", "metrics", "write"} == set(postproc.stage_seconds)
        alone = [doc for m in ("postproc", "rescaled")  # in the order strip_volatile sorts keys
                 for doc in self.strip_volatile(run_experiment(self.config(experiment_dir, m, (m,)), workers=2))]
        assert self.strip_volatile(both) == alone
        assert not list((experiment_dir / "both").glob("*_stream.yuv"))

    def test_each_shared_stream_is_encoded_once(self, experiment_dir, encoded_qps):
        # 8 frames of 3 planes a stream: the anchor's 4 streams, and the 4
        # that rescaled codes and postproc replays
        manifest = run_experiment(experiment_dir / "exp.ini", workers=2)
        assert len(manifest.ok_jobs()) == 12
        assert sorted(encoded_qps) == sorted([22, 27, 32, 37, 16, 21, 26, 31] * 24)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("depth_filter", ["nn", "lanczos:3"])
    def test_a_depth_stream_is_coded_once_and_its_bits_replayed(self, tmp_path, depth_filter, workers, encoded_qps):
        # two methods that differ in the up filter share a stream when their
        # depth down filters are the same, and code their own when not
        spec = VideoSpec(32, 32, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        depth_spec = VideoSpec(32, 32, 8, "400", frame_count=2)
        write_sequence(synthetic_sequence(depth_spec, seed=5), depth_spec, tmp_path / "s_depth.yuv")
        body = """
[run]
workdir = {workdir}

[sequence.s]
path = s.yuv
depth_path = s_depth.yuv
width = 32
height = 32
frame_count = 2
frame_rate = 30
{methods}
[qps]
pairs = 27:7
"""
        methods = {
            "nn": "scale = 1/2\nqp_texture_offset = -6\ndepth_down_filter = nn\n",
            "lanczos": f"scale = 1/2\nqp_texture_offset = -6\ndepth_down_filter = {depth_filter}\n"
                       "up_filter = lanczos:3\n",
        }
        records = []
        for labels in (("nn", "lanczos"), ("nn",), ("lanczos",)):
            name = "_".join(labels)
            sections = "".join(f"\n[method.{label}]\n{methods[label]}" for label in labels)
            (tmp_path / f"{name}.ini").write_text(body.format(workdir=name, methods=sections))
            records.append(run_experiment(tmp_path / f"{name}.ini", workers=workers))
        both = records[0]
        coder, other = both.jobs[("s", "nn", 0)], both.jobs[("s", "lanczos", 0)]
        shared = depth_filter == "nn"
        assert not self.replayed(coder) and self.replayed(other) == shared
        assert (other.notes["depth_bits"] == coder.notes["depth_bits"]) == shared
        # the texture (3 planes) and the depth (1 plane) of 2 frames, coded
        # by each job that does not replay
        assert sorted(encoded_qps) == sorted(([21] * 6 + [7] * 2) * (3 if shared else 4))
        alone = self.strip_volatile(records[2]) + self.strip_volatile(records[1])
        assert self.strip_volatile(both) == alone

    @pytest.mark.parametrize("methods, changes, shared", [
        (("rescaled", "postproc"), {}, True),
        (("rescaled", "postproc"), {"up_filter": "lanczos:3"}, True),
        (("anchor", "postproc"), {"scale": "1/1", "qp_texture_offset": "0", "up_filter": ""}, True),
        (("rescaled", "postproc"), {"qp_texture_offset": "-5"}, False),
        (("rescaled", "postproc"), {"down_filter": "lanczos:2"}, False),
        (("rescaled", "postproc"), "external", False),
    ], ids=["cnn", "up-filter", "full-size-cnn", "qp-offset", "down-filter", "codec"])
    def test_jobs_share_a_stream_when_they_code_the_same(self, experiment_dir, methods, changes, shared):
        if changes == "external":
            changes = self.external(experiment_dir)
        path = self.config(experiment_dir, "key", methods, postproc=changes)
        manifest = run_experiment(path, workers=1)
        assert len(manifest.ok_jobs()) == 8
        for rec in manifest.jobs.values():
            assert self.replayed(rec) == (shared and rec.method == "postproc")

    def test_an_external_codec_stream_is_coded_once(self, experiment_dir):
        # the coder's decoded file is teed as the mock codec's frames are;
        # only the coder keeps a bitstream
        external = self.external(experiment_dir)
        path = self.config(experiment_dir, "ext", ("rescaled", "postproc"), rescaled=external, postproc=external)
        both = run_experiment(path, workers=2)
        assert [self.replayed(both.jobs[("synthA", m, 0)]) for m in ("rescaled", "postproc")] == [False, True]
        workdir = experiment_dir / "ext"
        assert sorted(p.name for p in workdir.iterdir() if not p.name.endswith("_recon.yuv")) == [
            "manifest.jsonl", *(f"synthA_rescaled_qp{qi}.bin" for qi in range(4))
        ]
        alone = self.config(experiment_dir, "ext_alone", ("postproc",), postproc=external)
        postproc = [doc for doc in self.strip_volatile(both) if doc["method"] == "postproc"]
        assert postproc == self.strip_volatile(run_experiment(alone, workers=2))

    @pytest.mark.parametrize("fails", ["cnn", "write", "stale"])
    def test_a_coder_that_fails_leaves_the_others_whole_jobs(self, experiment_dir, monkeypatch, fails):
        # qp index 0's coder fails: on its third frame, after it teed two,
        # or, with a stream file that a killed run left, before its first.
        # Its stream is not complete, so the other job codes the stream
        # itself and ends with the record it has alone; at the other QPs
        # it replays
        coder, other = ("postproc", "rescaled") if fails == "cnn" else ("rescaled", "postproc")
        if fails == "cnn":
            apply, calls = runner.apply_network, []

            def failing_apply(*args):
                calls.append(args)
                if len(calls) == 3:
                    raise RuntimeError("the CNN failed")
                return apply(*args)

            monkeypatch.setattr(runner, "apply_network", failing_apply)
        else:
            write, frames_before = runner.write_sequence, 2 if fails == "write" else 0

            def failing_write(frames, spec, path, **kwargs):
                if Path(path).name == "synthA_rescaled_qp0_recon.yuv":
                    deque(zip(range(frames_before), frames), maxlen=0)  # pulls that many frames
                    raise OSError("the recon write failed")
                return write(frames, spec, path, **kwargs)

            monkeypatch.setattr(runner, "write_sequence", failing_write)
        if fails == "stale":
            (experiment_dir / "mixed").mkdir()
            shutil.copy(experiment_dir / "synthA.yuv", experiment_dir / "mixed" / "synthA_rescaled_qp0_stream.yuv")
        # one worker: the CNN's third call is then that of the first coder
        manifest = run_experiment(self.config(experiment_dir, "mixed", (coder, other)), workers=1)
        assert manifest.jobs[("synthA", coder, 0)].status == "failed"
        assert [self.replayed(manifest.jobs[("synthA", other, qi)]) for qi in range(4)] == [False, True, True, True]
        alone = self.strip_volatile(run_experiment(self.config(experiment_dir, other, (other,)), workers=2))
        assert [doc for doc in self.strip_volatile(manifest) if doc["method"] == other] == alone
        assert not list((experiment_dir / "mixed").glob("*_stream.yuv"))

    def test_a_resume_that_redoes_only_a_replayer_codes_its_stream(self, experiment_dir, encoded_qps):
        first = run_experiment(experiment_dir / "exp.ini", workers=2)
        os.unlink(first.jobs[("synthA", "postproc", 2)].artifacts["recon"]["path"])
        encoded_qps.clear()
        again = run_experiment(experiment_dir / "exp.ini", workers=2)
        assert encoded_qps == [26] * 24
        assert not self.replayed(again.jobs[("synthA", "postproc", 2)])
        assert self.strip_volatile(again) == self.strip_volatile(first)


class TestSha256File:
    @pytest.mark.parametrize("size", [0, 1, HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 1, 3 * HASH_CHUNK + 7])
    def test_digest_equals_hashlib(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        (tmp_path / "f").write_bytes(data)
        assert sha256_file(tmp_path / "f") == hashlib.sha256(data).hexdigest()


class TestJobRecordLine:
    def test_line_equals_the_deep_copied_fields(self):
        # to_line writes the fields as they are; a line must be byte for
        # byte the one dataclasses.asdict's deep copy of them gave
        rec = synthetic_record("s", "postproc", 1, 812.5, 33.25)
        rec.scores["vmaf"] = {"per_frame": [91.5, 92.0], "sequence_value": 91.75, "aggregation": "mean_of_per_frame"}
        rec.stage_cpu_seconds = {"postproc": 0.75, "encode": 0.5}
        rec.notes = {"blas_core": "SkylakeX", "process_peak_rss_mb": 47.5, "nested": {"tuple": (1, 2), "list": [None]}}
        rec.artifacts = {"recon": {"path": "recon/s_postproc_qp1.yuv", "sha256": "ab" * 32}}
        rec.postproc_weights_qp = 27
        want = json.dumps({"record": "job", **asdict(rec)}, sort_keys=True)
        assert rec.to_line() == want
        assert json.loads(rec.to_line())["notes"]["nested"] == {"tuple": [1, 2], "list": [None]}


class TestWorkerCount:
    def test_env_override_and_argument_priority(self):
        from rqpipe.pipeline.runner import _worker_count

        assert _worker_count(5) == 5  # an explicit argument is the count
        assert _worker_count(None) >= 1

    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        from rqpipe.pipeline.runner import _worker_count

        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
        assert _worker_count(None) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_count_below_one_is_config_error(self, experiment_dir, workers):
        # it used to run one worker without a word
        with pytest.raises(ConfigError, match=rf"^workers must be at least 1, got {workers}$"):
            run_experiment(experiment_dir / "exp.ini", workers=workers)
        assert not (experiment_dir / "out" / "manifest.jsonl").exists()


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread (get, set), restored after the test."""
    from rqpipe.pipeline.runner import _openblas

    hook = _openblas()
    if hook is None:
        pytest.skip("numpy's OpenBLAS exposes no thread-count functions")
    get, set_ = hook[:2]
    before = get()
    yield get, set_
    set_(before)


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

        for n, m in runs.items():
            env = m.header["environment"]
            assert env["workers"] == n and env["cpu_count"] == _cpu_count()
            assert env["blas_threads"] == 1  # whatever the workers
            assert env["numpy"] == np.__version__
            # the OpenBLAS the sums came from, as it names itself
            assert isinstance(env["blas_core"], str) and env["blas_core"]
            assert env["blas_config"].startswith("OpenBLAS ")

    @pytest.mark.skipif(runner._cpu_count() < 2, reason="1 and 2 workers give the same BLAS threads below 2 CPUs")
    def test_k720_net_records_equal_at_one_and_two_workers(self, tmp_path, blas):
        # a 3x3 conv over 80 channels, K = 720, as in the default net's
        # blocks, on 480x272 planes. When the run gave OpenBLAS CPUs //
        # workers threads, workers=1 summed its GEMMs at 2 threads and
        # workers=2 at 1, in other orders, and both recons moved
        layers = [
            {"id": "head", "op": "conv2d", "inputs": ["input"], "in_ch": 1, "out_ch": 80, "kernel": 3, "pad": 1},
            {"id": "a", "op": "activation", "inputs": ["head"]},
            {"id": "mid", "op": "conv2d", "inputs": ["a"], "in_ch": 80, "out_ch": 16, "kernel": 3, "pad": 1},
            {"id": "b", "op": "activation", "inputs": ["mid"]},
            {"id": "tail", "op": "conv2d", "inputs": ["b"], "in_ch": 16, "out_ch": 1, "kernel": 3, "pad": 1},
        ]
        from rqpipe import NetworkSpec

        net = NetworkSpec.from_json(json.dumps({"layers": layers, "output_id": "tail"}))
        spec = VideoSpec(480, 272, 10, "420", frame_count=1)
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        (tmp_path / "net.json").write_text(net.to_json())
        save_weights(tmp_path / "w.rqpw", random_weights(net, seed=3))
        (tmp_path / "exp.ini").write_text(
            self.CONFIG.replace("width = 96", "width = 480").replace("height = 64", "height = 272")
            .replace("postproc_net = mfrnet", "postproc_net = net.json")
        )
        runs = {n: run_experiment(tmp_path / "exp.ini", workdir=tmp_path / f"w{n}", workers=n) for n in (1, 2)}
        records = {n: TestDeterminismAndResume.strip_volatile(m) for n, m in runs.items()}
        assert len(records[1]) == 2 and records[1] == records[2]
        core = runs[1].header["environment"]["blas_core"]
        # each record names the kernel and thread count its sums came from
        assert all(r["notes"]["blas_core"] == core and r["notes"]["blas_threads"] == 1 for r in records[1])

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

    def test_rewritten_depth_file_redoes_its_jobs(self, config_with_depth):
        # the depth file counts by its content: other samples of the same size
        # must not resume with the old depth bits
        first = run_experiment(config_with_depth / "exp.ini", workers=1)
        depth_spec = VideoSpec(32, 32, 8, "400", frame_count=2)
        path = config_with_depth / "s_depth.yuv"
        size = path.stat().st_size
        write_sequence(synthetic_sequence(depth_spec, seed=6), depth_spec, path)
        assert path.stat().st_size == size
        again = run_experiment(config_with_depth / "exp.ini", workers=1)
        lines = (config_with_depth / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 2 + 2  # header, the first run's jobs, both again
        for key, rec in again.jobs.items():
            assert rec.config_sha256 != first.jobs[key].config_sha256
            assert rec.notes["depth_bits"] != first.jobs[key].notes["depth_bits"]


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

    @pytest.mark.parametrize("metric_id, status", [("VMAF", "ok"), ("ms_ssim", "failed")])
    def test_summary_is_the_line_named_after_the_metric(self, tmp_path, metric_id, status):
        # the config lowercases metric ids, so `VMAF` reads the `vmaf=` line;
        # with no line of its name, two numeric lines fail the job
        import sys as _sys

        stub = tmp_path / "stub_metric.py"
        stub.write_text("print('vmaf=95.125')\nprint('elapsed_s=12.5')\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=8), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            "[sequence.s]\npath = s.yuv\nwidth = 16\nheight = 16\nframe_count = 2\nframe_rate = 30\n"
            "[method.anchor]\ncodec = mock\n[qps]\npairs = 27:7\n"
            f"[metrics]\n{metric_id} = {_sys.executable} {stub} {{ref}} {{dist}}\n"
        )
        (rec,) = run_experiment(tmp_path / "exp.ini", tmp_path / "out", workers=1).jobs.values()
        assert rec.status == status
        if status == "ok":
            assert rec.scores["vmaf"]["sequence_value"] == 95.125
        else:
            assert rec.error.startswith("MetricParseError: ms_ssim: cannot tell the score among summary keys"
                                        " vmaf, elapsed_s")


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

    def test_external_codec_peak_does_not_grow_with_frame_count(self, tmp_path):
        # the codec takes its whole input before it returns a frame, so the
        # job keeps no source frame and scores against a second read of the
        # source. When it kept them all, a 480x272 10-bit anchor job peaked
        # at 2.26, 4.51 and 7.51 MiB for 2, 8 and 16 frames; now at 1.90
        import sys as _sys

        frame_bytes = 480 * 272 * 3 // 2 * 2
        spec = VideoSpec(480, 272, 10, "420", frame_count=16)
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        sequences = "".join(
            f"[sequence.f{count}]\npath = s.yuv\nwidth = 480\nheight = 272\nbit_depth = 10\n"
            f"frame_count = {count}\nframe_rate = 30\n\n"
            for count in (2, 16)
        )
        (tmp_path / "exp.ini").write_text(
            sequences
            + f"""
[method.anchor]
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} {{qp}} {{w}} {{h}}
decode_cmd = {_sys.executable} {codec} {{in}} {{out}}

[qps]
pairs = 27:7
"""
        )
        cfg = load_experiment(tmp_path / "exp.ini")

        def peak(label):
            tracemalloc.start()
            try:
                rec = self.run_job(cfg, label, "anchor")
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # lossless, so each decoded frame is scored against its own source frame
            assert rec.scores["psnr_y"]["per_frame"] == [cfg.psnr_inf_cap] * rec.frame_count
            return traced

        peak("f2")  # warm-up
        assert peak("f16") - peak("f2") < frame_bytes

    @pytest.mark.parametrize("method", ["anchor", "rescaled", "postproc"])
    def test_mock_job_reads_its_source_once(self, config, method, monkeypatch):
        # the mock codec returns each frame before it takes the next, so the
        # job keeps the one source frame to score and never reads it again
        calls = []

        def spy(path, spec):
            calls.append(path)
            return read_sequence(path, spec)

        monkeypatch.setattr(runner, "read_sequence", spy)
        self.run_job(config, "eight", method)
        assert len(calls) == 1

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


class TestJobPeak:
    """No stage of a job holds a whole float64 plane."""

    FRAME_BYTES = 960 * 544 * 3 // 2 * 2

    @staticmethod
    def job_peak(tmp_path, method):
        """tracemalloc peak of a 960x544 10-bit 4:2:0 two-frame job, after a warm-up run."""
        spec = VideoSpec(960, 544, 10, "420", frame_count=2)
        write_sequence(synthetic_sequence(spec, seed=4), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            """
[sequence.s]
path = s.yuv
width = 960
height = 544
bit_depth = 10
frame_count = 2
frame_rate = 30

[method.anchor]
codec = mock

[method.rescaled]
scale = 1/2
down_filter = lanczos:3
up_filter = nn
codec = mock

[qps]
pairs = 27:7
"""
        )
        cfg = load_experiment(tmp_path / "exp.ini")
        cfg.workdir.mkdir()
        meth = next(m for m in cfg.methods if m.label == method)
        runner._run_job(cfg.sequences[0], meth, 0, cfg.qp_pairs[0], cfg, cfg.workdir, "x")  # warm-up
        tracemalloc.start()
        try:
            rec = runner._run_job(cfg.sequences[0], meth, 0, cfg.qp_pairs[0], cfg, cfg.workdir, "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.status == "ok", rec.error
        return peak

    @pytest.mark.parametrize("method", ["anchor", "rescaled"])
    def test_job_peak_leaves_no_room_for_a_float_plane(self, tmp_path, method):
        # A 960x544 10-bit 4:2:0 frame is 1.5 MiB. A job holds about five
        # frames' worth: the source frame, the int32 coefficients of one
        # plane, the decoded frames and band scratch, about 8 MiB.
        # The bound of eight frames is 11.95 MiB: a whole float64 luma plane
        # (4 MiB) on top does not fit under it.
        peak = self.job_peak(tmp_path, method)
        assert peak < 8 * self.FRAME_BYTES

    @pytest.mark.parametrize("method, frames", [("anchor", 6.5), ("rescaled", 5)])
    def test_job_peak_holds_no_raw_frame_bytes(self, tmp_path, method, frames):
        # Frames are read into and written from their plane arrays. Reading
        # through a whole-frame bytes buffer and writing through tobytes()
        # copies cost about 1.2 frames more on anchor (10.8 MiB) and 2 more
        # on rescaled (9.1 MiB); now they peak at 8.0 and 5.9 MiB.
        peak = self.job_peak(tmp_path, method)
        assert peak < frames * self.FRAME_BYTES

    def test_anchor_job_drops_each_frame_before_the_next(self, tmp_path):
        # No stage keeps a frame while it pulls the next one: not the
        # generators' loop variables, not the coder's decoded planes, and
        # no enumerate of the frames to count them. When they did, this job
        # peaked at 5.27 frames (7.87 MiB); now at 4.27 (6.38 MiB).
        peak = self.job_peak(tmp_path, "anchor")
        assert peak < 4.75 * self.FRAME_BYTES

    def test_rescaled_job_drops_the_downsampled_frame_once_coded(self, tmp_path):
        # The down-sampler's generator held each down-sampled frame, a
        # quarter of a frame, while the codec decoded it and the up-sampler,
        # the scoring and the write ran: the job peaked at 3.93 frames
        # (5.88 MiB). As a map it drops the frame when its call returns, and
        # the coder's own release is the last: 3.72 frames (5.56 MiB).
        peak = self.job_peak(tmp_path, "rescaled")
        assert peak < 3.85 * self.FRAME_BYTES


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
        # and the lossless codec's output comes back through the up-sampler;
        # the encoder keeps a copy of its input, which the codec removes
        codec = tmp_path / "copycodec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        encoder = tmp_path / "teecodec.py"
        encoder.write_text(
            "import shutil, sys\nfrom pathlib import Path\nshutil.copy(sys.argv[1], sys.argv[2])\n"
            "shutil.copy(sys.argv[1], Path(__file__).with_name('seen_in.yuv'))\n"
        )
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
encode_cmd = {_sys.executable} {encoder} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = {_sys.executable} {codec} {{in}} {{out}}

[qps]
pairs = 27:7
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        rec = manifest.jobs[("s", "ext", 0)]
        assert rec.status == "ok"
        half = [resample_frame(f, Fraction(1, 2), LANCZOS3, 10) for f in frames]
        coded = list(read_sequence(tmp_path / "seen_in.yuv", spec.scaled(Fraction(1, 2))))
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

    @pytest.mark.parametrize("tool, what", [("codec", "codec"), ("metric", "slow")])
    def test_tool_timeout_fails_the_job_naming_the_command(self, tmp_path, tool, what):
        # the stub sleeps 3 s; the timeout kills it after 0.3 s and the job
        # ends in a failed record
        import sys as _sys

        stub = tmp_path / "slowtool.py"
        stub.write_text("import time\ntime.sleep(3)\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=1, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        if tool == "codec":
            method = (f"codec = external\nencode_cmd = {_sys.executable} {stub} {{in}} {{out}} {{qp}} {{w}} {{h}}\n"
                      f"decode_cmd = {_sys.executable} {stub} {{in}} {{out}}")
            metrics = "psnr_y = native"
        else:
            method = "codec = mock"
            metrics = f"slow = {_sys.executable} {stub} {{ref}} {{dist}}"
        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out
{tool}_timeout = 0.3

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 1
frame_rate = 30

[method.slow]
{method}

[qps]
pairs = 22:4

[metrics]
{metrics}
"""
        )
        start = time.perf_counter()
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        assert time.perf_counter() - start < 3
        (rec,) = manifest.jobs.values()
        assert rec.status == "failed"
        assert f"{what} command timed out after 0.3 s" in rec.error
        assert str(stub) in rec.error

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_tool_timeout_kills_what_the_tool_started(self, tmp_path):
        # a wrapper that starts a 4 s grandchild and waits for it: the
        # timeout kills the whole process group, not only the wrapper
        def alive(pid):  # a zombie awaiting its reaper has already died
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"

        pidfile = tmp_path / "grandchild.pid"
        script = tmp_path / "wrapper.sh"
        script.write_text(f"sleep 4 &\necho $! > {pidfile}\nwait\n")
        with pytest.raises(ExternalToolError, match="codec command timed out after 0.3 s"):
            run_tool(f"sh {script}", "codec", timeout=0.3)
        pid = int(pidfile.read_text())
        try:
            deadline = time.monotonic() + 2.0
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not alive(pid)
        finally:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_interrupt_kills_the_running_tools(self, tmp_path):
        # Ctrl-C while two encoders sleep 30 s: the run stops at once, the
        # encoders are gone and the queued third job never starts
        import sys as _sys
        import threading

        def alive(pid):  # a zombie awaiting its reaper has already died
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"

        stub = tmp_path / "sleepcodec.py"
        stub.write_text(
            "import os, sys, time\n"
            "open(sys.argv[2] + '.pid', 'w').write(str(os.getpid()))\n"
            "time.sleep(30)\n"
        )
        spec = VideoSpec(16, 16, 8, "420", frame_count=1, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            f"""
[run]
workdir = out

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 1
frame_rate = 30

[method.ext]
codec = external
encode_cmd = {_sys.executable} {stub} {{in}} {{out}} {{qp}} {{w}} {{h}}
decode_cmd = {_sys.executable} {stub} {{in}} {{out}}

[qps]
pairs = 22:4, 27:7, 32:11
"""
        )
        pidfiles = lambda: sorted((tmp_path / "out").rglob("*.pid"))  # noqa: E731
        main = threading.main_thread().ident

        def interrupt():
            deadline = time.monotonic() + 10.0
            while len(pidfiles()) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.1)  # the stubs have written their pids
            signal.pthread_kill(main, signal.SIGINT)

        threading.Thread(target=interrupt, daemon=True).start()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tmp_path / "exp.ini", workers=2)
        assert time.monotonic() - start < 10
        pids = [int(f.read_text()) for f in pidfiles()]
        try:
            assert len(pids) == 2
            deadline = time.monotonic() + 2.0
            while any(map(alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(alive, pids))
        finally:
            for pid in filter(alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_tool_output_that_is_not_utf8_is_replaced(self, tmp_path):
        import sys as _sys

        stub = tmp_path / "binary.py"
        stub.write_text("import sys\nsys.stdout.buffer.write(b'\\xff ok')\n")
        assert run_tool(f"{_sys.executable} {stub}", "metric").stdout == "\ufffd ok"

    def test_error_after_the_tool_was_reaped_propagates(self, monkeypatch):
        # the tool has exited and been reaped, so its group is gone: the
        # original error must surface, not the failed kill of the group
        import subprocess

        communicate = subprocess.Popen.communicate

        def fail_after(proc, *args, **kwargs):
            communicate(proc, *args, **kwargs)
            raise RuntimeError("after the tool ended")

        monkeypatch.setattr(subprocess.Popen, "communicate", fail_after)
        with pytest.raises(RuntimeError, match="after the tool ended"):
            run_tool("true", "codec")

    def test_metric_exit_fails_the_job_naming_the_command(self, tmp_path):
        import sys as _sys

        stub = tmp_path / "brokenmetric.py"
        stub.write_text("import sys\nprint('boom', file=sys.stderr)\nsys.exit(4)\n")
        spec = VideoSpec(16, 16, 8, "420", frame_count=1, label="s")
        write_sequence(synthetic_sequence(spec, seed=0), spec, tmp_path / "s.yuv")
        (tmp_path / "exp.ini").write_text(
            f"""
[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 1
frame_rate = 30

[method.anchor]
codec = mock

[qps]
pairs = 22:4

[metrics]
broken = {_sys.executable} {stub} {{ref}} {{dist}}
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        (rec,) = manifest.jobs.values()
        assert rec.status == "failed"
        assert rec.error.startswith(f"ExternalToolError: broken command exited 4: {_sys.executable} {stub} ")
        assert rec.error.endswith(" -- boom")
        assert rec.notes["exit_code"] == 4
        assert rec.notes["stderr_tail"] == "boom\n"

    def test_run_tool_fills_each_field_as_one_argument(self, tmp_path):
        import sys as _sys

        stub = tmp_path / "argv.py"
        stub.write_text("import json, sys\nprint(json.dumps(sys.argv[1:]))\n")
        value = str(tmp_path / "it's a file.yuv")
        proc = run_tool(
            f"{_sys.executable} {stub} --in {{in}} 'a b' x{{n}}", "codec", fields={"in": value, "n": 3}
        )
        assert json.loads(proc.stdout) == ["--in", value, "a b", "x3"]

    def test_run_tool_exit_names_the_command_and_the_last_stderr_line(self):
        template = "sh -c 'echo first >&2; echo boom >&2; echo >&2; exit 3' {in}"
        with pytest.raises(ExternalToolError) as err:
            run_tool(template, "codec", fields={"in": "a b"})
        argv = ["sh", "-c", "echo first >&2; echo boom >&2; echo >&2; exit 3", "a b"]
        assert str(err.value) == f"codec command exited 3: {shlex.join(argv)} -- boom"
        assert err.value.returncode == 3
        assert err.value.stderr == "first\nboom\n\n"

    def test_paths_with_spaces_reach_the_tools_whole(self, tmp_path):
        # the experiment, its stubs and its outputs live under "sp ace"; each
        # placeholder is filled as one argument, so no path is split
        import sys as _sys

        root = tmp_path / "sp ace"
        root.mkdir()
        codec = root / "copy codec.py"
        codec.write_text("import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        metric = root / "metric stub.py"
        metric.write_text(
            "import os, sys\nassert all(map(os.path.isfile, sys.argv[1:3]))\nfor _ in range(2): print('91.5')\n"
        )
        spec = VideoSpec(16, 16, 8, "420", frame_count=2, label="s")
        write_sequence(synthetic_sequence(spec, seed=6), spec, root / "s.yuv")
        py, codec, metric = (shlex.quote(str(p)) for p in (_sys.executable, codec, metric))
        (root / "exp.ini").write_text(
            f"""
[run]
workdir = out dir

[sequence.s]
path = s.yuv
width = 16
height = 16
frame_count = 2
frame_rate = 30

[method.ext]
codec = external
encode_cmd = {py} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = {py} {codec} {{in}} {{out}}

[qps]
pairs = 22:4

[metrics]
psnr_y = native
fakevmaf = {py} {metric} {{ref}} {{dist}}
"""
        )
        manifest = run_experiment(root / "exp.ini", workers=1)
        (rec,) = manifest.jobs.values()
        assert rec.status == "ok", rec.error
        assert rec.total_bits == 16 * 16 * 3 // 2 * 2 * 8
        assert rec.scores["psnr_y"]["sequence_value"] == 100.0  # lossless, capped
        assert rec.scores["fakevmaf"]["per_frame"] == [91.5, 91.5]

    def test_external_codec_keeps_only_its_bitstream(self, tmp_path):
        # the raw input and decoded files go once read, also when the
        # decoder writes its output and then fails
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

[method.ext]
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = {_sys.executable} {codec} {{in}} {{out}}

[method.broken]
codec = external
encode_cmd = {_sys.executable} {codec} {{in}} {{out}} --qp {{qp}} -w {{w}} -h {{h}}
decode_cmd = sh -c 'cp "$0" "$1"; exit 3' {{in}} {{out}}

[qps]
pairs = 22:4
"""
        )
        manifest = run_experiment(tmp_path / "exp.ini", workers=1)
        assert [r.status for r in manifest.jobs.values()] == ["ok", "failed"]
        assert manifest.jobs[("s", "broken", 0)].notes["exit_code"] == 3
        out = tmp_path / "out"
        assert sorted(p.name for p in out.glob("*.bin")) == ["s_broken_qp0.bin", "s_ext_qp0.bin"]
        assert [p.name for p in out.glob("*.yuv") if p.name.endswith(("_in.yuv", "_dec.yuv"))] == []

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


# the report of TestAssembleReport.pinned_manifest, written with "\n" for the CSV row ends
RQ_S2_PSNR_Y = """\
method,qp_index,qp_texture,bitrate_kbps,quality
anchor,0,22,500.000000,31.500000
anchor,1,27,900.000000,34.500000
anchor,2,32,1600.000000,37.000000
cnn,0,22,420.000000,32.000000
cnn,1,27,420.000000,35.000000
cnn,2,32,1520.000000,37.000000
rescaled,0,22,400.000000,31.500000
rescaled,1,27,800.000000,34.250000
rescaled,2,32,1500.000000,36.500000
"""
BD_RESCALED = """\
sequence,bd_psnr_y,bd_vmaf
s1,0.765312,3.322857
s2,0.265312,3.322857
Total,0.515312,3.322857
"""
BD_CNN = """\
sequence,bd_psnr_y,bd_vmaf
s1,1.350232,
Total,1.350232,
"""
TIMING_SUMMARY = """\
method,stage,total_seconds,seconds_per_frame,pct_of_method_total,pct_delta_vs_anchor
anchor,decode,3.000000,0.062500,33.33,
anchor,encode,6.000000,0.125000,66.67,
anchor,total,9.000000,0.187500,100.00,
cnn,decode,1.500000,0.031250,6.06,-50.00
cnn,downsample,1.500000,0.031250,6.06,
cnn,encode,3.000000,0.062500,12.12,-50.00
cnn,postproc,18.000000,0.375000,72.73,
cnn,upsample,0.750000,0.015625,3.03,
cnn,total,24.750000,0.515625,100.00,175.00
rescaled,decode,1.500000,0.031250,22.22,-50.00
rescaled,downsample,1.500000,0.031250,22.22,
rescaled,encode,3.000000,0.062500,44.44,-50.00
rescaled,upsample,0.750000,0.015625,11.11,
rescaled,total,6.750000,0.140625,100.00,-25.00
"""
PINNED_WARNINGS = [
    "s1/cnn/vmaf: incomplete curve, BD skipped",
    "s2/cnn/psnr_y: unusable curve: curve 's2/cnn' has duplicate bitrates",
    "s2/cnn/psnr_y: incomplete curve, BD skipped",
    "s2/cnn/vmaf: incomplete curve, BD skipped",
]


class TestSamplesOutsideTheBitDepth:
    """A 10-bit file with a sample above 1023 is never read masked: every job
    that reads it ends in a failed record naming the file."""

    SPEC = VideoSpec(32, 32, 10, "420", frame_count=2)

    def write(self, path, spec=SPEC, frame=None, value=None, seed=0):
        frames = list(synthetic_sequence(spec, seed=seed))
        if frame is not None:
            frames[frame].y = frames[frame].y.astype(np.int32)
            frames[frame].y[3, 5] = value
        path.write_bytes(b"".join(p.astype("<u2").tobytes() for f in frames for p in f.planes()))

    def config(self, tmp_path, sequences, method="codec = mock"):
        seq = "".join(
            f"[sequence.{label}]\npath = {label}.yuv\nwidth = 32\nheight = 32\nbit_depth = 10\n"
            f"frame_count = 2\nframe_rate = 30\n{extra}\n"
            for label, extra in sequences
        )
        (tmp_path / "exp.ini").write_text(
            f"[run]\nworkdir = out\n\n{seq}[method.anchor]\n{method}\n\n"
            "[method.rescaled]\nscale = 1/2\ncodec = mock\n\n[qps]\npairs = 22:4, 32:11\n\n"
            "[metrics]\npsnr_y = native\n"
        )
        return tmp_path / "exp.ini"

    def test_hot_source_fails_its_jobs_and_only_those(self, tmp_path):
        self.write(tmp_path / "good.yuv")
        self.write(tmp_path / "hot.yuv", frame=1, value=2048, seed=1)
        manifest = run_experiment(self.config(tmp_path, [("good", ""), ("hot", "")]), workers=2)
        assert len(manifest.jobs) == 8
        for rec in manifest.jobs.values():
            if rec.sequence == "good":
                assert rec.status == "ok"
            else:
                assert rec.status == "failed"
                assert rec.error == (
                    f"SampleRangeError: {tmp_path / 'hot.yuv'}: frame 1, plane 0: sample 2048"
                    " at row 3, column 5 is outside [0, 1023]"
                )

    def test_hot_depth_stream_fails_its_jobs(self, tmp_path):
        self.write(tmp_path / "s.yuv")
        depth_spec = VideoSpec(32, 32, 10, "400", frame_count=2)
        self.write(tmp_path / "d.yuv", depth_spec, frame=0, value=4095)
        manifest = run_experiment(self.config(tmp_path, [("s", "depth_path = d.yuv")]), workers=1)
        assert len(manifest.jobs) == 4
        for rec in manifest.jobs.values():
            assert rec.status == "failed"
            assert f"{tmp_path / 'd.yuv'}: frame 0, plane 0: sample 4095 at row 3, column 5" in rec.error

    def run_hot_decoder(self, tmp_path):
        import sys as _sys

        # a "codec" that keeps its input as the bitstream and decodes it
        # with the first luma sample set to 4095
        codec = tmp_path / "hotcodec.py"
        codec.write_text(
            "import sys\ndata = bytearray(open(sys.argv[1], 'rb').read())\n"
            "if sys.argv[3:] == ['--hot']:\n    data[:2] = b'\\xff\\x0f'\n"
            "open(sys.argv[2], 'wb').write(data)\n"
        )
        self.write(tmp_path / "s.yuv")
        return run_experiment(self.config(tmp_path, [("s", "")], (
            f"codec = external\nencode_cmd = {_sys.executable} {codec} {{in}} {{out}} {{qp}} {{w}} {{h}}\n"
            f"decode_cmd = {_sys.executable} {codec} {{in}} {{out}} --hot"
        )), workers=1)

    def test_hot_decoded_file_fails_its_jobs(self, tmp_path):
        manifest = self.run_hot_decoder(tmp_path)
        assert len(manifest.jobs) == 4
        for rec in manifest.jobs.values():
            if rec.method == "rescaled":
                assert rec.status == "ok"
            else:
                assert rec.status == "failed"
                assert re.match(r"SampleRangeError: \S+_dec\.yuv: frame 0, plane 0: sample 4095 at row 0, column 0",
                                rec.error)

    def test_hot_decoded_file_is_kept_for_its_record(self, tmp_path):
        # the failed record names the decoded file, so the file stays for
        # inspection; the raw input still goes
        manifest = self.run_hot_decoder(tmp_path)
        failed = [r for r in manifest.jobs.values() if r.status == "failed"]
        assert [r.method for r in failed] == ["anchor", "anchor"]
        for rec in failed:
            named = re.match(r"SampleRangeError: (\S+_dec\.yuv): ", rec.error).group(1)
            assert Path(named).is_file()
        out = tmp_path / "out"
        assert sorted(p.name for p in out.glob("*_dec.yuv")) == ["s_anchor_qp0_dec.yuv", "s_anchor_qp1_dec.yuv"]
        assert list(out.glob("*_in.yuv")) == []

    def test_dump_patch_names_the_file(self, tmp_path):
        path = tmp_path / "hot.yuv"
        self.write(path, frame=1, value=1024)
        assert dump_patch(path, self.SPEC, 0, 0, 0, 8, 8, tmp_path / "p.pgm").exists()
        with pytest.raises(SampleRangeError, match=re.escape(f"{path}: frame 1, plane 0: sample 1024")):
            dump_patch(path, self.SPEC, 1, 0, 0, 8, 8, tmp_path / "p.pgm")


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

    def test_no_ok_job_is_a_config_error(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        rec = synthetic_record("s", "anchor", 0, 500.0, 31.0)
        rec.status, rec.error = "failed", "RuntimeError: boom"
        manifest.append_job(rec)
        with pytest.raises(ConfigError, match="^manifest holds no successful jobs$"):
            assemble_report(manifest, tmp_path / "report")
        assert not (tmp_path / "report").exists()

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

    @staticmethod
    def pinned_manifest(tmp_path):
        """Two sequences and three methods: cnn has no vmaf scores, and its
        s2 curve is unusable (two jobs at one bitrate)."""
        manifest = RunManifest(tmp_path / "m.jsonl")
        cpu = {
            "anchor": {"encode": 1.0, "decode": 0.5},
            "rescaled": {"downsample": 0.25, "encode": 0.5, "decode": 0.25, "upsample": 0.125},
            "cnn": {"downsample": 0.25, "encode": 0.5, "decode": 0.25, "upsample": 0.125, "postproc": 3.0},
        }
        ladders = {
            "anchor": ([500.0, 900.0, 1600.0], [31.0, 34.0, 36.5], [60.0, 75.0, 85.0]),
            "rescaled": ([400.0, 800.0, 1500.0], [31.5, 34.25, 36.5], [62.0, 76.0, 84.5]),
            "cnn": ([420.0, 820.0, 1520.0], [32.0, 35.0, 37.0], None),
        }
        for seq, shift in (("s1", 0.0), ("s2", 0.5)):  # the anchor's s2 PSNR-Y is 0.5 dB higher
            for method, (rates, psnr, vmaf) in ladders.items():
                for qi in range(3):
                    rate = 420.0 if (seq, method, qi) == ("s2", "cnn", 1) else rates[qi]
                    rec = synthetic_record(seq, method, qi, rate, psnr[qi] + (shift if method == "anchor" else 0.0))
                    if vmaf is not None:
                        rec.scores["vmaf"] = dict(rec.scores["psnr_y"], sequence_value=vmaf[qi])
                    rec.stage_cpu_seconds = cpu[method]
                    manifest.append_job(rec)
        return manifest

    def test_csv_text_is_pinned(self, tmp_path):
        bundle = assemble_report(self.pinned_manifest(tmp_path), tmp_path / "report")
        assert sorted(p.name for p in (tmp_path / "report").iterdir()) == [
            "bd_cnn.csv", "bd_rescaled.csv", "rq_s1_psnr_y.csv", "rq_s1_vmaf.csv",
            "rq_s2_psnr_y.csv", "rq_s2_vmaf.csv", "timing_summary.csv",
        ]
        for path, text in (
            (bundle.rq_csvs[("s2", "psnr_y")], RQ_S2_PSNR_Y),
            (bundle.bd_tables["rescaled"], BD_RESCALED),
            (bundle.bd_tables["cnn"], BD_CNN),
            (bundle.timing_csv, TIMING_SUMMARY),
        ):
            assert path.read_bytes() == text.replace("\n", "\r\n").encode()  # csv ends rows with CRLF
        assert bundle.warnings == PINNED_WARNINGS

    def test_unusable_anchor_curve_warned_once(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        for method in ("anchor", "rescaled", "cnn"):
            for qi in range(3):
                rate = 500.0 if method == "anchor" else 400.0 * (qi + 1)
                manifest.append_job(synthetic_record("s", method, qi, rate, 30.0 + qi))
        bundle = assemble_report(manifest, tmp_path / "report")
        assert [w for w in bundle.warnings if "unusable" in w] == [
            "s/anchor/psnr_y: unusable curve: curve 's/anchor' has duplicate bitrates"
        ]
        assert [w for w in bundle.warnings if "unusable" not in w] == [
            "s/cnn/psnr_y: incomplete curve, BD skipped", "s/rescaled/psnr_y: incomplete curve, BD skipped"
        ]
        assert bundle.bd_values == {"rescaled": {}, "cnn": {}}

    def test_timing_rows_do_not_depend_on_record_order(self, tmp_path):
        # summed in this order the anchor's encode seconds are 1.5636215000000002
        # ("1.563622"), summed in reverse 1.5636215 ("1.563621")
        manifest = RunManifest(tmp_path / "m.jsonl")
        for qi, sec in enumerate([0.601628, 0.815765, 0.146225, 3.5e-06]):
            for method in ("anchor", "rescaled"):
                rec = synthetic_record("s", method, qi, 100.0 * (qi + 1), 30.0 + qi)
                rec.stage_cpu_seconds = {"encode": sec, "decode": sec / 3}
                manifest.append_job(rec)
        lines = manifest.path.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(reversed(lines)))
        rows = assemble_report(manifest, tmp_path / "report").timing_rows
        assert assemble_report(shuffled, tmp_path / "report_shuffled").timing_rows == rows
        assert rows[1]["stage"] == "encode" and rows[1]["total_seconds"] == "1.563621"

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
