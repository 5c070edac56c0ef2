import csv
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rqpipe import (
    VideoSpec,
    build_mfrnet_style,
    frame_size_bytes,
    random_weights,
    read_sequence,
    save_weights,
    synthetic_sequence,
    write_sequence,
)
from rqpipe.cli import build_parser, main


@pytest.fixture
def yuv(tmp_path):
    spec = VideoSpec(32, 32, 8, "420", frame_count=4)
    path = tmp_path / "in.yuv"
    write_sequence(synthetic_sequence(spec, seed=3), spec, path)
    return path, spec


def run_cli(*args):
    return main([str(a) for a in args])


class TestYuvInfo:
    def test_reports_frame_count(self, yuv, capsys):
        path, spec = yuv
        assert run_cli("yuv-info", path, "--spec", "32x32:8:420") == 0
        out = capsys.readouterr().out
        assert "complete frames: 4" in out
        assert f"{frame_size_bytes(spec)} bytes" in out

    def test_trailing_bytes_reported(self, yuv, capsys):
        path, _ = yuv
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 10)
        run_cli("yuv-info", path, "--spec", "32x32:8:420")
        assert "trailing bytes:  10" in capsys.readouterr().out


class TestResampleCommand:
    def test_downscale(self, yuv, tmp_path, capsys):
        path, _ = yuv
        out = tmp_path / "half.yuv"
        assert run_cli(
            "resample", "--in", path, "--spec", "32x32:8:420",
            "--scale", "1/2", "--filter", "lanczos:3", "--out", out,
        ) == 0
        half_spec = VideoSpec(16, 16, 8, "420", frame_count=4)
        assert out.stat().st_size == 4 * frame_size_bytes(half_spec)

    def test_nn_upscale(self, yuv, tmp_path):
        path, _ = yuv
        out = tmp_path / "double.yuv"
        run_cli("resample", "--in", path, "--spec", "32x32:8:420",
                "--scale", "2/1", "--filter", "nn", "--out", out)
        double_spec = VideoSpec(64, 64, 8, "420", frame_count=4)
        frames = list(read_sequence(out, double_spec))
        assert frames[0].y.shape == (64, 64)


class TestPsnrCommand:
    def test_identical_and_per_frame_csv(self, yuv, tmp_path, capsys):
        path, _ = yuv
        csv_out = tmp_path / "pf.csv"
        assert run_cli("psnr", "--ref", path, "--dist", path,
                       "--spec", "32x32:8:420", "--per-frame", csv_out) == 0
        assert "psnr_y: 100.0000 dB" in capsys.readouterr().out
        with open(csv_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and rows[0]["psnr_y_db"] == "inf"


class TestFrameCount:
    """resample, psnr, postproc and mock-codec read --spec/--frames alike."""

    @pytest.fixture
    def partial_yuv(self, yuv, tmp_path):
        path, spec = yuv
        with open(path, "ab") as fh:
            fh.write(b"\x00" * (frame_size_bytes(spec) // 2))
        net = build_mfrnet_style(1, 1, 2, 2)
        (tmp_path / "net.json").write_text(net.to_json())
        save_weights(tmp_path / "w.rqpw", random_weights(net))
        return path, spec

    @pytest.mark.parametrize("frames", [None, 2])
    @pytest.mark.parametrize("command", ["resample", "psnr", "postproc", "mock-codec"])
    def test_whole_frames_unless_frames_given(self, partial_yuv, tmp_path, capsys, command, frames):
        path, spec = partial_yuv
        out = tmp_path / "out.yuv"
        args = {
            "resample": ["--in", path, "--scale", "1/2", "--out", out],
            "psnr": ["--ref", path, "--dist", path],
            "postproc": ["--net", tmp_path / "net.json", "--weights", tmp_path / "w.rqpw",
                         "--in", path, "--out", out],
            "mock-codec": ["--in", path, "--qp", "27", "--out", out],
        }[command]
        if frames is not None:
            args += ["--frames", frames]
        assert run_cli(command, *args, "--spec", "32x32:8:420") == 0
        expected = frames or spec.frame_count  # the trailing half frame is never read
        if command == "psnr":
            assert f"over {expected} frames" in capsys.readouterr().out
        else:
            out_spec = spec.scaled(Fraction(1, 2)) if command == "resample" else spec
            assert out.stat().st_size == expected * frame_size_bytes(out_spec)


class TestBdCommand:
    @pytest.fixture
    def csvs(self, tmp_path):
        ref = tmp_path / "ref.csv"
        test = tmp_path / "test.csv"
        ref.write_text("bitrate_kbps,quality\n1000,30\n2000,33\n4000,35.5\n8000,37\n")
        test.write_text("bitrate_kbps,quality\n1000,31\n2000,34\n4000,36.5\n8000,38\n")
        return ref, test

    def test_quality_mode(self, csvs, capsys):
        ref, test = csvs
        assert run_cli("bd", "--ref", ref, "--test", test, "--mode", "quality") == 0
        assert "bd-quality: +1.0" in capsys.readouterr().out

    def test_rate_mode(self, csvs, capsys):
        ref, test = csvs
        assert run_cli("bd", "--ref", ref, "--test", test, "--mode", "rate") == 0
        assert "bd-rate:" in capsys.readouterr().out

    def test_missing_column_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("rate,quality\n1,2\n")
        assert run_cli("bd", "--ref", bad, "--test", bad) == 2
        assert "bitrate_kbps" in capsys.readouterr().err


class TestPostprocCommand:
    def test_roundtrip_with_zero_net(self, yuv, tmp_path):
        path, spec = yuv
        net = build_mfrnet_style(1, 1, 2, 2)
        (tmp_path / "net.json").write_text(net.to_json())
        weights = {k: (np.zeros_like(w), np.zeros_like(b))
                   for k, (w, b) in random_weights(net).items()}
        save_weights(tmp_path / "w.rqpw", weights)
        out = tmp_path / "pp.yuv"
        assert run_cli(
            "postproc", "--net", tmp_path / "net.json", "--weights", tmp_path / "w.rqpw",
            "--in", path, "--spec", "32x32:8:420", "--out", out,
        ) == 0
        # zero weights + global residual: luma unchanged
        before = list(read_sequence(path, spec))
        after = list(read_sequence(out, spec))
        for a, b in zip(before, after):
            assert np.array_equal(a.y, b.y)


class TestMockCodecCommand:
    def test_encode_decode_reports_rate(self, yuv, tmp_path, capsys):
        path, _ = yuv
        out = tmp_path / "dec.yuv"
        assert run_cli("mock-codec", "--in", path, "--spec", "32x32:8:420",
                       "--qp", "27", "--out", out) == 0
        text = capsys.readouterr().out
        assert "bits" in text and "psnr_y" in text
        assert out.stat().st_size == path.stat().st_size


class TestDumpPatchCommand:
    def test_writes_pgm(self, yuv, tmp_path):
        path, _ = yuv
        out = tmp_path / "p.pgm"
        assert run_cli("dump-patch", "--in", path, "--spec", "32x32:8:420",
                       "--frame", "2", "--x", "4", "--y", "4",
                       "--w", "8", "--h", "8", "--out", out) == 0
        assert out.read_bytes().startswith(b"P5\n8 8\n255\n")


class TestRunAndReport:
    def test_end_to_end(self, experiment_dir, capsys):
        assert run_cli("run", experiment_dir / "exp.ini", "--workers", "2") == 0
        assert "12 ok, 0 failed" in capsys.readouterr().out
        manifest = experiment_dir / "out" / "manifest.jsonl"
        assert run_cli("report", manifest, "--out", experiment_dir / "report") == 0
        report = capsys.readouterr().out
        assert "timing_summary.csv" in report
        assert (experiment_dir / "report" / "bd_rescaled.csv").exists()
        assert (experiment_dir / "report" / "rq_synthA_psnr_y.csv").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        assert run_cli("run", tmp_path / "absent.ini") == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_workers_env_exits_2(self, experiment_dir, monkeypatch, capsys):
        monkeypatch.setenv("RQPIPE_WORKERS", "two")
        assert run_cli("run", experiment_dir / "exp.ini") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "RQPIPE_WORKERS" in err and "'two'" in err

    def test_malformed_net_json_exits_2(self, experiment_dir, capsys):
        doc = json.loads((experiment_dir / "net.json").read_text())
        doc["layers"][0]["kernal"] = doc["layers"][0].pop("kernel")
        (experiment_dir / "net.json").write_text(json.dumps(doc))
        assert run_cli("run", experiment_dir / "exp.ini") == 2
        assert capsys.readouterr().err == "error: layer 0: unknown key 'kernal'\n"
        doc["layers"][0]["kernel"] = "3"
        del doc["layers"][0]["kernal"]
        (experiment_dir / "net.json").write_text(json.dumps(doc))
        assert run_cli("run", experiment_dir / "exp.ini") == 2
        assert capsys.readouterr().err == "error: layer 0: key 'kernel' must be an integer, got '3'\n"
        doc["layers"][0]["kernel"] = 3
        doc["residual_global"] = "false"
        (experiment_dir / "net.json").write_text(json.dumps(doc))
        assert run_cli("run", experiment_dir / "exp.ini") == 2
        assert capsys.readouterr().err == "error: key 'residual_global' must be true or false, got 'false'\n"

    def test_failed_jobs_exit_nonzero(self, tmp_path, capsys):
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
        assert run_cli("run", tmp_path / "exp.ini", "--workers", "1") == 1
        assert "1 failed" in capsys.readouterr().out


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("rqpipe ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_parses(line):
    # optional parts are shown in [brackets]; a trailing # starts a comment
    words = shlex.split(line.replace("[", "").replace("]", ""), comments=True)
    build_parser().parse_args(words[1:])
