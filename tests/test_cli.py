import csv
import json
import logging
import re
import shlex
import tracemalloc
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

    def test_sample_above_10_bits_exits_2_naming_the_file(self, tmp_path, capsys):
        spec = VideoSpec(32, 32, 10, "420", frame_count=2)
        frames = list(synthetic_sequence(spec, seed=3))
        good, hot = tmp_path / "good.yuv", tmp_path / "hot.yuv"
        write_sequence(frames, spec, good)
        raw = bytearray(good.read_bytes())
        raw[frame_size_bytes(spec) + 2 * (32 * 32 + 17)] = 0  # frame 1, Cb sample 17
        raw[frame_size_bytes(spec) + 2 * (32 * 32 + 17) + 1] = 8  # little-endian 2048
        hot.write_bytes(bytes(raw))
        assert run_cli("psnr", "--ref", good, "--dist", hot, "--spec", "32x32:10:420") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {hot}: frame 1, plane 1: sample 2048 at row 1, column 1 is outside [0, 1023]\n"
        )


class TestFrameCount:
    """resample, psnr, postproc and mock-codec read --spec/--frames alike."""

    COMMANDS = ["resample", "psnr", "postproc", "mock-codec"]

    @pytest.fixture
    def partial_yuv(self, yuv, tmp_path):
        path, spec = yuv
        with open(path, "ab") as fh:
            fh.write(b"\x00" * (frame_size_bytes(spec) // 2))
        net = build_mfrnet_style(1, 1, 2, 2)
        (tmp_path / "net.json").write_text(net.to_json())
        save_weights(tmp_path / "w.rqpw", random_weights(net))
        return path, spec

    @staticmethod
    def args(command, path, out, tmp_path):
        return {
            "resample": ["--in", path, "--scale", "1/2", "--out", out],
            "psnr": ["--ref", path, "--dist", path],
            "postproc": ["--net", tmp_path / "net.json", "--weights", tmp_path / "w.rqpw",
                         "--in", path, "--out", out],
            "mock-codec": ["--in", path, "--qp", "27", "--out", out],
        }[command]

    @pytest.mark.parametrize("frames", [None, 2])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_whole_frames_unless_frames_given(self, partial_yuv, tmp_path, capsys, command, frames):
        path, spec = partial_yuv
        out = tmp_path / "out.yuv"
        args = self.args(command, path, out, tmp_path)
        if frames is not None:
            args += ["--frames", frames]
        assert run_cli(command, *args, "--spec", "32x32:8:420") == 0
        expected = frames or spec.frame_count  # the trailing half frame is never read
        if command == "psnr":
            assert f"over {expected} frames" in capsys.readouterr().out
        else:
            out_spec = spec.scaled(Fraction(1, 2)) if command == "resample" else spec
            assert out.stat().st_size == expected * frame_size_bytes(out_spec)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_whole_frame_exits_2_and_writes_nothing(self, partial_yuv, tmp_path, capsys, command):
        # mock-codec used to write an empty file, then die on a division by
        # zero; resample and postproc wrote an empty file and reported success
        _, spec = partial_yuv
        path = tmp_path / "half.yuv"
        path.write_bytes(b"\x00" * (frame_size_bytes(spec) // 2))
        out = tmp_path / "out.yuv"
        assert run_cli(command, *self.args(command, path, out, tmp_path), "--spec", "32x32:8:420") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 768 bytes hold no whole frame of 1536 bytes (32x32:8:420)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("frames", ["0", "-2"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_frames_below_one_exits_2_and_writes_nothing(self, partial_yuv, tmp_path, capsys, command, frames):
        # 0 used to read the whole file, and -2 failed without naming the flag
        path, _ = partial_yuv
        out = tmp_path / "out.yuv"
        args = self.args(command, path, out, tmp_path)
        assert run_cli(command, *args, "--spec", "32x32:8:420", "--frames", frames) == 2
        assert capsys.readouterr().err == f"error: --frames must be at least 1, got {frames}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("body, error", [
        ("bitrate_kbps,rate\n1000,30\n", "line 1: need CSV columns bitrate_kbps,quality"),
        ("bitrate_kbps,quality\n1000,30\n2000,high\n",
         "line 3: bitrate_kbps '2000' and quality 'high' must be numbers"),
        ("bitrate_kbps,quality\n1000,30\n2000\n", "line 3: bitrate_kbps '2000' and quality None must be numbers"),
        ("bitrate_kbps,quality\n0,30\n2000,33\n", "line 2: bitrate must be positive, got 0.0"),
    ], ids=["no-quality-column", "text-cell", "short-row", "zero-rate"])
    def test_malformed_csv_exits_2_naming_file_and_line(self, csvs, tmp_path, capsys, body, error):
        # each used to end in a traceback, or, for a zero rate, name no file
        _, test = csvs
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        assert run_cli("bd", "--ref", bad, "--test", test) == 2
        assert capsys.readouterr().err == f"error: {bad}, {error}\n"

    def test_fit_warning_goes_to_stderr(self, csvs, tmp_path, capsys):
        ref, _ = csvs
        two = tmp_path / "two.csv"
        two.write_text("bitrate_kbps,quality\n1000,31\n8000,38\n")
        assert run_cli("bd", "--ref", ref, "--test", two) == 0
        captured = capsys.readouterr()
        assert "bd-quality:" in captured.out
        assert captured.err == "warning: test: only 2 points, using linear interpolation\n"


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

    def test_runs_the_net_at_one_blas_thread(self, yuv, tmp_path, monkeypatch):
        # as `rqpipe run` does, so its output is a run's recon of the same
        # plane; the thread count is restored after
        from rqpipe import cli
        from rqpipe.pipeline.runner import _openblas

        if _openblas() is None:
            pytest.skip("numpy's OpenBLAS exposes no thread-count functions")
        get, set_ = _openblas()[:2]
        before = get()
        seen = []

        def spy(*args):
            seen.append(get())
            return apply(*args)

        apply = cli.apply_network
        monkeypatch.setattr(cli, "apply_network", spy)
        path, _ = yuv
        net = build_mfrnet_style(1, 1, 2, 2)
        (tmp_path / "net.json").write_text(net.to_json())
        save_weights(tmp_path / "w.rqpw", random_weights(net))
        set_(2)
        two = get()  # OpenBLAS caps the count at its build's maximum
        try:
            assert run_cli(
                "postproc", "--net", tmp_path / "net.json", "--weights", tmp_path / "w.rqpw",
                "--in", path, "--spec", "32x32:8:420", "--out", tmp_path / "pp.yuv",
            ) == 0
            assert seen and set(seen) == {1}
            assert get() == two
        finally:
            set_(before)

    def test_size_changing_net_exits_2_and_writes_nothing(self, yuv, tmp_path, capsys):
        path, _ = yuv
        net = build_mfrnet_style(1, 1, 2, 2)
        save_weights(tmp_path / "w.rqpw", random_weights(net))
        out = tmp_path / "pp.yuv"
        for layer, key, error in [
            (0, "stride", "error: conv layer 'head': kernel 3, stride 2, pad 1;"),
            (-1, "out_ch", "error: network output has 2 channels, expected 1\n"),
        ]:
            doc = json.loads(net.to_json())
            doc["layers"][layer][key] = 2
            (tmp_path / "net.json").write_text(json.dumps(doc))
            assert run_cli(
                "postproc", "--net", tmp_path / "net.json", "--weights", tmp_path / "w.rqpw",
                "--in", path, "--spec", "32x32:8:420", "--out", out,
            ) == 2
            assert capsys.readouterr().err.startswith(error)
            assert not out.exists()


class TestMockCodecCommand:
    def test_encode_decode_reports_rate(self, yuv, tmp_path, capsys):
        path, _ = yuv
        out = tmp_path / "dec.yuv"
        assert run_cli("mock-codec", "--in", path, "--spec", "32x32:8:420",
                       "--qp", "27", "--out", out) == 0
        text = capsys.readouterr().out
        assert "bits" in text and "psnr_y" in text
        assert out.stat().st_size == path.stat().st_size

    @pytest.mark.parametrize("flag, value, error", [
        ("--qp", "70", "qp 70 outside [0, 63]"),
        ("--qp", "-1", "qp -1 outside [0, 63]"),
        ("--fps", "0", "--fps must be a finite number > 0, got 0.0"),
        ("--fps", "-30", "--fps must be a finite number > 0, got -30.0"),
        ("--fps", "nan", "--fps must be a finite number > 0, got nan"),
        ("--fps", "inf", "--fps must be a finite number > 0, got inf"),
    ], ids=["qp-above", "qp-below", "fps-zero", "fps-negative", "fps-nan", "fps-inf"])
    def test_bad_qp_or_fps_exits_2_and_writes_nothing(self, yuv, tmp_path, capsys, flag, value, error):
        # a bad QP used to leave an empty output file, and a bad rate
        # reported a zero, negative or NaN bitrate with exit 0
        path, _ = yuv
        out = tmp_path / "dec.yuv"
        args = {"--qp": "27", "--fps": "30", flag: value}
        assert run_cli("mock-codec", "--in", path, "--spec", "32x32:8:420", "--out", out,
                       *(x for kv in args.items() for x in kv)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_peak_does_not_grow_with_frame_count(self, tmp_path):
        # frames stream from the input through the codec into the output,
        # and PSNR-Y is scored from the two files: no frame list is held
        spec = VideoSpec(256, 192, 10, "420", frame_count=8)
        path = tmp_path / "in.yuv"
        write_sequence(synthetic_sequence(spec, seed=5), spec, path)

        def peak(frames):
            tracemalloc.start()
            try:
                assert run_cli("mock-codec", "--in", path, "--spec", "256x192:10:420", "--qp", "27",
                               "--frames", frames, "--out", tmp_path / "out.yuv") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: first-call allocations inside numpy and scipy
        assert peak(8) - peak(2) < frame_size_bytes(spec)


class TestDumpPatchCommand:
    def test_writes_pgm(self, yuv, tmp_path):
        path, _ = yuv
        out = tmp_path / "p.pgm"
        assert run_cli("dump-patch", "--in", path, "--spec", "32x32:8:420",
                       "--frame", "2", "--x", "4", "--y", "4",
                       "--w", "8", "--h", "8", "--out", out) == 0
        assert out.read_bytes().startswith(b"P5\n8 8\n255\n")

    @pytest.mark.parametrize("frame", ["-1", "-5"])
    def test_negative_frame_exits_2(self, yuv, tmp_path, capsys, frame):
        # -1 used to end in an IndexError traceback
        path, _ = yuv
        out = tmp_path / "p.pgm"
        assert run_cli("dump-patch", "--in", path, "--spec", "32x32:8:420",
                       "--frame", frame, "--x", "4", "--y", "4",
                       "--w", "8", "--h", "8", "--out", out) == 2
        assert capsys.readouterr().err == f"error: --frame must be at least 0, got {frame}\n"
        assert not out.exists()


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

    def test_size_changing_net_exits_2_before_any_job(self, experiment_dir, capsys):
        # a conv that changes the plane size, and a two-channel output, which
        # used to fail each post-processed job at its first frame
        text = (experiment_dir / "net.json").read_text()
        for edit, error in [
            (lambda doc: doc["layers"][0].update(pad=0), "error: conv layer 'head': kernel 3, stride 1, pad 0;"),
            (lambda doc: doc["layers"][-1].update(out_ch=2), "error: network output has 2 channels, expected 1\n"),
        ]:
            doc = json.loads(text)
            edit(doc)
            (experiment_dir / "net.json").write_text(json.dumps(doc))
            assert run_cli("run", experiment_dir / "exp.ini", "--workers", "1") == 2
            err = capsys.readouterr().err
            assert err.startswith(error) and err.count("\n") == 1
            assert not (experiment_dir / "out" / "manifest.jsonl").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, experiment_dir, capsys, workers):
        assert run_cli("run", experiment_dir / "exp.ini", "--workers", workers) == 2
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"
        assert not (experiment_dir / "out" / "manifest.jsonl").exists()

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

    def test_bad_config_value_exits_2_naming_it(self, experiment_dir, capsys):
        # a value that does not parse used to print a ValueError traceback
        text = (experiment_dir / "exp.ini").read_text()
        (experiment_dir / "broken.ini").write_text(text.replace("qp_texture_offset = -6", "qp_texture_offset = -6.5", 1))
        assert run_cli("run", experiment_dir / "broken.ini") == 2
        assert capsys.readouterr().err == "error: method 'rescaled': qp_texture_offset must be an integer, got '-6.5'\n"

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

    def test_run_reports_each_finished_job_on_stderr(self, tmp_path, capsys):
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
"""
        )
        assert run_cli("run", tmp_path / "exp.ini", "--workers", "1") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert re.fullmatch(r"job s/anchor/0 ok in \d+\.\d\d s \(1/2\)", err[0])
        assert re.fullmatch(r"job s/broken/0 failed in \d+\.\d\d s \(2/2\): ExternalToolError: .*exited.*", err[1])
        # the command leaves the logger as it found it
        assert logging.getLogger("rqpipe").handlers == []
        assert logging.getLogger("rqpipe").level == logging.NOTSET


    @pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="reads process states from /proc")
    def test_hangup_kills_the_running_tool(self, tmp_path):
        # the encoder sleeps 30 s in a session of its own; a hangup of
        # `rqpipe run` still stops the run and the encoder with it
        import os
        import signal
        import subprocess
        import sys
        import time

        import rqpipe

        stub = tmp_path / "sleepcodec.py"
        stub.write_text("import os, sys, time\nopen(sys.argv[2] + '.pid', 'w').write(str(os.getpid()))\ntime.sleep(30)\n")
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
[method.anchor]
codec = external
encode_cmd = {sys.executable} {stub} {{in}} {{out}} {{qp}} {{w}} {{h}}
decode_cmd = {sys.executable} {stub} {{in}} {{out}}
[qps]
pairs = 22:4
"""
        )
        def alive(pid):  # a zombie awaiting its reaper has already died
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"

        env = {**os.environ, "PYTHONPATH": str(Path(rqpipe.__file__).parents[1])}
        cli = subprocess.Popen(
            [sys.executable, "-m", "rqpipe.cli", "run", str(tmp_path / "exp.ini"), "--workers", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        pid = None
        try:
            deadline = time.monotonic() + 20.0
            while not (pidfiles := list((tmp_path / "out").rglob("*.pid"))) and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.1)  # the stub has written its pid
            pid = int(pidfiles[0].read_text())
            cli.send_signal(signal.SIGHUP)
            assert cli.wait(timeout=10) != 0
            deadline = time.monotonic() + 2.0
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not alive(pid)
        finally:
            cli.kill()
            cli.wait()
            if pid is not None and alive(pid):
                os.kill(pid, signal.SIGKILL)


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("rqpipe ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_parses(line):
    # optional parts are shown in [brackets]; a trailing # starts a comment
    words = shlex.split(line.replace("[", "").replace("]", ""), comments=True)
    build_parser().parse_args(words[1:])
