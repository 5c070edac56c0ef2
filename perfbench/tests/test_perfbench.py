"""Self-tests of the benchmark: generator, output checks, tracing and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import rqpipe  # noqa: E402
import spans  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from workloads import CONFIG_NAME, WORKLOADS, generate  # noqa: E402

# the many_small_jobs shape cut down to one tiny sequence and four QPs
TINY = replace(WORKLOADS["many_small_jobs"], name="tiny", width=32, height=32, frames=2,
               sequences=1, ladder=WORKLOADS["postproc_mfrnet_small"].ladder)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    wl = WORKLOADS["postproc_mfrnet_small"]
    a = _files(generate(wl, 7, tmp_path / "a").parent)
    b = _files(generate(wl, 7, tmp_path / "b").parent)
    c = _files(generate(wl, 8, tmp_path / "c").parent)
    assert a == b
    assert a.keys() == c.keys()
    differing = {name for name in a if a[name] != c[name]}
    assert differing == set(a) - {CONFIG_NAME}


def _run(wl, tmp_path, tracer=None):
    inputs = generate(wl, 3, tmp_path / "inputs").parent
    workdir = tmp_path / ("traced" if tracer else "plain")
    cfg = rqpipe.load_experiment(inputs / CONFIG_NAME)
    run = rqpipe.run_experiment if tracer is None else tracer.wrap(spans.RUN, rqpipe.run_experiment)
    run(cfg, workdir, workers=2, resume=False)
    run(cfg, workdir, workers=2, resume=True)
    return inputs, workdir


def test_checks_pass_then_catch_one_flipped_recon_byte(tmp_path):
    inputs, workdir = _run(TINY, tmp_path)
    hashes, failures = checks.check_workdir(workdir, inputs, TINY, checks.reference_values(workdir))
    assert failures == {}
    assert len(hashes) == TINY.jobs

    key = "s00/rescaled/1"
    recon = Path(checks.read_jobs(workdir / "manifest.jsonl")[key]["artifacts"]["recon"]["path"])
    blob = bytearray(recon.read_bytes())
    blob[5] ^= 0x01
    recon.write_bytes(bytes(blob))
    _, failures = checks.check_workdir(workdir, inputs, TINY)
    assert set(failures) == {key}
    assert any("sha256" in msg for msg in failures[key])


def test_checks_catch_values_off_the_reference(tmp_path):
    inputs, workdir = _run(TINY, tmp_path)
    reference = checks.reference_values(workdir)
    reference["s00/anchor/0"]["total_bits"] += 1000
    reference["s00/postproc/2"]["psnr_y"] += 0.05
    _, failures = checks.check_workdir(workdir, inputs, TINY, reference)
    assert set(failures) == {"s00/anchor/0", "s00/postproc/2"}


def test_traced_run_passes_through_and_records_every_layer(tmp_path):
    _, plain = _run(TINY, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs, traced = _run(TINY, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert rqpipe.pipeline.runner.read_sequence is rqpipe.frame_io.read_sequence
    plain_hashes, _ = checks.check_workdir(plain, inputs, TINY)
    traced_hashes, failures = checks.check_workdir(traced, inputs, TINY)
    assert failures == {} and traced_hashes == plain_hashes

    metrics = spans.layer_metrics(tracer.spans, tracer.counters, workers=2, jobs=TINY.jobs)
    # config load and report assembly are timed by the caller, not installed
    spans.guard_required(metrics, set(TINY.required_layers)
                         - {"pipeline.config.load", "pipeline.report.assemble", "bd_stats.bd"})
    assert metrics["frame_io.read_calls"] == TINY.jobs * TINY.frames
    assert metrics["pipeline.manifest.skip_ratio"] == 1.0
    frame_mb = TINY.width * TINY.height * 3 // 2 * 2 / 1e6
    assert metrics["frame_io.write_MB"] == pytest.approx(TINY.jobs * TINY.frames * frame_mb)
    assert metrics["postproc_cnn.gmac"] > 0


def test_trace_guard_fails_loudly():
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceGuardError, match="no_such_name"):
        tracer.patch(rqpipe.pipeline.runner, "no_such_name", lambda fn: fn)
    with pytest.raises(spans.TraceGuardError, match="postproc_cnn.apply"):
        spans.guard_required({"postproc_cnn.apply_calls": 0, "metrics.psnr_calls": 3},
                             ["metrics.psnr", "postproc_cnn.apply"])


def _span(sid, parent, name, thread, t0, t1, cpu):
    return [sid, parent, name, thread, t0, t1, 0.0, cpu]


def test_self_time_arithmetic_on_a_hand_built_tree():
    # main thread M runs the run span and hashes; pool threads A and B do the jobs
    tree = [
        _span(1, None, spans.RUN, "M", 0.0, 10.0, 1.0),
        _span(2, 1, "pipeline.manifest.hash", "M", 0.0, 1.0, 1.0),
        _span(3, 1, "frame_io.read", "A", 1.0, 3.0, 1.5),
        _span(4, 1, "pipeline.codecs.encode", "A", 3.0, 7.0, 4.0),
        _span(5, 4, "pipeline.codecs.decode", "A", 4.0, 5.0, 1.0),
        _span(6, 1, "resample.down", "B", 1.0, 9.0, 6.0),
    ]
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0
    assert spans.self_times(tree) == {1: 9.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 1.0, 6: 8.0}

    acc = spans.run_accounting(tree, workers=2)
    assert acc["wall_s"] == 10.0
    assert acc["runner_self_s"] == 20.0 - (6.0 + 8.0)
    assert acc["busy_ratio"] == pytest.approx(14.0 / 20.0)
    assert acc["layer_self_s"] == 15.0
    assert acc["accounted_ratio"] == pytest.approx((15.0 + 6.0) / 20.0)

    m = spans.layer_metrics(tree, {}, workers=2, jobs=4)
    assert m["pipeline.codecs.encode_s"] == 4.0
    assert m["resample.down_wait_s"] == 2.0
    assert m["pipeline.runner.self_s"] == 6.0


def test_benchmark_json_names_every_metric_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
