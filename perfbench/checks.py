"""Output checks on a finished workdir, independent of rqpipe's own code.

The manifest is parsed as plain JSON lines and every recomputation here
uses hashlib and numpy directly, so a defect in the program cannot hide
itself by also breaking the check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

PSNR_TOL_DB = 1e-6  # manifest PSNR-Y against the recomputation here
PSNR_CAP = 100.0  # rqpipe's default stand-in for an infinite per-frame PSNR
# Reference values for the default seed. A reordering of float sums may flip
# the rounding of a few samples, which moves bits by a few and PSNR-Y by
# thousandths of a dB at most; a wrong kernel moves both by far more.
REF_BITS_REL_TOL = 1e-4
REF_PSNR_TOL_DB = 5e-3


def job_key(rec: dict) -> str:
    return f"{rec['sequence']}/{rec['method']}/{rec['qp_index']}"


def read_jobs(manifest_path) -> dict[str, dict]:
    """Last record per job key; the header line is skipped."""
    jobs = {}
    for line in Path(manifest_path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc.get("record") == "job":
            jobs[job_key(doc)] = doc
    return jobs


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def luma_frames(path, width: int, height: int, frames: int) -> np.ndarray:
    """Luma planes of a 10-bit 4:2:0 file as a (frames, height, width) array."""
    raw = np.fromfile(path, dtype="<u2").reshape(frames, -1)
    return raw[:, : width * height].reshape(frames, height, width)


def psnr_y(ref: np.ndarray, dist: np.ndarray, bit_depth: int = 10) -> float:
    """Mean over frames of per-frame luma PSNR, infinite frames capped."""
    maxv = (1 << bit_depth) - 1
    values = []
    for a, b in zip(ref, dist):
        d = a.astype(np.float64) - b.astype(np.float64)
        mse = float(np.mean(d * d))
        values.append(PSNR_CAP if mse == 0 else min(10.0 * math.log10(maxv * maxv / mse), PSNR_CAP))
    return float(np.mean(values))


def check_workdir(workdir, inputs_dir, wl, reference: dict | None = None) -> tuple[dict, dict[str, list[str]]]:
    """Check one finished run of workload `wl`.

    Returns ({job key: recon sha256}, {job key: [failure messages]}); a job
    that is missing from the manifest counts as failed.
    """
    failures: dict[str, list[str]] = {}

    def fail(key, msg):
        failures.setdefault(key, []).append(msg)

    jobs = read_jobs(Path(workdir) / "manifest.jsonl")
    frame_bytes = wl.width * wl.height * 3 // 2 * 2
    expected = [
        f"s{i:02d}/{m}/{q}"
        for i in range(wl.sequences) for m in wl.methods for q in range(len(wl.ladder))
    ]
    for key in expected:
        if key not in jobs:
            fail(key, "no record in the manifest")
    hashes = {}
    sources = {}
    for key, rec in jobs.items():
        if rec["status"] != "ok":
            fail(key, f"status {rec['status']}: {rec.get('error')}")
            continue
        recon = rec["artifacts"]["recon"]
        path = Path(recon["path"])
        if not path.is_file():
            fail(key, f"recon {path} missing")
            continue
        hashes[key] = digest = sha256_of(path)
        if digest != recon["sha256"]:
            fail(key, "recon sha256 differs from the manifest")
        if path.stat().st_size != rec["frame_count"] * frame_bytes:
            fail(key, f"recon holds {path.stat().st_size} bytes, want {rec['frame_count']} x {frame_bytes}")
            continue
        seq = rec["sequence"]
        if seq not in sources:
            sources[seq] = luma_frames(Path(inputs_dir) / f"{seq}.yuv", wl.width, wl.height, wl.frames)
        mine = psnr_y(sources[seq], luma_frames(path, wl.width, wl.height, wl.frames))
        theirs = rec["scores"]["psnr_y"]["sequence_value"]
        if abs(mine - theirs) > PSNR_TOL_DB:
            fail(key, f"PSNR-Y {theirs} in the manifest, {mine} recomputed")
        if reference is not None:
            want = reference.get(key)
            if want is None:
                fail(key, "no reference value")
            else:
                if abs(rec["total_bits"] - want["total_bits"]) > REF_BITS_REL_TOL * want["total_bits"]:
                    fail(key, f"total_bits {rec['total_bits']}, reference {want['total_bits']}")
                if abs(theirs - want["psnr_y"]) > REF_PSNR_TOL_DB:
                    fail(key, f"PSNR-Y {theirs}, reference {want['psnr_y']}")

    ladders: dict[tuple, list] = {}
    for key, rec in jobs.items():
        if rec["status"] == "ok":
            ladders.setdefault((rec["sequence"], rec["method"]), []).append(rec)
    for recs in ladders.values():
        recs.sort(key=lambda r: r["qp_index"])
        for lo, hi in zip(recs, recs[1:]):
            if not hi["bitrate_kbps"] < lo["bitrate_kbps"]:
                fail(job_key(hi), f"bitrate {hi['bitrate_kbps']} not below {lo['bitrate_kbps']} at the lower QP")
    return hashes, failures


def reference_values(workdir) -> dict[str, dict]:
    """Per-job bits and PSNR-Y of a run, in the form check_workdir compares to."""
    return {
        key: {"total_bits": rec["total_bits"], "psnr_y": rec["scores"]["psnr_y"]["sequence_value"]}
        for key, rec in sorted(read_jobs(Path(workdir) / "manifest.jsonl").items())
    }
