"""Append-only run manifest: one JSON record per line.

The first line is a header echoing the toolkit version and the full
effective configuration; each further line is one completed (sequence,
method, qp) job. Appends are flushed immediately so a crash loses at
most the jobs still in flight, and re-running a config can skip every
job whose record, source hash and artifact hashes are intact.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path


def sha256_file(path, chunk=1 << 20) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


@dataclass
class JobRecord:
    sequence: str
    method: str
    qp_index: int
    base_qp_texture: int
    qp_texture: int
    qp_depth: int
    status: str = "ok"  # ok | failed
    error: str | None = None
    bitrate_kbps: float = 0.0
    total_bits: int = 0
    frame_count: int = 0
    frame_rate: float = 0.0
    scores: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)  # stage -> wall seconds
    stage_cpu_seconds: dict = field(default_factory=dict)  # stage -> thread-CPU seconds
    artifacts: dict = field(default_factory=dict)  # name -> {path, sha256}
    reference_sha256: str = ""
    postproc_weights_qp: int | None = None
    notes: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        return (self.sequence, self.method, self.qp_index)

    def to_line(self) -> str:
        doc = {"record": "job", **asdict(self)}
        return json.dumps(doc, sort_keys=True)


class RunManifest:
    """In-memory view plus append-only JSONL persistence."""

    def __init__(self, path):
        self.path = Path(path)
        self.header: dict = {}
        self.jobs: dict[tuple, JobRecord] = {}
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path) -> "RunManifest":
        man = cls(path)
        if not man.path.exists():
            return man
        data = man.path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            # drop a last line torn by a crash mid-append, so its job is redone
            with open(man.path, "r+b") as fh:
                fh.truncate(end)
        for line in data[:end].decode().splitlines():
            if not line.strip():
                continue
            doc = json.loads(line)
            if doc.pop("record", "job") == "run_header":
                man.header = doc
            else:
                rec = JobRecord(**doc)
                man.jobs[rec.key] = rec
        return man

    def write_header(self, header: dict) -> None:
        self.header = header
        with self._lock, open(self.path, "a") as fh:
            fh.write(json.dumps({"record": "run_header", **header}, sort_keys=True) + "\n")
            fh.flush()

    def append_job(self, rec: JobRecord) -> None:
        with self._lock:
            self.jobs[rec.key] = rec
            with open(self.path, "a") as fh:
                fh.write(rec.to_line() + "\n")
                fh.flush()

    def job_intact(self, key: tuple, reference_sha256: str) -> bool:
        """True when the job succeeded on the source file that now hashes to
        reference_sha256 and all its artifacts still hash-match."""
        rec = self.jobs.get(key)
        if rec is None or rec.status != "ok" or rec.reference_sha256 != reference_sha256:
            return False
        for info in rec.artifacts.values():
            path = Path(info["path"])
            if not path.is_file() or sha256_file(path) != info["sha256"]:
                return False
        return True

    def ok_jobs(self) -> list[JobRecord]:
        return [r for r in self.jobs.values() if r.status == "ok"]
