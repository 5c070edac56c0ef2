"""Append-only run manifest: one JSON record per line.

The first line is a header echoing the toolkit version and the full
effective configuration; each further line is one completed (sequence,
method, qp) job, or a new header when a rerun's configuration differs
(the last header read wins). Appends are flushed immediately so a crash
loses at most the jobs still in flight, and re-running a config can skip
every job whose record, config hash, source hash and artifact hashes are
intact. Those checks hash the files larger than HASH_CHUNK on an
executor, several at once, and the smaller ones inline. A job record
with a field this version does not know is skipped, with a warning, so
its job is redone and left out of reports.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import stat
import threading
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

log = logging.getLogger(__name__)


# sha256_file's read size; a file no larger is hashed inline, since a pool
# task would cost more than it saves
HASH_CHUNK = 1 << 20


def sha256_file(path, chunk=HASH_CHUNK) -> str:
    """Hex sha256 of a file, read in chunks into one reused buffer.

    A file smaller than a chunk gets a buffer of its own size, since
    zeroing a whole chunk would take longer than hashing the file.
    """
    h = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = bytearray(min(chunk, size) if size else chunk)  # st_size 0 may be a special file
        view = memoryview(buf)
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def sha256_soon(path, size: int, submit):
    """A function that returns sha256_file(path) of a file of `size` bytes.

    A file larger than HASH_CHUNK is hashed through submit (an executor's
    submit) and the function waits for its digest; any other file is
    hashed now, on the calling thread.
    """
    if size > HASH_CHUNK:
        return submit(sha256_file, path).result
    digest = sha256_file(path)
    return lambda: digest


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
    config_sha256: str = ""  # hash of the configuration the job ran with
    postproc_weights_qp: int | None = None
    notes: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        return (self.sequence, self.method, self.qp_index)

    def to_line(self) -> str:
        doc = {"record": "job", **asdict(self)}
        return json.dumps(doc, sort_keys=True)


_RECORD_FIELDS = {f.name for f in fields(JobRecord)}


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
                continue
            unknown = sorted(doc.keys() - _RECORD_FIELDS)
            if unknown:
                key = (doc.get("sequence"), doc.get("method"), doc.get("qp_index"))
                log.warning("%s: skipping the record of job %s, whose field(s) %s this version does not know",
                            man.path, key, ", ".join(unknown))
                man.jobs.pop(key, None)
                continue
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

    def intact_jobs(self, checks, submit) -> list[bool]:
        """For each (key, reference_sha256, config_sha256) of checks, in order:
        True when the job succeeded with the configuration that now hashes
        to config_sha256, on the source file that now hashes to
        reference_sha256, and all its artifacts still hash-match.

        Artifacts are hashed through sha256_soon: those larger than
        HASH_CHUNK through submit (an executor's), all queued before the
        first answer waits for one; the rest inline, in order.
        """
        pending = []  # per job: (digest function, recorded sha256) of each artifact, or None
        for key, reference_sha256, config_sha256 in checks:
            rec = self.jobs.get(key)
            if (
                rec is None
                or rec.status != "ok"
                or rec.reference_sha256 != reference_sha256
                or rec.config_sha256 != config_sha256
            ):
                pending.append(None)
                continue
            artifacts = []
            for info in rec.artifacts.values():
                try:
                    st = os.stat(info["path"])
                except OSError:
                    st = None
                if st is None or not stat.S_ISREG(st.st_mode):
                    artifacts = None
                    break
                artifacts.append((sha256_soon(info["path"], st.st_size, submit), info["sha256"]))
            pending.append(artifacts)
        # every digest is read, so that a hash that failed raises
        return [a is not None and all([digest() == sha for digest, sha in a]) for a in pending]

    def ok_jobs(self) -> list[JobRecord]:
        return [r for r in self.jobs.values() if r.status == "ok"]
