"""Durable, content-addressed job state for the job server.

Layout of the state directory::

    <state_dir>/
      jobs/
        <spec_hash>/
          job.json        # JobStatus document (atomically replaced on update)
          records.jsonl   # the job's JSONL sink (manifest first line)

The job id *is* the spec's canonical hash, so the store doubles as the
result cache: a resubmission of the same document lands in the same
directory, and a finished job's records are served without re-execution.
Status updates are write-temp-then-rename so a killed server never leaves a
torn ``job.json``; the records file is the sink's own torn-line-tolerant
JSONL, so restart recovery is the sink's ``resume=True`` path.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Any, Iterator

from repro.api.spec import JobStatus, SpecError
from repro.engine.sink import SinkError, read_run

__all__ = ["JobStoreError", "JobStore"]


class JobStoreError(RuntimeError):
    """An unusable job directory (missing/corrupt status document)."""


class JobStore:
    """The server's persistent job table (one directory per spec hash)."""

    def __init__(self, state_dir: os.PathLike | str):
        self.root = pathlib.Path(state_dir)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        # One lock for all read-modify-write status updates: worker threads
        # (progress callbacks) and the asyncio thread (submissions) both
        # touch job.json.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def job_dir(self, job_id: str) -> pathlib.Path:
        if not job_id or any(c not in "0123456789abcdef" for c in job_id):
            raise JobStoreError(f"malformed job id {job_id!r} (expected a hex spec hash)")
        return self.jobs_dir / job_id

    def status_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

    def records_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "records.jsonl"

    # ------------------------------------------------------------------ #
    # Status documents
    # ------------------------------------------------------------------ #

    def create(self, job_id: str, spec: dict[str, Any]) -> JobStatus:
        """Create a queued job (or return the existing one — content address)."""
        with self._lock:
            existing = self._load_unlocked(job_id)
            if existing is not None:
                return existing
            status = JobStatus(id=job_id, spec=spec, state="queued",
                               submitted_at=time.time())
            self._write_unlocked(status)
            return status

    def load(self, job_id: str) -> JobStatus | None:
        with self._lock:
            return self._load_unlocked(job_id)

    def _load_unlocked(self, job_id: str) -> JobStatus | None:
        path = self.status_path(job_id)
        if not path.exists():
            return None
        try:
            return JobStatus.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (json.JSONDecodeError, SpecError) as exc:
            raise JobStoreError(f"corrupt job status {path}: {exc}") from None

    def update(self, job_id: str, **changes: Any) -> JobStatus:
        """Atomically apply field changes to a job's status document."""
        with self._lock:
            status = self._load_unlocked(job_id)
            if status is None:
                raise JobStoreError(f"unknown job {job_id!r}")
            for field_name, value in changes.items():
                if not hasattr(status, field_name):
                    raise JobStoreError(f"JobStatus has no field {field_name!r}")
                setattr(status, field_name, value)
            if status.state not in ("queued", "running", "done", "failed"):
                raise JobStoreError(f"unknown job state {status.state!r}")
            self._write_unlocked(status)
            return status

    def _write_unlocked(self, status: JobStatus) -> None:
        directory = self.job_dir(status.id)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.status_path(status.id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(status.to_dict(), indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)  # atomic on POSIX: never a torn job.json

    # ------------------------------------------------------------------ #
    # Enumeration / recovery
    # ------------------------------------------------------------------ #

    def job_ids(self) -> list[str]:
        """All known job ids (sorted for deterministic listings)."""
        return sorted(
            p.name for p in self.jobs_dir.iterdir()
            if p.is_dir() and (p / "job.json").exists()
        )

    def statuses(self) -> Iterator[JobStatus]:
        for job_id in self.job_ids():
            status = self.load(job_id)
            if status is not None:
                yield status

    def incomplete_job_ids(self) -> list[str]:
        """Jobs a restarted server must re-queue (``queued`` or ``running``).

        A job found ``running`` at startup is a job the previous process died
        under; its sink holds every cell that completed durably, so re-running
        it resumes — it never recomputes finished cells.
        """
        return [s.id for s in self.statuses() if not s.terminal]

    def counts(self) -> dict[str, int]:
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for status in self.statuses():
            counts[status.state] = counts.get(status.state, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Records (the job's sink file, read-side)
    # ------------------------------------------------------------------ #

    def manifest(self, job_id: str) -> dict[str, Any] | None:
        """The sink manifest of a job's records file (first JSONL line).

        A one-line peek rather than :func:`~repro.engine.sink.read_run`: the
        queue and every status poll call it, and it must not cost a full
        parse of a long-running job's records.
        """
        path = self.records_path(job_id)
        if not path.exists():
            return None
        with path.open("r", encoding="utf-8") as fh:
            head = fh.readline()
        if not head.endswith("\n"):
            return None  # torn first line: the manifest write did not survive
        try:
            return json.loads(head).get("manifest")
        except json.JSONDecodeError:
            return None

    def records(self, job_id: str) -> list[dict[str, Any]]:
        """The ``{cell, record}`` entries written so far (torn tail skipped).

        A malformed interior line raises :class:`JobStoreError` — the same
        file would be refused by resume and merge, so it is never served.
        """
        path = self.records_path(job_id)
        if not path.exists():
            return []
        try:
            run = read_run(path)
        except SinkError as exc:
            raise JobStoreError(f"corrupt records file {exc}") from None
        return [{"cell": cell, "record": record} for cell, record in run.records]
