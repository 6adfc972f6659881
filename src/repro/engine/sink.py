"""Streaming result files: durable, resumable record streams for sweeps.

A :class:`JsonlSink` receives the tidy records of a
:class:`repro.engine.batch.BatchRunner` sweep *as each cell completes* and
appends them to a JSONL file, so an interrupted sweep loses at most the cells
in flight.  The first line is the run manifest; every following line is
``{"cell": <id>, "record": {...}}`` or a provenance ``{"event": {...}}``.
Types round-trip exactly, and a partially written final line (a sweep killed
mid-write) is detected and discarded on resume.  :func:`read_run` is the one
reader of the format: resume, ``repro merge``, the job server and
``repro export`` (the spreadsheet view) all parse through it.

The **manifest** pins down what a result file is: the task, the backend, the
package version, whether cells were parity-checked, and a hash over the
ordered cell keys of the grid.  ``resume=True`` refuses to append to a file
whose manifest disagrees — resuming a *different* sweep into an existing file
is always an error, never silent corruption.

Cell identity is the (task, graph spec, params) triple, canonicalised by
:func:`cell_key` and hashed by :func:`cell_id`; the runner skips cells whose
ids are already present in the sink.  Because the runner also orders cells
deterministically, a resumed or parallel sweep produces the same records as
an uninterrupted serial one (modulo the wall-clock ``seconds`` field).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.testing import faults

__all__ = [
    "SinkError",
    "RunManifest",
    "RunFile",
    "read_run",
    "JsonlSink",
    "check_sink_path",
    "open_sink",
    "task_name",
    "cell_key",
    "cell_id",
    "grid_hash",
    "shard_of",
    "machine_cores",
]


class SinkError(RuntimeError):
    """Raised for unusable sink files: malformed lines, manifest mismatches."""


# --------------------------------------------------------------------------- #
# Cell identity
# --------------------------------------------------------------------------- #


def task_name(task: str | Callable[..., Any]) -> str:
    """Canonical name of a task: the registry key, or ``module:qualname``."""
    if isinstance(task, str):
        return task
    return f"{getattr(task, '__module__', '?')}:{getattr(task, '__qualname__', repr(task))}"


def _jsonable(value: Any) -> Any:
    """JSON encoder fallback: NumPy scalars become plain Python scalars."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"value {value!r} of type {type(value).__name__} is not JSON-serializable")


def cell_key(task: str | Callable[..., Any], spec, params: Mapping[str, Any]) -> str:
    """Canonical JSON identity of one (task, graph spec, params) cell.

    A file-backed spec (``family="file"``) contributes its ``path`` — two
    corpus cells with equal (n, delta) must not collide — while generator
    specs keep the exact pre-file payload, so every existing cell id, grid
    hash, and shard assignment is unchanged.
    """
    payload = {
        "task": task_name(task),
        "family": spec.family,
        "n": spec.n,
        "delta": spec.delta,
        "seed": spec.seed,
        "params": {k: params[k] for k in sorted(params)},
    }
    path = getattr(spec, "path", None)
    if path is not None:
        payload["path"] = str(path)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonable)


def cell_id(key: str) -> str:
    """Short stable id of a cell key (hex SHA-256 prefix)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def grid_hash(keys: Iterable[str]) -> str:
    """Hash of the *ordered* cell keys of a sweep; pins grid and cell order."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def shard_of(key: str, of: int) -> int:
    """Deterministic shard index of one cell: a stable hash of its identity.

    The assignment depends only on the cell's canonical :func:`cell_key` and
    the shard count ``of`` — never on worker counts, the machine, execution
    order, or Python's per-process hash seed — so shard ``i`` of ``k`` names
    the same set of cells anywhere, any time.  Domain-separated from
    :func:`cell_id` (different hash input prefix), so shard index and cell id
    are independent functions of the same key.
    """
    of = int(of)
    if of < 1:
        raise SinkError(f"shard count must be >= 1, got {of!r}")
    digest = hashlib.sha256(b"shard:" + key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % of


def machine_cores() -> int:
    """CPU cores available to this process (manifest/benchmark provenance)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# --------------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunManifest:
    """What a result stream contains; written first, checked on resume.

    ``spec_hash`` is set when the sweep was described by a saved declarative
    spec (see :mod:`repro.api.spec`): it is the canonical hash of the exact
    ``{problems, run, params_grid}`` document, so a result file can be traced
    back to — and re-verified against — the spec that produced it.

    ``backend_tier`` records the execution tier that actually ran (see
    :meth:`repro.engine.base.Engine.active_tier` — e.g. ``"jit:numba"`` vs
    ``"jit:fallback-array"``), so a result file also answers *how* its
    backend executed.  The tier is informational provenance, not identity:
    resume does **not** compare it (results are bit-identical across tiers
    by the parity guarantee, and a restart may legitimately resolve a
    different tier).  ``workers`` and ``cores`` are equally provenance —
    how many worker processes the producing run sharded across and how many
    CPU cores its machine had — and are never compared on resume (records
    are worker-count-independent by construction).

    ``shard``, when set, marks the file as one shard of a fleet-scale sweep:
    ``{"index": i, "of": k, "total": N, "cells": {cell_id: grid_position}}``.
    ``grid_hash`` stays the hash of the *full* grid (all ``N`` cells, the
    same value on every shard and on an unsharded run), while ``cells``
    counts only this shard's cells.  Unlike the provenance fields the shard
    identity *is* compared on resume — resuming shard 1/2 into shard 0/2's
    file is a different sweep — and ``repro merge`` uses the per-shard cell
    position maps to validate disjoint, complete coverage and to interleave
    records back into full grid order.
    """

    task: str
    backend: str
    grid_hash: str
    cells: int
    parity_check: bool
    version: str
    spec_hash: str | None = None
    backend_tier: str | None = None
    workers: int = 1
    cores: int | None = None
    shard: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        fields = {f: data.get(f) for f in ("task", "backend", "grid_hash", "cells",
                                           "parity_check", "version")}
        if any(v is None for v in fields.values()):
            raise SinkError(f"incomplete run manifest: {dict(data)!r}")
        return cls(**fields, spec_hash=data.get("spec_hash"),
                   backend_tier=data.get("backend_tier"),
                   workers=int(data.get("workers", 1)),
                   cores=data.get("cores"),
                   shard=data.get("shard"))

    def shard_identity(self) -> tuple[int, int] | None:
        """The ``(index, of)`` pair of a shard manifest, or ``None``."""
        if self.shard is None:
            return None
        return (self.shard.get("index"), self.shard.get("of"))

    def check_resumable(self, existing: "RunManifest", path: os.PathLike | str) -> None:
        """Refuse to resume into a file produced by a *different* run setup."""
        for field in ("task", "backend", "grid_hash", "parity_check"):
            ours, theirs = getattr(self, field), getattr(existing, field)
            if ours != theirs:
                raise SinkError(
                    f"cannot resume into {os.fspath(path)!r}: manifest field {field!r} is "
                    f"{theirs!r} in the file but {ours!r} for this run — the file belongs "
                    f"to a different sweep"
                )
        if self.shard_identity() != existing.shard_identity():
            raise SinkError(
                f"cannot resume into {os.fspath(path)!r}: the file belongs to shard "
                f"{existing.shard_identity()!r} but this run is shard "
                f"{self.shard_identity()!r} — shards never share a result file"
            )




# --------------------------------------------------------------------------- #
# Reading and writing result files
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunFile:
    """The durable content of one result file, as parsed by :func:`read_run`."""

    #: ``None`` for an empty file or one whose only line is a torn manifest.
    manifest: RunManifest | None
    #: ``(cell id, record)`` pairs in file order.
    records: list[tuple[str, dict[str, Any]]]
    #: provenance events (retry / downgrade / cell-error notes) in file order.
    events: list[dict[str, Any]]
    #: whether a final line without its newline was skipped.
    torn: bool


def read_run(path: os.PathLike | str) -> RunFile:
    """Parse a result file — the one reader of the format :class:`JsonlSink` writes.

    Every caller (resume, merge, the job server, ``repro export``) gets the
    same policy: an empty file is not an error; a final line without its
    newline is a write the producing run did not survive, so it is skipped
    and flagged ``torn`` (a file holding only a partial manifest line reads
    as empty and torn); any other line that is not JSON, or whose shape is
    wrong, raises :class:`SinkError` naming its physical line number.
    Reading never mutates the file.
    """
    path = pathlib.Path(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    manifest: RunManifest | None = None
    records: list[tuple[str, dict[str, Any]]] = []
    events: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SinkError(f"{path}: malformed JSONL at line {lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise SinkError(f"{path}: line {lineno} is not a JSON object")
        if manifest is None:
            if "manifest" not in obj:
                raise SinkError(f"{path}: line {lineno} is not a run manifest")
            manifest = RunManifest.from_dict(obj["manifest"])
        elif "cell" in obj and "record" in obj:
            records.append((obj["cell"], obj["record"]))
        elif "event" in obj:
            events.append(dict(obj["event"]))
        else:
            raise SinkError(f"{path}: line {lineno} is not a "
                            "{'cell': ..., 'record': ...} or {'event': ...} object")
    return RunFile(manifest=manifest, records=records, events=events,
                   torn=lines[-1] != "")


class JsonlSink:
    """A durable, append-only result file, written as each cell completes.

    Line one is the run manifest; every following line is ``{"cell": <id>,
    "record": {...}}`` or a provenance ``{"event": {...}}``.  Lifecycle:
    ``start(manifest)`` once (loads completed cells when resuming, writes the
    manifest otherwise), then ``write(cell, record)`` per completed cell,
    then ``close()``.  Sinks are context managers; :attr:`completed` maps
    cell ids to their previously recorded records after ``start``.
    """

    def __init__(self, path: os.PathLike | str, resume: bool = False):
        self.path = pathlib.Path(path)
        self.resume = bool(resume)
        #: cell id -> record, loaded by ``start`` when resuming.
        self.completed: dict[str, dict[str, Any]] = {}
        self.written = 0
        self._listeners: list[Callable[[str, Mapping[str, Any]], None]] = []
        self._file = None

    def add_listener(self, listener: Callable[[str, Mapping[str, Any]], None]) -> None:
        """Register ``listener(cell_id, record)``, called after each durable write.

        The sink-layer progress hook: listeners fire only once the record has
        been flushed to the file, so anything built on them (the job server's
        SSE stream) never reports a cell the sink could still lose.
        """
        self._listeners.append(listener)

    def start(self, manifest: RunManifest) -> None:
        existing = read_run(self.path) if self.resume and self.path.exists() else None
        if existing is None or existing.manifest is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
            self._emit({"manifest": manifest.to_dict()})
            return
        manifest.check_resumable(existing.manifest, self.path)
        self.completed = dict(existing.records)
        if existing.torn:
            # Drop the torn tail only now that the file is known to belong to
            # this sweep: a resume that is refused never mutates the file.
            os.truncate(self.path, self.path.read_bytes().rfind(b"\n") + 1)
        self._file = self.path.open("a", encoding="utf-8")

    def _emit(self, obj: Mapping[str, Any]) -> None:
        self._file.write(json.dumps(obj, separators=(",", ":"), default=_jsonable) + "\n")
        self._file.flush()

    def write(self, cell: str, record: Mapping[str, Any]) -> None:
        """Append one record (a CellError record too: resume re-runs it)."""
        faults.fire("sink-write", cell=cell, write=self.written + 1)
        self._emit({"cell": cell, "record": dict(record)})
        self.written += 1
        for listener in self._listeners:
            listener(cell, record)

    def note(self, event: Mapping[str, Any]) -> None:
        """Append a provenance event (retry / downgrade / cell-error).  Events
        are *not* records: they never mark a cell completed."""
        self._emit({"event": dict(event)})

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_sink_path(path: os.PathLike | str) -> None:
    """Refuse a result-file path without a JSONL suffix — before any work runs."""
    suffix = pathlib.Path(path).suffix.lower()
    if suffix == ".csv":
        raise SinkError(
            f"{os.fspath(path)!r}: CSV result sinks were removed; write a .jsonl "
            "file and convert it with `repro export RUN.jsonl --output TABLE.csv`"
        )
    if suffix not in (".jsonl", ".ndjson"):
        raise SinkError(
            f"cannot infer sink format from {os.fspath(path)!r}; use a .jsonl/.ndjson suffix"
        )


def open_sink(path: os.PathLike | str, resume: bool = False) -> JsonlSink:
    """The sink for ``path``, after :func:`check_sink_path` accepts its suffix."""
    check_sink_path(path)
    return JsonlSink(path, resume=resume)
