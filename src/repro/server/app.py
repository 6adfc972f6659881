"""``repro serve`` — the asyncio HTTP front end of the job server.

Stdlib only (``asyncio`` streams + a small HTTP/1.1 layer): no framework
dependency, which keeps the server importable everywhere the package is.

Routes
------

* ``POST /jobs`` — submit a :class:`~repro.api.spec.JobSpec` document.
  Validated against the spec schema, the algorithm registry (names *and*
  params), the backend registry, and the generator families — malformed or
  unknown anything is a ``422`` naming the problem, never a queued job that
  fails later.  The job id is the spec's canonical hash: resubmitting the
  same document (field order and omitted defaults don't matter — the
  document is normalised before hashing) returns the *same* job, and a
  finished job is a cache hit served straight from the store.
* ``GET /jobs`` — list all jobs (id, state, progress).
* ``GET /jobs/<id>`` — one job's status (plus its sink manifest, which pins
  ``spec_hash`` and the ``backend_tier`` that executed it).
* ``GET /jobs/<id>/records`` — the records written so far (durable ones
  only: the sink's torn-tail rule applies).
* ``GET /jobs/<id>/events`` — Server-Sent Events: replays the durable
  per-cell history from the sink, then streams live ``cell`` events until a
  terminal ``done``/``failed`` event.
* ``GET /healthz`` — liveness + the full backend report
  (:func:`repro.engine.registry.describe_backends`), including each
  backend's *active tier* — the per-process answer to "is the jit backend
  silently running on the array fallback?" — and the execution plane
  (thread vs process mode, per-job worker budget, pool size).

Restart story: on startup the server re-queues every job the previous
process left ``queued``/``running``; their JSONL sinks resume, so completed
cells are never recomputed and the finished records are identical to an
uninterrupted run (modulo wall-clock fields of re-run cells).
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import threading
import time
from typing import Any
from urllib.parse import unquote, urlsplit

from repro.api.registry import AlgorithmError, get_algorithm
from repro.api.spec import JobSpec, SpecError, spec_hash
from repro.engine.base import EngineError
from repro.server.queue import JobQueue
from repro.server.store import JobStore, JobStoreError

__all__ = ["JobServer"]

#: Largest accepted request body (a JobSpec document), in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024

_JSON = "application/json"


class _HttpError(Exception):
    """Terminate request handling with a status + JSON error body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
}


class JobServer:
    """The long-running coloring service: HTTP + SSE over store and queue.

    Parameters
    ----------
    state_dir:
        Durable state directory (jobs survive restarts here).
    host / port:
        Bind address; ``port=0`` picks a free port (``self.port`` reports the
        actual one after :meth:`start`).
    workers:
        Bound on concurrently *executing* jobs (the :class:`JobQueue` pool);
        further submissions queue.
    drain_timeout:
        Seconds a graceful stop waits for running jobs to finish their cells
        and close their sinks before giving up (``None`` = wait forever).
        A drain that times out sets :attr:`drained_clean` to ``False``; the
        abandoned jobs stay ``running`` on disk and resume on restart.
    reap_interval:
        Seconds between scans of :meth:`JobQueue.reap` — the background
        reaper that marks jobs with dead executors as ``failed`` instead of
        leaving them ``running`` on disk forever.  ``None`` disables the
        background thread (``reap()`` can still be driven manually).
    default_retry:
        Server-wide :class:`~repro.engine.retry.RetryPolicy` for jobs whose
        spec declares none (see :class:`JobQueue`).
    execution:
        The per-job execution plane: ``"thread"`` runs a job's cells on its
        queue thread, ``"process"`` fans them out through the engine's
        crash-containing process pool (see :class:`JobQueue`), and
        ``"auto"`` (the default) picks ``"process"`` on a multi-core
        machine and ``"thread"`` on a single core.
    job_workers:
        Per-job worker budget of process mode (default: cores split across
        the job pool — see :class:`JobQueue`).
    """

    def __init__(self, state_dir, host: str = "127.0.0.1", port: int = 8765,
                 workers: int = 2, drain_timeout: float | None = 30.0,
                 reap_interval: float | None = 5.0, default_retry=None,
                 execution: str = "auto", job_workers: int | None = None):
        from repro.engine.sink import machine_cores

        self.store = JobStore(state_dir)
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.drain_timeout = drain_timeout
        self.reap_interval = reap_interval
        self.drained_clean = True
        if execution == "auto":
            execution = "process" if machine_cores() > 1 else "thread"
        self.queue = JobQueue(self.store, workers=self.workers,
                              on_event=self._publish_threadsafe,
                              default_retry=default_retry,
                              execution=execution, job_workers=job_workers)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._reaper: threading.Thread | None = None
        self._reaper_stop = threading.Event()
        self._abort = False
        self._started_at: float | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the socket, resolve backends, and re-queue incomplete jobs."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # Resolve every backend once up front (JIT warmup / tier resolution)
        # so the first request never pays compilation and /healthz is cheap.
        from repro.engine.registry import describe_backends

        await self._loop.run_in_executor(None, describe_backends)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=1 << 20
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self.queue.recover()
        if self.reap_interval is not None:
            self._reaper_stop.clear()
            self._reaper = threading.Thread(target=self._reap_loop,
                                            name="repro-reaper", daemon=True)
            self._reaper.start()

    def _reap_loop(self) -> None:
        """The background reaper: periodically fail jobs with dead executors."""
        while not self._reaper_stop.wait(self.reap_interval):
            try:
                self.queue.reap()
            except Exception:  # noqa: BLE001 — the reaper itself must survive
                pass

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or task cancellation)."""
        if self._server is None:
            await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self._aclose()

    async def _aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._reaper_stop.set()
        # Graceful stop drains running jobs (bounded by drain_timeout) so
        # their cells land in the sink and queued jobs persist as `queued`;
        # abort abandons everything mid-flight (they stay queued/running on
        # disk — the restart-recovery path picks them up).
        if self._abort:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.queue.shutdown(wait=False)
            )
        else:
            self.drained_clean = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.queue.drain(self.drain_timeout)
            )

    # -- background-thread harness (tests, benchmarks, embedding) -------- #

    def start_background(self) -> "JobServer":
        """Run the server on a daemon thread with its own event loop."""
        started = threading.Event()
        failure: list[BaseException] = []

        def _main() -> None:
            async def _run() -> None:
                try:
                    await self.start()
                except BaseException as exc:  # noqa: BLE001 — reported to caller
                    failure.append(exc)
                    started.set()
                    return
                started.set()
                await self.serve_forever()

            asyncio.run(_run())

        self._thread = threading.Thread(target=_main, name="repro-serve", daemon=True)
        self._thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("job server failed to start within 30s")
        if failure:
            raise failure[0]
        return self

    def request_stop(self, abort: bool = False) -> None:
        """Ask the server to stop without blocking — safe from signal
        handlers and foreign threads.  ``serve_forever`` then runs the
        graceful drain (or the abort) and returns."""
        self._abort = abort or self._abort
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed

    def stop(self, abort: bool = False) -> None:
        """Stop a background server.  ``abort=True`` models a crash: running
        jobs are abandoned mid-flight (left incomplete on disk) instead of
        drained."""
        self.request_stop(abort=abort)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Event hub (worker threads -> asyncio subscribers)
    # ------------------------------------------------------------------ #

    def _publish_threadsafe(self, job_id: str, event: dict[str, Any]) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._publish, job_id, event)
        except RuntimeError:
            pass  # shutting down

    def _publish(self, job_id: str, event: dict[str, Any]) -> None:
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait(event)

    def _subscribe(self, job_id: str) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, set()).add(queue)
        return queue

    def _unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id)
        if listeners is not None:
            listeners.discard(queue)
            if not listeners:
                self._subscribers.pop(job_id, None)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request_line = await asyncio.wait_for(reader.readline(), timeout=30)
            except asyncio.TimeoutError:
                return
            if not request_line:
                return
            try:
                method, target, _version = request_line.decode("latin-1").split(None, 2)
            except ValueError:
                await self._respond_error(writer, 400, "malformed request line")
                return
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            if length > MAX_BODY_BYTES:
                await self._respond_error(writer, 413, "request body too large")
                return
            body = await reader.readexactly(length) if length else b""
            parts = urlsplit(target)
            path = unquote(parts.path)
            try:
                await self._route(writer, method.upper(), path, body)
            except _HttpError as exc:
                await self._respond_error(writer, exc.status, exc.message)
            except (SpecError, AlgorithmError, EngineError) as exc:
                # Validation failures of an otherwise well-formed document.
                await self._respond_error(writer, 422, str(exc))
            except JobStoreError as exc:
                await self._respond_error(writer, 500, str(exc))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {_JSON}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _respond_error(self, writer: asyncio.StreamWriter, status: int,
                             message: str) -> None:
        await self._respond(writer, status, {"error": message, "status": status})

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _route(self, writer: asyncio.StreamWriter, method: str, path: str,
                     body: bytes) -> None:
        if path in ("/healthz", "/health"):
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            await self._respond(writer, 200, self._healthz())
            return
        if path in ("/jobs", "/jobs/"):
            if method == "POST":
                await self._submit(writer, body)
                return
            if method == "GET":
                await self._respond(writer, 200, {
                    "jobs": [self._status_payload(s) for s in self.store.statuses()]
                })
                return
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, sub = rest.partition("/")
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            status = self.store.load(job_id) if job_id else None
            if status is None:
                raise _HttpError(404, f"unknown job {job_id!r}")
            if sub == "":
                payload = self._status_payload(status)
                payload["manifest"] = self.store.manifest(job_id)
                await self._respond(writer, 200, payload)
            elif sub == "records":
                await self._respond(writer, 200, {
                    "id": job_id,
                    "state": status.state,
                    "manifest": self.store.manifest(job_id),
                    "records": self.store.records(job_id),
                })
            elif sub == "events":
                await self._stream_events(writer, job_id)
            else:
                raise _HttpError(404, f"unknown job endpoint {sub!r}")
            return
        raise _HttpError(404, f"no route for {path!r}")

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #

    def _healthz(self) -> dict[str, Any]:
        from repro import __version__
        from repro.engine.registry import available_backends, describe_backends, get_engine

        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": (
                None if self._started_at is None else time.time() - self._started_at
            ),
            "workers": self.workers,
            "jobs": self.store.counts(),
            # The execution plane: thread- vs process-mode job execution,
            # the per-job worker budget, and the job pool size — so a client
            # can tell a GIL-bound server from a hardware-bound one.
            "execution": {
                "mode": self.queue.execution,
                "job_workers": self.queue.job_workers,
                "pool_size": self.workers,
            },
            # Fault-tolerance state: how many dead executors the reaper has
            # failed, and the drain configuration — the /healthz view of the
            # execution plane's health, not just the process's.
            "queue": {
                "pending": self.queue.pending(),
                "reaped_total": self.queue.reaped_total,
                "reap_interval": self.reap_interval,
                "drain_timeout": self.drain_timeout,
            },
            "backends": describe_backends(),
            # The per-process degradation report: e.g. "jit:numba" vs
            # "jit:fallback-array" — no warning-scraping required.
            "backend_tiers": {
                name: get_engine(name).active_tier() for name in available_backends()
            },
        }

    def _status_payload(self, status) -> dict[str, Any]:
        payload = status.to_dict()
        payload["url"] = f"/jobs/{status.id}"
        return payload

    def _validate_document(self, body: bytes) -> tuple[str, JobSpec]:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise _HttpError(422, "request body must be a JobSpec JSON object")
        job = JobSpec.from_dict(document)  # SpecError -> 422 (schema/backend)
        algorithm = get_algorithm(job.run.algorithm)  # AlgorithmError -> 422
        for grid_entry in job.effective_grid() or [{}]:
            algorithm.validate_params(grid_entry)
        from repro.congest import generators

        for problem in job.problems:
            if not problem.is_serializable:  # unreachable from JSON; belt+braces
                raise SpecError("job problems must be GraphSpec-described")
            family = problem.graph.family
            if family == "file":
                # corpus cell: the file must exist server-side; content drift
                # still 422s at canonical-hash time (file_digest raises there)
                path = getattr(problem.graph, "path", None)
                if not path or not pathlib.Path(path).is_file():
                    raise _HttpError(
                        422, f"graph file not found on server: {path!r}"
                    )
            elif family not in generators.FAMILIES:
                raise _HttpError(
                    422,
                    f"unknown graph family {family!r}; known: "
                    f"{sorted(generators.FAMILIES)} + ['file']",
                )
        return spec_hash(job), job

    async def _submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        job_id, job = self._validate_document(body)
        existing = self.store.load(job_id)
        if existing is not None and existing.state != "failed":
            # Content-addressed dedupe: same canonical document, same job.
            # Finished jobs are cache hits; in-flight ones just gain a watcher.
            payload = self._status_payload(existing)
            payload["cached"] = True
            await self._respond(writer, 200, payload)
            return
        if existing is not None:  # failed: a resubmission retries it
            status = self.store.update(job_id, state="queued")
        else:
            status = self.store.create(job_id, job.to_dict())
        self.queue.submit(job_id)
        payload = self._status_payload(status)
        payload["cached"] = False
        await self._respond(writer, 201, payload)

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        """SSE: durable history first (from the sink), then live events."""
        queue = self._subscribe(job_id)
        try:
            # Read the history before the 200 headers go out, so a corrupt
            # records file still gets its 500 answer.
            status = self.store.load(job_id)
            manifest = self.store.manifest(job_id)
            total = (manifest or {}).get("cells", status.cells_total)
            history = self.store.records(job_id)
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            sent_cells: set[str] = set()
            for i, obj in enumerate(history):
                sent_cells.add(obj["cell"])
                self._write_event(writer, "cell", {
                    "cell": obj["cell"], "done": i + 1, "total": total,
                    "record": obj["record"],
                })
            if status.terminal:
                self._write_event(writer, status.state, self._status_payload(status))
                await writer.drain()
                return
            await writer.drain()
            while True:
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=15)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")  # hold the connection open
                    await writer.drain()
                    continue
                kind = event.get("type")
                if kind == "cell":
                    if event["cell"] in sent_cells:
                        continue
                    sent_cells.add(event["cell"])
                    self._write_event(writer, "cell", event)
                elif kind == "done":
                    self._write_event(writer, "done", event)
                    await writer.drain()
                    return
                elif kind == "failed":
                    self._write_event(writer, "failed", event)
                    await writer.drain()
                    return
                else:
                    self._write_event(writer, kind or "message", event)
                await writer.drain()
        finally:
            self._unsubscribe(job_id, queue)

    @staticmethod
    def _write_event(writer: asyncio.StreamWriter, kind: str, data: Any) -> None:
        writer.write(
            f"event: {kind}\ndata: {json.dumps(data, separators=(',', ':'))}\n\n"
            .encode("utf-8")
        )
