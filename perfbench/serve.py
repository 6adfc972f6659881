"""Workload ``serve-jobs``: a closed loop of jobs against ``repro serve``.

The server runs in its own process at its defaults (``repro serve --port 0``,
no ``--execution`` flag, so ``auto`` picks the plane).  Two client threads of
this process each submit a JobSpec, follow ``/jobs/<id>/events`` until the
terminal event, and submit the next.  A job holds one ``random_regular``
n=4000 Delta=8 problem and the ``road-sample`` corpus file, on ``array``; the
algorithm rotates over six registry entries, and every job's generator seed is
derived from the benchmark seed, so no two jobs of a run share a spec hash.
Every job must be accepted fresh (not ``cached``), end ``done`` and stream its
full count of cell records.

Set-up is spawning the server until ``/healthz`` answers ok, repeated and
reported as the median.  Each client's first jobs warm the server and are
not timed.

The traced run alternates untraced and traced jobs.  A traced job also
times its ``POST /jobs`` and reads the job status afterwards, for the queue
wait, execution time, attempts and when the server finished it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import resource
import threading
import time
from typing import Any

from harness import ROOT, Context, Outcome, median, p90, spawn, stop, trace_metrics

ALGORITHMS = ("delta_plus_one", "kdelta", "defective", "ruling_set", "theorem13", "outdegree")
N = 4000
SMOKE_N = 400
DELTA = 8
CLIENTS = 2
SETUP_REPEATS = 3
WARMUP_JOBS = 3
MIN_JOBS = 6
TIMEOUT = 60.0
#: Per-layer metrics that are counts, not times.
COUNTS = ("server.attempts", "server.cache_hits")
_LISTENING = re.compile(r"listening on http://([\w.]+):(\d+)")


class Server:
    """One ``repro serve`` process with a fresh state directory."""

    def __init__(self, ctx: Context, index: int):
        import sys

        log = ctx.work / f"serve-{index}.log"
        start = time.perf_counter()
        self.proc = spawn([sys.executable, "-m", "repro", "serve", "--port", "0",
                           "--state-dir", str(ctx.work / f"jobs-{index}")], ctx.env, log)
        try:
            self.host, self.port = self._address(log, start)
            self.health = self._await_health(start)
        except BaseException:
            stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - start

    def _address(self, log, start: float) -> tuple[str, int]:
        while time.perf_counter() - start < TIMEOUT:
            found = _LISTENING.search(log.read_text(errors="replace"))
            if found:
                return found.group(1), int(found.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}: "
                                   f"{log.read_text(errors='replace')[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError("repro serve did not report its address")

    def _await_health(self, start: float) -> dict[str, Any]:
        while time.perf_counter() - start < TIMEOUT:
            try:
                status, payload = self.request("GET", "/healthz")
            except OSError:
                status, payload = None, None
            if status == 200 and payload.get("status") == "ok":
                return payload
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer /healthz")

    def request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def follow(self, job_id: str) -> tuple[str | None, Any, list[dict]]:
        """Read ``/jobs/<id>/events`` to the terminal event: (kind, data, cell records)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            kind, records = None, []
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event:"):
                    kind = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data = json.loads(line[len("data:"):])
                    if kind == "cell":
                        records.append(data["record"])
                    elif kind in ("done", "failed"):
                        return kind, data, records
            return None, None, records
        finally:
            connection.close()

    def close(self) -> None:
        stop(self.proc)


def _document(ctx: Context, index: int, road, n: int) -> bytes:
    from repro.api import GraphSpec, JobSpec, Problem, Run

    job = JobSpec(
        run=Run(algorithm=ALGORITHMS[index % len(ALGORITHMS)], backend="array"),
        problems=(Problem(GraphSpec("random_regular", n, DELTA, seed=ctx.seed * 1_000_000 + index)),
                  Problem(road)),
    )
    return json.dumps(job.to_dict()).encode("utf-8")


def _job(server: Server, body: bytes, traced: bool) -> dict[str, Any]:
    """Submit one job and follow it to the end; return its measurements and failed checks."""
    problems: list[str] = []
    start = time.perf_counter()
    status, submitted = server.request("POST", "/jobs", body)
    submit_s = time.perf_counter() - start
    job_id = submitted.get("id")
    if status != 201 or submitted.get("cached") is not False:
        problems.append(f"job {job_id} was not accepted fresh: HTTP {status}, {submitted}")
    kind, data, records = server.follow(job_id) if job_id else (None, None, [])
    latency = time.perf_counter() - start
    seen_at = time.time()
    if kind != "done":
        problems.append(f"job {job_id} ended {kind!r}: {data}")
    elif len(records) != 2 or data.get("cells_done") != 2:
        problems.append(f"job {job_id} streamed {len(records)} of 2 cell records")
    out = {"id": job_id, "latency": latency, "cells": [r.get("seconds", 0.0) for r in records],
           "problems": problems, "layers": None}
    if traced and job_id:
        _, status_doc = server.request("GET", f"/jobs/{job_id}")
        out["layers"] = {
            "server.submit_s": submit_s,
            "server.queue_wait_s": status_doc["started_at"] - status_doc["submitted_at"],
            "server.execute_s": status_doc["finished_at"] - status_doc["started_at"],
            "server.cell_s": sum(out["cells"]),
            "server.notify_lag_s": seen_at - status_doc["finished_at"],
            "server.attempts": status_doc["attempts"],
            "server.cache_hits": int(submitted.get("cached") is True),
        }
    return out


def _clients(ctx: Context, server: Server, jobs_each: int | None, deadline: float | None,
             road, n: int, counter) -> tuple[list[dict], float]:
    """Run the client threads; return every finished job and the phase's wall time."""
    lock = threading.Lock()
    finished: list[dict] = []

    def client() -> None:
        done = 0
        while (jobs_each is not None and done < jobs_each) or \
                (deadline is not None and (time.perf_counter() < deadline or done < MIN_JOBS)):
            with lock:
                index = next(counter)
            # whole rotations alternate, so traced and untraced jobs run the same mix
            traced = ctx.trace and deadline is not None and index // len(ALGORITHMS) % 2 == 1
            try:
                result = _job(server, _document(ctx, index, road, n), traced)
            except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                result = {"id": None, "latency": 0.0, "cells": [], "layers": None,
                          "problems": [f"job {index} failed in transport: {exc!r}"]}
            with lock:
                finished.append(result)
            done += 1

    start = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return finished, time.perf_counter() - start


def run(ctx: Context) -> Outcome:
    from repro.corpus import corpus_specs

    outcome = Outcome()
    n = SMOKE_N if ctx.smoke else N
    road = next(spec for entry, spec in corpus_specs(corpus_dir=ROOT / "corpus")
                if entry.name == "road-sample")
    repeats = 1 if (ctx.smoke or ctx.trace) else SETUP_REPEATS
    setups = []
    for index in range(repeats - 1):
        server = Server(ctx, index)
        setups.append(server.setup_s)
        server.close()
    server = Server(ctx, repeats - 1)
    setups.append(server.setup_s)
    outcome.notes["execution"] = server.health.get("execution")
    counter = itertools.count()
    try:
        warmup, _ = _clients(ctx, server, 1 if ctx.smoke else WARMUP_JOBS, None, road, n, counter)
        timed, window = _clients(ctx, server, None, time.perf_counter() + ctx.seconds,
                                 road, n, counter)
    finally:
        server.close()

    ids = set()
    for job in warmup + timed:
        problems = list(job["problems"])
        if job["id"] is not None and job["id"] in ids:
            problems.append(f"job {job['id']} shares its spec hash with another job")
        ids.add(job["id"])
        outcome.record(problems)

    untraced = [job["latency"] for job in timed if job["layers"] is None]
    traced = [job for job in timed if job["layers"] is not None]
    if ctx.trace and traced:
        outcome.metrics.update(trace_metrics([job["layers"] for job in traced],
                                             [job["latency"] for job in traced], untraced, COUNTS))
    elif not ctx.trace:
        # The algorithm rotation makes per-job cell times a mixture of a few
        # modes; their median jumps between modes, so solve_s is a mean here.
        cells = [seconds for job in timed for seconds in job["cells"]]
        outcome.metrics.update({
            "solve_s": sum(cells) / len(cells),
            "zoo_cells_per_s": len(cells) / window,
            "job_p50_s": median(untraced),
            "job_p90_s": p90(untraced),
            "jobs_per_s": len(timed) / window,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "setup_s": median(setups),
        })
    outcome.notes["jobs_timed"] = len(timed)
    return outcome
