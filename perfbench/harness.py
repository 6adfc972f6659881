"""Shared pieces of the benchmark: run context, failure accounting, statistics,
provenance, and the child-process discipline every workload follows.

Nothing here imports ``repro`` or numpy at module level: the flagship
workload's set-up time includes those imports, so they must happen inside
the timed region.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "ROOT", "Context", "Outcome", "catalog", "median", "p90", "per_op", "trace_metrics",
    "child_env",
    "ensure_jit_built", "provenance", "spawn", "stop", "finish_metrics",
]

#: The checkout root: this file lives in ``<root>/perfbench/``.
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Persistent build products (the jit C tier's shared library) of this checkout.
BUILD_DIR = ROOT / ".bench_work" / "build"


@dataclass
class Context:
    """One benchmark run: its arguments and its private scratch directory."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: pathlib.Path
    env: dict[str, str]


@dataclass
class Outcome:
    """Operations attempted and failed, the metrics, and why each failure failed.

    An operation (a solve, a corpus cell, a job) counts as failed once,
    however many of its checks fail; every failed check's message is kept.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    def record(self, problems: Sequence[str]) -> None:
        """Account one operation whose failed checks are ``problems``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def catalog() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {metric["name"]: metric["unit"] for metric in document[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def finish_metrics(outcome: Outcome, trace: bool) -> dict[str, dict[str, Any]]:
    """The result's ``metrics`` object: every metric of the run's kind, with its unit.

    End-to-end metrics must all have been measured.  A per-layer metric of a
    layer the workload's traced path does not reach reads 0.
    """
    kind = "per_layer" if trace else "end_to_end"
    units = catalog()[kind]
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json {kind}: {unknown}")
    out = {}
    for name, unit in units.items():
        if name not in outcome.metrics and not trace:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        value = outcome.metrics.get(name, 0.0)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def per_op(ops: Sequence[dict[str, float]], counts: Sequence[str] = ()) -> dict[str, float]:
    """Each per-layer metric over the traced operations: the median of a time,
    the mean of a count (so that a rare retry or failure still shows)."""
    return {name: (statistics.fmean if name in counts else median)([op[name] for op in ops])
            for name in ops[0]}


def trace_metrics(layers: Sequence[dict[str, float]], traced: Sequence[float],
                  untraced: Sequence[float], counts: Sequence[str] = ()) -> dict[str, float]:
    """A traced run's per-layer metrics, with the tracing overhead per operation
    (median traced minus median untraced operation) and the number traced."""
    metrics = per_op(layers, counts)
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    metrics["trace.ops"] = len(layers)
    return metrics


def p90(values: Sequence[float]) -> float:
    """90th percentile, interpolated between samples (never beyond the maximum)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #


def child_env(work: pathlib.Path) -> dict[str, str]:
    """Environment that keeps the package's caches and temp files in the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_JIT_CACHE"] = str(BUILD_DIR / "jit")
    env["REPRO_CORPUS_CACHE"] = str(work / "corpus-cache")
    env["REPRO_CORPUS_DIR"] = str(ROOT / "corpus")
    env["TMPDIR"] = str(work / "tmp")
    return env


def ensure_jit_built(env: dict[str, str]) -> None:
    """Compile the jit C tier once per checkout, before anything is timed."""
    if any((BUILD_DIR / "jit").glob("*.so")):
        return
    subprocess.run(
        [sys.executable, "-c", "from repro.engine import get_engine; get_engine('jit').warmup()"],
        env=env, check=True, timeout=600, stdout=subprocess.DEVNULL,
    )


def spawn(cmd: Sequence[str], env: dict[str, str], log: pathlib.Path) -> subprocess.Popen:
    """Start ``cmd`` in its own process group, its output going to ``log``."""
    with log.open("wb") as handle:
        return subprocess.Popen(list(cmd), env=env, stdout=handle, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """Ask ``proc`` to stop, wait for it, then kill anything left in its group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=timeout)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode


# --------------------------------------------------------------------------- #
# Provenance ("experiment info")
# --------------------------------------------------------------------------- #


def _first_line(cmd: Sequence[str], env: dict[str, str] | None = None) -> str | None:
    try:
        done = subprocess.run(list(cmd), capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(ctx: Context, workload: str) -> dict[str, Any]:
    """Machine, toolchain and code identity of this run."""
    import numpy

    import repro
    from repro.engine import get_engine

    jit = get_engine("jit")
    compiler = (jit.describe().get("detail") or {}).get("compiler") or "cc"
    git_dir = ROOT / ".git"
    sha = None
    if git_dir.exists():
        sha = _first_line(["git", "rev-parse", "HEAD"],
                          env=dict(os.environ, GIT_DIR=str(git_dir)))
    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "smoke": ctx.smoke,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": _first_line([compiler, "--version"]),
        "repro_version": repro.__version__,
        "git_sha": sha,
        "jit_tier": jit.active_tier(),
    }

