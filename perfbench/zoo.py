"""Workload ``corpus-zoo``: repeated passes of the algorithm zoo over the corpus.

A pass is ``run_corpus_sweep`` over the five vendored corpus graphs crossed
with a pinned list of eleven algorithms (55 cells), on the ``array`` backend
with one worker: a fresh runner each pass, streaming to a fresh
``JsonlSink``, with a warm corpus cache.  Every cell must come back with
``verified: True``, no CellError, and durably written to the sink.

Set-up is verifying the corpus manifest against its digests plus a cold
ingest of every graph into a fresh corpus cache, repeated and reported as
the median.

The traced run alternates an untraced pass with a traced one.  The traced
pass wraps, in spans: warm graph loads (and counts the cache hits among the
ingests behind them), the Delta^4 input colorings, each algorithm's registry
runner, and every sink write.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import time

from harness import ROOT, Context, Outcome, median, p90, trace_metrics
from spans import Tracer, named, patched, total

#: The corpus graphs, in manifest order.
GRAPHS = ("road-sample", "social-sample", "collab-sample", "web-sample", "mesh-sample")
#: The zoo, spelled out so that registering an algorithm cannot change the workload.
ZOO = ("corollary14", "defective", "defective_one_round", "delta_plus_one", "delta_squared",
       "kdelta", "linial", "linial_reduction", "outdegree", "ruling_set", "theorem13")
SETUP_REPEATS = 15
MIN_PASSES = 3
#: Per-layer metrics that are counts, not times.
COUNTS = ("corpus.cache_hits", "engine.batch.failed_cells")


def setup(ctx: Context, index: int):
    """Verify the manifest and cold-ingest the corpus; return (seconds, cache dir, specs)."""
    from repro.corpus import corpus_specs, ingest, load_manifest

    cache = ctx.work / f"corpus-cache-{index}"
    start = time.perf_counter()
    entries = load_manifest(ROOT / "corpus", verify=True)
    cold = [ingest(entry.path, cache_dir=cache) for entry in entries]
    seconds = time.perf_counter() - start
    names = tuple(entry.name for entry in entries)
    if names != GRAPHS:
        raise RuntimeError(f"corpus manifest lists {names}, the workload pins {GRAPHS}")
    if any(graph.cached for graph in cold):
        raise RuntimeError("set-up ingest hit a cache that should have been empty")
    return seconds, cache, [spec for _, spec in corpus_specs(entries)]


def run_pass(ctx: Context, specs, index: int, outcome: Outcome):
    """One pass; every cell is checked and accounted.  Return (wall seconds, records)."""
    from repro.corpus import run_corpus_sweep
    from repro.engine.sink import JsonlSink

    path = ctx.work / f"zoo-pass-{index}.jsonl"
    sink = JsonlSink(path)
    start = time.perf_counter()
    try:
        result = run_corpus_sweep(specs, zoo=[{"algorithm": name} for name in ZOO],
                                  backend="array", workers=1, sink=sink)
    finally:
        sink.close()
    wall = time.perf_counter() - start
    with path.open(encoding="utf-8") as handle:
        durable = sum(1 for line in handle if "cell" in json.loads(line))
    path.unlink()

    records = result.records
    for position, record in enumerate(records):
        problems = []
        if "error" in record:
            problems.append(f"cell error on {record.get('path')}: {record['error']}")
        elif record.get("verified") is not True:
            problems.append(f"cell {record.get('algorithm')} on {record.get('path')} "
                            "is not verified")
        if position >= durable:
            problems.append(f"cell {position} of pass {index} never reached the sink")
        outcome.record(problems)
    for missing in range(len(records), len(specs) * len(ZOO)):
        outcome.record([f"pass {index} returned no record for cell {missing}"])
    return wall, records


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setups = [setup(ctx, index) for index in range(1 if ctx.smoke else SETUP_REPEATS)]
    _, cache, specs = setups[-1]
    os.environ["REPRO_CORPUS_CACHE"] = str(cache)

    passes = itertools.count()
    run_pass(ctx, specs, next(passes), outcome)  # warm-up: lazy imports and first touches
    walls: list[float] = []
    cell_means: list[float] = []
    verified = 0
    traced: list[dict[str, float]] = []
    traced_walls: list[float] = []
    tracer = Tracer()
    deadline = time.perf_counter() + ctx.seconds
    least = 1 if ctx.smoke else MIN_PASSES
    while time.perf_counter() < deadline or len(walls) < least \
            or (ctx.trace and len(traced) < least):
        wall, records = run_pass(ctx, specs, next(passes), outcome)
        walls.append(wall)
        cell_means.append(sum(r.get("seconds", 0.0) for r in records) / max(1, len(records)))
        verified += sum(1 for record in records if record.get("verified") is True)
        if ctx.trace:
            traced_wall, layers = _traced_pass(ctx, tracer, specs, next(passes), outcome)
            traced_walls.append(traced_wall)
            traced.append(layers)

    if ctx.trace:
        outcome.metrics.update(trace_metrics(traced, traced_walls, walls, COUNTS))
    else:
        outcome.metrics.update({
            "solve_s": median(cell_means),
            "zoo_cells_per_s": verified / sum(walls),
            "job_p50_s": median(walls),
            "job_p90_s": p90(walls),
            "jobs_per_s": len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median([seconds for seconds, _, _ in setups]),
        })
    outcome.notes["passes_timed"] = len(walls)
    return outcome


class _TracedAlgorithm:
    """A registry entry whose runner is timed as span ``runner.<name>``."""

    def __init__(self, spec, tracer: Tracer):
        self._spec = spec
        self.runner = tracer.wrap(f"runner.{spec.name}", spec.runner)

    def __getattr__(self, name):
        return getattr(self._spec, name)


def _layer_targets(tracer: Tracer):
    import repro.api.registry as registry
    import repro.congest.ids as ids
    import repro.corpus as corpus
    from repro.engine.sink import JsonlSink

    def span(name, keep=None):
        return lambda fn: tracer.wrap(name, fn, keep=keep)

    def traced_registry(get_algorithm):
        return functools.wraps(get_algorithm)(
            lambda name: _TracedAlgorithm(get_algorithm(name), tracer))

    return [
        (corpus, "load_file_graph", span("load")),
        (corpus, "ingest", span("ingest", keep=lambda graph: graph.cached)),
        (ids, "delta4_input_coloring", span("delta4")),
        (registry, "get_algorithm", traced_registry),
        (JsonlSink, "write", span("sink_write")),
    ]


def _traced_pass(ctx: Context, tracer: Tracer, specs, index: int, outcome: Outcome):
    with patched(_layer_targets(tracer)):
        wall, records = run_pass(ctx, specs, index, outcome)
    spans = tracer.take()
    cell_seconds = sum(record.get("seconds", 0.0) for record in records)
    runners = {name: total(spans, f"runner.{name}") for name in ZOO}
    metrics = {
        "corpus.load_file_graph_s": total(spans, "load"),
        "corpus.cache_hits": sum(1 for s in named(spans, "ingest") if s.result),
        "congest.ids.delta4_input_s": total(spans, "delta4"),
        "verify.recheck_s": cell_seconds - sum(runners.values()),
        "engine.sink.write_s": total(spans, "sink_write"),
        "engine.batch.overhead_s": wall - cell_seconds,
        "engine.batch.failed_cells": sum(1 for record in records
                                         if "error" in record or record.get("verified") is not True),
    }
    metrics.update({f"core.runner_s.{name}": seconds for name, seconds in runners.items()})
    return wall, metrics
