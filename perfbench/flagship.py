"""Workload ``flagship-jit``: a sequential closed loop of the flagship solve.

One client calls ``solve(Problem(GraphSpec("grid", 10**6, 4, seed)),
Run("delta_plus_one", backend="jit"))`` again and again on the same problem.
Every solve is checked: the coloring is proper with at most Delta+1 colors,
its digest equals the first solve's, and the jit engine ran a compiled tier
(a ``jit:fallback-array`` result is a failed solve, never a jit number).

Set-up is imports, engine warm-up and the first solve, measured three times:
in this process and in two fresh child processes (``python3 flagship.py
--probe``), reporting the median.

The traced run alternates an untraced solve with a traced one.  The traced
solve wraps the pipeline's stage functions in spans (graph build, ID
assignment, Linial, its reduction steps, the k=1 mother algorithm, class
removal, the record) and afterwards replays every mother-algorithm call of
the pipeline directly on the engine, with the orientation and input check
off, on the very same inputs: the step's span minus the replay is glue, the
replay is kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

from harness import Context, Outcome, median, p90, trace_metrics
from spans import Tracer, named, patched, total

N = 10**6
SMOKE_N = 4096
DELTA = 4
#: Child-process set-up probes besides the in-process one.
PROBES = 2
MIN_SOLVES = 3
MIN_TRACED = 2
#: Per-layer metrics that are counts, not times.
COUNTS = ("core.linial.steps", "core.corollaries.kdelta_rounds",
          "engine.remove_color_class.rounds")


def _request(seed: int, n: int):
    from repro.api import GraphSpec, Problem, Run

    return Problem(GraphSpec("grid", n, DELTA, seed=seed)), Run("delta_plus_one", backend="jit")


def timed_setup(seed: int, n: int):
    """Import the package, warm the engine and run the first solve; return (seconds, report)."""
    start = time.perf_counter()
    from repro.api import solve

    report = solve(*_request(seed, n))
    return time.perf_counter() - start, report


def digest(report) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(report.artifacts["colors"], dtype=np.int64)
                          .tobytes()).hexdigest()


def check(report, graph, reference: str | None) -> list[str]:
    """Failed checks of one solve (empty when the output is correct)."""
    from repro import verify

    problems = []
    tier = report.provenance.get("backend_tier")
    if tier not in ("jit:cc", "jit:numba"):
        problems.append(f"solve ran on tier {tier!r}, not a compiled jit tier")
    try:
        verify.assert_proper_coloring(graph, report.artifacts["colors"],
                                      max_colors=max(1, graph.max_degree) + 1)
    except AssertionError as exc:  # repro.verify's VerificationError
        problems.append(f"solve output is not a proper Delta+1 coloring: {exc}")
    if reference is not None and digest(report) != reference:
        problems.append("solve colors differ from the first solve's")
    return problems


def _probe(ctx: Context, n: int) -> dict:
    cmd = [sys.executable, __file__, "--probe", "--seed", str(ctx.seed), "--n", str(n)]
    done = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(ctx: Context) -> Outcome:
    n = SMOKE_N if ctx.smoke else N
    outcome = Outcome()
    probes = [] if (ctx.trace or ctx.smoke) else [_probe(ctx, n) for _ in range(PROBES)]
    setup_s, report = timed_setup(ctx.seed, n)

    from repro.api import solve
    from repro.congest import generators

    graph = generators.by_name("grid", n, DELTA, seed=ctx.seed)
    reference = digest(report)
    outcome.record(check(report, graph, None))
    for probe in probes:
        problems = [] if probe["digest"] == reference else ["set-up probe colors differ"]
        if probe["tier"] not in ("jit:cc", "jit:numba"):
            problems.append(f"set-up probe ran on tier {probe['tier']!r}")
        outcome.record(problems)

    request = _request(ctx.seed, n)
    latencies: list[float] = []
    traced: list[dict[str, float]] = []
    traced_walls: list[float] = []
    tracer = Tracer()
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or len(latencies) < MIN_SOLVES \
            or (ctx.trace and len(traced) < MIN_TRACED):
        start = time.perf_counter()
        report = solve(*request)
        latencies.append(time.perf_counter() - start)
        outcome.record(check(report, graph, reference))
        if ctx.trace:
            wall, stages, problems = _traced_solve(tracer, request, graph, reference)
            traced_walls.append(wall)
            traced.append(stages)
            outcome.record(problems)

    if ctx.trace:
        outcome.metrics.update(trace_metrics(traced, traced_walls, latencies, COUNTS))
    else:
        outcome.metrics.update({
            "solve_s": median(latencies),
            "job_p50_s": median(latencies),
            "job_p90_s": p90(latencies),
            "jobs_per_s": len(latencies) / sum(latencies),
            "zoo_cells_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median([setup_s, *(p["setup_s"] for p in probes)]),
        })
    outcome.notes["solves_timed"] = len(latencies)
    return outcome


def _stage_targets(tracer: Tracer):
    import repro.congest.generators as generators
    import repro.core.linial as linial
    import repro.core.pipelines as pipelines
    from repro.engine.jit import JitEngine

    def span(name, capture=False, keep=None):
        return lambda fn: tracer.wrap(name, fn, capture, keep)

    def rounds(result):
        return result.rounds

    def colors(result):
        return result.colors

    return [
        (generators, "by_name", span("build")),
        (linial, "assign_unique_ids", span("assign")),
        (pipelines, "linial_coloring", span("linial")),
        (linial, "iterated_color_reduction", span("iterated")),
        (linial, "linial_color_reduction", span("linial_step")),
        (pipelines, "kdelta_coloring", span("kdelta", keep=rounds)),
        (JitEngine, "run_mother", span("run_mother", capture=True, keep=colors)),
        (JitEngine, "remove_color_class", span("remove", keep=rounds)),
        (pipelines, "coloring_record", span("record")),
    ]


#: Spans that, at top level, partition a solve into its stages.
_STAGES = ("build", "linial", "kdelta", "remove", "record")


def _traced_solve(tracer: Tracer, request, graph, reference: str):
    """One traced solve plus its kernel replays; return (wall, per-layer metrics, failed checks)."""
    import numpy as np

    from repro.api import solve

    start = time.perf_counter()
    with patched(_stage_targets(tracer)):
        report = solve(*request)
    wall = time.perf_counter() - start
    spans = tracer.take()
    problems = check(report, graph, reference)

    kernel = {"linial_step": 0.0, "kdelta": 0.0}
    for call in named(spans, "run_mother"):
        owner = call.parent.name if call.parent is not None else None
        if owner not in kernel:
            continue
        args, kwargs = call.call
        engine, *rest = args
        replay_start = time.perf_counter()
        direct = engine.run_mother(*rest, **dict(kwargs, with_orientation=False,
                                                 validate_input=False))
        kernel[owner] += time.perf_counter() - replay_start
        if not np.array_equal(direct.colors, call.result):
            problems.append(f"direct run_mother under {owner} differs from the pipeline's")

    assign_in_linial = sum(s.seconds for s in named(spans, "assign")
                           if s.parent is not None and s.parent.name == "linial")
    stages = sum(s.seconds for s in spans if s.parent is None and s.name in _STAGES)
    return wall, {
        "congest.generators.build_s": total(spans, "build"),
        "congest.ids.assign_s": total(spans, "assign"),
        "core.linial.total_s": total(spans, "linial") - assign_in_linial,
        "core.linial.iterated_s": total(spans, "iterated"),
        "core.corollaries.linial_step_s": total(spans, "linial_step"),
        "engine.run_mother.linial_kernel_s": kernel["linial_step"],
        "core.linial.steps": len(named(spans, "linial_step")),
        "core.corollaries.kdelta_s": total(spans, "kdelta"),
        "engine.run_mother.kdelta_kernel_s": kernel["kdelta"],
        "core.corollaries.kdelta_rounds": sum(s.result for s in named(spans, "kdelta")),
        "engine.remove_color_class_s": total(spans, "remove"),
        "engine.remove_color_class.rounds": sum(s.result for s in named(spans, "remove")),
        "api.records.coloring_record_s": total(spans, "record"),
        "api.solve.unattributed_s": wall - stages,
    }, problems


def _probe_main() -> None:
    parser = argparse.ArgumentParser(description="one flagship set-up, timed in a fresh process")
    parser.add_argument("--probe", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args()
    setup_s, report = timed_setup(args.seed, args.n)
    print(json.dumps({"setup_s": setup_s, "digest": digest(report),
                      "tier": report.provenance.get("backend_tier")}))


if __name__ == "__main__":
    _probe_main()
