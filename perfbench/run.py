"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload flagship-jit --seed 1 --seconds 20 --trace 0

runs one workload from the root of a checkout and prints, as the last line
of standard output, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
recorded by spans around the calls into each layer.  The lines before it are
a readable table of the metrics and the run's provenance.  ``--smoke`` runs
a tiny version of the workload, for the benchmark's own tests.

The exit code is 0 when every output was correct and 1 when a check failed
(the result is still printed).  Outside a checkout of the repository it is
2, and any other error exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import sys
import tempfile

import flagship
import harness
import serve
import zoo

WORKLOADS = {"flagship-jit": flagship, "corpus-zoo": zoo, "serve-jobs": serve}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def _check_checkout() -> str | None:
    """Why this is not a runnable checkout, or ``None`` if it is (and its
    ``src/`` is then first on the import path)."""
    root = harness.ROOT
    for required in ("BENCHMARK.json", "src/repro/__init__.py", "corpus/MANIFEST.json"):
        if not (root / required).is_file():
            return f"{root / required} is missing: run from a full checkout of the repository"
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.find_spec("repro")
    if spec is None or spec.origin is None or \
            not os.path.realpath(spec.origin).startswith(os.path.realpath(root / "src")):
        return f"the repro package does not resolve to {root / 'src'}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    problem = _check_checkout()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    work = harness.ROOT / ".bench_work" / f"run-{os.getpid()}"
    ctx = harness.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                          smoke=args.smoke, work=work, env=harness.child_env(work))
    try:
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        os.environ.update(ctx.env)
        tempfile.tempdir = None  # re-read TMPDIR
        harness.ensure_jit_built(ctx.env)
        outcome = WORKLOADS[args.workload].run(ctx)
        info = harness.provenance(ctx, args.workload)
        metrics = harness.finish_metrics(outcome, ctx.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(outcome.notes)
    if args.workload == "flagship-jit" and info["jit_tier"] not in ("jit:cc", "jit:numba"):
        info["flag"] = f"jit ran as {info['jit_tier']}: these are not jit results"
    print(f"provenance {json.dumps(info, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
