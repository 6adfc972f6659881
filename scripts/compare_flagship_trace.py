"""Compare the flagship solve's per-stage trace between two checkouts.

Usage::

    python scripts/compare_flagship_trace.py BEFORE_DIR AFTER_DIR \\
        --name B10_flagship_trial_values --title "B10 — ..." \\
        [--pairs 3] [--seconds 30] [--seed 2]

Each pair runs ``perfbench/run.py --workload flagship-jit`` in BEFORE_DIR and
then in AFTER_DIR, once untraced (``--trace 0``, for ``solve_s``) and once
traced (``--trace 1``, for the per-layer metrics).  The table reports the
median over pairs of every flagship metric and of the three glue differences
the trace exposes: the ID-uniqueness check (``core.linial.total_s -
core.linial.iterated_s``) and the Linial-step and k=1 glue (a corollary span
minus its direct ``run_mother`` replay).  ``--name`` picks the entry it
writes in this checkout: ``benchmarks/results/NAME.md`` (headed by
``--title``) and ``BENCH_<ID>.json``, where ``ID`` is the part of NAME before
its first underscore — so recording a new entry never touches an older one.
EXPERIMENTS.md picks the table up on the next
``scripts/generate_experiments_md.py`` once NAME is in its ``ORDER``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: (label, metric or derived key) rows of the table, in pipeline order.
ROWS = [
    ("solve() end to end (untraced)", "solve_s"),
    ("graph build", "congest.generators.build_s"),
    ("ID assignment", "congest.ids.assign_s"),
    ("Linial stage", "core.linial.total_s"),
    ("↳ ID uniqueness check", "glue.id_check_s"),
    ("↳ iterated reduction", "core.linial.iterated_s"),
    ("↳ reduction steps", "core.corollaries.linial_step_s"),
    ("↳ ↳ kernel replay (run_mother)", "engine.run_mother.linial_kernel_s"),
    ("↳ ↳ glue (span minus replay)", "glue.linial_step_s"),
    ("k=1 mother stage", "core.corollaries.kdelta_s"),
    ("↳ kernel replay (run_mother)", "engine.run_mother.kdelta_kernel_s"),
    ("↳ glue (span minus replay)", "glue.kdelta_s"),
    ("color-class removal", "engine.remove_color_class_s"),
    ("record + verify", "api.records.coloring_record_s"),
    ("unattributed", "api.solve.unattributed_s"),
]


def _run(checkout: pathlib.Path, trace: int, seconds: float, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "flagship-jit",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: flagship-jit run failed its output checks")
    return {k: v["value"] for k, v in result["metrics"].items()}, provenance


def _derive(metrics: dict) -> dict:
    metrics = dict(metrics)
    metrics["glue.id_check_s"] = metrics["core.linial.total_s"] - metrics["core.linial.iterated_s"]
    metrics["glue.linial_step_s"] = (metrics["core.corollaries.linial_step_s"]
                                     - metrics["engine.run_mother.linial_kernel_s"])
    metrics["glue.kdelta_s"] = (metrics["core.corollaries.kdelta_s"]
                                - metrics["engine.run_mother.kdelta_kernel_s"])
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path)
    parser.add_argument("--name", required=True,
                        help="result file stem, e.g. B10_flagship_trial_values")
    parser.add_argument("--title", required=True, help="the table's heading")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    samples: dict[str, list[dict]] = {"before": [], "after": []}
    provenance: dict[str, dict] = {}
    for pair in range(args.pairs):
        for side, checkout in (("before", args.before), ("after", args.after)):
            untraced, _ = _run(checkout, 0, args.seconds, args.seed)
            traced, provenance[side] = _run(checkout, 1, args.seconds, args.seed)
            derived = _derive({**traced, "solve_s": untraced["solve_s"]})
            samples[side].append({key: derived[key] for _, key in ROWS})
            print(f"pair {pair + 1}/{args.pairs} {side}: solve_s {untraced['solve_s']:.3f}",
                  file=sys.stderr)

    medians = {side: {key: statistics.median(s[key] for s in runs) for _, key in ROWS}
               for side, runs in samples.items()}
    lines = [
        f"### {args.title}",
        "",
        "| stage | metric | before (s) | after (s) | speedup |",
        "|---|---|---|---|---|",
    ]
    for label, key in ROWS:
        before, after = medians["before"][key], medians["after"][key]
        ratio = f"{before / after:.2f}x" if after > 0.005 and before > 0.005 else "—"
        lines.append(f"| {label} | `{key}` | {before:.3f} | {after:.3f} | {ratio} |")
    lines.append("")
    for side in ("before", "after"):
        info = provenance[side]
        lines.append(
            f"- provenance ({side}): repro {info['repro_version']}, {info['jit_tier']}, "
            f"{info['cores']} cores ({info['cpu_model']}), python {info['python']}, "
            f"numpy {info['numpy']}, {info['compiler']}; seed {args.seed}, "
            f"{args.seconds:g} s per run, median of {args.pairs} interleaved pairs."
        )
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.name}.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    record = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
              "medians": medians, "samples": samples, "provenance": provenance}
    bench = RESULTS / f"BENCH_{args.name.split('_')[0]}.json"
    bench.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
