"""Regenerate EXPERIMENTS.md from the tables recorded by the benchmark harness.

Usage::

    python -m pytest benchmarks/ --benchmark-only -q   # writes benchmarks/results/*.md
    python scripts/generate_experiments_md.py          # stitches EXPERIMENTS.md

The per-experiment commentary below states what the paper claims, what we
measure, and whether the shape holds; the numbers are pasted verbatim from
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

PREAMBLE = """\
# EXPERIMENTS — paper claims vs measured behaviour

The paper ("Distributed Graph Coloring Made Easy", Maus, SPAA 2021) is a theory
paper with no empirical tables or figures; its evaluation is the set of
theorems.  Every experiment below therefore reproduces one theorem / corollary
item: we run the algorithm on the round-synchronous CONGEST simulator, measure
rounds / colors / structural guarantees, and put the paper's bound next to the
measurement.  Each experiment is defined once, as the saved spec(s) under
`specs/` (see below): `python -m repro experiment EN` replays them and renders
the table from the records.  Tables are recorded by `pytest benchmarks/
--benchmark-only` (which writes `benchmarks/results/*.md`) and stitched
together by `python scripts/generate_experiments_md.py`; the test suite
(`tests/test_analysis.py`) asserts that every experiment still renders its
recorded table byte for byte.

Reading guide:

* **Hard invariants** (proper coloring, defect <= d, outdegree <= beta,
  partition degree <= d, ruling-set independence and domination) are checked by
  `repro.verify` on every run — a violation fails the test/benchmark, so every
  number below comes from a verified structure.
* **Round bounds** are worst-case bounds; on random input colorings the
  algorithm typically colors almost everyone in the first round or two, so the
  measured rounds are far below the bound.  The *shape* (rounds fall like
  Delta/k, defective/outdegree variants finish in one or O(Delta/d) rounds,
  etc.) is what the experiments confirm.
* One documented substitution: the Theorem 3.1 black box ([Bar16, BEG18]:
  O(Delta) colors in O(sqrt(Delta)) rounds) is replaced by the paper's own
  k = 1 algorithm (O(Delta) colors in O(Delta) rounds).  This affects measured
  rounds of E7/E8 (noted there) and nothing else.  See DESIGN.md.

### Multi-worker sweeps

Every experiment accepts a worker count and shards its whole grid across a
process pool; every table is *identical* to the serial run (deterministic cell
ordering, cross-process-deterministic generators — see "Parallel execution &
sinks" in ARCHITECTURE.md):

```
python -m repro experiment E6 --workers 4                 # CLI
run_experiment("E6", workers=4)                           # Python
python -m repro batch --task delta_plus_one \\
    --family random_regular gnp -n 300 --delta 8 16 --seeds 5 \\
    --workers 4 --parity-check --output sweep.jsonl       # raw grid sweep
```

`--output sweep.jsonl` streams each record to disk as it completes and
`--resume` restarts an interrupted sweep where it left off, skipping the
cells already recorded (the file's manifest is checked, so resuming a
different sweep into the file is rejected).  Because every experiment is a
replay of its saved spec(s), all ten shard — E2's frozen `k` axis, E5's two
variant specs, the E8/E10 params grids and E9's per-Delta specs included —
as do all `repro batch` runs.  B2 below records the measured
serial-vs-parallel wall-clock.

### Fault-tolerant sweeps

Long sweeps survive infrastructure failures instead of discarding hours of
completed cells (see "Fault tolerance & degradation" in ARCHITECTURE.md):

```
python -m repro batch --task delta_plus_one \\
    --family random_regular gnp -n 300 --delta 8 16 --seeds 5 \\
    --workers 4 --retries 2 --cell-timeout 600 --on-error record \\
    --output sweep.jsonl
```

`--retries N` re-runs a failing cell up to N extra times (with deterministic,
seed-pinned backoff when configured); `--cell-timeout S` kills and retries a
worker stuck past the deadline; `--on-error record` writes a structured
CellError record (error kind, exception type, traceback digest, attempt
count) in the failed cell's grid slot and keeps sweeping — the CLI then
prints a failure summary and exits non-zero.  Worker crashes are always
re-dispatched once even without flags, a failing `jit` cell gets one attempt
on the bit-identical `array` backend before giving up (the downgrade is
recorded in the events journal), and `--resume` re-runs exactly the failed
cells.  The chaos suite (`tests/test_faults.py`, CI job `chaos-smoke`)
asserts sweeps interrupted by injected worker kills, hangs and sink failures
converge to records byte-identical to an uninterrupted run.

### Saved specs (`specs/`)

Every experiment's sweep is a declarative spec (the unified solver API of
`repro.api` — see "Unified solver API" in ARCHITECTURE.md), and that spec is
its only definition:

```
python -m repro run --spec specs/E6.json --workers 2 --parity-check \
    --output e6.jsonl
```

replays the E6 workload and emits exactly the records `repro experiment E6`
renders its table from; the sink manifest embeds the exact spec hash, so a
results file pins the document that produced it.  The files are regenerated by
`python scripts/generate_experiment_specs.py` from
`repro.analysis.experiments.experiment_specs()`; data-dependent axes (E2's
doubling `k` axis, E4/E5's degree-derived `beta`/`d`, E9's tight `(k, m)`
pairs) are frozen into the documents at generation time, and E5/E9 split into
one spec per algorithm variant / Delta (a spec names exactly one algorithm
over a pure cells x params grid).  `specs/INDEX.json` lists every spec with
its hash; the spec round-trips and the golden-record replay are asserted in
`tests/test_api_spec.py` / `tests/test_api_solve.py`.
"""

COMMENTARY = {
    "E1_linial_one_round": (
        "E1 — Corollary 1.2(1): Linial's color reduction",
        "Claim: a Delta^4-input coloring is reduced to at most 256*Delta^2 colors in one round.\n"
        "Measured: every row finishes in exactly 1 round and the output color space is well below\n"
        "256*Delta^2; the colors actually used are far fewer on random graphs (the bound is a\n"
        "worst-case guarantee over all graphs and input colorings).",
    ),
    "E2_rounds_vs_k": (
        "E2 — Corollary 1.2(2): O(k*Delta) colors in O(Delta/k) rounds",
        "Claim: batch size k trades rounds for colors, with at most 16*Delta*k colors in\n"
        "ceil(16*Delta/k) rounds.  Measured: rounds are monotonically non-increasing in k and reach 1\n"
        "round within a few doublings; the color budget grows linearly in k as predicted.  On random\n"
        "inputs conflicts are rare, so the measured rounds sit far below the worst-case bound.",
    ),
    "E3_delta_squared": (
        "E3 — Corollary 1.2(3): Delta^2 colors in O(1) rounds",
        "Claim: with k = ceil(Delta/16) the algorithm needs only O(1) rounds (at most 256 by the\n"
        "proof's constants).  Measured: 2-3 rounds across Delta = 8..32.  (For Delta < 16 the\n"
        "corollary's Delta^2 color constant is not meaningful because k = 1; the color space is then\n"
        "bounded by 16*Delta instead.)",
    ),
    "E4_outdegree": (
        "E4 — Corollary 1.2(4): beta-outdegree colorings",
        "Claim: k = 1, d = beta yields an O(Delta/beta)-coloring whose monochromatic edges can be\n"
        "oriented with outdegree at most beta, in O(Delta/beta) rounds.  Measured: the orientation\n"
        "outdegree never exceeds beta (hard invariant, checked on every run), colors and rounds are\n"
        "within the X = 4*f*Delta/(beta+1) bound.",
    ),
    "E5_defective": (
        "E5 — Corollary 1.2(5)/(6): d-defective colorings",
        "Claim: defect parameter d gives an O((Delta/d)^2)-coloring, in one round (variant 5, one\n"
        "batch) or O(Delta/d) rounds (variant 6, k = 1, color = (color, part) pair).  Measured: the\n"
        "maximum defect never exceeds d (hard invariant); variant 5 always takes exactly 1 round.",
    ),
    "E6_delta_plus_one": (
        "E6 — the (Delta+1)-coloring pipeline (Section 3.1)",
        "Claim: unique IDs -> Linial -> k=1 mother algorithm -> color-class removal gives a proper\n"
        "(Delta+1)-coloring in O(Delta) + log* n rounds.  Measured: colors used <= Delta+1 always;\n"
        "total rounds are dominated by the two O(Delta) stages and grow only mildly with n (through\n"
        "log* n and through how many of the O(Delta) color values actually occur).",
    ),
    "E7_theorem13": (
        "E7 — Theorem 1.3: O(Delta^{1+eps}) colors",
        "Claim: O(Delta^{1+eps}) colors in O(Delta^{1/2-eps/2}) + log* n rounds.  Our build follows\n"
        "the proof exactly (d-defective coloring, then per-class coloring with disjoint color\n"
        "spaces) but substitutes the Theorem 3.1 black box with the k = 1 algorithm, so the\n"
        "measured rounds follow the substituted bound O(Delta^eps + Delta^{1-eps}) rather than the\n"
        "paper's; the color count follows the paper's bound (with the implementation's constants).",
    ),
    "E8_ruling_sets": (
        "E8 — Theorem 1.5: (2, r)-ruling sets",
        "Claim: O(Delta^{2/(r+2)}) + log* n rounds, improving on the O(Delta^{2/r}) of [SEW13].\n"
        "Measured: the Lemma 3.2 ruling-phase rounds are always smaller for Theorem 1.5's coloring\n"
        "than for the Delta^2 baseline (the mechanism of the improvement), and the end-to-end round\n"
        "counts also come out ahead on these instances; the asymptotic end-to-end advantage depends\n"
        "on the substituted Theorem 3.1 component (see E7).  Independence and r-domination of every\n"
        "returned set are verified.",
    ),
    "E9_one_round": (
        "E9 — Theorem 1.6: one-round color reduction",
        "Claim: with m = k(Delta-k+3) input colors exactly k colors can be removed in one round\n"
        "(Lemma 4.1), and with one fewer input color no one-round algorithm can achieve m-k-1\n"
        "output colors (Lemma 4.3).  Measured: the Lemma 4.1 algorithm always outputs a proper\n"
        "coloring with exactly m-k colors in 1 round; the impossibility side is verified exhaustively\n"
        "for Delta = 2, 3, 4 by the conflict-graph checker in the test suite\n"
        "(tests/test_core_one_round.py::TestLemma43Impossibility).",
    ),
    "B1_batch_backends": (
        "B1 — engine layer: array backend vs the reference scheduler",
        "Not a paper claim but an implementation guarantee: the vectorized array backend of the\n"
        "execution-engine layer (see ARCHITECTURE.md) produces identical rounds and colors per cell\n"
        "while running the 20-cell BatchRunner sweep several times faster than the per-node\n"
        "reference simulator.  The parity is asserted inside the benchmark and property-tested in\n"
        "tests/test_engine_parity.py.",
    ),
    "B3_kernels": (
        "B3 — frontier-compacted kernels: pre-compaction vs compacted array backend",
        "An implementation guarantee (see ARCHITECTURE.md, \"Kernel compaction\"): the array\n"
        "kernels gather only the CSR entries incident to still-active vertices, count conflicts\n"
        "with a single 2-D scatter-add over the compacted edges, evaluate polynomial sequences\n"
        "lazily, and bucket removal classes with one argsort — so every hot round costs\n"
        "O(active degree) instead of O(|E|).  The benchmark keeps the pre-compaction kernels\n"
        "verbatim and asserts bit-identical colors and round counts per cell; the machine-readable\n"
        "record (cells/sec, speedup, cores) lands in benchmarks/results/BENCH_B3.json.",
    ),
    "B4_scale": (
        "B4 — million-vertex scale: array-native construction and the shared graph plane",
        "An implementation guarantee (see ARCHITECTURE.md, \"Shared-memory graph plane &\n"
        "workspaces\"): every generator emits an (m, 2) edge array consumed by the vectorized\n"
        "CSR constructor (integer-key sorts; no Python edge loop), so n = 10^6 graphs build in\n"
        "fractions of a second — the benchmark keeps the pre-change tuple-list path verbatim and\n"
        "asserts a >= 5x speedup with bit-identical CSR arrays.  Parallel sweeps publish each\n"
        "graph once through multiprocessing.shared_memory; workers attach zero-copy read-only\n"
        "views, so records stay byte-identical to the serial run while per-worker graph memory\n"
        "is eliminated (asserted via segment sharing, plus a no-leak check on /dev/shm).  The\n"
        "machine-readable record lands in benchmarks/results/BENCH_B4.json.",
    ),
    "B5_jit": (
        "B5 — compiled jit backend: array vs numba/C kernels",
        "An implementation guarantee (see ARCHITECTURE.md, \"JIT backend\"): backend=\"jit\"\n"
        "compiles the three engine primitives into fused per-vertex loops over the raw CSR\n"
        "triplet — numba @njit(parallel=True) when numba is installed, an OpenMP C extension\n"
        "otherwise — and never materialises the (active_edges x trials) intermediates.  The\n"
        "benchmark asserts bit-identical colors and round counts per kernel and per cell, a\n"
        ">= 3x end-to-end speedup over the array backend on the B3 sweep (warm, compile time\n"
        "excluded and reported separately), and records the proportional drop on B4's n = 10^6\n"
        "per-cell wall-clock.  With no compiled tier the engine degrades to the array path with\n"
        "a single warning and the benchmark records fallback: true instead of asserting the\n"
        "bar.  The machine-readable record lands in benchmarks/results/BENCH_B5.json.",
    ),
    "B6_serve": (
        "B6 — job server: concurrent clients over HTTP",
        "The service layer (see ARCHITECTURE.md, \"Job server\"): repro serve accepts JobSpec\n"
        "JSON over POST /jobs, validates it against the registry, executes on a bounded worker\n"
        "pool through the same run_spec machinery as the CLI, and content-addresses every job by\n"
        "its canonical spec hash — a resubmission of a finished spec is a cache hit answered\n"
        "from the store without re-execution (attempts unchanged).  The benchmark drives an\n"
        "in-process server with concurrent clients and records submit->done latency (p50/p99),\n"
        "sustained jobs/sec, and cache-hit latency against deliberately conservative single-core\n"
        "bars (p99 < 30 s, > 0.2 jobs/s, cache hit < 2 s).  The machine-readable record lands in\n"
        "benchmarks/results/BENCH_B6.json; CI's serve-smoke job re-checks the bars from it.",
    ),
    "B2_parallel": (
        "B2 — parallel sharding: serial vs a 4-worker process pool",
        "Also an implementation guarantee: sharding a parity-checked 24-cell sweep across 4 worker\n"
        "processes yields records identical to the serial sweep modulo the wall-clock field\n"
        "(asserted in the benchmark and in tests/test_golden_records.py) and beats the serial\n"
        "wall-clock whenever more than one CPU core is available.  On a single-core recording\n"
        "environment the table demonstrates bounded sharding overhead rather than the multi-core\n"
        "speedup; CI re-runs the sweep on multi-core runners.",
    ),
    "B7_fleet": (
        "B7 — fleet-scale sweeps: deterministic shards + merge",
        "The fleet plane (see ARCHITECTURE.md, \"Fleet-scale sweeps\"): repro batch --shard i/k\n"
        "partitions the cell grid by a stable hash of cell identity — worker count, machine, and\n"
        "launch order never move a cell between shards — and repro merge validates the k shard\n"
        "files (same spec/grid hash, disjoint and complete coverage) before joining them into a\n"
        "file byte-identical to the unsharded run modulo the wall-clock field (asserted).  The\n"
        "benchmark runs the shards back-to-back on one box, so the honest bar is bounded overhead\n"
        "(<= 2.5x including the merge) rather than a speedup; a real fleet runs shards\n"
        "concurrently on separate machines.  The machine-readable record lands in\n"
        "benchmarks/results/BENCH_B7.json; CI's fleet-smoke job re-checks the bars from it.",
    ),
    "B7_serve": (
        "B7b — job server execution planes: thread vs process",
        "repro serve --execution process dispatches each job's cells through the crash-containing\n"
        "process pool of the engine layer (per-job worker budget = cores split across job slots,\n"
        "floored at 2) while keeping the durable-sink, progress, and SSE semantics of the thread\n"
        "plane; --execution auto picks process on multi-core machines and /healthz reports the\n"
        "resolved mode.  The benchmark measures jobs/sec over multi-cell jobs on both planes:\n"
        "on one core only conservative absolute bars apply (the pool is pure overhead), on\n"
        "multi-core machines the process plane must not lose to the thread plane.",
    ),
    "B8_corpus": (
        "B8 — corpus ingestion: cold parse vs warm content-addressed cache",
        "The corpus plane (see ARCHITECTURE.md, \"Corpus & ingestion\"): repro corpus sweeps the\n"
        "default-runnable algorithm zoo over real edge-list graphs, re-verifying every output\n"
        "with repro.verify.  Ingestion caches each file's CSR arrays in an uncompressed .npz\n"
        "keyed by the SHA-256 of the file's bytes, so a warm ingest memory-maps the arrays and\n"
        "never re-parses the text — the benchmark asserts the warm path is >= 10x faster than\n"
        "the cold parse on a ~200k-row SNAP-style export (comments, 1-based ids, both-direction\n"
        "duplicates).  The second measurement sweeps the whole vendored corpus/ through a\n"
        "two-algorithm zoo with verification on, in cells/sec.  The machine-readable record\n"
        "lands in benchmarks/results/BENCH_B8.json; CI's corpus-smoke job re-runs the vendored\n"
        "sweep and checks the summary against the committed golden.",
    ),
    "B9_flagship_glue": (
        "B9 — flagship jit solve: glue cut from the Linial and mother stages",
        "The flagship cell (grid, n = 10^6, Delta = 4, delta_plus_one on backend=\"jit\") spent more\n"
        "time in the glue around the compiled kernels than in the kernels.  Three pieces went:\n"
        "the jit driver now derives each vertex's sequence digits with a fourth compiled kernel\n"
        "(KernelProvider.sequence_coeffs) instead of f + 1 NumPy modulo-and-divide passes; linial_coloring's\n"
        "ID-uniqueness check is one sort plus an adjacent-equality scan instead of a hash-based\n"
        "np.unique; and the Corollary 1.2 wrappers derive the Theorem 1.1 orientation only for\n"
        "outdegree_coloring.  Every check still runs and the colors digest is unchanged.  Rows\n"
        "are medians over interleaved before/after pairs of perfbench/run.py --workload\n"
        "flagship-jit (--trace 0 for solve_s, --trace 1 for the stages), recorded with\n"
        "scripts/compare_flagship_trace.py; a kernel replay is the engine's run_mother on the\n"
        "step's own inputs with the orientation and input check off, so the replay row now\n"
        "includes the compiled digit pass.  The raw samples land in\n"
        "benchmarks/results/BENCH_B9.json.",
    ),
    "E10_baselines": (
        "E10 — baselines",
        "The mother algorithm at k = 1 matches the locally-iterative (BEG18) regime; adding\n"
        "color-class removal gives Delta+1 colors in O(Delta) total rounds, against\n"
        "O(Delta log Delta) for the classical Kuhn-Wattenhofer halving from Delta^2 colors, O(log n)\n"
        "rounds for the randomized Luby-style baseline (not deterministic), and n rounds for the\n"
        "sequential greedy.  Who-wins matches the paper's narrative: the simple deterministic\n"
        "trade-off subsumes the older deterministic baselines.",
    ),
}

ORDER = [
    "E1_linial_one_round", "E2_rounds_vs_k", "E3_delta_squared", "E4_outdegree",
    "E5_defective", "E6_delta_plus_one", "E7_theorem13", "E8_ruling_sets",
    "E9_one_round", "E10_baselines", "B1_batch_backends", "B2_parallel",
    "B3_kernels", "B4_scale", "B5_jit", "B6_serve", "B7_fleet", "B7_serve",
    "B8_corpus", "B9_flagship_glue",
]


def main() -> None:
    if not RESULTS.exists():
        sys.exit("benchmarks/results/ not found — run `pytest benchmarks/ --benchmark-only` first")
    parts = [PREAMBLE]
    for name in ORDER:
        path = RESULTS / f"{name}.md"
        title, commentary = COMMENTARY[name]
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        if path.exists():
            table = path.read_text(encoding="utf-8")
            # drop the table's own "### ..." heading, the section heading above replaces it
            lines = [ln for ln in table.splitlines() if not ln.startswith("### ")]
            parts.append("\n".join(lines).strip() + "\n")
        else:
            parts.append(f"_missing: {path.name} (benchmark not run)_\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
