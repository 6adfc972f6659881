"""repro — reproduction of "Distributed Graph Coloring Made Easy" (Maus, SPAA 2021).

The package is organised around four layers:

``repro.congest``
    A faithful round-synchronous simulator of the LOCAL and CONGEST models of
    distributed computing: static graphs, per-node algorithms that only see
    their own state and received messages, and per-message bit accounting.

``repro.fields``
    The algebraic substrate used by the paper's color-sequence construction:
    primes in Bertrand intervals, polynomials over finite fields and the
    low-intersection property (Lemma 2.1), and low-intersecting set families.

``repro.core``
    The paper's contribution: the mother algorithm (Theorem 1.1), its
    parameterizations (Corollary 1.2), Linial's coloring, the (Delta+1)
    pipelines, Theorem 1.3, ruling sets (Theorem 1.5), one-round color
    reduction (Theorem 1.6), and the baselines the paper compares against.

``repro.engine``
    The pluggable execution-engine layer: the ``Engine`` backend contract, the
    model-faithful ``ReferenceEngine`` (per-node scheduler), the vectorized
    ``ArrayEngine`` (CSR NumPy twin, identical outputs), and the
    ``BatchRunner`` that sweeps (graph x seed x params) grids with shared
    precomputed structures, built-in reference-parity checking, process-pool
    sharding (``workers=N``) and streaming, resumable JSONL result sinks.
    Every algorithm accepts ``backend="reference" | "array"``.

``repro.api``
    The unified, declarative front door: a typed algorithm *registry*
    (``@register_algorithm`` — the ``repro.core`` modules self-register, and
    the CLI, batch runner and ``repro list-algorithms`` are generated from
    it), JSON-round-trippable ``Problem``/``Run``/``JobSpec`` request objects,
    ``solve(problem, run)`` returning a structured ``RunReport``, and
    ``run_spec`` for saved sweeps (``repro run --spec run.json``).

``repro.verify`` / ``repro.analysis``
    Validation of colorings / orientations / partitions / ruling sets, and the
    experiment harness that regenerates the tables in ``EXPERIMENTS.md`` —
    every experiment also ships as a saved spec under ``specs/``.

Quickstart
----------

>>> from repro.api import GraphSpec, Problem, Run, solve
>>> report = solve(Problem(graph=GraphSpec("random_regular", 200, 8, seed=1)),
...                Run(algorithm="delta_plus_one", backend="array"))
>>> report.num_colors <= report.record["Delta"] + 1
True
"""

from repro.congest.graph import Graph
from repro.congest.runner import run_algorithm
from repro.core.results import ColoringResult
from repro.engine import (
    ArrayEngine,
    BatchRunner,
    Engine,
    GraphSpec,
    ReferenceEngine,
    get_engine,
)
from repro.api import (
    AlgorithmSpec,
    JobSpec,
    Problem,
    Run,
    RunReport,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    run_spec,
    solve,
)

__version__ = "1.11.0"

__all__ = [
    "Graph",
    "run_algorithm",
    "ColoringResult",
    "Engine",
    "ReferenceEngine",
    "ArrayEngine",
    "get_engine",
    "BatchRunner",
    "GraphSpec",
    "AlgorithmSpec",
    "JobSpec",
    "Problem",
    "Run",
    "RunReport",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "run_spec",
    "solve",
    "__version__",
]
