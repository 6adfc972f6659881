"""E8 — Theorem 1.5: (2, r)-ruling sets vs the SEW13-style baseline."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import ruling_sets
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.ruling import assert_ruling_set


def test_e8_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E8",), rounds=1, iterations=1)
    record_table("E8_ruling_sets", table)
    rows = table.to_dicts()
    # For every r, the Lemma 3.2 phase with the better coloring (Theorem 1.5)
    # must use at most as many ruling rounds as the Delta^2 baseline.
    for r in (2, 3):
        ours = next(x for x in rows if x["r"] == r and x["method"] == "Theorem 1.5")
        base = next(x for x in rows if x["r"] == r and x["method"] == "SEW13 baseline")
        assert ours["ruling rounds only"] <= base["ruling rounds only"]


@pytest.mark.parametrize("r", [2, 3])
def test_e8_kernel_theorem15(benchmark, r):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 8))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return ruling_sets.ruling_set_theorem15(graph, colors, m, r=r, backend="array")

    result = benchmark(kernel)
    assert_ruling_set(graph, result.vertices, r=max(r, result.r))


@pytest.mark.parametrize("r", [2, 3])
def test_e8_kernel_sew13_baseline(benchmark, r):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 8))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return ruling_sets.ruling_set_sew13_baseline(graph, colors, m, r=r, backend="array")

    result = benchmark(kernel)
    assert_ruling_set(graph, result.vertices, r=max(r, result.r))
