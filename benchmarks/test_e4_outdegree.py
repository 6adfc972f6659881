"""E4 — Corollary 1.2(4): beta-outdegree colorings (the arbdefective schedule)."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import corollaries
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.orientation import assert_outdegree_orientation


def test_e4_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E4",), rounds=1, iterations=1)
    record_table("E4_outdegree", table)
    for beta, out in zip(table.column("beta"), table.column("max outdegree")):
        assert out <= beta


@pytest.mark.parametrize("beta", [2, 4])
def test_e4_kernel(benchmark, beta):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 4))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return corollaries.outdegree_coloring(graph, colors, m, beta=beta)

    result = benchmark(kernel)
    assert_outdegree_orientation(graph, result.colors, result.orientation, beta)
