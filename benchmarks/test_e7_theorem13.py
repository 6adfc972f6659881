"""E7 — Theorem 1.3: O(Delta^{1+eps})-coloring via defective coloring + per-class coloring."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import pipelines
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.coloring import assert_proper_coloring


def test_e7_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E7",), rounds=1, iterations=1)
    record_table("E7_theorem13", table)
    assert len(table.rows) == 3


@pytest.mark.parametrize("epsilon", [0.25, 0.5])
def test_e7_kernel(benchmark, epsilon):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 7))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return pipelines.theorem13_coloring(graph, colors, m, epsilon=epsilon, backend="array")

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors)
