"""E3 — Corollary 1.2(3): Delta^2 colors in O(1) rounds (k = ceil(Delta/16))."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import corollaries
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.coloring import assert_proper_coloring


def test_e3_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E3",), rounds=1, iterations=1)
    record_table("E3_delta_squared", table)
    assert all(r <= 256 for r in table.column("rounds"))
    for used, bound in zip(table.column("colors used"), table.column("color bound Delta^2")):
        assert used <= max(bound, 256)


@pytest.mark.parametrize("delta", [16, 32])
def test_e3_kernel(benchmark, delta):
    w = BatchRunner().workload(GraphSpec("random_regular", 600, delta, 3))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return corollaries.delta_squared_coloring(graph, colors, m, backend="array")

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors)
    assert result.rounds <= 256
