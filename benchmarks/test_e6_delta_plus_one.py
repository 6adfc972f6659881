"""E6 — the (Delta+1)-coloring pipeline: IDs -> Linial -> k=1 mother -> class removal."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.congest import generators
from repro.core import pipelines
from repro.verify.coloring import assert_proper_coloring


def test_e6_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E6",), rounds=1, iterations=1)
    record_table("E6_delta_plus_one", table)
    for used, target in zip(table.column("colors used"), table.column("Delta+1")):
        assert used <= target


@pytest.mark.parametrize("n,delta", [(500, 8), (500, 16), (2000, 8)])
def test_e6_kernel_pipeline(benchmark, n, delta):
    graph = generators.random_regular(n, delta, seed=6)

    def kernel():
        return pipelines.delta_plus_one_coloring(graph, seed=6, backend="array")

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors, max_colors=graph.max_degree + 1)
