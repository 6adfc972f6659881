"""E5 — Corollary 1.2(5)/(6): d-defective O((Delta/d)^2) colorings."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import corollaries
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.coloring import assert_defective_coloring


def test_e5_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E5",), rounds=1, iterations=1)
    record_table("E5_defective", table)
    for d, defect in zip(table.column("d"), table.column("max defect")):
        assert defect <= d


@pytest.mark.parametrize("d", [2, 4, 8])
def test_e5_kernel_one_round(benchmark, d):
    w = BatchRunner().workload(GraphSpec("random_regular", 600, 16, 5))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return corollaries.defective_coloring_one_round(graph, colors, m, d=d, backend="array")

    result = benchmark(kernel)
    assert result.rounds == 1
    assert_defective_coloring(graph, result.colors, d=d)
