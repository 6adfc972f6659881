"""E2 — Corollary 1.2(2): the O(k*Delta) colors vs O(Delta/k) rounds trade-off.

Regenerates the k-sweep table and times the mother algorithm kernel at the two
extremes of the trade-off (k = 1 and a single-batch k).
"""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import corollaries
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.coloring import assert_proper_coloring


def test_e2_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E2",), rounds=1, iterations=1)
    record_table("E2_rounds_vs_k", table)
    rounds = table.column("rounds")
    # rounds are non-increasing in k; color budget grows with k
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    for measured, bound in zip(rounds, table.column("round bound 16*Delta/k")):
        assert measured <= bound


@pytest.mark.parametrize("k", [1, 4, 16, 64])
def test_e2_kernel_k_sweep(benchmark, k):
    w = BatchRunner().workload(GraphSpec("random_regular", 800, 16, 2))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return corollaries.kdelta_coloring(graph, colors, m, k=k, backend="array")

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors)
    assert result.color_space_size <= 16 * graph.max_degree * k
