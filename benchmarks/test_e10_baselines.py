"""E10 — the mother algorithm vs the baselines the paper discusses."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import baselines
from repro.core.corollaries import kdelta_coloring
from repro.core.reduce import kuhn_wattenhofer_reduction, remove_color_class_reduction
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.coloring import assert_proper_coloring


def test_e10_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E10",), rounds=1, iterations=1)
    record_table("E10_baselines", table)
    assert len(table.rows) >= 7


def test_e10_kernel_beg18_baseline(benchmark):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 10))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return baselines.locally_iterative_beg18(graph, colors, m, backend="array")

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors, max_colors=graph.max_degree + 1)


def test_e10_kernel_kw_reduction(benchmark):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 10))
    graph, colors, m = w.graph, w.input_colors, w.m
    start = kdelta_coloring(graph, colors, m, k=1, backend="array")

    def kernel():
        return kuhn_wattenhofer_reduction(graph, start.colors, start.color_space_size)

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors, max_colors=graph.max_degree + 1)


def test_e10_kernel_class_removal(benchmark):
    w = BatchRunner().workload(GraphSpec("random_regular", 400, 16, 10))
    graph, colors, m = w.graph, w.input_colors, w.m
    start = kdelta_coloring(graph, colors, m, k=1, backend="array")

    def kernel():
        return remove_color_class_reduction(graph, start.colors)

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors, max_colors=graph.max_degree + 1)


def test_e10_kernel_luby(benchmark):
    graph = BatchRunner().graph(GraphSpec("random_regular", 400, 16, 10))

    def kernel():
        return baselines.luby_randomized_coloring(graph, seed=10)

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors, max_colors=graph.max_degree + 1)
