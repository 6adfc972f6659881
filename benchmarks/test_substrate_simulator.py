"""Substrate benchmarks: message-passing simulator vs the vectorized twin.

Not tied to a single experiment — this quantifies the cost of the faithful
per-node simulation versus the whole-graph NumPy implementation (both produce
identical colorings; see tests/test_core_vectorized.py), which justifies using
the vectorized twin for the large-n experiment rows.
"""

import pytest

from repro.core.algorithm1 import run_mother_algorithm
from repro.core.vectorized import run_mother_algorithm_vectorized
from repro.engine.batch import BatchRunner, GraphSpec


@pytest.mark.parametrize("n", [200, 400])
def test_message_passing_simulator(benchmark, n):
    w = BatchRunner().workload(GraphSpec("random_regular", n, 12, 42))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return run_mother_algorithm(graph, colors, m, d=0, k=2, validate_input=False)

    result = benchmark(kernel)
    assert result.colors.size == graph.n


@pytest.mark.parametrize("n", [200, 400, 2000])
def test_vectorized_twin(benchmark, n):
    w = BatchRunner().workload(GraphSpec("random_regular", n, 12, 42))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return run_mother_algorithm_vectorized(graph, colors, m, d=0, k=2, validate_input=False)

    result = benchmark(kernel)
    assert result.colors.size == graph.n
