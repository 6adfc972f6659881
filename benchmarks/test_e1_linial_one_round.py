"""E1 — Corollary 1.2(1): Linial's one-round color reduction.

Regenerates the E1 table (rounds, colors, 256*Delta^2 bound per graph family)
and times the one-round reduction kernel on a larger instance.
"""

import pytest

from repro.analysis.experiments import run_experiment
from repro.core import corollaries
from repro.engine.batch import BatchRunner, GraphSpec
from repro.verify.coloring import assert_proper_coloring


def test_e1_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E1",), rounds=1, iterations=1)
    record_table("E1_linial_one_round", table)
    assert all(r == 1 for r in table.column("rounds"))
    for used, space, bound in zip(
        table.column("colors used"), table.column("color space"),
        table.column("paper bound 256*Delta^2"),
    ):
        assert used <= space <= bound


@pytest.mark.parametrize("delta", [8, 16, 32])
def test_e1_kernel_one_round_reduction(benchmark, delta):
    w = BatchRunner().workload(GraphSpec("random_regular", 1000, delta, 1))
    graph, colors, m = w.graph, w.input_colors, w.m

    def kernel():
        return corollaries.linial_color_reduction(graph, colors, m, backend="array")

    result = benchmark(kernel)
    assert result.rounds == 1
    assert_proper_coloring(graph, result.colors)
