"""E9 — Theorem 1.6: one-round reduction of exactly k colors, and its tightness."""

import pytest

from repro.analysis.experiments import run_experiment
from repro.congest import generators
from repro.congest.ids import random_proper_coloring
from repro.core import one_round
from repro.verify.coloring import assert_proper_coloring


def test_e9_regenerate_table(benchmark, record_table):
    table = benchmark.pedantic(run_experiment, args=("E9",), rounds=1, iterations=1)
    record_table("E9_one_round", table)
    assert all(table.column("proper"))
    assert all(r == 1 for r in table.column("rounds"))


@pytest.mark.parametrize("delta", [8, 16, 32])
def test_e9_kernel_lemma41(benchmark, delta):
    k = min(delta - 1, (delta + 3) // 2)
    m = one_round.required_input_colors(delta, k)
    graph = generators.random_regular(1000, delta, seed=9)
    colors, m = random_proper_coloring(graph, num_colors=m, seed=9)

    def kernel():
        return one_round.one_round_color_reduction(graph, colors, m, k=k, delta=delta)

    result = benchmark(kernel)
    assert_proper_coloring(graph, result.colors, max_colors=m - k)


def test_e9_kernel_lemma43_exhaustive_checker(benchmark):
    # The impossibility side for the smallest non-trivial case (Delta = 3).
    def kernel():
        return one_round.one_round_reduction_exists(m=4, delta=3, output_colors=3)

    assert benchmark(kernel) is False
