"""Parity and edge-case tests for the frontier-compacted array kernels.

The compacted kernels (lazy sequence evaluation + active-subgraph gathering in
``repro.core.vectorized``, bucketed color-class removal and the Kuhn-
Wattenhofer array path in ``repro.core.reduce``, the cached edge-source array
and :meth:`Graph.incident_csr_entries` in ``repro.congest.graph``) must be
*bit-identical* to the reference implementations — these tests pin that over
random graph families and over the degenerate shapes the compaction logic has
to get right: empty graphs, isolated vertices, ``Delta = 1``, and single-batch
(everyone adopts in round 1) runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import edge_case_graphs, make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.congest.ids import InputColoringError
from repro.core import pipelines
from repro.core.algorithm1 import run_mother_algorithm
from repro.core.corollaries import kdelta_coloring, linial_color_reduction
from repro.core.linial import iterated_color_reduction
from repro.core.params import MotherParameters
from repro.core.reduce import kuhn_wattenhofer_reduction, remove_color_class_reduction
from repro.core.vectorized import (
    evaluate_all_sequences,
    run_mother_algorithm_vectorized,
    sequence_coefficients,
)
from repro.engine import get_engine
from repro.verify.coloring import assert_proper_coloring


def assert_mother_parity(graph: Graph, colors: np.ndarray, m: int, d: int = 0, k: int = 1):
    ref = run_mother_algorithm(graph, colors, m, d=d, k=k, with_orientation=True)
    vec = run_mother_algorithm_vectorized(graph, colors, m, d=d, k=k, with_orientation=True)
    assert np.array_equal(ref.colors, vec.colors)
    assert np.array_equal(ref.parts, vec.parts)
    assert ref.rounds == vec.rounds
    assert ref.orientation == vec.orientation
    return vec


class TestGraphCompactionPrimitives:
    def test_src_index_matches_repeat_and_is_cached(self):
        g = generators.gnp(40, 0.2, seed=1)
        expected = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
        assert np.array_equal(g.src_index, expected)
        assert g.src_index is g.src_index  # built once, cached
        assert not g.src_index.flags.writeable

    def test_src_index_empty_graph(self):
        assert Graph(0).src_index.size == 0
        assert Graph(4).src_index.size == 0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=50),
        p=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_incident_csr_entries_property(self, n, p, seed):
        g = generators.gnp(n, p, seed=seed)
        rng = np.random.default_rng(seed)
        verts = np.sort(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
        positions, rows = g.incident_csr_entries(verts)
        # Brute force: concatenate every vertex's CSR slice in order.
        expected_pos = np.concatenate(
            [np.arange(g.indptr[v], g.indptr[v + 1]) for v in verts]
        ) if verts.size else np.empty(0, dtype=np.int64)
        expected_rows = np.repeat(np.arange(verts.size), g.degrees[verts]) if verts.size \
            else np.empty(0, dtype=np.int64)
        assert np.array_equal(positions, expected_pos)
        assert np.array_equal(rows, expected_rows)

    def test_incident_csr_entries_empty_selection(self):
        g = generators.ring(6)
        positions, rows = g.incident_csr_entries(np.empty(0, dtype=np.int64))
        assert positions.size == 0 and rows.size == 0


class TestLazySequenceEvaluation:
    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(min_value=4, max_value=5000),
        delta=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_coefficients_reproduce_full_table(self, m, delta, seed):
        params = MotherParameters.derive(m=m, delta=delta, d=0, k=1)
        rng = np.random.default_rng(seed)
        colors = rng.integers(0, m, size=17, dtype=np.int64)
        table = evaluate_all_sequences(colors, params)
        coeffs = sequence_coefficients(colors, params)
        # Horner over the coefficients at every position must equal the table.
        xs = np.arange(params.q, dtype=np.int64)
        acc = np.zeros((colors.size, params.q), dtype=np.int64)
        for j in range(params.f, -1, -1):
            acc = (acc * xs[None, :] + coeffs[:, j][:, None]) % params.q
        assert np.array_equal(acc, table)


class TestMotherKernelEdgeCases:
    @pytest.mark.parametrize("name,graph", edge_case_graphs())
    def test_parity_on_degenerate_graphs(self, name, graph):
        colors = np.arange(graph.n, dtype=np.int64)
        m = max(graph.n, 2)
        res = assert_mother_parity(graph, colors, m)
        if graph.n:
            assert_proper_coloring(graph, res.colors)

    def test_parity_with_defect_on_star(self):
        graph = Graph(8, [(0, i) for i in range(1, 6)])
        colors = np.arange(8, dtype=np.int64)
        assert_mother_parity(graph, colors, 8, d=2, k=1)

    def test_single_batch_adoption(self):
        # Single-batch (Linial-style) run: every node must adopt in round 1 on
        # both backends — the chunked early-exit path of the compacted kernel.
        graph = generators.random_regular(40, 4, seed=9)
        colors, m = make_input_coloring(graph, seed=9)
        a = linial_color_reduction(graph, colors, m, backend="reference")
        b = linial_color_reduction(graph, colors, m, backend="array")
        assert a.rounds == b.rounds == 1
        assert np.array_equal(a.colors, b.colors)
        assert (b.parts == 1).all()

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.5),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_parity_property_with_isolated_vertices(self, n, p, k, seed):
        # gnp with small p routinely produces isolated vertices and Delta = 1
        # components — exactly the shapes frontier compaction must not break.
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        assert_mother_parity(graph, colors, m, k=k)


class TestRemoveColorClassEdgeCases:
    def test_empty_graph(self):
        res = remove_color_class_reduction(Graph(0), np.empty(0, dtype=np.int64),
                                           backend="array")
        assert res.rounds == 0 and res.colors.size == 0

    def test_isolated_vertices_with_high_colors(self):
        g = Graph(6, [(0, 1)])
        colors = np.array([7, 9, 11, 13, 2, 0])
        a = remove_color_class_reduction(g, colors, backend="reference")
        b = remove_color_class_reduction(g, colors, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
        assert b.colors.max() <= g.max_degree

    def test_delta_one_matching(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        colors = np.array([4, 5, 6, 7, 8, 9])
        a = remove_color_class_reduction(g, colors, backend="reference")
        b = remove_color_class_reduction(g, colors, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
        assert_proper_coloring(g, b.colors, max_colors=2)


class TestKuhnWattenhoferArrayPath:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        p=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_parity(self, n, p, seed):
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        a = kuhn_wattenhofer_reduction(graph, colors, m, backend="reference")
        b = kuhn_wattenhofer_reduction(graph, colors, m, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
        assert a.color_space_size == b.color_space_size
        assert a.metadata["phases"] == b.metadata["phases"]
        assert_proper_coloring(graph, b.colors, max_colors=graph.max_degree + 1)

    def test_empty_graph(self):
        res = kuhn_wattenhofer_reduction(Graph(0), np.empty(0, dtype=np.int64), m=64,
                                         target_colors=4, backend="array")
        assert res.colors.size == 0
        # Round counting on the empty vertex set still follows the schedule.
        ref = kuhn_wattenhofer_reduction(Graph(0), np.empty(0, dtype=np.int64), m=64,
                                         target_colors=4, backend="reference")
        assert res.rounds == ref.rounds and res.metadata["phases"] == ref.metadata["phases"]

    def test_isolated_and_delta_one(self):
        g = Graph(7, [(0, 1), (2, 3)])
        colors = np.array([3, 9, 14, 2, 6, 11, 0])
        a = kuhn_wattenhofer_reduction(g, colors, m=16, backend="reference")
        b = kuhn_wattenhofer_reduction(g, colors, m=16, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds

    def test_unknown_backend_rejected(self):
        g = generators.ring(6)
        with pytest.raises(ValueError):
            kuhn_wattenhofer_reduction(g, np.arange(6) % 3, m=6, backend="gpu")

    def test_engine_contract_routing(self, random_regular8):
        colors, m = make_input_coloring(random_regular8, seed=4)
        via_array = get_engine("array").kuhn_wattenhofer(random_regular8, colors, m)
        via_reference = get_engine("reference").kuhn_wattenhofer(random_regular8, colors, m)
        assert via_array.metadata["backend"] == "array"
        assert via_reference.metadata["backend"] == "reference"
        assert np.array_equal(via_array.colors, via_reference.colors)
        assert via_array.rounds == via_reference.rounds


class TestValidationHoisting:
    def improper(self, graph: Graph) -> np.ndarray:
        return np.zeros(graph.n, dtype=np.int64)  # monochromatic everywhere

    def test_public_entries_still_validate(self):
        g = generators.ring(12)
        bad = self.improper(g)
        with pytest.raises(InputColoringError):
            kdelta_coloring(g, bad, m=12, k=1, backend="array")
        with pytest.raises(InputColoringError):
            iterated_color_reduction(g, bad, m=10**9)
        with pytest.raises(InputColoringError):
            pipelines.theorem13_coloring(g, bad, m=12, backend="array")

    def test_validate_input_false_skips_the_check(self):
        # Opt-out exists for interior calls; on a *proper* coloring the result
        # is identical with and without validation.
        g = generators.random_regular(30, 4, seed=2)
        colors, m = make_input_coloring(g, seed=2)
        a = kdelta_coloring(g, colors, m, k=1, backend="array")
        b = kdelta_coloring(g, colors, m, k=1, backend="array", validate_input=False)
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds

    def test_delta_plus_one_runs_no_edge_scan(self, monkeypatch):
        # The one validation is linial_coloring's uniqueness-and-range check
        # on the IDs (distinct IDs are a proper coloring of any graph); no
        # stage runs an O(|E|) scan of the input or of an interior coloring.
        import repro.core.algorithm1 as alg_mod
        import repro.core.linial as lin_mod
        import repro.core.pipelines as pip_mod
        import repro.core.vectorized as vec_mod

        scans = []

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                scans.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for mod in (alg_mod, lin_mod, pip_mod, vec_mod):
            counting(mod, "validate_proper_coloring")
        counting(Graph, "same_color")
        counting(Graph, "edge_array")

        # Large enough that Linial actually iterates (id space n^2 > 256 Delta^2).
        g = generators.random_regular(200, 4, seed=5)
        res = pipelines.delta_plus_one_coloring(g, seed=5, backend="array")
        assert scans == []
        assert res.metadata["linial_rounds"] >= 1
        monkeypatch.undo()
        assert_proper_coloring(g, res.colors, max_colors=g.max_degree + 1)


class TestCompactedPipelineParityOnDegenerateGraphs:
    @pytest.mark.parametrize("name,graph", edge_case_graphs())
    def test_delta_plus_one_both_backends(self, name, graph):
        a = pipelines.delta_plus_one_coloring(graph, seed=1, backend="reference")
        b = pipelines.delta_plus_one_coloring(graph, seed=1, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
        if graph.n:
            assert_proper_coloring(graph, b.colors, max_colors=max(1, graph.max_degree) + 1)
