"""Differential tests: every check built on ``Graph.same_color`` against a plain edge loop.

Each coloring, defect, orientation, partition and ruling-set check runs one
mask over the CSR entries.  Here each is compared with the obvious loop over
``graph.edges()`` (or a per-vertex BFS) on degenerate graphs, random graphs,
integer and ``object``-dtype colorings, and the first-monochromatic-edge error
messages are pinned to the lexicographically first monochromatic edge.
"""

import numpy as np
import pytest

from helpers import edge_case_graphs
from repro.congest import generators
from repro.congest.graph import Graph
from repro.congest.ids import InputColoringError, validate_proper_coloring
from repro.verify.coloring import (
    VerificationError,
    assert_defective_coloring,
    assert_proper_coloring,
    defect_vector,
    is_proper_coloring,
)
from repro.verify.orientation import monochromatic_edges
from repro.verify.partition import assert_partition_degree_bound
from repro.verify.ruling import domination_radius, is_independent_set


def graphs():
    cases = list(edge_case_graphs())
    cases += [(f"gnp seed {s}", generators.gnp(30, 0.2, seed=s)) for s in range(4)]
    cases += [("clique", generators.complete_graph(6)), ("ring", generators.ring(9)),
              ("grid", generators.grid(4, 5))]
    return cases


def colorings(graph: Graph):
    """Integer colorings with few to many colors, plus one tuple-valued coloring."""
    rng = np.random.default_rng(graph.n)
    out = [("k=%d" % k, rng.integers(0, k, size=graph.n)) for k in (1, 2, 3, 7)]
    out.append(("distinct", rng.permutation(graph.n).astype(np.int64)))
    tuples = np.empty(graph.n, dtype=object)
    for v, (a, b) in enumerate(rng.integers(0, 2, size=(graph.n, 2)).tolist()):
        tuples[v] = (a, b)
    out.append(("object", tuples))
    return out


CASES = [
    pytest.param(graph, colors, id=f"{gname}-{cname}")
    for gname, graph in graphs()
    for cname, colors in colorings(graph)
]


def loop_monochromatic(graph: Graph, colors) -> list[tuple[int, int]]:
    return [(u, v) for u, v in graph.edges() if colors[u] == colors[v]]


def loop_defect(graph: Graph, colors) -> list[int]:
    defect = [0] * graph.n
    for u, v in loop_monochromatic(graph, colors):
        defect[u] += 1
        defect[v] += 1
    return defect


@pytest.mark.parametrize("graph,colors", CASES)
class TestAgainstEdgeLoop:
    def test_mask_is_one_entry_per_csr_slot(self, graph, colors):
        expected = [colors[u] == colors[v]
                    for u in range(graph.n) for v in graph.neighbors(u)]
        mask = graph.same_color(colors)
        assert mask.dtype == bool
        assert mask.tolist() == expected

    def test_is_proper_coloring(self, graph, colors):
        assert is_proper_coloring(graph, colors) == (not loop_monochromatic(graph, colors))

    def test_defect_vector(self, graph, colors):
        vec = defect_vector(graph, colors)
        assert vec.dtype == np.int64 and vec.shape == (graph.n,)
        assert vec.tolist() == loop_defect(graph, colors)
        worst = max(loop_defect(graph, colors), default=0)
        assert assert_defective_coloring(graph, colors, worst) == worst
        if worst:
            with pytest.raises(VerificationError, match=f"defect {worst}"):
                assert_defective_coloring(graph, colors, worst - 1)

    def test_monochromatic_edges(self, graph, colors):
        mono = monochromatic_edges(graph, colors)
        assert mono.shape == (len(loop_monochromatic(graph, colors)), 2)
        assert list(map(tuple, mono.tolist())) == loop_monochromatic(graph, colors)

    def test_partition_bound(self, graph, colors):
        parts = np.random.default_rng(7).integers(1, 4, size=graph.n)
        within = [0] * graph.n
        for u, v in graph.edges():
            if colors[u] == colors[v] and parts[u] == parts[v]:
                within[u] += 1
                within[v] += 1
        worst = max(within, default=0)
        assert_partition_degree_bound(graph, colors, parts, d=worst)
        if worst:
            with pytest.raises(VerificationError, match=f"has {worst} same-color same-part"):
                assert_partition_degree_bound(graph, colors, parts, d=worst - 1)

    def test_first_monochromatic_edge_is_named(self, graph, colors):
        mono = loop_monochromatic(graph, colors)
        if not mono:
            assert assert_proper_coloring(graph, colors) == len(set(colors.tolist()))
            return
        u, v = mono[0]
        message = f"edge ({u}, {v}) is monochromatic with color {colors[u]!r}"
        with pytest.raises(VerificationError) as info:
            assert_proper_coloring(graph, colors)
        assert str(info.value) == message


@pytest.mark.parametrize("graph,colors", [c for c in CASES if c.values[1].dtype != object])
def test_validate_proper_coloring(graph, colors):
    mono = loop_monochromatic(graph, colors)
    if not mono:
        validate_proper_coloring(graph, colors)
        return
    u, v = mono[0]
    with pytest.raises(InputColoringError) as info:
        validate_proper_coloring(graph, colors)
    assert str(info.value) == (
        f"not a proper coloring: edge ({u}, {v}) is monochromatic with color {colors[u]}"
    )


def loop_radius(graph: Graph, chosen: set[int]) -> int:
    if graph.n == 0:
        return 0
    dist = {v: 0 for v in chosen}
    frontier = sorted(chosen)
    while frontier:
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u):
                if int(w) not in dist:
                    dist[int(w)] = dist[u] + 1
                    nxt.append(int(w))
        frontier = nxt
    return max(dist.values()) if len(dist) == graph.n else -1


@pytest.mark.parametrize("name,graph", graphs())
def test_ruling_checks_against_loops(name, graph):
    rng = np.random.default_rng(graph.n + 1)
    subsets = [[], list(range(graph.n))]
    subsets += [rng.choice(graph.n, size=k, replace=False).tolist()
                for k in (1, 2, graph.n // 3) if 0 < k <= graph.n]
    for chosen in subsets:
        independent = not any(u in chosen and v in chosen for u, v in graph.edges())
        assert is_independent_set(graph, chosen) == independent
        assert is_independent_set(graph, np.array(chosen, dtype=np.int64)) == independent
        assert domination_radius(graph, set(chosen)) == loop_radius(graph, set(chosen))
