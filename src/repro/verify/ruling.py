"""Verification of ``(alpha, r)``-ruling sets.

A ``(2, r)``-ruling set is an independent set ``S`` such that every vertex has
a vertex of ``S`` within hop distance ``r``.  More generally an
``(alpha, r)``-ruling set requires ``S`` to be independent in the power graph
``G^(alpha - 1)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.congest.graph import Graph
from repro.verify.coloring import VerificationError

__all__ = ["is_independent_set", "domination_radius", "assert_ruling_set"]


def _members(graph: Graph, vertices: Iterable[int]) -> np.ndarray:
    """Membership mask of ``vertices``; an out-of-range vertex raises."""
    idx = np.fromiter(vertices, dtype=np.int64)
    bad = (idx < 0) | (idx >= graph.n)
    if bad.any():
        raise VerificationError(f"ruling-set vertex {int(idx[np.argmax(bad)])} out of range")
    mask = np.zeros(graph.n, dtype=bool)
    mask[idx] = True
    return mask


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff no two vertices of the set are adjacent (one mask over the CSR)."""
    chosen = _members(graph, vertices)
    return not (chosen[graph.src_index] & chosen[graph.indices]).any()


def domination_radius(graph: Graph, vertices: Iterable[int]) -> int:
    """Smallest ``r`` such that every vertex is within distance ``r`` of the set.

    Returns ``-1`` if some vertex cannot reach the set at all (or the set is
    empty while the graph is not).  A multi-source BFS from the whole set,
    one frontier of CSR ranges per level.
    """
    if graph.n == 0:
        return 0
    reached = _members(graph, vertices)
    frontier = np.flatnonzero(reached)
    level = -1
    while frontier.size:
        level += 1
        positions, _ = graph.incident_csr_entries(frontier)
        nbrs = graph.indices[positions]
        nbrs = nbrs[~reached[nbrs]]
        reached[nbrs] = True
        frontier = np.unique(nbrs)
    return level if reached.all() else -1


def assert_ruling_set(
    graph: Graph,
    vertices: Iterable[int],
    r: int,
    alpha: int = 2,
) -> None:
    """Check that ``vertices`` is an ``(alpha, r)``-ruling set.

    Raises
    ------
    VerificationError
        If a vertex is out of range, the set is not independent in
        ``G^(alpha - 1)`` or some vertex is farther than ``r`` hops from the
        set.
    """
    chosen = np.flatnonzero(_members(graph, vertices))
    base = graph if alpha == 2 else graph.power_graph(alpha - 1)
    if not is_independent_set(base, chosen):
        raise VerificationError(
            f"set is not independent in G^{alpha - 1}"
        )
    radius = domination_radius(graph, chosen)
    if radius < 0 or radius > r:
        raise VerificationError(
            f"set does not dominate the graph within distance {r} "
            f"(measured radius: {radius})"
        )
