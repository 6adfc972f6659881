"""Verification of the color-class partition of Theorem 1.1 (point 2).

Theorem 1.1 guarantees that each color class can be partitioned into
``R = ceil(X / k)`` induced subgraphs ``P_1, ..., P_R`` of maximum degree at
most ``d``; in the algorithm, ``P_j`` is the set of vertices that got colored
in iteration ``j``.  A partition is represented as an integer array
``parts[v] in {1, ..., R}``.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.verify.coloring import VerificationError, _as_colors

__all__ = ["partition_classes", "assert_partition_degree_bound"]


def partition_classes(parts: np.ndarray) -> dict[int, np.ndarray]:
    """Mapping ``part index -> vertices`` of that part."""
    parts = np.asarray(parts, dtype=np.int64)
    out: dict[int, list[int]] = {}
    for v, p in enumerate(parts.tolist()):
        out.setdefault(int(p), []).append(v)
    return {p: np.array(vs, dtype=np.int64) for p, vs in out.items()}


def assert_partition_degree_bound(
    graph: Graph,
    colors,
    parts: np.ndarray,
    d: int,
    max_parts: int | None = None,
) -> None:
    """Check point (2) of Theorem 1.1.

    For every pair (color class, part), the graph induced by the vertices with
    that color *and* that part index must have maximum degree at most ``d``.

    Raises
    ------
    VerificationError
        If some (color, part) induced subgraph has a vertex with more than
        ``d`` same-color same-part neighbors, or the number of distinct parts
        exceeds ``max_parts``.
    """
    arr = _as_colors(graph, colors)
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (graph.n,):
        raise VerificationError(
            f"partition has shape {parts.shape}, expected ({graph.n},)"
        )
    if max_parts is not None and graph.n:
        used = int(np.unique(parts).size)
        if used > max_parts:
            raise VerificationError(
                f"partition uses {used} parts, allowed at most {max_parts}"
            )
    both = graph.same_color(arr) & graph.same_color(parts)
    degree_within = np.bincount(graph.src_index[both], minlength=graph.n)
    if degree_within.size and int(degree_within.max()) > d:
        v = int(np.argmax(degree_within))
        raise VerificationError(
            f"vertex {v} has {int(degree_within[v])} same-color same-part neighbors, "
            f"exceeding the allowed degree {d}"
        )
