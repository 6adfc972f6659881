"""Verification of low-outdegree orientations of monochromatic edges.

A ``beta``-outdegree ``c``-coloring (Section 1.1) is a coloring with ``c``
colors together with an orientation of the *monochromatic* edges such that
every vertex has at most ``beta`` outgoing edges.  The orientation is given as
a set of ordered pairs ``(u, v)`` meaning the edge ``{u, v}`` is oriented
``u -> v``.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.verify.coloring import VerificationError, _as_colors

__all__ = [
    "monochromatic_edges",
    "orientation_outdegrees",
    "assert_outdegree_orientation",
]


def monochromatic_edges(graph: Graph, colors) -> np.ndarray:
    """All edges ``(u, v)`` (``u < v``) whose endpoints share a color."""
    return np.stack(graph.same_color_edges(_as_colors(graph, colors)), axis=1)


def orientation_outdegrees(graph: Graph, orientation: set[tuple[int, int]]) -> np.ndarray:
    """Outdegree of every vertex under the given orientation."""
    out = np.zeros(graph.n, dtype=np.int64)
    for u, v in orientation:
        if not graph.has_edge(int(u), int(v)):
            raise VerificationError(f"orientation contains non-edge ({u}, {v})")
        out[int(u)] += 1
    return out


def assert_outdegree_orientation(
    graph: Graph,
    colors,
    orientation: set[tuple[int, int]],
    beta: int,
) -> None:
    """Check that ``orientation`` orients every monochromatic edge exactly once
    with outdegree at most ``beta`` per vertex.

    Raises
    ------
    VerificationError
        If a monochromatic edge is unoriented / doubly oriented, if the
        orientation contains a non-monochromatic or non-existent edge, or if
        some vertex has outdegree exceeding ``beta``.
    """
    arr = _as_colors(graph, colors)
    oriented = {}
    for u, v in orientation:
        u, v = int(u), int(v)
        if not graph.has_edge(u, v):
            raise VerificationError(f"orientation contains non-edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in oriented:
            raise VerificationError(f"edge {key} oriented twice")
        if arr[u] != arr[v]:
            raise VerificationError(
                f"orientation contains edge ({u}, {v}) whose endpoints have different colors"
            )
        oriented[key] = (u, v)

    mono = monochromatic_edges(graph, arr)
    for u, v in map(tuple, mono.tolist()):
        if (u, v) not in oriented:
            raise VerificationError(f"monochromatic edge ({u}, {v}) is not oriented")

    out = orientation_outdegrees(graph, orientation)
    if out.size and int(out.max()) > beta:
        v = int(np.argmax(out))
        raise VerificationError(
            f"vertex {v} has outdegree {int(out[v])}, exceeding the bound beta={beta}"
        )
