"""Proper and defective coloring verification, each one :meth:`Graph.same_color` pass."""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph

__all__ = [
    "VerificationError",
    "is_proper_coloring",
    "assert_proper_coloring",
    "count_colors",
    "color_classes",
    "defect_vector",
    "max_defect",
    "assert_defective_coloring",
]


class VerificationError(AssertionError):
    """Raised when a claimed structural property does not hold."""


def _as_colors(graph: Graph, colors) -> np.ndarray:
    arr = np.asarray(colors)
    if arr.shape != (graph.n,):
        raise VerificationError(
            f"coloring has shape {arr.shape}, expected ({graph.n},)"
        )
    return arr


def is_proper_coloring(graph: Graph, colors) -> bool:
    """True iff no edge is monochromatic."""
    return not graph.same_color(_as_colors(graph, colors)).any()


def assert_proper_coloring(graph: Graph, colors, max_colors: int | None = None) -> int:
    """Raise :class:`VerificationError` unless ``colors`` is proper (and within
    ``max_colors``); return the number of colors used."""
    arr = _as_colors(graph, colors)
    u, v = graph.same_color_edges(arr)
    if u.size:
        raise VerificationError(
            f"edge ({int(u[0])}, {int(v[0])}) is monochromatic with color {arr[u[0]]!r}"
        )
    return _checked_count(arr, max_colors)


def _checked_count(arr: np.ndarray, max_colors: int | None) -> int:
    used = num_distinct(arr)
    if max_colors is not None and used > max_colors:
        raise VerificationError(
            f"coloring uses {used} colors, allowed at most {max_colors}"
        )
    return used


def num_distinct(values) -> int:
    """Number of distinct values in a 1-D array (tuple colors as ``object``)."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return len(set(arr.tolist()))
    return int(np.unique(arr).size)


def count_colors(graph: Graph, colors) -> int:
    """Number of distinct colors used."""
    return num_distinct(_as_colors(graph, colors))


def color_classes(graph: Graph, colors) -> dict:
    """Mapping ``color -> sorted array of vertices`` of that color."""
    arr = _as_colors(graph, colors)
    classes: dict = {}
    for v in range(graph.n):
        key = arr[v] if arr.dtype == object else int(arr[v])
        classes.setdefault(key, []).append(v)
    return {c: np.array(vs, dtype=np.int64) for c, vs in classes.items()}


def defect_vector(graph: Graph, colors) -> np.ndarray:
    """Per-vertex defect: number of neighbors sharing the vertex's color."""
    same = graph.same_color(_as_colors(graph, colors))
    return np.bincount(graph.src_index[same], minlength=graph.n).astype(np.int64, copy=False)


def max_defect(graph: Graph, colors) -> int:
    """Maximum per-vertex defect (0 for a proper coloring)."""
    vec = defect_vector(graph, colors)
    return int(vec.max()) if vec.size else 0


def assert_defective_coloring(
    graph: Graph, colors, d: int, max_colors: int | None = None
) -> int:
    """Raise unless the coloring is ``d``-defective (every defect ``<= d``) and
    within ``max_colors``; return the measured max defect (0 if proper)."""
    vec = defect_vector(graph, colors)
    worst = int(vec.max()) if vec.size else 0
    if worst > d:
        v = int(np.argmax(vec))
        raise VerificationError(
            f"vertex {v} has defect {worst}, exceeding the allowed defect {d}"
        )
    if max_colors is not None:
        _checked_count(np.asarray(colors), max_colors)
    return worst
