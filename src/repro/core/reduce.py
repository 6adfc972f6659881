"""Color reductions down to ``Delta + 1`` colors.

Two classical reductions are provided, both used as the "finishing" step after
the mother algorithm has produced an ``O(Delta)`` or ``O(Delta^2)`` coloring:

* :func:`remove_color_class_reduction` — the reduction the paper invokes after
  its ``k = 1`` algorithm ("we can use an additional ``O(Delta)`` rounds in
  each of which we remove a single color class"): in each round the vertices of
  the currently largest color value repick a free color in ``[Delta + 1]``.
  One round per removed color class.

* :func:`kuhn_wattenhofer_reduction` — the classical block-halving reduction
  (Kuhn-Wattenhofer style, see also [BE09]): the color space is partitioned
  into blocks of ``2 (Delta + 1)`` colors, every block is reduced to
  ``Delta + 1`` colors in ``Delta + 1`` rounds *in parallel*, halving the
  number of colors; ``O(Delta * log(m / Delta))`` rounds in total.

Both functions simulate the distributed algorithm directly with arrays: a
round consists of every affected vertex looking at its neighbors' *current*
colors (one message each, clearly CONGEST) and recoloring simultaneously; the
returned ``rounds`` is the number of such rounds.

Each reduction has two paths.  ``backend="reference"`` recolors with
per-vertex Python sets; it is the oracle.  ``"array"`` and ``"jit"`` run the
reduction's one CSR driver, which gathers only the CSR entries incident to a
round's affected vertices, so a round costs ``O(affected degree)`` instead of
a full ``2|E|`` scan — ``O(|E|)`` total work over a whole reduction rather
than ``O(color classes x |E|)``.  Per round the driver runs one of two steps:
with ``kernels=None`` the NumPy gather + occupancy scatter
(:meth:`repro.congest.graph.Graph.incident_csr_entries`), otherwise the
compiled kernel of :mod:`repro.core.kernels_jit` (``remove_class`` /
``kw_round``), which fuses the gather and the scan into one pass per affected
vertex.  The greedy "smallest free color" choice is deterministic, so every
path gives identical colors and round counts (property-tested in
``tests/test_engine_parity.py``, ``tests/test_kernel_compaction.py`` and
``tests/test_engine_jit.py``).

``backend="jit"`` without ``kernels=`` takes its provider from the jit engine
(:class:`repro.engine.jit.JitEngine` is the one place that resolves the
compiled tier); a ``None`` provider runs the NumPy step.  The result's
``backend`` metadata names the path that ran: ``"reference"``, ``"array"``
or ``"jit"``.

Both reductions reject an input coloring of the wrong shape or with a
negative color (:class:`repro.congest.ids.InputColoringError`, an ``O(n)``
check); properness itself is the caller's promise.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import validate_color_range
from repro.core.results import ColoringResult
from repro.core.workspace import Workspace
from repro.engine.base import UnknownBackendError

__all__ = ["remove_color_class_reduction", "kuhn_wattenhofer_reduction"]

#: Backend names the reduction dispatchers accept.
_REDUCTION_BACKENDS = ("reference", "array", "jit")


def _neighbor_color_sets(graph: Graph, colors: np.ndarray, vertices: np.ndarray) -> list[set[int]]:
    return [
        {int(colors[u]) for u in graph.neighbors(int(v))} for v in vertices
    ]


def _validated_target(graph: Graph, target_colors: int | None) -> int:
    delta = graph.max_degree
    if target_colors is None:
        target_colors = delta + 1
    if target_colors < delta + 1:
        raise ValueError(
            f"cannot greedily reduce below Delta + 1 = {delta + 1} colors, requested {target_colors}"
        )
    return int(target_colors)


def _checked_colors(graph: Graph, colors: np.ndarray, m: int | None = None) -> np.ndarray:
    """A private int64 copy of ``colors`` after the ``O(n)`` range check."""
    colors = np.asarray(colors, dtype=np.int64).copy()
    validate_color_range(graph, colors, m)
    return colors


def _resolve_path(backend, kernels, context: str):
    """``(path, kernels)`` for a reduction's ``backend=``/``kernels=`` pair.

    ``path`` is ``"reference"``, ``"array"`` (the CSR driver on NumPy,
    ``kernels is None``) or ``"jit"`` (the CSR driver on ``kernels``).  A
    ``"jit"`` backend without explicit ``kernels`` uses the jit engine's
    already-resolved provider.
    """
    name = getattr(backend, "name", backend)
    if name not in _REDUCTION_BACKENDS:
        raise UnknownBackendError(name, _REDUCTION_BACKENDS, context=context)
    if name == "reference":
        return name, None
    if name == "jit" and kernels is None:
        from repro.engine.registry import get_engine

        kernels = getattr(get_engine(backend), "kernels", None)
    return ("array" if kernels is None else "jit"), kernels


def _remove_color_class_reference(
    graph: Graph, colors: np.ndarray, target_colors: int
) -> tuple[np.ndarray, int]:
    rounds = 0
    while colors.size and int(colors.max()) >= target_colors:
        current = int(colors.max())
        vertices = np.nonzero(colors == current)[0]
        forbidden = _neighbor_color_sets(graph, colors, vertices)
        for v, banned in zip(vertices, forbidden):
            c = 0
            while c in banned:
                c += 1
            colors[v] = c
        rounds += 1
    return colors, rounds


def _remove_color_class_csr(
    graph: Graph, colors: np.ndarray, target_colors: int, kernels
) -> tuple[np.ndarray, int]:
    """The CSR driver of the same reduction (identical colors and rounds).

    Vertices are bucketed by color *once* (one stable argsort); colors at or
    above the target are then processed in strictly decreasing order, and
    since every recolored vertex lands *below* the target (a free column
    exists because degree ``<= Delta < target_colors``), the initial buckets
    are exactly the per-round affected sets.  Each class then takes its
    smallest free colors in one step.  The NumPy step gathers the class's
    incident CSR entries and scatters the neighbors' sub-``target`` colors
    into a dense ``(class, target)`` occupancy table; the first free column
    is the new color.  Neighbor colors ``>= target_colors`` can never block
    the scan (the reference scan stops at most at index ``Delta``), so
    dropping them is exact.  ``kernels.remove_class`` fuses the same scan
    into one pass per vertex, with the same ``argmax`` choice.  Total work
    over all rounds is ``O(|E| + n log n)`` instead of
    ``O(color classes x |E|)``.
    """
    rounds = 0
    if colors.size == 0 or int(colors.max()) < target_colors:
        return colors, rounds
    indptr, indices = graph.indptr, graph.indices
    ws = Workspace()
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    start = int(np.searchsorted(sorted_colors, target_colors, side="left"))
    high = order[start:]
    boundaries = np.nonzero(np.diff(sorted_colors[start:]))[0] + 1
    for vertices in reversed(np.split(high, boundaries)):
        if kernels is None:
            positions, rows = graph.incident_csr_entries(vertices)
            nbr_idx = ws.gather("nbr_idx", indices, positions)
            nbr_colors = ws.gather("nbr_colors", colors, nbr_idx)
            used = ws.zeros("used", vertices.size * target_colors, dtype=bool)
            used = used.reshape(vertices.size, target_colors)
            in_range = nbr_colors < target_colors
            used[rows[in_range], nbr_colors[in_range]] = True
            np.logical_not(used, out=used)
            colors[vertices] = np.argmax(used, axis=1)
        else:
            used = ws.take("used", vertices.size * target_colors, np.uint8)
            kernels.remove_class(vertices, indptr, indices, colors, target_colors, used)
        rounds += 1
    return colors, rounds


def remove_color_class_reduction(
    graph: Graph,
    colors: np.ndarray,
    target_colors: int | None = None,
    backend: str | object = "reference",
    kernels=None,
) -> ColoringResult:
    """Reduce a proper coloring to ``target_colors`` (default ``Delta + 1``) colors.

    In each round all vertices whose color equals the current maximum color
    value ``c >= target_colors`` simultaneously pick the smallest color in
    ``[target_colors]`` not used by any neighbor.  These vertices form an
    independent set (they share a color of a proper coloring), so simultaneous
    recoloring is safe, and a free color exists because the degree is at most
    ``Delta < target_colors``.

    Rounds: one per color value above ``target_colors`` that actually occurs.

    ``backend`` selects the execution path: ``"reference"`` (per-vertex Python
    sets), ``"array"`` (the CSR driver on NumPy) or ``"jit"`` (the CSR driver
    on the compiled kernels; NumPy when no compiled tier exists); all produce
    identical colors and round counts.  An :class:`repro.engine.base.Engine`
    instance is also accepted (its ``name`` selects the path).  ``kernels``
    runs the CSR driver on that provider.  Raises
    :class:`~repro.congest.ids.InputColoringError` for a coloring of the wrong
    shape or with a negative color.
    """
    colors = _checked_colors(graph, colors)
    target_colors = _validated_target(graph, target_colors)
    backend_name, kernels = _resolve_path(backend, kernels, "remove_color_class_reduction")
    if backend_name == "reference":
        colors, rounds = _remove_color_class_reference(graph, colors, target_colors)
    else:
        colors, rounds = _remove_color_class_csr(graph, colors, target_colors, kernels)
    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=target_colors,
        metadata={
            "method": "remove_color_class",
            "target_colors": target_colors,
            "backend": backend_name,
        },
    )


def _kw_round_reference(
    graph: Graph, colors: np.ndarray, affected: np.ndarray, block: int, target_colors: int
) -> None:
    """One KW round on the reference path: per-vertex Python sets."""
    forbidden = _neighbor_color_sets(graph, colors, affected)
    for v, banned in zip(affected, forbidden):
        base = (int(colors[v]) // block) * block
        # Pick a free slot within the block's lower target_colors colors.
        banned_slots = {
            b - base for b in banned if base <= b < base + target_colors
        }
        free = 0
        while free in banned_slots:
            free += 1
        colors[v] = base + free
    # (recoloring within the lower half of the same block keeps the
    # coloring proper: affected vertices of one color value form an
    # independent set, and they avoid neighbors' current colors)


def _kw_round_csr(
    graph: Graph, colors: np.ndarray, affected: np.ndarray, block: int, target_colors: int,
    ws: Workspace, kernels,
) -> None:
    """One KW round on the CSR: compacted gather + occupancy scatter.

    Only the affected vertices' incident CSR entries are touched.  A neighbor
    color ``b`` bans slot ``b % block`` iff it lies in the same block
    (``b // block`` equal) and in the block's lower ``target_colors`` slots —
    exactly the ``base <= b < base + target_colors`` window of the reference
    path, so the smallest free slot (``argmax`` over the negated occupancy
    table) is bit-identical.  ``kernels.kw_round`` fuses the same scan into
    one pass per affected vertex.  Scratch comes from the caller's
    :class:`Workspace` so successive rounds reuse one set of buffers.
    """
    if kernels is not None:
        used = ws.take("kw_used", affected.size * target_colors, np.uint8)
        kernels.kw_round(affected, graph.indptr, graph.indices, colors, block,
                         target_colors, used)
        return
    positions, rows = graph.incident_csr_entries(affected)
    nbr_idx = ws.gather("nbr_idx", graph.indices, positions)
    nbr_colors = ws.gather("nbr_colors", colors, nbr_idx)
    block_of = colors[affected] // block
    slot = nbr_colors % block
    banned = ((nbr_colors // block) == block_of[rows]) & (slot < target_colors)
    used = ws.zeros("used", affected.size * target_colors, dtype=bool)
    used = used.reshape(affected.size, target_colors)
    used[rows[banned], slot[banned]] = True
    np.logical_not(used, out=used)
    colors[affected] = block_of * block + np.argmax(used, axis=1)


def kuhn_wattenhofer_reduction(
    graph: Graph,
    colors: np.ndarray,
    m: int,
    target_colors: int | None = None,
    backend: str | object = "reference",
    kernels=None,
) -> ColoringResult:
    """Block-halving reduction from an ``m``-coloring to ``Delta + 1`` colors.

    Each phase partitions the current color space ``[m']`` into blocks of
    ``2 (Delta + 1)`` consecutive colors.  Within every block (in parallel,
    using the block's own lower ``Delta + 1`` colors as the target space) the
    upper colors are removed one value per round exactly as in
    :func:`remove_color_class_reduction`.  A phase takes at most ``Delta + 1``
    rounds and at least halves the number of colors, so the total round count
    is ``O(Delta * log(m / Delta))`` — the classical bound the paper's
    ``O(Delta)``-round algorithms improve upon.

    ``backend`` selects the per-round execution path: ``"reference"``
    (per-vertex Python sets), ``"array"`` (the CSR round on NumPy), or
    ``"jit"`` (the CSR round on the compiled kernels, NumPy when none is
    available); all produce identical colors, round and phase counts.  An
    :class:`repro.engine.base.Engine` instance is also accepted (its ``name``
    selects the path).  ``kernels`` runs the CSR round on that provider.
    Raises :class:`~repro.congest.ids.InputColoringError` for a coloring of
    the wrong shape or with a color outside ``[0, m)``.
    """
    colors = _checked_colors(graph, colors, m)
    target_colors = _validated_target(graph, target_colors)
    backend_name, kernels = _resolve_path(backend, kernels, "kuhn_wattenhofer_reduction")

    block = 2 * target_colors
    space = int(m)
    rounds = 0
    phases = 0
    ws = Workspace()

    while space > target_colors:
        phases += 1
        num_blocks = -(-space // block)
        # Vertices are grouped by block; within a block the colors
        # block_base + target_colors .. block_base + block - 1 are removed one
        # value per round, all blocks in parallel (disjoint output spaces).
        phase_rounds = 0
        for offset in range(block - 1, target_colors - 1, -1):
            phase_rounds += 1
            affected = np.nonzero((colors % block) == offset)[0] if colors.size else np.empty(0, int)
            if affected.size == 0:
                continue
            if backend_name == "reference":
                _kw_round_reference(graph, colors, affected, block, target_colors)
            else:
                _kw_round_csr(graph, colors, affected, block, target_colors, ws, kernels)
        rounds += phase_rounds
        # Compact the color space: every block keeps only its lower half.
        if colors.size:
            colors = (colors // block) * target_colors + (colors % block)
        space = num_blocks * target_colors

    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=max(space, target_colors),
        metadata={
            "method": "kuhn_wattenhofer",
            "phases": phases,
            "target_colors": target_colors,
            "backend": backend_name,
        },
    )
