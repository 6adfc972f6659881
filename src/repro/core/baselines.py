"""Baseline coloring algorithms the paper's results are compared against.

* :func:`greedy_sequential` — the centralized first-fit greedy that realises
  the ``Delta + 1`` bound (not a distributed algorithm; used as the quality
  yardstick for color counts).
* :func:`luby_randomized_coloring` — the classic randomized distributed
  ``(Delta + 1)``-coloring: every uncolored node proposes a uniformly random
  color from its remaining palette and keeps it if no neighbor proposed or owns
  the same color.  Terminates in ``O(log n)`` rounds with high probability.
* :func:`locally_iterative_beg18` — the locally-iterative regime of
  [Barenboim-Elkin-Goldenberg, PODC'18] as subsumed by the paper: the mother
  algorithm with batch size ``k = 1`` (one color trial per round, ``O(Delta)``
  colors in ``O(Delta)`` rounds) followed by color-class removal down to
  ``Delta + 1``.  The paper's Section 1 explains that its ``k = 1``
  instantiation *is* a generalization of the BEG18 algorithm, so this is the
  faithful stand-in for that baseline.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import greedy_coloring
from repro.core.corollaries import kdelta_coloring
from repro.core.results import ColoringResult
from repro.engine.base import Engine
from repro.engine.registry import get_engine

__all__ = [
    "greedy_sequential",
    "luby_randomized_coloring",
    "locally_iterative_beg18",
]


def greedy_sequential(graph: Graph, order: np.ndarray | None = None) -> ColoringResult:
    """Centralized first-fit greedy coloring (``<= Delta + 1`` colors, 0 rounds reported).

    The ``rounds`` field is set to ``graph.n`` to reflect that the sequential
    schedule corresponds to an ``n``-round distributed execution (one vertex at
    a time); the point of the distributed algorithms is to beat exactly this.
    """
    colors = greedy_coloring(graph, order=order)
    return ColoringResult(
        colors=colors,
        rounds=graph.n,
        color_space_size=graph.max_degree + 1,
        metadata={"method": "greedy_sequential"},
    )


def luby_randomized_coloring(
    graph: Graph,
    palette_size: int | None = None,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> ColoringResult:
    """Randomized trial-based ``(Delta + 1)``-coloring (Luby / Johansson style).

    Every round each uncolored vertex proposes a uniform random color from
    ``[palette_size]`` minus the colors already fixed in its neighborhood, and
    keeps the proposal if no neighbor proposed the same color this round nor
    owns it permanently.  With ``palette_size = Delta + 1`` this terminates in
    ``O(log n)`` rounds with high probability.
    """
    delta = graph.max_degree
    if palette_size is None:
        palette_size = delta + 1
    if palette_size < delta + 1:
        raise ValueError("palette must have at least Delta + 1 colors")

    rng = np.random.default_rng(seed)
    n = graph.n
    colors = -np.ones(n, dtype=np.int64)
    rounds = 0

    while n and np.any(colors < 0):
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("randomized coloring did not terminate (check palette size)")
        uncolored = np.nonzero(colors < 0)[0]
        proposals = -np.ones(n, dtype=np.int64)
        for v in uncolored:
            taken = {int(colors[u]) for u in graph.neighbors(int(v)) if colors[u] >= 0}
            available = [c for c in range(palette_size) if c not in taken]
            proposals[v] = int(rng.choice(available))
        for v in uncolored:
            mine = proposals[v]
            ok = True
            for u in graph.neighbors(int(v)):
                if colors[u] == mine or proposals[u] == mine and u != v:
                    ok = False
                    break
            if ok:
                colors[v] = mine
        # note: keep/discard decisions use this round's proposals symmetrically,
        # so two adjacent proposers of the same color both discard — safe.

    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=palette_size,
        metadata={"method": "luby_randomized", "seed": seed},
    )


def locally_iterative_beg18(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    reduce_to_delta_plus_one: bool = True,
    backend: str | Engine = "reference",
) -> ColoringResult:
    """The locally-iterative (BEG18-style) baseline: ``k = 1`` trials, one per round.

    Produces an ``O(Delta)``-coloring in ``O(Delta)`` rounds and, if requested,
    continues with color-class removal down to ``Delta + 1`` colors in a further
    ``O(Delta)`` rounds — the exact route the paper describes for its ``k = 1``
    setting.
    """
    engine = get_engine(backend)
    stage1 = kdelta_coloring(graph, input_colors, m, k=1, backend=engine)
    if not reduce_to_delta_plus_one:
        return stage1
    compact = stage1.colors
    stage2 = engine.remove_color_class(graph, compact, target_colors=graph.max_degree + 1)
    return ColoringResult(
        colors=stage2.colors,
        rounds=stage1.rounds + stage2.rounds,
        color_space_size=graph.max_degree + 1,
        metadata={
            "method": "locally_iterative_beg18",
            "stage1_rounds": stage1.rounds,
            "stage1_color_space": stage1.color_space_size,
            "stage2_rounds": stage2.rounds,
        },
    )
