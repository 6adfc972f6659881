"""Ruling sets (Section 3.3): Lemma 3.2, Theorem 1.5, and the SEW13-style baseline.

A ``(2, r)``-ruling set is an independent set ``S`` such that every vertex has
a member of ``S`` within ``r`` hops.

* :func:`ruling_set_from_coloring` implements the coloring-to-ruling-set
  reduction of Lemma 3.2 ([KMW18]): given a ``C``-coloring and a base ``B``,
  it computes a ``(2, ceil(log_B C))``-ruling set in ``O(B log_B C)`` rounds.
  The colors are read as ``t = ceil(log_B C)`` base-``B`` digits; in phase
  ``j`` the surviving candidates are filtered digit value by digit value
  (one round each), keeping a candidate exactly when no neighbor has already
  survived the phase.  Adjacent survivors of a phase share that digit, so
  after all phases adjacent survivors would share *all* digits — impossible
  for a proper coloring — hence the final set is independent; every filtered
  vertex has a surviving neighbor, so each phase adds one hop of domination.

* :func:`mis_from_coloring` — the ``r = 1`` special case (process the color
  classes sequentially), i.e. the classical ``O(C)``-round MIS from a coloring.

* :func:`ruling_set_theorem15` — Theorem 1.5: balance the number of colors
  against the ruling-set phase by computing an ``O(Delta^{1+eps})``-coloring
  with ``eps = (r-2)/(r+2)`` (Theorem 1.3) and then applying Lemma 3.2 with
  ``B = C^{1/r}``.

* :func:`ruling_set_sew13_baseline` — the previous state of the art
  ([SEW13]-style): apply Lemma 3.2 directly to an ``O(Delta^2)``-coloring,
  giving ``O(Delta^{2/r}) * r`` rounds for the ruling phase.
"""

from __future__ import annotations

import math

import numpy as np

from repro.congest.graph import Graph
from repro.core.corollaries import linial_color_reduction
from repro.core.pipelines import theorem13_coloring
from repro.core.results import ColoringResult, RulingSetResult
from repro.engine.base import Engine

__all__ = [
    "ruling_set_from_coloring",
    "mis_from_coloring",
    "ruling_set_theorem15",
    "ruling_set_sew13_baseline",
]


def ruling_set_from_coloring(
    graph: Graph,
    colors: np.ndarray,
    num_colors: int,
    base: int,
) -> RulingSetResult:
    """Lemma 3.2 [KMW18]: a ``(2, ceil(log_B C))``-ruling set from a ``C``-coloring.

    Parameters
    ----------
    colors:
        A proper coloring with values in ``[num_colors]``.
    base:
        The digit base ``B >= 2``; the result is a ``(2, t)``-ruling set with
        ``t = ceil(log_B C)`` computed in ``B * t`` rounds.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size and (colors.min() < 0 or colors.max() >= num_colors):
        raise ValueError("colors out of the declared range [num_colors]")

    t = 1  # ceil(log_B C) in integers; float logs put log(125) / log(5) above 3
    while base ** t < num_colors:
        t += 1
    candidates = np.ones(graph.n, dtype=bool)
    rounds = 0

    for phase in range(t):
        digit = (colors // (base ** phase)) % base
        survivors = np.zeros(graph.n, dtype=bool)
        for b in range(base):
            rounds += 1
            group = np.nonzero(candidates & (digit == b))[0]
            if group.size == 0:
                continue
            # A node joins unless a neighbor already survived this phase.  All
            # joins of one sub-round happen simultaneously (adjacent joiners
            # share the digit b, which is fine — they compete again later).
            blocked = np.zeros(graph.n, dtype=bool)
            for v in group:
                for u in graph.neighbors(int(v)):
                    if survivors[u]:
                        blocked[v] = True
                        break
            survivors[group[~blocked[group]]] = True
        candidates = survivors

    vertices = np.nonzero(candidates)[0].astype(np.int64)
    return RulingSetResult(
        vertices=vertices,
        rounds=rounds,
        r=t,
        alpha=2,
        metadata={"base": base, "num_colors": num_colors, "phases": t},
    )


def mis_from_coloring(graph: Graph, colors: np.ndarray, num_colors: int) -> RulingSetResult:
    """Maximal independent set from a ``C``-coloring in ``C`` rounds (the ``r = 1`` case).

    Color classes are processed in increasing color order; the vertices of the
    current class that have no neighbor already in the set join simultaneously
    (they are pairwise non-adjacent because the coloring is proper).
    """
    colors = np.asarray(colors, dtype=np.int64)
    in_set = np.zeros(graph.n, dtype=bool)
    dominated = np.zeros(graph.n, dtype=bool)
    rounds = 0
    for c in range(num_colors):
        rounds += 1
        group = np.nonzero((colors == c) & ~dominated & ~in_set)[0]
        if group.size == 0:
            continue
        for v in group:
            if not any(in_set[u] for u in graph.neighbors(int(v))):
                in_set[v] = True
        for v in np.nonzero(in_set)[0]:
            dominated[v] = True
            for u in graph.neighbors(int(v)):
                dominated[u] = True
    vertices = np.nonzero(in_set)[0].astype(np.int64)
    return RulingSetResult(
        vertices=vertices,
        rounds=rounds,
        r=1,
        alpha=2,
        metadata={"num_colors": num_colors, "method": "mis_from_coloring"},
    )


def _base_for_target_r(num_colors: int, r: int) -> int:
    """Smallest ``B >= 2`` with ``B**r >= C``, i.e. ``ceil(log_B C) <= r``.

    The float root is only a first guess: ``3125 ** (1 / 5)`` lands above 5.
    """
    base = max(2, math.ceil(num_colors ** (1.0 / r)))
    while base > 2 and (base - 1) ** r >= num_colors:
        base -= 1
    while base ** r < num_colors:
        base += 1
    return base


def ruling_set_theorem15(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    r: int,
    backend: str | Engine = "reference",
) -> RulingSetResult:
    """Theorem 1.5: a ``(2, r)``-ruling set in ``O(Delta^{2/(r+2)}) + log* n`` rounds.

    Stage 1: an ``O(Delta^{1+eps})``-coloring with ``eps = (r-2)/(r+2)``
    (Theorem 1.3; see the Theorem 3.1 substitution note in
    :mod:`repro.core.pipelines` — it inflates the measured stage-1 rounds but
    not the color bound).  Stage 2: Lemma 3.2 with ``B ~ C^{1/r}``.
    """
    if r < 2:
        raise ValueError("Theorem 1.5 requires r >= 2 (r = 1 is MIS, see mis_from_coloring)")
    epsilon = max(1e-9, (r - 2) / (r + 2))
    coloring: ColoringResult = theorem13_coloring(
        graph, input_colors, m, epsilon=epsilon, backend=backend
    )
    num_colors = max(2, coloring.color_space_size)
    base = _base_for_target_r(num_colors, r)
    ruling = ruling_set_from_coloring(graph, coloring.colors, num_colors, base)
    total_rounds = coloring.rounds + ruling.rounds
    return RulingSetResult(
        vertices=ruling.vertices,
        rounds=total_rounds,
        r=r,
        alpha=2,
        metadata={
            "method": "theorem15",
            "coloring_rounds": coloring.rounds,
            "coloring_color_space": coloring.color_space_size,
            "ruling_rounds": ruling.rounds,
            "base": base,
            "epsilon": epsilon,
        },
    )


def ruling_set_sew13_baseline(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    r: int,
    backend: str | Engine = "reference",
) -> RulingSetResult:
    """The previous state of the art: Lemma 3.2 on an ``O(Delta^2)``-coloring.

    Stage 1 is a single Linial-style reduction of the input coloring to
    ``O(Delta^2)`` colors (1 round); stage 2 applies Lemma 3.2 with
    ``B ~ (Delta^2)^{1/r}``, i.e. ``O(r * Delta^{2/r})`` rounds, matching the
    ``O(Delta^{2/r}) + log* n`` bound of [SEW13] that Theorem 1.5 improves.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    coloring = linial_color_reduction(graph, input_colors, m, backend=backend)
    num_colors = max(2, coloring.color_space_size)
    if r == 1:
        ruling = mis_from_coloring(graph, coloring.colors, num_colors)
    else:
        base = _base_for_target_r(num_colors, r)
        ruling = ruling_set_from_coloring(graph, coloring.colors, num_colors, base)
    return RulingSetResult(
        vertices=ruling.vertices,
        rounds=coloring.rounds + ruling.rounds,
        r=r,
        alpha=2,
        metadata={
            "method": "sew13_baseline",
            "coloring_rounds": coloring.rounds,
            "coloring_color_space": coloring.color_space_size,
            "ruling_rounds": ruling.rounds,
        },
    )


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api.registry)
# --------------------------------------------------------------------------- #

from repro.api.registry import ParamSpec, register_algorithm  # noqa: E402


@register_algorithm(
    "ruling_set",
    summary="(2, r)-ruling set (Theorem 1.5, or the SEW13-style baseline)",
    guarantee="independent and r-dominating (hard invariants, verified per run); "
              "O(Delta^(2/(r+2))) + log* n ruling rounds (baseline: O(Delta^(2/r)))",
    output="ruling set",
    source="Theorem 1.5 / [SEW13]",
    params=[
        ParamSpec("r", int, default=2, minimum=2, help="domination radius"),
        ParamSpec("baseline", bool, default=False,
                  help="use the SEW13-style Delta^2 baseline instead of Theorem 1.5"),
    ],
)
def _run_ruling_set(w, engine, r: int = 2, baseline: bool = False):
    from repro.verify.ruling import assert_ruling_set

    fn = ruling_set_sew13_baseline if baseline else ruling_set_theorem15
    res = fn(w.graph, w.input_colors, w.m, r=r, backend=engine)
    assert_ruling_set(w.graph, res.vertices, r=r)
    return {
        "rounds": int(res.rounds),
        "ruling rounds only": int(res.metadata["ruling_rounds"]),
        "set size": int(res.size),
        "_vertices": res.vertices,
    }
