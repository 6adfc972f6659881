"""Result containers shared by all coloring / ruling-set algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.verify.coloring import num_distinct

__all__ = ["ColoringResult", "RulingSetResult"]


@dataclass
class ColoringResult:
    """Output of a (possibly defective) coloring algorithm.

    Attributes
    ----------
    colors:
        ``colors[v]`` — the color of vertex ``v``.  For tuple-valued colorings
        (e.g. the ``(psi, phi)`` colors of Theorem 1.3) the array has dtype
        ``object``.
    rounds:
        Round complexity in the paper's sense: the number of communication
        rounds the algorithm needs (for the mother algorithm, the number of
        batch-trial iterations).  Simulator bookkeeping rounds (e.g. the final
        "announce my color" round) are reported separately in ``metadata``.
    color_space_size:
        Upper bound on the color space the algorithm draws from (the ``C`` in
        "``C``-coloring"); ``num_colors`` counts the colors actually used.
    parts:
        Optional partition indices ``P_1 .. P_R`` from Theorem 1.1 point (2).
    orientation:
        Optional orientation of monochromatic edges (set of ``(u, v)`` pairs
        meaning ``u -> v``) from Theorem 1.1 point (1).
    metadata:
        Free-form extras: parameters, message statistics, sub-phase rounds.
    """

    colors: np.ndarray
    rounds: int
    color_space_size: int
    parts: np.ndarray | None = None
    orientation: set[tuple[int, int]] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def num_colors(self) -> int:
        """Number of distinct colors actually used."""
        return num_distinct(self.colors)

    @property
    def n(self) -> int:
        """Number of vertices colored."""
        return int(self.colors.shape[0])

    def normalized_colors(self) -> np.ndarray:
        """Relabel the used colors to ``0 .. num_colors - 1`` (stable order).

        Useful when a result with a sparse color space (e.g. encoded
        ``(x mod k, p(x))`` pairs) is fed into another algorithm as an input
        coloring with ``m = num_colors``.
        """
        if self.colors.size == 0:
            return self.colors.astype(np.int64, copy=True)
        if self.colors.dtype == object:
            distinct = sorted(set(self.colors.tolist()))
            lookup = {c: i for i, c in enumerate(distinct)}
            return np.array([lookup[c] for c in self.colors.tolist()], dtype=np.int64)
        distinct, inverse = np.unique(self.colors, return_inverse=True)
        return inverse.astype(np.int64)

    def summary(self) -> dict[str, Any]:
        """Compact summary used by the experiment tables."""
        return {
            "n": self.n,
            "rounds": self.rounds,
            "colors_used": self.num_colors,
            "color_space": self.color_space_size,
        }


@dataclass
class RulingSetResult:
    """Output of a ruling-set algorithm."""

    vertices: np.ndarray
    rounds: int
    r: int
    alpha: int = 2
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of vertices in the ruling set."""
        return int(self.vertices.shape[0])

    def summary(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "rounds": self.rounds,
            "r": self.r,
            "alpha": self.alpha,
        }
