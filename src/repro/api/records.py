"""Shared record builders for registered algorithm runners.

A runner returns a flat mapping of measurements; keys starting with ``"_"``
are artifacts (arrays used for parity checking, stripped from the tidy
record).  The helpers here keep the record *shape* identical across all
coloring algorithms — the golden-record suite freezes both the field set and
the field order.
"""

from __future__ import annotations

from typing import Any

from repro.verify.coloring import assert_proper_coloring

__all__ = ["coloring_record"]


def coloring_record(result, verify_graph=None, max_colors=None) -> dict[str, Any]:
    """The canonical tidy record of a :class:`~repro.core.results.ColoringResult`.

    With ``verify_graph`` the coloring is asserted proper first (the hard
    invariant every experiment relies on); ``max_colors`` additionally bounds
    the number of colors used.  The colors are counted once, for both.
    """
    if verify_graph is None:
        used = result.num_colors
    else:
        used = assert_proper_coloring(verify_graph, result.colors, max_colors=max_colors)
    record: dict[str, Any] = {
        "rounds": int(result.rounds),
        "colors used": int(used),
        "color space": int(result.color_space_size),
        "_colors": result.colors,
    }
    if result.parts is not None:
        record["_parts"] = result.parts
    return record
