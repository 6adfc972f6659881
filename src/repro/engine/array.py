"""The vectorized NumPy backend.

Wraps the whole-graph CSR drivers — Algorithm 1 from
:mod:`repro.core.vectorized` and the two reductions from
:mod:`repro.core.reduce` — behind the :class:`repro.engine.base.Engine`
contract.  Each primitive hands the drivers :attr:`ArrayEngine.kernels`:
``None`` here, so every per-round step runs on NumPy; the jit backend
(:class:`repro.engine.jit.JitEngine`) is this engine with a compiled
provider in that slot.  Outputs are bit-identical to the reference backend
(property-tested); the trade-off is that no per-message simulator metrics
are produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.graph import Graph
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.engine.base import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernels_jit import KernelProvider

__all__ = ["ArrayEngine"]


class ArrayEngine(Engine):
    """CSR-adjacency NumPy backend (the performance twin)."""

    name = "array"

    #: The compiled kernels the CSR drivers run; ``None`` runs NumPy.
    kernels: "KernelProvider | None" = None

    def run_mother(
        self,
        graph: Graph,
        input_colors: np.ndarray,
        m: int,
        d: int = 0,
        k: int = 1,
        params: MotherParameters | None = None,
        validate_input: bool = True,
        with_orientation: bool = False,
    ) -> ColoringResult:
        from repro.core.vectorized import run_mother_algorithm_vectorized

        return run_mother_algorithm_vectorized(
            graph,
            input_colors,
            m=m,
            d=d,
            k=k,
            params=params,
            validate_input=validate_input,
            with_orientation=with_orientation,
            kernels=self.kernels,
        )

    def remove_color_class(
        self,
        graph: Graph,
        colors: np.ndarray,
        target_colors: int | None = None,
    ) -> ColoringResult:
        from repro.core.reduce import remove_color_class_reduction

        return remove_color_class_reduction(
            graph, colors, target_colors=target_colors, backend="array",
            kernels=self.kernels,
        )

    def kuhn_wattenhofer(
        self,
        graph: Graph,
        colors: np.ndarray,
        m: int,
        target_colors: int | None = None,
    ) -> ColoringResult:
        from repro.core.reduce import kuhn_wattenhofer_reduction

        return kuhn_wattenhofer_reduction(
            graph, colors, m, target_colors=target_colors, backend="array",
            kernels=self.kernels,
        )
