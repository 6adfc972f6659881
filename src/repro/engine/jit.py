"""The compiled multi-threaded backend.

:class:`JitEngine` is the array backend with a compiled kernel provider:
its three primitives run the same CSR drivers as
:class:`repro.engine.array.ArrayEngine`, with the fused kernels of
:mod:`repro.core.kernels_jit` as the per-round step — numba ``@njit`` when
numba is installed, an OpenMP C extension compiled on first use otherwise
(see :mod:`repro.core.kernels_cc`).  Outputs are bit-identical to the array
backend (property-tested and golden-replayed); no per-message simulator
metrics are produced.

This engine is the one place that resolves the compiled tier
(:func:`repro.core.kernels_jit.get_provider`); below it, ``kernels=None``
means "run NumPy".  When neither compiled tier is available the provider is
``None``, so the engine runs the array backend's path, emitting a single
:class:`RuntimeWarning` per process — results are still correct and
identical, only slower.  ``REPRO_NUM_THREADS`` caps the kernel thread
count; ``REPRO_JIT_DISABLE`` (comma-separated tier names) pins or disables
tiers for testing.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.congest.graph import Graph
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.engine.array import ArrayEngine
from repro.testing import faults

__all__ = ["JitEngine"]

#: Sentinel: provider not yet resolved (``None`` is a valid resolution).
_UNSET = object()

# One warning per process, not per engine instance: parallel sweeps construct
# engines in every worker, but the operator only needs to hear once that the
# jit backend is running on the array path.
_FALLBACK_WARNED = False


def _warn_fallback_once() -> None:
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        "backend='jit': no compiled kernel tier is available (numba is not "
        "installed and no C compiler produced a working extension); falling "
        "back to the array backend. Results are identical, only slower. "
        "Install numba (pip install 'repro[jit]') for the compiled path.",
        RuntimeWarning,
        stacklevel=3,
    )


def _reset_fallback_warning() -> None:
    """Test hook: allow the one-time fallback warning to fire again."""
    global _FALLBACK_WARNED
    _FALLBACK_WARNED = False


class JitEngine(ArrayEngine):
    """Compiled-kernel backend (numba or C tier; array fallback)."""

    name = "jit"

    def __init__(self):
        self._provider = _UNSET
        self._warm = False
        self._warming = False

    def _fire_fault(self, primitive: str) -> None:
        """The ``"jit"`` fault-injection site: poison this engine's kernels.

        Fires at the entry of every primitive — *before* provider resolution,
        so an injected crash/hang behaves the same on every tier (numba, C,
        or the array fallback).  Suppressed during :meth:`warmup`: the retry
        ladder guards cells, not engine construction.
        """
        if not self._warming:
            faults.fire("jit", primitive=primitive, tier=self.name)

    @property
    def kernels(self):
        """The compiled provider, resolved once per engine; ``None`` (with a
        once-per-process warning) when no compiled tier is available."""
        if self._provider is _UNSET:
            from repro.core.kernels_jit import get_provider

            self._provider = get_provider()
            if self._provider is None:
                _warn_fallback_once()
        return self._provider

    # ------------------------------------------------------------------ #
    # Primitives: the fault site, then the array backend's CSR drivers
    # ------------------------------------------------------------------ #

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
        self._fire_fault("run_mother")
        return super().run_mother(
            graph, input_colors, m, d=d, k=k, params=params,
            validate_input=validate_input, with_orientation=with_orientation,
        )

    def remove_color_class(
        self,
        graph: Graph,
        colors: np.ndarray,
        target_colors: int | None = None,
    ) -> ColoringResult:
        self._fire_fault("remove_color_class")
        return super().remove_color_class(graph, colors, target_colors=target_colors)

    def kuhn_wattenhofer(
        self,
        graph: Graph,
        colors: np.ndarray,
        m: int,
        target_colors: int | None = None,
    ) -> ColoringResult:
        self._fire_fault("kuhn_wattenhofer")
        return super().kuhn_wattenhofer(graph, colors, m, target_colors=target_colors)

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #

    def warmup(self) -> None:
        """Compile/load the kernels and run all three primitives on a tiny
        graph, so numba's first-call compilation (or the C tier's first
        ``dlopen``) never lands inside a timed sweep cell.  Idempotent."""
        if self._warm:
            return
        self._warm = True
        if self.kernels is None:
            return
        ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        colors = np.array([0, 1, 2, 3], dtype=np.int64)
        self._warming = True
        try:
            self.run_mother(ring, colors, m=4, d=0, k=1, validate_input=False)
            self.remove_color_class(ring, colors, target_colors=3)
            self.kuhn_wattenhofer(ring, colors, m=4)
        finally:
            self._warming = False

    def active_tier(self) -> str:
        """``"jit:numba"`` / ``"jit:cc"``, or ``"jit:fallback-array"``.

        Resolving the provider is what answers the question, so the first
        call may trigger the one-time tier resolution (and the fallback
        warning); every later call is a cheap attribute read.
        """
        provider = self.kernels
        return f"jit:{provider.kind}" if provider is not None else "jit:fallback-array"

    def describe(self) -> dict:
        info = super().describe()
        provider = self.kernels
        info["available"] = provider is not None
        if provider is None:
            info["fallback"] = "array"
            info["kernel"] = None
        else:
            info["kernel"] = provider.kind
            info["threads"] = provider.threads
            info["versions"][provider.kind] = provider.version
            if provider.detail:
                info["detail"] = dict(provider.detail)
        return info
