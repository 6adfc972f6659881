"""Compiled kernels for the ``jit`` backend: fused, multi-threaded CSR loops.

The three hot primitives of the engine contract — the mother algorithm's
trial-color conflict counting, color-class removal, and the Kuhn–Wattenhofer
round — are expressed here as *per-vertex fused loops* over the CSR triplet
(``indptr``/``indices``/``src_index``-free: each vertex walks its own CSR
range directly).  A kernel is only the per-round step: the one CSR driver of
each primitive (:func:`repro.core.vectorized.run_mother_algorithm_vectorized`
and the reductions in :mod:`repro.core.reduce`) owns everything around it and
takes a :class:`KernelProvider` as ``kernels=``; ``kernels=None`` runs the
driver's NumPy step.  Unlike that NumPy step, which materialises
``(active_edges x trials)`` intermediates and scatter-adds them with
``bincount``, a compiled kernel

* evaluates each trial polynomial on the fly from the vertex's input color,
  with no ``(n, f + 1)`` digit table (exact modular integer arithmetic —
  bit-identical to the NumPy twin's lazily Horner-evaluated tables),
* counts conflicts per vertex with an early exit as soon as the count
  exceeds ``d``, and stops scanning trials at the *first* ``d``-proper one
  (the same first-qualifying-trial tie-break the array kernel implements
  with ``argmax``), and
* never allocates: callers pass scratch from the existing
  :class:`repro.core.workspace.Workspace` arena.

The kernels below are **pure Python and numba-compilable**: the ``numba``
tier wraps them verbatim with ``@njit(cache=True, parallel=True,
nogil=True)`` so ``prange`` fans the per-vertex loop across threads.  When
numba is not installed, a hand-written C translation of the same loops
(:mod:`repro.core.kernels_cc`) is compiled once with the system C compiler
and loaded via :mod:`ctypes`.  :class:`repro.engine.jit.JitEngine` is the
one caller of :func:`get_provider`; when neither tier is available it hands
``kernels=None`` to the drivers, i.e. runs the array backend.

Determinism under threads is by construction, not by locking: iteration
``r`` of every parallel loop writes only slot ``r`` of its output (mother
kernel) or ``colors[verts[r]]`` where ``verts`` is an independent set
(color-class removal) or block-disjoint (Kuhn–Wattenhofer) — no iteration
reads a cell another iteration of the same call may write with a value that
could change its result.  Outputs are therefore bit-identical for any
thread count, which is what lets the parity property suite and the golden
records extend to ``backend="jit"`` unchanged.

``REPRO_NUM_THREADS`` caps the kernel thread count (numba
``set_num_threads`` / OpenMP ``omp_set_num_threads``);
``REPRO_JIT_DISABLE=numba,cc`` disables individual tiers (used by tests to
exercise the fallback path).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

try:  # numba's parallel range when compiled; plain range in the python tier
    from numba import prange  # pragma: no cover - only importable with numba
except ImportError:
    prange = range

__all__ = [
    "KernelProvider",
    "get_provider",
    "reset_provider_cache",
    "python_provider",
    "requested_thread_cap",
]


# --------------------------------------------------------------------------- #
# The kernels — module-level, numba-compilable pure Python.
#
# These functions are the *single source* of the compiled tier's semantics:
# the numba tier njit-wraps them verbatim, the cc tier is a line-for-line C
# translation (kernels_cc.py), and the tests run them as plain Python against
# the array backend so the logic is parity-checked even where numba is not
# installed.
# --------------------------------------------------------------------------- #


def _kernel_mother_first(act, indptr, indices, colors_in, f1, q, keff, d, active,
                         colors, lo, hi, first, firstval):
    """One mother-algorithm batch: find each active vertex's first good trial.

    For vertex ``v = act[r]`` scan trial positions ``x in [lo, hi)`` in order;
    a trial conflicts with an active neighbor trying the same polynomial value
    or with a colored neighbor whose final color equals the trial color
    ``(x % keff) * q + p_v(x)``.  The first ``x`` with at most ``d`` conflicts
    is written to ``first[r]`` (with ``p_v(x)`` in ``firstval[r]``), or ``-1``.

    ``p_u(x) mod q`` is evaluated from the input color ``c = colors_in[u]``
    alone: the polynomial's coefficients are the ``f1`` low base-``q`` digits
    of ``c + q`` (the offset skips the constant polynomials, see
    :mod:`repro.core.sequences`), taken low to high against a running
    ``x^j mod q``; at ``x = 0`` only the constant digit ``(c + q) % q``
    survives.  All operands are non-negative and below ``q * q``, so the
    value is the exact residue the NumPy twin's Horner pass computes.

    Reads only ``active``/``colors``; writes only slot ``r`` — safe and
    deterministic under any parallel schedule.
    """
    for r in prange(act.shape[0]):
        v = act[r]
        slot = -1
        slotval = 0
        for x in range(lo, hi):
            rest = colors_in[v] + q
            if x == 0:
                val = rest % q
            else:
                val = 0
                xj = 1
                for j in range(f1):
                    val = (val + rest % q * xj) % q
                    rest //= q
                    xj = xj * x % q
            trial = (x % keff) * q + val
            conflicts = 0
            for p in range(indptr[v], indptr[v + 1]):
                u = indices[p]
                if active[u]:
                    rest = colors_in[u] + q
                    if x == 0:
                        nval = rest % q
                    else:
                        nval = 0
                        xj = 1
                        for j in range(f1):
                            nval = (nval + rest % q * xj) % q
                            rest //= q
                            xj = xj * x % q
                    if nval == val:
                        conflicts += 1
                elif colors[u] == trial:
                    conflicts += 1
                if conflicts > d:
                    break
            if conflicts <= d:
                slot = x
                slotval = val
                break
        first[r] = slot
        firstval[r] = slotval


def _kernel_remove_class(verts, indptr, indices, colors, target, used):
    """Recolor one color class: each vertex takes its smallest free color.

    ``verts`` share one color of a proper coloring, hence form an independent
    set: no vertex's neighborhood intersects ``verts``, so the parallel loop
    reads only colors this call never writes.  ``used`` is a
    ``len(verts) * target`` uint8 scratch row-block (zeroed per row here).
    Mirrors the array path exactly, including ``argmax``-over-all-False -> 0.
    """
    for r in prange(verts.shape[0]):
        v = verts[r]
        base = r * target
        for c in range(target):
            used[base + c] = 0
        for p in range(indptr[v], indptr[v + 1]):
            b = colors[indices[p]]
            if b >= 0 and b < target:
                used[base + b] = 1
        c = 0
        while c < target and used[base + c] == 1:
            c += 1
        if c == target:
            c = 0
        colors[v] = c


def _kernel_kw_round(verts, indptr, indices, colors, block, target, used):
    """One Kuhn–Wattenhofer round: each affected vertex takes its block's
    smallest free lower slot.

    A neighbor color ``b`` bans slot ``b % block`` iff it lies in the same
    block and in the block's lower ``target`` slots.  Affected vertices of one
    round share ``color % block`` but live in *different* blocks (their colors
    differ), and a round recolors within the vertex's own block — so whether a
    parallel iteration observes a neighbor's pre- or post-round color, that
    color is in the neighbor's block, never the reader's, and the result is
    identical.  ``used`` is scratch as in the removal kernel.
    """
    for r in prange(verts.shape[0]):
        v = verts[r]
        bo = colors[v] // block
        base = r * target
        for c in range(target):
            used[base + c] = 0
        for p in range(indptr[v], indptr[v + 1]):
            b = colors[indices[p]]
            if b // block == bo:
                slot = b % block
                if slot < target:
                    used[base + slot] = 1
        s = 0
        while s < target and used[base + s] == 1:
            s += 1
        if s == target:
            s = 0
        colors[v] = bo * block + s


# --------------------------------------------------------------------------- #
# Providers: numba -> cc -> (None: the drivers run NumPy)
# --------------------------------------------------------------------------- #


@dataclass
class KernelProvider:
    """A resolved compiled-kernel tier: the three kernels plus provenance."""

    kind: str  # "numba" | "cc" | "python"
    version: str
    threads: int
    mother_first: Callable[..., None]
    remove_class: Callable[..., None]
    kw_round: Callable[..., None]
    detail: dict[str, Any] = field(default_factory=dict)


def requested_thread_cap() -> int | None:
    """The ``REPRO_NUM_THREADS`` cap, or ``None`` when unset/invalid."""
    raw = os.environ.get("REPRO_NUM_THREADS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def _numba_provider() -> KernelProvider | None:
    """The preferred tier: ``@njit(cache=True, parallel=True)`` over the
    module-level kernels.  ``None`` when numba is not importable or jitting
    fails (old numba, broken install)."""
    try:
        import numba
        from numba import njit
    except Exception:
        return None
    try:
        cap = requested_thread_cap()
        if cap is not None:
            numba.set_num_threads(max(1, min(cap, numba.config.NUMBA_NUM_THREADS)))
        flags = dict(cache=True, parallel=True, nogil=True)
        return KernelProvider(
            kind="numba",
            version=str(numba.__version__),
            threads=int(numba.get_num_threads()),
            mother_first=njit(**flags)(_kernel_mother_first),
            remove_class=njit(**flags)(_kernel_remove_class),
            kw_round=njit(**flags)(_kernel_kw_round),
        )
    except Exception:  # pragma: no cover - depends on the numba install
        return None


def python_provider() -> KernelProvider:
    """The kernels as plain Python (``prange == range``).

    Far too slow to be a real tier, but it executes the *exact* code the numba
    tier compiles — the parity tests run it against the array backend so the
    numba kernels' logic is verified even on machines without numba.
    """
    import platform

    return KernelProvider(
        kind="python",
        version=platform.python_version(),
        threads=1,
        mother_first=_kernel_mother_first,
        remove_class=_kernel_remove_class,
        kw_round=_kernel_kw_round,
    )


_PROVIDER: KernelProvider | None = None
_RESOLVED = False


def get_provider(refresh: bool = False) -> KernelProvider | None:
    """Resolve (once per process) the best available compiled tier.

    Order: numba, then the C extension; ``None`` when neither is available
    (the ``jit`` engine then runs the drivers on NumPy).  Tiers named in
    ``REPRO_JIT_DISABLE`` (comma-separated: ``numba``, ``cc``) are skipped —
    tests use this to pin a tier or to force the fallback path.
    """
    global _PROVIDER, _RESOLVED
    if _RESOLVED and not refresh:
        return _PROVIDER
    disabled = {
        tier.strip()
        for tier in os.environ.get("REPRO_JIT_DISABLE", "").split(",")
        if tier.strip()
    }
    provider = None
    if "numba" not in disabled:
        provider = _numba_provider()
    if provider is None and "cc" not in disabled:
        from repro.core import kernels_cc

        provider = kernels_cc.cc_provider()
    _PROVIDER, _RESOLVED = provider, True
    return provider


def reset_provider_cache() -> None:
    """Forget the resolved provider (tests re-resolve under patched env)."""
    global _PROVIDER, _RESOLVED
    _PROVIDER, _RESOLVED = None, False
