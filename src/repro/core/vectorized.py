"""The whole-graph CSR driver of Algorithm 1, frontier-compacted.

The message-passing implementation in :mod:`repro.core.algorithm1` is the
faithful model-level artifact; this module is its performance twin and the
one CSR driver of Theorem 1.1 for both the array and the jit backend.  It
runs the exact same round structure — per batch count conflicts and let every
node adopt the first ``d``-proper trial.  Only the per-batch scan differs by
tier: ``kernels=None`` runs the NumPy scan described below, a compiled
:class:`~repro.core.kernels_jit.KernelProvider` runs its fused
``mother_first`` loop instead (no digit table, no CSR gathers).

The NumPy scan operates on *compacted* arrays covering only the still-active
subgraph:

* per batch, only the CSR ranges incident to still-active vertices are
  gathered (:meth:`repro.congest.graph.Graph.incident_csr_entries`); edges
  between two permanently colored endpoints are never touched again, so a
  round costs ``O(active degree)``, not ``O(|E|)``;
* conflict counting is one 2-D scatter-add over the compacted edges
  (``bincount`` on flattened ``(row, trial)`` indices) instead of a Python
  loop over the batch's trial positions with full-size temporaries;
* within a batch the trial axis is processed in bounded-memory chunks with
  per-row early exit — a row that already found its first ``d``-proper trial
  is dropped from the remaining chunks (the adopted trial is the *first*
  qualifying one either way, so outputs are unchanged);
* polynomial sequences are evaluated *lazily*: instead of the dense ``(n, q)``
  table of :func:`evaluate_all_sequences` (which dominates the runtime once
  the round loop is compacted), each chunk Horner-evaluates exactly the
  vertices it touches at exactly the chunk's trial positions.  Modular
  arithmetic is exact, so the lazily computed values are bit-identical to the
  table's;
* recurring per-round temporaries (gathered neighbor colors and activity
  flags, first-slot/undone trackers, Horner accumulators) live in a
  :class:`repro.core.workspace.Workspace` arena — named grow-only buffers
  reused across rounds and chunks, so a steady-state round performs no
  scratch allocations proportional to the graph.

The reference and CSR implementations, on every tier, produce *identical*
colors and part indices (this is property-tested), so benchmarks can use the vectorized twin on graphs where
instantiating ``n`` Python node objects would dominate the runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import validate_proper_coloring
from repro.core.algorithm1 import derive_orientation
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.core.workspace import Workspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernels_jit import KernelProvider

__all__ = ["run_mother_algorithm_vectorized", "evaluate_all_sequences"]

#: Budget (in edge x trial cells) for one conflict-counting chunk.  Bounds the
#: per-chunk temporaries to a few tens of MB regardless of graph size while
#: leaving single-batch calls (Linial: the whole sequence in one batch) enough
#: width per chunk to stay vectorized.
_CHUNK_CELLS = 2 * 1024 * 1024


def sequence_coefficients(input_colors: np.ndarray, params: MotherParameters) -> np.ndarray:
    """Polynomial coefficient matrix, shape ``(n, f + 1)``.

    ``coeffs[v, j]`` is the ``j``-th base-``q`` digit of ``input color + q``;
    the offset skips the constant polynomials (see :mod:`repro.core.sequences`).
    """
    colors = np.asarray(input_colors, dtype=np.int64)
    q = params.q
    coeffs = np.empty((colors.shape[0], params.f + 1), dtype=np.int64)
    rest = colors + q
    for j in range(params.f + 1):
        coeffs[:, j] = rest % q
        rest //= q
    return coeffs


def evaluate_all_sequences(input_colors: np.ndarray, params: MotherParameters) -> np.ndarray:
    """Evaluate ``p_{c(v)}(x)`` for every vertex ``v`` and every ``x`` in ``F_q``.

    Returns an ``(n, q)`` array: the full trial table, via vectorized Horner.
    The compacted kernel no longer materialises this — it evaluates lazily per
    chunk — but the table remains the clearest specification of the trial
    values (and the two agree exactly; modular arithmetic has no rounding).
    """
    coeffs = sequence_coefficients(input_colors, params)
    q, f = params.q, params.f
    xs = np.arange(q, dtype=np.int64)
    values = np.zeros((coeffs.shape[0], q), dtype=np.int64)
    for j in range(f, -1, -1):
        values = (values * xs[None, :] + coeffs[:, j][:, None]) % q
    return values


def _horner_grid(coeffs: np.ndarray, q: int, verts: np.ndarray, xs: np.ndarray,
                 ws: Workspace) -> np.ndarray:
    """``p_{c(v)}(x)`` for every ``v`` in ``verts`` and ``x`` in ``xs``.

    Horner in place on a reused workspace accumulator — identical modular
    arithmetic, zero per-chunk allocation of the accumulator.
    """
    acc = ws.zeros("eval_grid", verts.size * xs.size).reshape(verts.size, xs.size)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        np.multiply(acc, xs[None, :], out=acc)
        np.add(acc, coeffs[verts, j][:, None], out=acc)
        np.mod(acc, q, out=acc)
    return acc


def _horner_at(coeffs: np.ndarray, q: int, verts: np.ndarray, xs: np.ndarray,
               ws: Workspace) -> np.ndarray:
    """``p_{c(verts[i])}(xs[i])`` — one position per vertex."""
    acc = ws.zeros("eval_at", verts.size)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        np.multiply(acc, xs, out=acc)
        np.add(acc, coeffs[verts, j], out=acc)
        np.mod(acc, q, out=acc)
    return acc


def _first_trials_numpy(
    act: np.ndarray, rows: np.ndarray, e_dst: np.ndarray, active: np.ndarray,
    colors: np.ndarray, coeffs: np.ndarray, params: MotherParameters, lo: int, hi: int,
    ws: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """The NumPy per-batch scan, the twin of ``KernelProvider.mother_first``.

    ``first[r]`` is the first trial position in ``[lo, hi)`` with at most
    ``d`` conflicts for ``act[r]``, or ``-1``; ``firstval[r]`` is the trial
    polynomial's value there (read only where ``first[r] >= 0``).  The trial
    axis is chunked to bound the temporaries at ~``_CHUNK_CELLS`` edge-trial
    cells; rows that found their slot are dropped from later chunks (their
    first slot is already decided).  All per-batch arrays live in the
    workspace arena.
    """
    q, k_eff, dd = params.q, params.k, params.d
    num_active = act.size
    dst_active = ws.gather("dst_active", active, e_dst)
    dst_colors = ws.gather("dst_colors", colors, e_dst)
    first = ws.full("first", num_active, -1)
    undone = ws.full("undone", num_active, True, dtype=bool)
    r_sub, d_sub, a_sub, c_sub = rows, e_dst, dst_active, dst_colors
    cstart = lo
    while cstart < hi:
        w = max(1, min(hi - cstart, _CHUNK_CELLS // max(1, r_sub.size)))
        xs = np.arange(cstart, cstart + w, dtype=np.int64)
        # Lazily evaluate exactly the vertices this chunk touches — the
        # remaining rows' sources and their *active* neighbors (colored
        # neighbors are compared by final color, no values needed) — at
        # exactly the chunk's trial positions.
        src_verts = act[r_sub]
        need = np.unique(np.concatenate([src_verts, d_sub[a_sub]]))
        table = _horner_grid(coeffs, q, need, xs, ws)
        src_vals = table[np.searchsorted(need, src_verts)]
        nbr_pos = np.searchsorted(need, d_sub)
        if need.size:
            np.minimum(nbr_pos, need.size - 1, out=nbr_pos)
        # A hit is an active neighbor trying the same value, or a colored
        # neighbor whose final color equals the trial color
        # (x % k) * q + value  <=>  final - (x % k) * q == value.
        # (For colored neighbors nbr_pos is a clipped dummy; np.where
        # discards that branch.)
        hits = np.where(
            a_sub[:, None],
            table[nbr_pos] == src_vals,
            (c_sub[:, None] - ((xs % k_eff) * q)[None, :]) == src_vals,
        )
        # 2-D scatter-add over the compacted edges: conflict counts per
        # (active row, trial position), via bincount on flattened indices.
        er, el = np.nonzero(hits)
        counts = np.bincount(
            r_sub[er] * w + el, minlength=num_active * w
        ).reshape(num_active, w)
        ok = counts <= dd
        ok[~undone] = False
        found = ok.any(axis=1)
        first[found] = cstart + np.argmax(ok[found], axis=1)
        undone &= ~found
        cstart += w
        if cstart >= hi or not undone.any():
            break
        keep = undone[r_sub]
        r_sub, d_sub = r_sub[keep], d_sub[keep]
        a_sub, c_sub = a_sub[keep], c_sub[keep]

    firstval = ws.take("firstval", num_active)
    found = first >= 0
    firstval[found] = _horner_at(coeffs, q, act[found], first[found], ws)
    return first, firstval


def run_mother_algorithm_vectorized(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    d: int = 0,
    k: int = 1,
    params: MotherParameters | None = None,
    validate_input: bool = True,
    with_orientation: bool = False,
    workspace: Workspace | None = None,
    kernels: "KernelProvider | None" = None,
) -> ColoringResult:
    """Algorithm 1 on the CSR; same semantics and outputs as
    :func:`repro.core.algorithm1.run_mother_algorithm`.

    The one whole-graph driver of Theorem 1.1, for the array and the jit
    backend alike: it refreshes the active-vertex frontier only after
    adoptions and lets every active vertex adopt the first trial of the batch
    with at most ``d`` conflicts.  ``kernels`` picks the per-batch scan:
    ``None`` runs the chunked NumPy scan, a
    :class:`~repro.core.kernels_jit.KernelProvider` its compiled
    ``mother_first``, which evaluates every trial polynomial straight from
    the int64 input colors (no digit table, no CSR gathers).  Both pick the
    same trial, so colors, parts and rounds are bit-identical; the metadata
    names the path (``implementation`` ``"vectorized"`` or ``"jit"`` plus the
    ``kernel`` tier).

    ``with_orientation`` defaults to False here because the orientation
    derivation is an extra ``O(num_edges)`` Python pass that benchmarks on
    large graphs usually do not need.

    ``workspace`` optionally supplies the scratch-buffer arena; pass one to
    reuse buffers across several calls (e.g. the stages of a pipeline), or
    leave ``None`` for a private per-call arena.  Buffer reuse changes the
    allocation pattern only — outputs are bit-identical either way.
    """
    # C-contiguous int64 is the kernels' ABI.
    input_colors = np.ascontiguousarray(input_colors, dtype=np.int64)
    delta = max(1, graph.max_degree)
    if validate_input:
        validate_proper_coloring(graph, input_colors, m)
    if params is None:
        params = MotherParameters.derive(m=m, delta=delta, d=d, k=k)
    params.require_int64()
    if kernels is None:
        path = {"implementation": "vectorized"}
    else:
        path = {"implementation": "jit", "kernel": kernels.kind}

    n = graph.n
    if n == 0:
        return ColoringResult(
            colors=np.empty(0, dtype=np.int64),
            rounds=0,
            color_space_size=params.color_space_size,
            parts=np.empty(0, dtype=np.int64),
            orientation=set() if with_orientation else None,
            metadata={"params": params.describe(), **path},
        )

    q, k_eff = params.q, params.k
    ws = workspace if workspace is not None else Workspace()
    # The digit table and the CSR gathers below feed only the NumPy scan.
    coeffs = sequence_coefficients(input_colors, params) if kernels is None else None
    indptr, indices = graph.indptr, graph.indices

    colors = -np.ones(n, dtype=np.int64)
    parts = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rounds = 0

    # Frontier compaction state: ``act`` are the still-active vertices and
    # ``rows``/``e_dst`` their incident CSR entries (entry i belongs to vertex
    # act[rows[i]] and points at neighbor e_dst[i]).  Edges between two
    # permanently colored endpoints never appear here.  Rebuilt only when the
    # active set shrank (someone adopted a color).
    act = rows = e_dst = None
    refresh = True

    for batch in range(params.num_batches):
        if refresh:
            act = np.nonzero(active)[0]
            if act.size == 0:
                break
            if kernels is None:
                positions, rows = graph.incident_csr_entries(act)
                e_dst = ws.gather("e_dst", indices, positions)
            refresh = False
        rounds = batch + 1
        lo = batch * k_eff
        hi = min(lo + k_eff, q)
        if kernels is None:
            first, firstval = _first_trials_numpy(
                act, rows, e_dst, active, colors, coeffs, params, lo, hi, ws
            )
        else:
            first = ws.full("first", act.size, -1)
            firstval = ws.take("firstval", act.size)
            kernels.mother_first(act, indptr, indices, input_colors, params.f + 1, q,
                                 k_eff, params.d, active, colors, lo, hi, first, firstval)

        adopters = first >= 0
        if np.any(adopters):
            verts = act[adopters]
            colors[verts] = (first[adopters] % k_eff) * q + firstval[adopters]
            parts[verts] = batch + 1
            active[verts] = False
            refresh = True

    if active.any():
        raise RuntimeError(
            "some nodes exhausted their color sequences — this contradicts Theorem 1.1 "
            "and indicates invalid parameters or a bug"
        )

    orientation = (
        derive_orientation(graph, colors, parts, input_colors) if with_orientation else None
    )
    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=params.color_space_size,
        parts=parts,
        orientation=orientation,
        metadata={
            "params": params.describe(),
            **path,
            "round_bound": params.round_bound,
        },
    )
