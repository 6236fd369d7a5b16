"""Phase 2: pipelined chunk correction with variable look-back (§2.2).

After Phase 1, every chunk is locally correct and has published its
*local carries* (its last k values).  Phase 2 turns local into *global*
correctness:

* the global carries of chunk c are its local carries corrected by the
  global carries of chunk c-1 through the k-by-k carry-transition
  matrix M (``G_c = L_c + M @ G_{c-1}``, O(k^2) per chunk);
* every element of chunk c is then corrected with
  ``sum_j factors[j][i] * G_{c-1}[j]``.

On the GPU this runs decoupled: a chunk takes the *most recent
available* global carries (distance c <= 32 back) plus all intervening
local carries and hops forward through M — Merrill & Garland's variable
look-back, which this module implements in :func:`lookback_combine`.
The numpy solver uses the sequential form (identical semantics: the
look-back recursion is exactly the same affine map, associated the same
way); the event-ordered GPU simulator exercises the decoupled protocol
itself, including out-of-order chunk completion.
"""

from __future__ import annotations

import numpy as np

from repro.core.nnacci import carry_transition_matrix
from repro.obs.tracer import NULL_TRACER, TracePid
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import FactorPlan, optimize_factors
from repro.plr.phase1 import _block_rows

__all__ = [
    "transition_matrix",
    "local_carries",
    "propagate_carries",
    "lookback_combine",
    "add_carry_products",
    "apply_global_correction",
    "phase2",
    "LOOKBACK_SUMMARY_THRESHOLD",
]

LOOKBACK_SUMMARY_THRESHOLD = 64
"""Chunk count above which the traced sequential spine emits one
``lookback_summary`` instant instead of a per-chunk ``lookback`` loop.

Per-chunk instants are the right shape for small runs (one timeline row
per chunk in the trace viewer) but O(num_chunks) Python work for large
ones, where only the aggregate distribution matters;
:func:`repro.obs.profile.build_profile` consumes both forms."""


def transition_matrix(table: CorrectionFactorTable) -> np.ndarray:
    """The k-by-k matrix M with ``G_c = L_c + M @ G_{c-1}``.

    Row r corresponds to the carry at offset m-1-r (most recent first).
    Read straight out of the factor table: M[r, j] = factors[j, m-1-r].
    Matches :func:`repro.core.nnacci.carry_transition_matrix`, which
    recomputes it from first principles and serves as the test oracle.
    """
    k = table.order
    m = table.chunk_size
    matrix = np.empty((k, k), dtype=table.dtype)
    for r in range(k):
        matrix[r, :] = table.factors[:, m - 1 - r]
    return matrix


def local_carries(partial: np.ndarray, order: int) -> np.ndarray:
    """Extract the (..., num_chunks, k) local carries, most recent first.

    Column j of the result is the chunk value at offset m-1-j, i.e. the
    carry w[m-1-j] that factor row j multiplies.  ``partial`` may carry
    leading batch axes before the (num_chunks, m) chunk matrix.
    """
    m = partial.shape[-1]
    if m < order:
        raise ValueError(f"chunk size {m} smaller than order {order}")
    # partial[..., m-1], partial[..., m-2], ..., partial[..., m-k]
    return partial[..., m - order : m][..., ::-1]


def propagate_carries(
    locals_: np.ndarray, matrix: np.ndarray, base: np.ndarray | None = None
) -> np.ndarray:
    """Sequentially compute global carries for every chunk.

    ``G_0 = L_0`` (nothing precedes the first chunk) and
    ``G_c = L_c + M @ G_{c-1}``.  This is the serial spine of Phase 2 —
    O(num_chunks * k^2) work, tiny next to the O(n k) element
    correction.

    ``base`` supplies the global carries *entering* the first chunk
    (``G_0 = L_0 + M @ base``) — the multicore backend propagates each
    slab from its scan-computed base this way.  ``base=None`` is the
    zero-history case and matches the historical behaviour bit for bit.

    ``locals_`` may carry leading batch axes before (num_chunks, k);
    the spine then walks the chunk axis once while every batch row's
    matrix-vector product runs in the same vectorized step, rounding
    exactly as that row's own spine.  The loop is picked from the
    shape: one row — no batch axis, or a batch of one — takes the plain
    matrix-vector loop, which is faster for every caller.
    """
    num_chunks = locals_.shape[-2]
    if locals_.ndim > 2 and locals_.size == num_chunks * locals_.shape[-1]:
        # A batch of one is one row; dropping size-1 axes is a view.
        row_base = None if base is None else np.asarray(base).reshape(-1)
        row = propagate_carries(locals_.reshape(locals_.shape[-2:]), matrix, row_base)
        return row.reshape(locals_.shape)
    out = np.empty_like(locals_)
    if num_chunks == 0:
        return out
    if locals_.ndim == 2:
        if base is None:
            out[0] = locals_[0]
        else:
            out[0] = locals_[0] + matrix @ base
        for c in range(1, num_chunks):
            out[c] = locals_[c] + matrix @ out[c - 1]
        return out
    # Several rows: the same matrix-vector product per row, stacked, so
    # every row rounds exactly as it would alone.
    if base is None:
        out[..., 0, :] = locals_[..., 0, :]
    else:
        out[..., 0, :] = locals_[..., 0, :] + (matrix @ np.asarray(base)[..., None])[..., 0]
    for c in range(1, num_chunks):
        out[..., c, :] = locals_[..., c, :] + (matrix @ out[..., c - 1, :, None])[..., 0]
    return out


def lookback_combine(
    base_global: np.ndarray,
    intervening_locals: np.ndarray,
    matrix: np.ndarray,
) -> np.ndarray:
    """Hop global carries forward over intervening chunks (§2.3).

    Given the global carries of some chunk c-d and the local carries of
    chunks c-d+1, ..., c (in order), returns the global carries of
    chunk c by applying ``G <- L + M @ G`` once per hop — the O(c k^2)
    carry precomputation that lets Phase 2 start on a chunk before its
    immediate predecessor has finished.
    """
    carries = np.array(base_global, copy=True)
    for loc in intervening_locals:
        carries = loc + matrix @ carries
    return carries


def add_carry_products(
    target: np.ndarray, prev: np.ndarray, factors: np.ndarray
) -> None:
    """Accumulate ``target[..., c, :] += prev[..., c, :] @ factors`` in place.

    ``target`` is a (..., C, m) block of chunk rows, ``prev`` the
    (..., C, k) carries feeding them, and ``factors`` the k-by-m table —
    one matmul fuses the k-carry correction loop.  Work is blocked along
    the chunk axis so the matmul scratch stays under
    :data:`repro.plr.phase1._CACHE_BLOCK_BYTES` (~1 MiB, the same block
    Phase 1 groups its chunks by) instead of materializing a full
    (..., C, m) product, so the in-place correction path never
    re-creates the second ``(chunks, m)`` array it exists to avoid
    (pinned by the tracemalloc regression test).  For k = 1 and for
    integer dtypes the result is bit-identical to the per-carry loop
    (one product per element, and wraparound integer arithmetic is
    exact); float k > 1 sums the carry terms in matmul order, within
    normal rounding of the loop order, and the same way for any block
    budget.
    """
    num_rows = target.shape[-2]
    if num_rows == 0:
        return
    m = target.shape[-1]
    leading = int(np.prod(target.shape[:-2], dtype=np.int64))
    # A one-row matmul takes BLAS's matrix-vector path, which rounds
    # float sums differently from the matrix-matrix path.  Keep every
    # block at two rows or more (a lone tail row joins the block before
    # it), so the result never depends on the block budget.
    block = max(2, _block_rows(leading * m * target.dtype.itemsize))
    starts = list(range(0, num_rows, block))
    if len(starts) > 1 and num_rows - starts[-1] == 1:
        starts.pop()
    scratch = np.empty(
        target.shape[:-2] + (min(block + 1, num_rows), m), dtype=target.dtype
    )
    for start, stop in zip(starts, starts[1:] + [num_rows]):
        view = scratch[..., : stop - start, :]
        np.matmul(prev[..., start:stop, :], factors, out=view)
        target[..., start:stop, :] += view


def apply_global_correction(
    partial: np.ndarray,
    global_carries: np.ndarray,
    plan: FactorPlan,
    out: np.ndarray | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Correct every chunk with its predecessor's global carries.

    ``partial`` is the (num_chunks, m) Phase 1 output — optionally with
    leading batch axes — and chunk 0 is already globally correct.
    Vectorized across chunks (and batch rows): chunk c (c >= 1) gains
    ``sum_j factors[j] * G_{c-1}[j]``.  ``base``, the global carries
    entering chunk 0 (the multicore backend's slab base, as in
    :func:`propagate_carries`), corrects chunk 0 as well.

    The correction realizes the factor ``plan``, blocked along the chunk
    axis so each block stays in cache across its terms:

    * float tables with k > 1 run the fused carry-product matmul
      (:func:`add_carry_products`) over the first
      ``plan.phase1_active_elements`` columns — past them every factor
      is zero — so the float rounding is the matmul's, as ever;
    * everything else applies the plan's
      :meth:`~repro.plr.optimizer.FactorPlan.merge_terms` at the chunk
      width: constant and periodic 0/1 carries are broadcast or strided
      adds, and integer general rows are one product per carry, which
      beats numpy's non-BLAS integer matmul at large widths.  With
      k = 1 or integers this is the matmul's arithmetic exactly.

    ``out=None`` copies first (the historical behaviour, input left
    pristine); ``out=partial`` corrects the Phase 1 buffer in place with
    no second (chunks, m) allocation; any other ``out`` receives a copy
    of ``partial`` before correction.
    """
    if out is None:
        out = partial.copy()
    elif out is not partial:
        np.copyto(out, partial)
    if base is None:
        if out.shape[-2] <= 1:
            return out
        target = out[..., 1:, :]
        prev = global_carries[..., :-1, :]  # carries feeding chunks 1..end
    else:
        target = out
        prev = np.concatenate(
            [np.asarray(base)[..., None, :], global_carries[..., :-1, :]], axis=-2
        )
    table = plan.table
    if table.order > 1 and not np.issubdtype(table.dtype, np.integer):
        active = plan.phase1_active_elements
        add_carry_products(target[..., :active], prev, table.factors[:, :active])
        return out
    terms = plan.merge_terms(table.chunk_size)
    num_rows = target.shape[-2]
    leading = int(np.prod(target.shape[:-2], dtype=np.int64))
    block = _block_rows(leading * target.shape[-1] * target.dtype.itemsize)
    for start in range(0, num_rows, block):
        rows = target[..., start : start + block, :]
        carries = prev[..., start : start + block, :]
        for term in terms:
            term.apply(rows, carries[..., term.carry])
    return out


def phase2(
    partial: np.ndarray,
    table: CorrectionFactorTable,
    tracer=NULL_TRACER,
    out: np.ndarray | None = None,
    plan: FactorPlan | None = None,
) -> np.ndarray:
    """Run Phase 2 over the Phase 1 partial result; returns (chunks, m).

    The sequential-spine formulation: extract local carries, propagate
    them through M, then apply the element-wise correction.  Exactly
    the arithmetic the pipelined GPU version performs, in a
    deterministic order.

    ``partial`` may also be a batched ``(B, chunks, m)`` Phase 1 result
    (see :func:`repro.plr.phase1.phase1`); the carry spine then walks
    the chunk axis once for all B rows and the correction broadcasts
    over the batch, returning ``(B, chunks, m)``.

    ``out`` and ``plan`` (``None``: the table's default-config plan, the
    one :class:`~repro.plr.solver.PLRSolver` uses by default) are
    forwarded to :func:`apply_global_correction`; ``out=partial``
    corrects the Phase 1 buffer in place (the local carries are read
    into the (chunks, k) spine before any element is touched, so
    self-correction is safe).

    With an enabled ``tracer``, the carry-propagation and correction
    stages emit spans.  For runs up to :data:`LOOKBACK_SUMMARY_THRESHOLD`
    corrected chunks, every chunk c >= 1 emits one ``lookback`` instant
    (cat ``phase2``, tid = chunk id, args chunk/base/distance); larger
    runs emit a single ``lookback_summary`` instant carrying the chunk
    count instead, keeping the traced hot path O(1) in Python.  The
    spine is sequential here, so the distance is always 1 — the
    decoupled variable-look-back distances come from the GPU
    simulator's traces; the shared event names let one profile reader
    consume both.
    """
    if plan is None:
        plan = optimize_factors(table)
    matrix = transition_matrix(table)
    locals_ = local_carries(partial, table.order)
    # Materialize the carries before any in-place correction: `locals_`
    # is a view into `partial`, which `out=partial` will overwrite.
    if out is partial:
        locals_ = np.ascontiguousarray(locals_)
    with tracer.span("propagate_carries", cat="phase2"):
        global_ = propagate_carries(locals_, matrix)
    if tracer.enabled:
        corrected = partial.shape[-2] - 1
        if corrected > LOOKBACK_SUMMARY_THRESHOLD:
            tracer.instant(
                "lookback_summary",
                cat="phase2",
                pid=TracePid.HOST,
                args={"first_chunk": 1, "chunks": corrected, "distance": 1},
            )
        else:
            for c in range(1, partial.shape[-2]):
                tracer.instant(
                    "lookback",
                    cat="phase2",
                    pid=TracePid.HOST,
                    tid=c,
                    args={"chunk": c, "base": c - 1, "distance": 1},
                )
    with tracer.span("apply_global_correction", cat="phase2"):
        return apply_global_correction(partial, global_, plan, out=out)
