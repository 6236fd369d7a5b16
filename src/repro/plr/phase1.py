"""Phase 1: hierarchical pairwise chunk merging (Section 2.1).

Phase 1 turns each size-m chunk of the input into the locally correct
recurrence result (correct under the assumption that everything before
the chunk is zero).  It mirrors the generated CUDA code's structure:

1. *Thread-local step* — each thread solves its x consecutive values
   serially (a chunk of size x is trivially correct on its own).  On
   the GPU this is in-register work; here it is one vectorized sweep
   across all threads at once.
2. *Doubling steps* — chunk widths x, 2x, 4x, ..., m/2 are merged
   pairwise.  The second chunk of each pair is corrected by adding, for
   each carry j, ``factors[j][i] * carry_j`` to its element at offset
   i.  The first log2(warp_size) of these levels correspond to shuffle
   exchanges, the rest to shared-memory exchanges; the arithmetic is
   identical, which is what makes the approach hierarchical.

The key invariant (tested directly): after the level that produces
chunks of width w, the first w outputs of every chunk-aligned window
are final, and in particular the first w outputs of the whole sequence
equal the serial reference.

The kernels realize the optimizer's :class:`~repro.plr.optimizer.FactorPlan`
(Section 3.1): each merge applies the plan's per-width
:meth:`~repro.plr.optimizer.FactorPlan.merge_terms` (broadcast adds for
constant-1 lists, strided adds for periodic 0/1 lists, a cut product for
truncated lists), and an integer signature that is a chain of strided
prefix sums (:attr:`~repro.plr.optimizer.FactorPlan.prefix_strides`)
runs one in-place prefix pass per stride instead of the whole doubling
hierarchy.  Under :meth:`~repro.plr.optimizer.OptimizationConfig.disabled`
every merge multiplies by every factor, the paper's plain form.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NumericalError
from repro.obs.tracer import NULL_TRACER
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import FactorPlan, optimize_factors

__all__ = [
    "thread_local_solve",
    "merge_level",
    "phase1",
    "phase1_inplace",
    "prefix_stage",
    "doubling_widths",
    "check_integer_coefficients",
]


def check_integer_coefficients(coefficients, dtype: np.dtype) -> None:
    """Reject lossy coefficient casts before they corrupt a solve.

    Casting a fractional coefficient (``b = 0.5``) to an integer working
    dtype silently truncates it to 0, turning the recurrence into a
    different one without any error.  Integral-valued floats (``2.0``)
    cast losslessly and are allowed.  Raises
    :class:`~repro.core.errors.NumericalError` so callers (and the
    resilience chain) see a typed failure instead of corrupt output.
    """
    if not np.issubdtype(np.dtype(dtype), np.integer):
        return
    lossy = [c for c in coefficients if float(c) != int(c)]
    if lossy:
        raise NumericalError(
            f"coefficients {lossy} are fractional and cannot be computed in "
            f"{np.dtype(dtype).name} arithmetic without truncation; solve in "
            f"a floating-point dtype instead"
        )


def thread_local_solve(chunks: np.ndarray, feedback: list, x: int) -> None:
    """Solve each width-x thread chunk serially, in place.

    ``chunks`` has shape (num_threads, x); column i receives
    ``sum_j b_j * column[i-j]`` for the in-chunk history only.  The loop
    runs over x (small: <= 11) and k, vectorized over all threads.

    The inner accumulation reuses one preallocated scratch column via
    ``np.multiply(..., out=)`` instead of building a fresh
    ``coeff * column`` array per (i, j) step — same values in the same
    order (bit-identical; pinned by the Phase 1 invariant tests), but
    no temporary churn in the hottest loop of the thread-local stage.
    """
    k = len(feedback)
    if np.issubdtype(chunks.dtype, np.integer):
        coeffs = [np.asarray(b, dtype=chunks.dtype) for b in feedback]
    else:
        coeffs = [chunks.dtype.type(b) for b in feedback]
    scratch = np.empty(chunks.shape[0], dtype=chunks.dtype)
    for i in range(1, x):
        column = chunks[:, i]
        for j in range(1, min(i, k) + 1):
            np.multiply(chunks[:, i - j], coeffs[j - 1], out=scratch)
            column += scratch


def merge_level(pairs: np.ndarray, plan: FactorPlan, width: int) -> None:
    """Merge adjacent chunk pairs of the given width, in place.

    ``pairs`` has shape (num_pairs, 2*width).  For each carry j that
    actually exists at this width (the paper's term-suppression
    optimization: carry w[width-1-j] only exists when j < width), the
    second half gets ``factors[j][:width] * carry_j`` added, realized as
    the ``plan``'s memoized
    :meth:`~repro.plr.optimizer.FactorPlan.merge_terms` for this width.
    """
    second = pairs[:, width:]
    for term in plan.merge_terms(width):
        term.apply(second, pairs[:, width - 1 - term.carry])


def doubling_widths(x: int, chunk_size: int) -> list[int]:
    """The sequence of pair widths Phase 1 merges: x, 2x, ..., m/2.

    ``chunk_size`` must be x times a power of two; this is guaranteed by
    the planner (m = 1024 * x) and validated here.
    """
    widths = []
    width = x
    while width < chunk_size:
        widths.append(width)
        width *= 2
    if width != chunk_size:
        raise ValueError(
            f"chunk size {chunk_size} is not x={x} times a power of two"
        )
    return widths


_CACHE_BLOCK_BYTES = 1 << 20
"""Working-set budget for the host's cache-blocked loops.

Phase 1 runs its whole doubling hierarchy on one group of chunk rows of
at most this many bytes before moving to the next group, and Phase 2's
blocked carry-product matmul (:func:`repro.plr.phase2.add_carry_products`)
bounds its scratch by the same figure.  1 MiB sits inside a per-core
L2, so every merge level after the first reads data the previous level
left in cache."""


def _block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fit one cache block (at least 1)."""
    return max(1, _CACHE_BLOCK_BYTES // max(1, row_bytes))


def phase1_inplace(
    work: np.ndarray,
    plan: FactorPlan,
    x: int,
    tracer=NULL_TRACER,
) -> None:
    """Run Phase 1 over a ``(num_chunks, m)`` chunk matrix, in place.

    The zero-copy core shared by :func:`phase1` (which copies first to
    keep its input pristine), the solvers that own a private padded
    buffer, and the multicore backend (:mod:`repro.parallel`), whose
    workers call this directly on their shared-memory slab views.
    ``work`` must be a C-contiguous 2D buffer whose row length equals
    the chunk size of ``plan.table``; it is overwritten with the locally
    correct partial result, realizing the factor ``plan``.

    Each chunk row is independent, so any contiguous row range is a
    valid unit of work.  The rows are processed in contiguous groups of
    at most :data:`_CACHE_BLOCK_BYTES`, and each group runs the whole
    sequence (thread-local solve, then every merge level) before the
    next group starts.  This is the host's analogue of a thread block
    merging its chunk in shared memory: a group stays in L2 across all
    of its levels instead of every level streaming the whole matrix.
    The per-element arithmetic is unchanged, so the output is
    byte-for-byte identical to one ungrouped sweep for every dtype; a
    matrix that fits one group runs the loop exactly once.

    When the plan has :attr:`~repro.plr.optimizer.FactorPlan.prefix_strides`
    (integer tables only), each group instead runs one strided prefix
    pass per stride (:func:`prefix_stage`).  Wraparound arithmetic is a
    ring, so the result is the same bytes the merges produce.

    With an enabled ``tracer`` every group emits one ``phase1_block``
    span (args ``first_chunk``, ``rows``) with its
    ``thread_local_solve`` and ``merge_level`` spans — or its
    ``prefix_stage`` spans (args ``stride``) — nested inside.
    """
    table = plan.table
    m = table.chunk_size
    if work.ndim != 2 or work.shape[1] != m:
        raise ValueError(
            f"expected a (num_chunks, {m}) chunk matrix, got shape {work.shape}"
        )
    strides = plan.prefix_strides
    feedback = [
        b if isinstance(b, int) else float(b) for b in table.signature.feedback
    ]
    widths = doubling_widths(x, m)
    rows = _block_rows(m * work.dtype.itemsize)
    for first in range(0, work.shape[0], rows):
        group = work[first : first + rows]
        with tracer.span(
            "phase1_block",
            cat="phase1",
            args={"first_chunk": first, "rows": group.shape[0]} if tracer.enabled else None,
        ):
            if strides is not None:
                for stride in strides:
                    with tracer.span(
                        "prefix_stage",
                        cat="phase1",
                        args={"stride": stride} if tracer.enabled else None,
                    ):
                        prefix_stage(group, stride)
            else:
                _phase1_group(group, plan, feedback, x, widths, tracer)


def prefix_stage(work: np.ndarray, stride: int) -> None:
    """``work[:, i] += work[:, i - stride]`` for every i, in place and in order.

    One strided prefix sum along each chunk row of ``work`` (shape
    ``(rows, m)``): the chunk-local solve of ``y[i] = x[i] + y[i − p]``.
    The rows' first ``m − m % p`` columns are viewed as ``(q, p)`` blocks
    and accumulated down the block axis in one ``np.add.accumulate``;
    a ragged tail (p not dividing m) then adds the block before it.

    Stride 1 runs as ``(1 + z) / (1 − z²)``: a stride-2 pass and one
    shifted add.  numpy's stride-1 accumulate is a serial chain through
    memory (~3 ns per element on x86_64), the stride-2 form vectorizes
    over the block, and together they take about half the time.  The
    identity is exact in ring arithmetic.
    """
    rows, m = work.shape
    if stride == 1 and m > 1:
        prefix_stage(work, 2)
        work[:, 1:] += work[:, :-1]
        return
    blocks, tail = divmod(m, stride)
    item = work.strides[1]
    body = np.lib.stride_tricks.as_strided(
        work,
        shape=(rows, blocks, stride),
        strides=(work.strides[0], stride * item, item),
    )
    np.add.accumulate(body, axis=1, out=body)
    if blocks and tail:
        edge = blocks * stride
        work[:, edge:] += work[:, edge - stride : edge - stride + tail]


def _phase1_group(
    work: np.ndarray,
    plan: FactorPlan,
    feedback: list,
    x: int,
    widths: list[int],
    tracer,
) -> None:
    """The thread-local solve and every merge level over one row group."""
    m = plan.table.chunk_size
    num_chunks = work.shape[0]

    if x > 1:
        thread_view = work.reshape(num_chunks * (m // x), x)
        with tracer.span(
            "thread_local_solve", cat="phase1", args={"x": x} if tracer.enabled else None
        ):
            thread_local_solve(thread_view, feedback, x)

    for width in widths:
        pairs = num_chunks * (m // (2 * width))
        pair_view = work.reshape(pairs, 2 * width)
        if tracer.enabled:
            with tracer.span(
                "merge_level", cat="phase1", args={"width": width, "pairs": pairs}
            ):
                merge_level(pair_view, plan, width)
        else:
            merge_level(pair_view, plan, width)


def phase1(
    padded: np.ndarray,
    table: CorrectionFactorTable,
    x: int,
    tracer=NULL_TRACER,
    plan: FactorPlan | None = None,
) -> np.ndarray:
    """Run Phase 1 over all chunks; returns the (num_chunks, m) partial.

    ``padded`` is the input after the map stage, zero-padded to a whole
    number of chunks, flattened.  The result is locally correct within
    each chunk; the last k columns are the *local carries* Phase 2
    consumes.  The input array is not modified.

    ``padded`` may also be a 2D ``(B, padded_n)`` batch of independent
    sequences sharing one signature; the result is then
    ``(B, num_chunks, m)``.  Phase 1 never mixes data across chunk
    borders, so the batch rows' chunks are processed as one flat chunk
    axis — the per-chunk arithmetic is bit-identical to B separate 1D
    calls, with the Python-level dispatch paid once.

    ``plan`` is the factor plan :func:`phase1_inplace` realizes; ``None``
    realizes the table's default-config plan, the one :class:`~repro.plr.solver.PLRSolver`
    uses by default, so a composition of :func:`phase1` and
    :func:`~repro.plr.phase2.phase2` stays bit-identical to the solver.

    With an enabled ``tracer``, every cache-sized group of chunks
    (:func:`phase1_inplace`) emits a ``phase1_block`` span, and inside
    it the thread-local solve and every merge-doubling level emit one
    span each (cat ``phase1``), recording the pair width and how many
    pairs merged — the numpy mirror of the simulator's per-block
    ``merge`` events — or, for prefix-stage plans, one
    ``prefix_stage`` span per stride.
    """
    m = table.chunk_size
    if padded.ndim not in (1, 2):
        raise ValueError(f"expected a 1D or 2D (batch) input, got shape {padded.shape}")
    if padded.shape[-1] % m:
        raise ValueError(
            f"padded length {padded.shape[-1]} is not a multiple of m={m}"
        )
    check_integer_coefficients(table.signature.feedback, padded.dtype)
    batched = padded.ndim == 2
    work = padded.reshape(-1, m).copy()
    if plan is None:
        plan = optimize_factors(table)
    phase1_inplace(work, plan, x, tracer=tracer)
    if batched:
        return work.reshape(padded.shape[0], -1, m)
    return work
