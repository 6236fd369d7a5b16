"""Multi-dimensional recurrences: batched rows, 2D filters, SATs.

The paper's future work lists "multiple dimensions"; its two image-
processing baselines (Alg3, Rec) exist precisely because 2D recursive
filtering matters.  This module provides that on top of the 1D
machinery:

* :func:`solve_batch` — many independent sequences at once, through
  the solver's one (B, n) core.  The algorithm is unchanged; the win
  is that Phase 1's merges and Phase 2's carry spine vectorize across
  the batch (the per-chunk-index loop advances *every* row
  simultaneously), so filtering a 4096-row image costs barely more
  Python overhead than one row.
* :func:`filter_axis` — apply a recurrence along either axis of a 2D
  array (rows are independent sequences, exactly how Alg3/Rec treat
  scanlines).
* :func:`filter2d` — separable row-then-column filtering, the
  composition Nehab et al. optimize.
* :func:`summed_area_table` — prefix sums along both axes, the classic
  SAT primitive (Hensley et al.; cited in Related Work).

All of it validates against row-/column-wise serial references.
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import Recurrence
from repro.core.signature import Signature
from repro.obs.tracer import NULL_TRACER
from repro.plr.planner import ExecutionPlan
from repro.plr.solver import PLRSolver

__all__ = ["solve_batch", "filter_axis", "filter2d", "summed_area_table"]


def solve_batch(
    values: np.ndarray,
    recurrence: Recurrence | Signature | str,
    dtype: np.dtype | None = None,
    plan: ExecutionPlan | None = None,
    tracer=NULL_TRACER,
    backend: str = "single",
    shard_options=None,
) -> np.ndarray:
    """Compute the recurrence independently over every row of ``values``.

    ``values`` has shape (rows, n); each row is its own sequence with
    its own zero history.  Returns an array of the same shape.  This is
    the functional form of :class:`~repro.batch.solver.BatchSolver`,
    over the same solve core as :class:`~repro.plr.solver.PLRSolver`:
    Phase 1 runs over all (row, chunk) pairs at once and Phase 2's carry
    spine walks the chunk axis once for every row simultaneously.

    ``plan`` overrides the paper's planner (the batch engine passes the
    plan it grouped requests under); ``tracer`` threads an optional
    :class:`~repro.obs.tracer.Tracer` into the phase kernels.
    ``backend`` is any of :attr:`PLRSolver.BACKENDS
    <repro.plr.solver.PLRSolver.BACKENDS>`; ``"process"`` shards the
    *batch axis* across a multicore pool
    (:func:`repro.parallel.solve_batch_sharded`), so each worker
    completes its rows end to end with no carry exchange (a single row
    is chunk-sharded), and ``shard_options`` tunes the pool.
    """
    solver = PLRSolver(
        recurrence, tracer=tracer, backend=backend, shard_options=shard_options
    )
    return solver._solve_rows(values, plan, dtype)


def filter_axis(
    image: np.ndarray,
    recurrence: Recurrence | Signature | str,
    axis: int = 1,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Apply a recurrence along one axis of a 2D array.

    ``axis=1`` filters each row left to right (the paper's 1D case per
    scanline); ``axis=0`` filters each column top to bottom.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {image.shape}")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if axis == 1:
        return solve_batch(image, recurrence, dtype=dtype)
    return solve_batch(image.T, recurrence, dtype=dtype).T


def filter2d(
    image: np.ndarray,
    row_recurrence: Recurrence | Signature | str,
    column_recurrence: Recurrence | Signature | str | None = None,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Separable 2D filtering: rows first, then columns.

    With ``column_recurrence`` omitted the same filter runs both ways —
    the symmetric case Alg3/Rec optimize for images.
    """
    if column_recurrence is None:
        column_recurrence = row_recurrence
    horizontal = filter_axis(image, row_recurrence, axis=1, dtype=dtype)
    return filter_axis(horizontal, column_recurrence, axis=0, dtype=dtype)


def summed_area_table(image: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
    """The summed-area table: SAT[i, j] = sum of image[:i+1, :j+1].

    Two passes of the standard prefix sum — the primitive behind fast
    box filtering (Hensley et al. 2005, cited by the paper).
    """
    return filter2d(image, Signature.prefix_sum(), dtype=dtype)
