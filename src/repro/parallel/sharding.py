"""Slab partitioning and worker-pool options for the process backend.

The sharded backend's unit of distribution is the *slab*: a contiguous
range of chunk rows of the ``(num_chunks, m)`` work matrix (or of batch
rows for batched solves).  Contiguity matters twice — a slab is a
zero-copy view into the shared-memory buffer, and its carry influence on
later slabs collapses to a single affine map (see
:mod:`repro.parallel.scan`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.errors import BackendError

__all__ = ["ShardOptions", "check_pool_backend", "slab_spans", "resolve_workers"]


@dataclass(frozen=True)
class ShardOptions:
    """Tuning knobs for the multicore sharded backend.

    The defaults are safe everywhere: worker count follows the machine,
    and the timeout is generous enough that only a genuinely stuck
    worker (not a slow one) trips it.
    """

    workers: int | None = None
    """Pool size.  ``None`` means one worker per available core
    (``os.cpu_count()``); values are clamped to the number of slabs that
    actually exist, so requesting 8 workers for 3 chunks spawns 3."""

    timeout_s: float = 300.0
    """Per-stage deadline for each worker task.  A worker that neither
    returns nor dies within this window is treated as stuck and the
    solve fails with :class:`~repro.core.errors.WorkerError` (the
    resilience chain then degrades to the single-process path)."""

    inject: str | None = None
    """Fault-injection hook for tests: ``"die"`` makes the worker for
    slab 0 call ``os._exit`` mid-Phase-1, ``"hang"`` makes it sleep past
    any reasonable timeout.  Production code leaves this ``None``."""

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.inject not in (None, "die", "hang"):
            raise ValueError(f"unknown fault injection {self.inject!r}")


def check_pool_backend(backend: str, workers: int | None) -> None:
    """Reject a worker count on the native backend.

    ``backend="native"`` is one in-process OpenMP kernel, already
    parallel over chunks; a pool on top would only oversubscribe the
    cores (and a forked child entering an OpenMP runtime the parent
    already started can deadlock).  Raises a typed
    :class:`~repro.core.errors.BackendError`.
    """
    if backend == "native" and workers is not None:
        raise BackendError(
            "backend='native' runs one in-process OpenMP kernel and takes "
            f"no worker pool (got workers={workers}); use backend='process' "
            "to shard across processes"
        )


def resolve_workers(requested: int | None, num_items: int) -> int:
    """The actual pool size: requested (or cpu count), clamped to work.

    Never below 1 and never above ``num_items`` — a slab must hold at
    least one row, and empty slabs would produce degenerate identity
    summaries for no benefit.
    """
    if requested is None:
        requested = os.cpu_count() or 1
    return max(1, min(requested, num_items))


def slab_spans(num_items: int, slabs: int) -> list[tuple[int, int]]:
    """Split ``range(num_items)`` into ``slabs`` balanced contiguous spans.

    Returns ``[(start, stop), ...]`` covering the range exactly, sizes
    differing by at most one (the first ``num_items % slabs`` spans get
    the extra row).  Fewer items than slabs yields fewer spans — every
    returned span is non-empty.
    """
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    if slabs < 1:
        raise ValueError(f"slabs must be >= 1, got {slabs}")
    slabs = min(slabs, num_items)
    if slabs == 0:
        return []
    base, extra = divmod(num_items, slabs)
    spans = []
    start = 0
    for i in range(slabs):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans
