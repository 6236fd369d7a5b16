"""The vectorized batch solver: B independent inputs, one pass.

:class:`BatchSolver` is the (B, n) face of
:class:`~repro.plr.solver.PLRSolver`'s solve core: every row is an
independent sequence with its own zero history, computed under one
shared execution plan and one shared correction-factor table.  There is
no per-request Python loop anywhere on the path — Phase 1 merges all
(row, chunk) pairs at once and Phase 2's carry spine advances every row
per chunk step.  A single solve is the same core at B = 1.

Equivalence contract: for any row, ``BatchSolver.solve(batch)[i]`` is
byte for byte ``PLRSolver.solve(batch[i])`` under the same plan and
backend, for ``"single"`` and ``"native"`` and every dtype.  On the
process backend a batch of one is chunk-sharded and equals
``PLRSolver(backend="process")``; more rows are row-sharded, each
solved whole, so float rows equal the single-process solve and agree
with the chunk-sharded one within its documented reassociation (see
``docs/parallel.md``).  Integer rows are exact everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import Recurrence
from repro.core.signature import Signature
from repro.gpusim.spec import MachineSpec
from repro.plr.planner import ExecutionPlan
from repro.plr.solver import PLRSolver

__all__ = ["BatchSolver"]


class BatchSolver:
    """Computes one recurrence over a (B, n) batch in a single pass.

    Parameters
    ----------
    recurrence:
        The recurrence (or signature / signature string) every row
        computes.
    machine:
        The GPU whose planning heuristics to follow (default: the
        paper's Titan X) — rows share one plan chosen for the common
        row length.
    tracer:
        Observability hook (``True`` / a shared tracer / ``None``).
    backend:
        ``"single"`` (default) vectorizes in this process;
        ``"process"`` shards the batch axis across a multicore pool —
        rows are independent, so workers need no carry exchange at all
        (see :func:`repro.parallel.solve_batch_sharded`); a batch of
        one row is chunk-sharded like a single solve;
        ``"native"`` solves the whole stack in one call of the
        JIT-compiled C kernel's batched entry point
        (:mod:`repro.codegen.jit` — one compile per (signature, plan,
        dtype), OpenMP over rows × chunks), degrading to the
        vectorized numpy pass with a ``native.fallbacks`` count when no
        compiler is available or compilation fails;
        ``"auto"`` consults the machine's calibration table
        (:mod:`repro.tune`) per solve and dispatches to whichever of
        the above measured fastest for this (signature class, row
        length, dtype), with the static heuristics as the cold-table
        fallback.
    workers / shard_options:
        Process-backend pool tuning, as on
        :class:`~repro.plr.solver.PLRSolver`; rejected with a
        :class:`~repro.core.errors.BackendError` for ``"native"``.
    policy:
        ``backend="auto"`` only: the tuning policy to consult; the
        process-wide default when None.
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        machine: MachineSpec | None = None,
        tracer=None,
        backend: str = "single",
        workers: int | None = None,
        shard_options=None,
        policy=None,
    ) -> None:
        self._solver = PLRSolver(
            recurrence,
            machine=machine,
            tracer=tracer,
            backend=backend,
            workers=workers,
            shard_options=shard_options,
            policy=policy,
        )
        self.recurrence = self._solver.recurrence
        self.machine = self._solver.machine
        self.tracer = self._solver.tracer
        self.backend = backend
        self.policy = policy
        self.shard_options = self._solver.shard_options

    def plan_for(self, n: int) -> ExecutionPlan:
        """The shared plan for rows of length n (same planner as PLR)."""
        return self._solver.plan_for(n)

    def solve(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
    ) -> np.ndarray:
        """Compute the recurrence over every row of ``values``.

        ``values`` has shape (B, n); returns the same shape.  B = 0 or
        n = 0 short-circuits to an empty result (the planner cannot —
        and need not — plan a zero-length solve).
        """
        return self._solver._solve_rows(values, plan, dtype)
