"""The solver and batch solver recomposed from their public layer calls.

The traced run calls each layer the way the solver does, in the same
order (plan → map stage → factor table → optimize → Phase 1 → Phase 2,
or → kernel), with one span around each call.  The composed output
must be bit-identical to ``PLRSolver.solve`` / ``BatchSolver.solve`` on
the same input; the workloads check that on every traced op, so the
per-layer split always measures the program and never a drifted copy.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.codegen.ir import KernelIR
from repro.codegen.jit import native_kernel
from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype
from repro.obs.metrics import global_metrics
from repro.parallel.backend import solve_sharded
from repro.parallel.sharding import ShardOptions
from repro.plr.nd import solve_batch
from repro.plr.optimizer import OptimizationConfig, optimize_factors
from repro.plr.phase1 import check_integer_coefficients, phase1
from repro.plr.phase2 import phase2
from repro.plr.planner import plan_execution
from repro.plr.solver import cached_factor_table, factor_cache_stats

SOLVER_KINDS = {"solve": "single", "native": "native", "process": "process"}
"""Benchmark op kind → ``PLRSolver`` backend."""

BATCH_KINDS = {"batch": "single", "batch_native": "native"}
"""Benchmark op kind → ``BatchSolver`` backend."""

BOOKKEEPING = "bench.bookkeeping"
"""Span around the benchmark's own bookkeeping inside a traced op; it
counts as trace overhead, never as a layer's time."""


class LayerDrift(AssertionError):
    """A composed output differs from the program's own output."""


def compiles() -> int:
    """Kernels compiled so far in this process (the JIT's own counter)."""
    return int(global_metrics().counter("native.compiles").value)


def factor_lookup(spans, signature, chunk_size, dtype):
    """``cached_factor_table`` in a span tagged as a hit or a build."""
    with spans.span(BOOKKEEPING):
        misses = factor_cache_stats()["misses"]
    with spans.span("plr.factors.lookup") as index:
        table = cached_factor_table(signature, chunk_size, dtype)
    with spans.span(BOOKKEEPING):
        built = factor_cache_stats()["misses"] > misses
    spans.args[index] = {"build": built}
    return table


def solve_layers(spans, solver, values, kind, plan=None, dtype=None):
    """``solver.solve(values)`` for a single/native/process ``PLRSolver``."""
    rec = solver.recurrence
    values = np.asarray(values)
    n = values.size
    if dtype is None:
        dtype = resolve_dtype(rec.signature, values.dtype)
    dtype = np.dtype(dtype)
    if plan is None:
        with spans.span("plr.planner"):
            plan = plan_execution(rec.signature, n, solver.machine)
    check_integer_coefficients(rec.signature.feedforward + rec.signature.feedback, dtype)
    work = values.astype(dtype, copy=False)
    if rec.has_map_stage:
        with spans.span("core.recurrence.map_stage"):
            work = rec.apply_map_stage(work)
    table = factor_lookup(spans, rec.recursive_signature, plan.chunk_size, dtype)
    with spans.span("plr.optimizer"):
        factor_plan = optimize_factors(table, solver.optimization)

    if kind == "native":
        ir = KernelIR(
            recurrence=Recurrence(rec.recursive_signature),
            plan=replace(plan, values_per_thread=plan.chunk_size),
            table=table,
            factor_plan=factor_plan,
            dtype=dtype,
        )
        with spans.span("codegen.jit.native_kernel"):
            kernel = native_kernel(ir)
        with spans.span("codegen.jit.kernel", {"n": n, "itemsize": dtype.itemsize}):
            return kernel(work)

    if plan.padded_n != n:
        padded = np.zeros(plan.padded_n, dtype=dtype)
        padded[:n] = work
    else:
        padded = work
    if kind == "process":
        with spans.span("parallel.solve_sharded"):
            corrected = solve_sharded(
                padded, table, plan.values_per_thread, options=solver.shard_options
            )
    else:
        with spans.span("plr.phase1", {"elems": plan.padded_n}):
            partial = phase1(padded, table, plan.values_per_thread)
        with spans.span("plr.phase2", {"elems": plan.padded_n}):
            corrected = phase2(partial, table, out=partial)
    return corrected.reshape(-1)[:n]


def batch_layers(spans, solver, values, kind):
    """``solver.solve(values)`` for a single/native ``BatchSolver``."""
    rec = solver.recurrence
    values = np.asarray(values)
    rows, n = values.shape
    dtype = np.dtype(resolve_dtype(rec.signature, values.dtype))
    with spans.span("plr.planner"):
        plan = solver.plan_for(n)
    if kind == "batch_native":
        row_solver = _row_solver(solver)
        out = []
        for row in values:
            with spans.span("batch.solver.native_row"):
                out.append(solve_layers(spans, row_solver, row, "native", plan, dtype))
        return np.stack(out)
    with spans.span("plr.nd.solve_batch", {"elems": rows * plan.padded_n}):
        return solve_batch(
            values,
            rec,
            dtype=dtype,
            plan=plan,
            backend="single",
            shard_options=ShardOptions(),
        )


def _row_solver(batch_solver):
    from repro.plr.solver import PLRSolver

    return PLRSolver(batch_solver.recurrence, machine=batch_solver.machine, backend="native")


def warm(recurrence, machine, n: int, dtype, native: bool, spans=None) -> None:
    """Build the factor table and, for native, compile the kernel for n.

    This is the cold work a first solve of length n does, done up front
    so that it counts in set-up time and not in the first timed op.
    """
    plan = plan_execution(recurrence.signature, n, machine)
    table = cached_factor_table(recurrence.recursive_signature, plan.chunk_size, dtype)
    if not native:
        return
    ir = KernelIR(
        recurrence=Recurrence(recurrence.recursive_signature),
        plan=replace(plan, values_per_thread=plan.chunk_size),
        table=table,
        factor_plan=optimize_factors(table, OptimizationConfig()),
        dtype=np.dtype(dtype),
    )
    before = compiles()
    if spans is None:
        native_kernel(ir)
        return
    with spans.span("codegen.jit.native_kernel") as index:
        native_kernel(ir)
    spans.args[index] = {"compiled": compiles() > before}


def check_identical(composed: np.ndarray, reference: np.ndarray, what: str) -> None:
    """Raise :class:`LayerDrift` unless the two arrays are bit-identical."""
    composed = np.asarray(composed)
    reference = np.asarray(reference)
    if (
        composed.dtype != reference.dtype
        or composed.shape != reference.shape
        or composed.tobytes() != reference.tobytes()
    ):
        raise LayerDrift(f"traced layers drifted from the program on {what}")
