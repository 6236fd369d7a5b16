"""The end-to-end PLR solver: plan, map stage, Phase 1, Phase 2.

:class:`PLRSolver` is the executable embodiment of the paper's
algorithm on a numpy substrate.  It computes *exactly* what the
generated CUDA code computes — same chunking, same correction factors,
same arithmetic order — so it serves both as the production API for
computing recurrences in parallel form and as the reference for
validating the code generators and the GPU simulator against.

Typical use::

    from repro import Recurrence, PLRSolver

    rec = Recurrence.parse("(0.2: 0.8)")   # 1-stage low-pass filter
    solver = PLRSolver(rec)
    y = solver.solve(x)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.errors import BackendError, CodegenError
from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype
from repro.core.signature import Signature
from repro.gpusim.spec import MachineSpec
from repro.obs.metrics import global_metrics
from repro.obs.tracer import coerce_tracer
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import FactorPlan, OptimizationConfig, optimize_factors
from repro.parallel.sharding import ShardOptions, check_pool_backend
from repro.plr.phase1 import check_integer_coefficients, phase1_inplace
from repro.plr.phase2 import phase2
from repro.plr.planner import ExecutionPlan, plan_execution

__all__ = [
    "PLRSolver",
    "SolveArtifacts",
    "cached_factor_table",
    "clear_factor_cache",
    "factor_cache_stats",
    "plr_solve",
]


@dataclass(frozen=True)
class SolveArtifacts:
    """Intermediate state of one solve, exposed for tests and tooling.

    Attributes
    ----------
    plan:
        The m/x/T execution plan used.
    table:
        The correction-factor table.
    factor_plan:
        The optimizer's realization decisions.
    partial:
        The Phase 1 output (locally correct chunks), shape
        (num_chunks, m).  ``None`` for the process backend, whose
        workers correct their shared-memory slabs in place — there is
        no moment at which an intact full Phase 1 result exists on the
        host — and for solves the native kernel completed end to end.
    native:
        A :class:`~repro.codegen.jit.NativeAttempt` describing what the
        native backend did (ran a compiled kernel, or degraded to numpy
        and why).  ``None`` for the other backends.
    tuning:
        A :class:`~repro.tune.policy.TuningDecision` recording which
        backend ``backend="auto"`` resolved to and *why* (measured,
        interpolated, or static fallback with its typed reason).
        ``None`` when the backend was fixed by the caller.
    backend:
        The backend that actually executed this solve (after any
        ``"auto"`` resolution): ``"single"``, ``"process"``, or
        ``"native"``.
    """

    plan: ExecutionPlan
    table: CorrectionFactorTable
    factor_plan: FactorPlan
    partial: np.ndarray | None
    native: object | None = None
    tuning: object | None = None
    backend: str = "single"


# Factor tables are pure functions of (signature, m, dtype); building
# one for m = 11264 costs ~m python-level steps per carry, so memoize.
#
# Cache-key contract: the key is the exact triple
# ``(recursive_signature, chunk_size, dtype_str)``.  Signatures hash by
# coefficient value (frozen dataclass), so "(1: 2, -1)" and the same
# coefficients built programmatically share an entry; the dtype is keyed
# by its *string* form (``np.dtype(x).str``, e.g. ``"<f4"``) so that
# spelling variants — np.float32, "float32", dtype('float32') — cannot
# create duplicate entries.  Entries hold read-only arrays shared across
# solvers and threads; evicting one (LRU, 64 entries) only costs
# recomputation.  The cache is process-global: long-running services
# sweeping many signatures can reclaim the memory with
# :func:`clear_factor_cache`.
@lru_cache(maxsize=64)
def _cached_table(
    signature: Signature, chunk_size: int, dtype_str: str
) -> CorrectionFactorTable:
    return CorrectionFactorTable.build(signature, chunk_size, np.dtype(dtype_str))


def cached_factor_table(
    signature: Signature, chunk_size: int, dtype: np.dtype | type
) -> CorrectionFactorTable:
    """The shared, process-wide factor-table lookup.

    Every consumer of correction factors — :class:`PLRSolver`, the
    streaming wrapper, and the batch engine — goes through this one
    LRU-cached entry point, so a mixed workload touching the same
    (recursive signature, chunk size, dtype) triple builds its table
    exactly once.  The ``signature`` is reduced to its recursive part
    here, so full signatures and their ``(1: b...)`` cores share an
    entry.  Publishes hit/miss/size gauges via
    :func:`factor_cache_stats` on every call.
    """
    table = _cached_table(
        signature.recursive_part(), chunk_size, np.dtype(dtype).str
    )
    factor_cache_stats()
    return table


def clear_factor_cache() -> None:
    """Drop every memoized correction-factor table.

    Tables are immutable and derived purely from their cache key, so
    clearing is always safe — the next solve just rebuilds what it
    needs.  Useful for bounding memory in services that touch many
    (signature, chunk size, dtype) combinations, and for tests that
    measure cold-cache behaviour.
    """
    _cached_table.cache_clear()


def factor_cache_stats() -> dict[str, int]:
    """Current factor-cache statistics, mirrored into the global metrics.

    Reads ``_cached_table.cache_info()`` and publishes it as the
    ``factor_cache.hits`` / ``factor_cache.misses`` / ``factor_cache.size``
    gauges on :func:`repro.obs.metrics.global_metrics`, returning the
    same numbers as a plain dict.  Called on every
    :meth:`PLRSolver.factor_table` lookup so the gauges track the cache
    without replacing the ``lru_cache`` interface tests rely on.
    """
    info = _cached_table.cache_info()
    stats = {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "max_size": info.maxsize,
    }
    registry = global_metrics()
    registry.gauge("factor_cache.hits").set(info.hits)
    registry.gauge("factor_cache.misses").set(info.misses)
    registry.gauge("factor_cache.size").set(info.currsize)
    return stats


class PLRSolver:
    """Computes a linear recurrence with the paper's two-phase algorithm.

    A single solve is the batch of one: :class:`~repro.batch.BatchSolver`,
    :func:`~repro.plr.nd.solve_batch` and the streaming solvers run the
    same ``(B, n)`` core (:meth:`_solve`), so their rows agree with this
    class byte for byte.

    Parameters
    ----------
    recurrence:
        The recurrence to compute (a :class:`Recurrence` or a signature
        string).
    machine:
        The GPU whose planning heuristics to follow; defaults to the
        paper's Titan X.
    optimization:
        Which Section 3.1 optimizations to apply; defaults to all-on,
        like PLR.  The numpy kernels realize the resulting
        :class:`~repro.plr.optimizer.FactorPlan`: constant-1 factor
        lists become broadcast adds, periodic 0/1 lists strided adds,
        decayed lists stop at their cutoff, and integer signatures that
        are chains of strided prefix sums run Phase 1 as one prefix pass
        per stride.  :meth:`OptimizationConfig.disabled` multiplies by
        every factor in every merge.  The result is the same either
        way, bit for bit, except that a skipped ``0 * carry`` neither
        turns a -0.0 into +0.0 nor spreads a non-finite carry; the
        native kernel and the cost model read the same plan.
    tracer:
        Observability hook: ``True`` for a fresh
        :class:`~repro.obs.tracer.Tracer`, an existing tracer to share,
        or ``None``/``False`` (default) for the no-op tracer.  With a
        real tracer every solve emits spans for the map stage, factor
        table lookup, Phase 1 (per merge level), and Phase 2 (per-chunk
        ``lookback`` events).  Tracing never changes the arithmetic —
        outputs are bit-identical with it on or off.
    backend:
        ``"single"`` (default) computes in this process;
        ``"process"`` shards chunks across a multicore pool with a
        log-depth carry scan (:mod:`repro.parallel`).  Process-backend
        results are bit-identical for integer dtypes and within normal
        rounding for floats (sums reassociate at slab boundaries).
        ``"native"`` JIT-compiles the recurrence with the C backend
        (:mod:`repro.codegen.jit`) and runs the compiled kernel —
        bit-identical for integer dtypes (the kernel is built with
        ``-fwrapv`` so wraparound matches numpy's ring), tolerance-equal
        for floats (the kernel associates chunk-locally).  When no C
        compiler is available or compilation fails, the solve degrades
        to the numpy path and records the typed error on
        ``artifacts.native`` (see ``native_fallback``).
    workers / shard_options:
        Pool tuning for the process backend: ``workers`` is shorthand
        for ``ShardOptions(workers=...)``; pass a full
        :class:`~repro.parallel.ShardOptions` to also set the stage
        timeout.  Ignored by the single backend.  The native backend
        always runs one in-process kernel, already OpenMP-parallel over
        chunks, so a worker count there is rejected with a
        :class:`~repro.core.errors.BackendError` at construction.
    native_fallback:
        Native backend only.  True (default): a
        :class:`~repro.core.errors.BackendError` /
        :class:`~repro.core.errors.CodegenError` from the compile-and-
        load path degrades the solve to numpy instead of failing it.
        False: the typed error propagates — what the resilience chain
        uses so the degradation is *its* decision and gets a typed
        attempt record.
    policy:
        ``backend="auto"`` only: the
        :class:`~repro.tune.policy.TuningPolicy` consulted per solve;
        defaults to the process-wide policy over the persistent
        calibration database (:func:`repro.tune.default_policy`).  The
        decision — and why it was made — lands on
        ``artifacts.tuning``; a cold or broken table degrades to the
        static heuristics, never to an exception.
    """

    BACKENDS = ("single", "process", "native", "auto")
    """The one backend list; every other solver, ``ServeConfig`` and
    ``plr serve --backend`` read it."""

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        machine: MachineSpec | None = None,
        optimization: OptimizationConfig | None = None,
        tracer=None,
        backend: str = "single",
        workers: int | None = None,
        shard_options: ShardOptions | None = None,
        native_fallback: bool = True,
        policy=None,
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.recurrence = recurrence
        self.machine = machine or MachineSpec.titan_x()
        self.optimization = optimization or OptimizationConfig()
        self.tracer = coerce_tracer(tracer)
        self.backend = backend
        self.native_fallback = native_fallback
        self.policy = policy
        self.shard_options = (
            shard_options
            if shard_options is not None
            else ShardOptions(workers=workers)
        )
        check_pool_backend(backend, self.shard_options.workers)

    # ------------------------------------------------------------------
    def plan_for(self, n: int) -> ExecutionPlan:
        """The execution plan PLR would choose for an input of length n."""
        return plan_execution(self.recurrence.signature, n, self.machine)

    def factor_table(self, plan: ExecutionPlan, dtype: np.dtype) -> CorrectionFactorTable:
        return cached_factor_table(
            self.recurrence.recursive_signature, plan.chunk_size, dtype
        )

    # ------------------------------------------------------------------
    def solve(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
        context=None,
    ) -> np.ndarray:
        """Compute the recurrence over ``values``.

        Returns an array of the same length; dtype follows the paper's
        methodology (int32 for integer signatures on integer data,
        float32 otherwise) unless overridden.  ``context`` is an
        optional :class:`~repro.obs.context.TraceContext`: when given,
        the solve's spans (plan, phases, sharded stages, worker lanes)
        parent under it so the solve joins a request-scoped trace.
        """
        return self._solve(_one_row(values), plan, dtype, context=context)[0][0]

    def solve_with_artifacts(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
        context=None,
    ) -> tuple[np.ndarray, SolveArtifacts]:
        """Like :meth:`solve` but also returns the intermediate state.

        Keeping ``artifacts.partial`` valid requires Phase 2 to correct
        a copy rather than the Phase 1 buffer, so this entry point pays
        one extra (num_chunks, m) allocation that :meth:`solve` avoids.
        """
        out, artifacts = self._solve(
            _one_row(values), plan, dtype, keep_partial=True, context=context
        )
        return out[0], artifacts

    def _solve_rows(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
    ) -> np.ndarray:
        """Every row of a (B, n) stack; B = 0 or n = 0 short-circuits.

        The batch entry point (:class:`~repro.batch.solver.BatchSolver`,
        :func:`~repro.plr.nd.solve_batch`, the streaming solvers): the
        planner cannot -- and need not -- plan a zero-length solve.
        """
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(
                f"expected a 2D (batch, n) array, got shape {values.shape}"
            )
        if values.size == 0:
            if dtype is None:
                dtype = resolve_dtype(self.recurrence.signature, values.dtype)
            return values.astype(dtype)
        return self._solve(values, plan, dtype)[0]

    def _solve(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None,
        dtype: np.dtype | None,
        keep_partial: bool = False,
        context=None,
    ) -> tuple[np.ndarray, SolveArtifacts]:
        """The one solve core: every row of a non-empty (B, n) stack.

        Phase 1 corrects the stack's B * chunks chunks independently and
        Phase 2 walks one carry spine over the chunk axis for all rows,
        so a single sequence is B = 1.  Resolves the dtype, ``auto`` and
        the plan, checks the coefficients, casts and maps the stack,
        looks up the table and factor plan once, then runs the backend's
        entry of :data:`_BACKEND_RUNS`.  A typed native failure degrades
        to ``single`` unless the solver is strict (``native_fallback``).
        """
        tracer = self.tracer

        def link():
            # One fresh child per span; None stays None so the untraced
            # hot path allocates nothing.
            return context.child() if context is not None else None

        rows, n = values.shape
        if dtype is None:
            dtype = resolve_dtype(self.recurrence.signature, values.dtype)
        dtype = np.dtype(dtype)

        backend = self.backend
        shard_options = self.shard_options
        tuning = None
        if backend == "auto":
            backend, shard_options, tuning = self._resolve_auto(
                n, dtype, tracer, link
            )

        if plan is None:
            with tracer.span(
                "plan",
                cat="solver",
                args={"batch": rows, "n": n} if tracer.enabled else None,
                link=link(),
            ):
                plan = self.plan_for(n)
        # A fractional coefficient cast to an integer working dtype
        # truncates silently (b=0.5 -> 0) and computes a *different*
        # recurrence; fail with a typed error before any work happens.
        check_integer_coefficients(
            self.recurrence.signature.feedforward
            + self.recurrence.signature.feedback,
            dtype,
        )

        work = values.astype(dtype, copy=False)
        # Map stage (2): eliminate the feed-forward coefficients.
        if self.recurrence.has_map_stage:
            with tracer.span("map_stage", cat="solver", link=link()):
                work = self.recurrence.apply_map_stage(work)

        with tracer.span("factor_table", cat="solver", link=link()):
            table = self.factor_table(plan, dtype)
        factor_plan = optimize_factors(table, self.optimization)

        owned = work is not values
        try:
            out, partial, native = _BACKEND_RUNS[backend](
                self, work, owned, plan, factor_plan, shard_options, keep_partial, link
            )
        except (BackendError, CodegenError) as exc:
            if backend != "native" or not self.native_fallback:
                raise
            # Degrade to the numpy path; the typed record on the
            # artifacts (and the counter/instant) is the story.
            from repro.codegen.jit import NativeAttempt

            global_metrics().counter("native.fallbacks").inc()
            if tracer.enabled:
                tracer.instant(
                    "native_fallback",
                    cat="solver",
                    args={"error": str(exc)[:200]},
                    link=link(),
                )
            out, partial, _ = _solve_single(
                self, work, owned, plan, factor_plan, shard_options, keep_partial, link
            )
            native = NativeAttempt(used=False, error=f"{type(exc).__name__}: {exc}")
        artifacts = SolveArtifacts(
            plan=plan,
            table=table,
            factor_plan=factor_plan,
            partial=partial,
            native=native,
            tuning=tuning,
            backend=backend,
        )
        return out, artifacts

    def _resolve_auto(self, n, dtype, tracer, link):
        """Resolve ``backend="auto"`` through the tuning policy.

        Returns ``(backend, shard_options, decision)``.  The policy's
        contract guarantees a decision (measured, interpolated, or
        static fallback with a typed reason) — this never raises on the
        solve path.  The decision is per (signature class, row length,
        dtype), so one lookup steers every row of a stack.  A measured
        process decision also carries the measured-best worker count,
        which fills a ``workers=None`` shard configuration without
        overriding an explicit one.
        """
        from dataclasses import replace as dc_replace

        from repro.tune.policy import default_policy

        policy = self.policy if self.policy is not None else default_policy()
        decision = policy.decide(self.recurrence.signature, n, dtype)
        shard_options = self.shard_options
        if (
            decision.backend == "process"
            and decision.workers is not None
            and shard_options.workers is None
        ):
            shard_options = dc_replace(shard_options, workers=decision.workers)
        if tracer.enabled:
            tracer.instant(
                "tuning_decision",
                cat="solver",
                args={
                    "backend": decision.backend,
                    "source": decision.source,
                    "reason": decision.reason[:200],
                },
                link=link(),
            )
        return decision.backend, shard_options, decision


def _one_row(values: np.ndarray) -> np.ndarray:
    """A 1D sequence as the (1, n) stack the core solves."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"expected a 1D sequence, got shape {values.shape}")
    return values[None]


def _padded(work: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
    """``work`` zero-padded to whole chunks; ``work`` itself if it fits.

    Trailing zeros never influence earlier outputs, so the unpadded
    prefix of every row is exact.
    """
    rows, n = work.shape
    if plan.padded_n == n:
        return work
    padded = np.zeros((rows, plan.padded_n), dtype=work.dtype)
    padded[:, :n] = work
    return padded


# The backends, one function each, all with the same parameters: the
# solver, the cast and mapped (B, n) stack, whether the core owns that
# buffer (False: it is still the caller's array), the execution and
# factor plans, the pool options, whether to keep the Phase 1 result,
# and the span-link factory.  Each returns ``(out, partial, native)``:
# the (B, n) result, the Phase 1 chunks when kept, and the native record.


def _solve_single(solver, work, owned, plan, factor_plan, shard_options, keep_partial, link):
    """Phase 1 over all B * chunks chunks in place, then one carry spine."""
    tracer = solver.tracer
    rows, n = work.shape
    m = plan.chunk_size
    padded = _padded(work, plan)
    with tracer.span(
        "phase1",
        cat="solver",
        args={"chunks": padded.size // m} if tracer.enabled else None,
        link=link(),
    ):
        chunks = padded.reshape(-1, m)
        if padded is work and not owned:
            # No pad, cast or map stage made a private buffer: this is
            # the caller's array, so work on a copy.
            chunks = chunks.copy()
        phase1_inplace(chunks, factor_plan, plan.values_per_thread, tracer=tracer)
    with tracer.span("phase2", cat="solver", link=link()):
        # Correct the Phase 1 buffer in place unless the caller asked
        # for the pristine partial result.  One row is the plain
        # (chunks, m) matrix: no batch axis to index on the hot path.
        partial = chunks if rows == 1 else chunks.reshape(rows, -1, m)
        corrected = phase2(
            partial,
            factor_plan.table,
            tracer=tracer,
            out=None if keep_partial else partial,
            plan=factor_plan,
        )
    return corrected.reshape(rows, -1)[:, :n], chunks if keep_partial else None, None


def _solve_process(solver, work, owned, plan, factor_plan, shard_options, keep_partial, link):
    """The pool: one row is chunk-sharded, a stack is row-sharded.

    Workers correct their shared slabs in place, so no host-side Phase 1
    snapshot exists to keep.
    """
    from repro.parallel.backend import solve_batch_sharded, solve_sharded

    tracer = solver.tracer
    rows, n = work.shape
    padded = _padded(work, plan)
    sharded_ctx = link()
    with tracer.span(
        "solve_sharded",
        cat="solver",
        args={"chunks": padded.size // plan.chunk_size} if tracer.enabled else None,
        link=sharded_ctx,
    ):
        if rows == 1:
            corrected = solve_sharded(
                padded.reshape(-1),
                factor_plan.table,
                plan.values_per_thread,
                options=shard_options,
                tracer=tracer,
                context=sharded_ctx,
                plan=factor_plan,
            )
        else:
            corrected = solve_batch_sharded(
                padded,
                factor_plan.table,
                plan.values_per_thread,
                options=shard_options,
                tracer=tracer,
                plan=factor_plan,
            )
    return corrected.reshape(rows, -1)[:, :n], None, None


def _solve_native(solver, work, owned, plan, factor_plan, shard_options, keep_partial, link):
    """One call of the JIT-compiled kernel over the unpadded stack.

    Raises :class:`~repro.core.errors.BackendError` /
    :class:`~repro.core.errors.CodegenError` when no kernel can be
    produced; the core decides whether that degrades or fails.
    """
    from repro.codegen.jit import NativeAttempt, solver_kernel

    tracer = solver.tracer
    kernel = solver_kernel(
        solver.recurrence.recursive_signature, plan, factor_plan.table, factor_plan
    )
    with tracer.span(
        "native_kernel",
        cat="solver",
        args={"n": work.shape[1], "digest": kernel.digest} if tracer.enabled else None,
        link=link(),
    ):
        out = kernel.batch(work)
    record = NativeAttempt(
        used=True, digest=kernel.digest, library_path=str(kernel.library_path)
    )
    return out, None, record


_BACKEND_RUNS = {
    "single": _solve_single,
    "process": _solve_process,
    "native": _solve_native,
}
"""Backend name -> the function that runs a prepared stack on it."""


def plr_solve(signature: str | Signature, values: np.ndarray) -> np.ndarray:
    """One-shot convenience: ``plr_solve("(1: 1)", x)`` -> prefix sum."""
    return PLRSolver(signature).solve(values)
