"""PLR itself, wrapped in the evaluation interface.

The executable path is :class:`~repro.plr.solver.PLRSolver`.  The
traffic model is derived mechanically from the same
:class:`~repro.plr.optimizer.FactorPlan` the code generators consume,
so Figure 10's "optimizations on/off" comparison toggles *one*
configuration object and everything — generated code, simulator, cost
model — moves together:

* per-correction costs depend on the factor realization (a folded
  constant needs no load; a 0/1 factor needs no multiply; a truncated
  list shrinks the correction counts themselves);
* factor loads hit the shared-memory buffer below index 1024 and the
  L2 beyond it (or always the L2 with buffering disabled);
* 64-register plans halve occupancy, throttling compute throughput —
  why higher-order integer sums are PLR's weakest class (Figures 4-5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import WORD_BYTES, RecurrenceCode, Workload
from repro.core.recurrence import Recurrence
from repro.gpusim.cost import Traffic
from repro.gpusim.l2cache import AccessStreamSummary
from repro.gpusim.spec import MachineSpec
from repro.plr.optimizer import (
    FactorRealization,
    OptimizationConfig,
    optimize_factors,
)
from repro.plr.phase1 import doubling_widths
from repro.plr.planner import plan_execution
from repro.plr.solver import PLRSolver, cached_factor_table

__all__ = ["PLRCode", "CorrectionCounts"]


@dataclass(frozen=True)
class CorrectionCounts:
    """How many corrections one chunk performs, and what they load.

    ``fma`` — corrections that multiply by a loaded/derived factor;
    ``truncated`` — multiply corrections guarded by the decay cutoff;
    ``predicated`` / ``predicated_mod`` — 0/1-factor conditional adds
    (no multiply), the latter paying a non-power-of-two modulo;
    ``constant`` — folded-constant corrections (no load);
    ``denormal`` — corrections multiplying denormal factors (only with
    flushing disabled), which hit the slow arithmetic path;
    ``shared_loads`` / ``l2_loads`` — where the factor values come from.
    """

    fma: float
    truncated: float
    predicated: float
    predicated_mod: float
    constant: float
    denormal: float
    shared_loads: float
    l2_loads: float

    @property
    def total(self) -> float:
        return (
            self.fma
            + self.truncated
            + self.predicated
            + self.predicated_mod
            + self.constant
        )


class PLRCode(RecurrenceCode):
    """The paper's system: auto-generated two-phase recurrence code."""

    name = "PLR"

    def __init__(self, optimization: OptimizationConfig | None = None) -> None:
        self.optimization = optimization or OptimizationConfig()

    def compute(self, values: np.ndarray, recurrence: Recurrence) -> np.ndarray:
        return PLRSolver(recurrence, optimization=self.optimization).solve(values)

    # ------------------------------------------------------------------
    def correction_counts(
        self, workload: Workload, machine: MachineSpec, plan=None
    ) -> CorrectionCounts:
        """Count one chunk's Phase 1 + Phase 2 correction work."""
        if plan is None:
            plan = plan_execution(workload.recurrence.signature, workload.n, machine)
        dtype = np.int32 if workload.is_integer else np.float32
        table = cached_factor_table(
            workload.recurrence.recursive_signature, plan.chunk_size, dtype
        )
        fplan = optimize_factors(table, self.optimization)
        m, x, k = plan.chunk_size, plan.values_per_thread, workload.order
        buffered = fplan.shared_buffer_elements
        active = fplan.phase1_active_elements

        fma = predicated = predicated_mod = constant = 0.0
        truncated = denormal = shared = l2 = 0.0

        def account(
            j: int, count_below: float, count_above: float, span: int
        ) -> None:
            """Add corrections for carry j split at the buffer boundary.

            ``span`` is how far past the border this batch of
            corrections reaches (the factor indices touched are
            0..span-1); it locates the denormal tail.
            """
            nonlocal fma, predicated, predicated_mod, constant
            nonlocal truncated, denormal, shared, l2
            decision = fplan.decisions[j]
            count = count_below + count_above
            real = decision.realization
            if real == FactorRealization.CONSTANT:
                constant += count
            elif real == FactorRealization.ZERO_ONE:
                if decision.period is not None:
                    # Periodic 0/1 pattern: the condition is an index
                    # computation, no factor load at all.  Non-power-
                    # of-two periods need a modulo ("PLR's performance
                    # advantage is higher on tuple sizes that are
                    # powers of two").
                    if decision.period & (decision.period - 1) == 0:
                        predicated += count
                    else:
                        predicated_mod += count
                else:
                    predicated += count
                    l2 += count
            elif real in (FactorRealization.PERIODIC, FactorRealization.SHIFT_OF_FIRST):
                # A short period stays resident in registers/shared.
                fma += count
                shared += count
            elif real == FactorRealization.TRUNCATED:
                # The surviving prefix (a few hundred factors for the
                # Table 1 filters) fits entirely in the shared buffer.
                truncated += count
                shared += count
            elif real == FactorRealization.BUFFERED_ARRAY:
                # General factor lists: every fetch consumes on-chip
                # bandwidth whether it hits the shared buffer or the
                # L2 — which is why the paper measures only ~3% gain
                # from buffering on the higher-order prefix sums.
                fma += count
                l2 += count
            else:  # GLOBAL_ARRAY: optimizations off — everything from L2
                fma += count
                l2 += count
                if not fplan.config.truncate_decayed:
                    # Without denormal flushing, corrections in the
                    # decayed tail multiply by denormal operands, which
                    # Maxwell executes on a slow path.
                    flushed = table.decay_index(j)
                    if flushed is not None and span > flushed:
                        denormal += count * (span - flushed) / span

        # Phase 1 doubling levels.
        for width in doubling_widths(x, m):
            pairs = m // (2 * width)
            limit = min(width, active)
            for j in range(min(k, width)):
                below = float(pairs) * min(limit, buffered)
                above = float(pairs) * max(0, limit - buffered)
                account(j, below, above, limit)
        # Phase 2 correction of the whole chunk (truncation shrinks it).
        p2_limit = active if active < m else m
        for j in range(k):
            account(
                j,
                float(min(p2_limit, buffered)),
                float(max(0, p2_limit - buffered)),
                p2_limit,
            )
        return CorrectionCounts(
            fma,
            truncated,
            predicated,
            predicated_mod,
            constant,
            denormal,
            shared,
            l2,
        )

    # Calibrated per-event instruction costs.  The absolute scale is
    # set jointly with CostModel.compute_efficiency against the paper's
    # anchors (PLR==memcpy on prefix sums and 1-stage filters, the
    # SAM/PLR higher-order gaps, the Figure 10 on/off ratios); the
    # *relative* values follow the instruction mix: a multiply-add with
    # its offset arithmetic, a cheaper predicated add, a pure constant
    # add, bounds-guard overhead on truncated rows, the Maxwell
    # denormal slow path, and load-port pressure per factor fetch.
    _OPS_FMA = 1.0
    _OPS_TRUNCATED = 3.4  # fma + decay-cutoff guard and warp-exit logic
    _OPS_PREDICATED = 1.2
    _OPS_PREDICATED_MOD = 2.2  # non-power-of-two period: modulo per index
    _OPS_CONSTANT = 1.0
    _OPS_DENORMAL = 10.0  # Maxwell's denormal-operand slow path
    _OPS_SHARED_LOAD = 0.4
    _OPS_L2_LOAD = 0.6
    _PIPELINE_FILL_HOPS = 16  # look-back chain warm-up at kernel start

    def traffic(self, workload: Workload, machine: MachineSpec, plan=None) -> Traffic:
        """Resource demands; ``plan`` overrides the default heuristics
        (used by the auto-tuner to score candidate x values)."""
        n, k = workload.n, workload.order
        if plan is None:
            plan = plan_execution(workload.recurrence.signature, n, machine)
        counts = self.correction_counts(workload, machine, plan=plan)
        chunks = plan.num_chunks
        per_chunk_ops = (
            counts.fma * self._OPS_FMA
            + counts.truncated * self._OPS_TRUNCATED
            + counts.predicated * self._OPS_PREDICATED
            + counts.predicated_mod * self._OPS_PREDICATED_MOD
            + counts.constant * self._OPS_CONSTANT
            + counts.denormal * self._OPS_DENORMAL
            + counts.shared_loads * self._OPS_SHARED_LOAD
            + counts.l2_loads * self._OPS_L2_LOAD
        )
        # Thread-local serial solve and the FIR map stage.
        p = workload.recurrence.signature.fir_order
        per_chunk_ops += plan.chunk_size * (min(plan.values_per_thread - 1, k))
        map_ops = float(n) * (p + 1) if workload.recurrence.has_map_stage else 0.0

        # 64-register plans fit one block per SM instead of two: half
        # the occupancy, half the realized op throughput.
        occupancy = plan.block_size * (
            machine.registers_per_sm
            // (plan.registers_per_thread * plan.block_size)
        ) / machine.max_threads_per_sm
        occupancy = max(min(occupancy, 1.0), 0.25)
        ops = (per_chunk_ops * chunks + map_ops) / occupancy

        carries_bytes = chunks * (2 * k * WORD_BYTES + 8) * 2.0  # r+w
        waves = -(-chunks // plan.resident_blocks)
        # Fewer chunks than resident-block slots leaves SMs idle; the
        # memory system cannot be saturated from a partial grid.  The
        # floor models bandwidth scaling linearly with occupancy up to
        # full residency (this is what makes oversized x lose on small
        # inputs and gives the auto-tuner a real trade-off).
        utilization = min(1.0, chunks / plan.resident_blocks)
        bandwidth_floor = (
            (float(workload.input_bytes) * 2.0)
            / (machine.peak_bandwidth_bytes * 0.834)
            / max(utilization, 1e-6)
        )
        return Traffic(
            # The FIR map stage over-fetches each thread range's left
            # neighbours (p extra words per thread boundary, partially
            # uncoalesced) — the source of the order-independent ~17%
            # high-pass vs low-pass gap in Figure 9.
            hbm_read_bytes=float(workload.input_bytes) * (1.0 + 0.5 * p),
            hbm_write_bytes=float(workload.input_bytes),
            l2_read_bytes=counts.l2_loads * WORD_BYTES * chunks
            + carries_bytes,
            fma_ops=0.0,
            aux_ops=ops,
            kernel_launches=2,  # counter reset + main kernel
            serial_hops=float(waves + self._PIPELINE_FILL_HOPS),
            min_time_s=bandwidth_floor,
        )

    def memory_usage_bytes(self, workload: Workload, machine: MachineSpec) -> int:
        # Table 2: "PLR between two and three more megabytes" — the
        # factor arrays in the module image, carries, and flags.
        plan = plan_execution(workload.recurrence.signature, workload.n, machine)
        dtype = np.int32 if workload.is_integer else np.float32
        table = cached_factor_table(
            workload.recurrence.recursive_signature, plan.chunk_size, dtype
        )
        fplan = optimize_factors(table, self.optimization)
        factors = fplan.stored_factor_words() * WORD_BYTES
        chunks = plan.num_chunks
        aux = chunks * (2 * workload.order * WORD_BYTES + 8)
        module_pad = 2 * 1024 * 1024
        return (
            machine.baseline_context_bytes
            + self._io_buffers_bytes(workload)
            + factors
            + aux
            + module_pad
        )

    def l2_read_miss_bytes(self, workload: Workload, machine: MachineSpec) -> int:
        # Table 3: cold input misses plus < 1 MB of factors and carries.
        summary = AccessStreamSummary(machine)
        summary.cold_pass(workload.input_bytes)
        plan = plan_execution(workload.recurrence.signature, workload.n, machine)
        summary.resident_structure(
            workload.order * plan.chunk_size * WORD_BYTES
        )
        summary.resident_structure(plan.num_chunks * 2 * workload.order * WORD_BYTES)
        return summary.total_read_miss_bytes
