"""The compiler's intermediate representation.

A :class:`KernelIR` is everything an emitter needs to generate code for
one recurrence at one plan point: the signature split into its map and
recursive stages, the execution-plan constants (m, x, block size,
pipeline depth), the correction-factor table, and the optimizer's
per-carry realization decisions.  Emitters (CUDA, C, Python) are pure
functions of the IR, which is what makes "the same optimization plan
everywhere" checkable: tests build one IR and assert all backends agree
with the serial reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CodegenError
from repro.core.recurrence import Recurrence
from repro.gpusim.spec import MachineSpec
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import (
    FactorPlan,
    OptimizationConfig,
    optimize_factors,
)
from repro.plr.planner import ExecutionPlan, plan_execution
from repro.plr.solver import cached_factor_table

__all__ = ["KernelIR", "build_ir"]

_C_TYPES = {np.dtype(np.int32): "int", np.dtype(np.float32): "float",
            np.dtype(np.int64): "long long", np.dtype(np.float64): "double"}


@dataclass(frozen=True)
class KernelIR:
    """Backend-independent description of one generated recurrence kernel."""

    recurrence: Recurrence
    plan: ExecutionPlan
    table: CorrectionFactorTable
    factor_plan: FactorPlan
    dtype: np.dtype

    @property
    def order(self) -> int:
        return self.recurrence.order

    @property
    def chunk_size(self) -> int:
        return self.plan.chunk_size

    @property
    def c_type(self) -> str:
        """The element type spelled in C/CUDA."""
        try:
            return _C_TYPES[self.dtype]
        except KeyError:
            raise CodegenError(f"no C type mapping for dtype {self.dtype}") from None

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.dtype, np.integer)

    def feedforward_literals(self) -> list[str]:
        return [self.literal(a) for a in self.recurrence.signature.feedforward]

    def feedback_literals(self) -> list[str]:
        return [self.literal(b) for b in self.recurrence.signature.feedback]

    def literal(self, value) -> str:
        """Spell one coefficient as a C/CUDA literal of the right type."""
        if self.is_integer:
            return str(int(value))
        v = float(value)
        if self.dtype == np.float32:
            # Shortest decimal that round-trips in float32 ("0.8f",
            # not "0.800000011920929f").
            text = np.format_float_positional(
                np.float32(v), unique=True, trim="0"
            )
            if text.endswith("."):
                text += "0"
            return f"{text}f"
        return repr(v)

    def factor_row_literals(self, carry_index: int, count: int | None = None) -> list[str]:
        """The stored factor values for one carry, as source literals."""
        row = self.table.factors[carry_index]
        if count is not None:
            row = row[:count]
        return [self.literal(v) for v in row]


def build_ir(
    recurrence: Recurrence,
    n: int,
    machine: MachineSpec | None = None,
    optimization: OptimizationConfig | None = None,
    dtype: np.dtype | type | None = None,
    plan: ExecutionPlan | None = None,
) -> KernelIR:
    """Plan, build factors, optimize — the front half of the compiler."""
    machine = machine or MachineSpec.titan_x()
    if plan is None:
        plan = plan_execution(recurrence.signature, n, machine)
    if dtype is None:
        # The paper evaluates 32-bit words throughout (Section 5).
        dtype = np.int32 if recurrence.is_integer else np.float32
    dtype = np.dtype(dtype)
    table = cached_factor_table(
        recurrence.recursive_signature, plan.chunk_size, dtype
    )
    factor_plan = optimize_factors(table, optimization)
    return KernelIR(
        recurrence=recurrence,
        plan=plan,
        table=table,
        factor_plan=factor_plan,
        dtype=dtype,
    )
