"""Cache-blocked Phase 1: grouping chunk rows never changes a byte.

:func:`repro.plr.phase1.phase1_inplace` runs the thread-local solve and
every merge level on one L2-sized group of chunk rows before the next.
Chunk rows are independent, so the grouping must be invisible in the
output.  These tests shrink the block budget until groups hold 1, 2 or
3 rows (a ragged last group included) and compare every numpy entry
point byte for byte against one ungrouped sweep.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.batch.solver import BatchSolver
from repro.core.coefficients import table1_signatures
from repro.core.recurrence import Recurrence
from repro.core.signature import Signature
from repro.obs.tracer import Tracer
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import OptimizationConfig, optimize_factors
from repro.plr.phase1 import doubling_widths, phase1
from repro.plr.phase2 import add_carry_products
from repro.plr.solver import PLRSolver, cached_factor_table

from tests.conftest import TABLE1_NAMES

GROUP_ROWS = (1, 2, 3)
DTYPES = (np.int32, np.int64, np.float32, np.float64)
UNGROUPED = 1 << 62

# `repro.plr.phase1` the attribute is the function re-exported by the
# package; the module itself holds the block budget.
phase1_module = importlib.import_module("repro.plr.phase1")


def force_group_rows(monkeypatch, rows: int | None, m: int, dtype) -> None:
    """Shrink the block budget so Phase 1 groups hold ``rows`` chunks.

    ``rows=None`` lifts the budget instead: one group, ungrouped.
    """
    budget = UNGROUPED if rows is None else rows * m * np.dtype(dtype).itemsize
    monkeypatch.setattr(phase1_module, "_CACHE_BLOCK_BYTES", budget)


def sweep_lengths(order: int, m: int) -> list[int]:
    """n ∈ {1, k−1, m−1, m, m+1, 3m+7}, dropping the empty k−1 = 0."""
    return sorted({n for n in (1, order - 1, m - 1, m, m + 1, 3 * m + 7) if n >= 1})


def sweep_values(n: int, dtype, seed: int, rows: int | None = None) -> np.ndarray:
    generator = np.random.default_rng(seed)
    shape = n if rows is None else (rows, n)
    if np.issubdtype(dtype, np.integer):
        return generator.integers(-100, 100, size=shape).astype(dtype)
    return generator.standard_normal(shape).astype(dtype)


def supported(recurrence: Recurrence, dtype) -> bool:
    """Fractional coefficients cannot run in integer arithmetic."""
    return recurrence.is_integer or not np.issubdtype(dtype, np.integer)


def assert_same_bytes(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: grouped output drifted"


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", TABLE1_NAMES)
class TestGroupedEquivalence:
    """Table 1 × dtype × n-edge sweep, groups of 1, 2 and 3 rows."""

    def test_phase1_bytes(self, name, dtype, monkeypatch):
        recurrence = Recurrence(table1_signatures()[name])
        if not supported(recurrence, dtype):
            pytest.skip("fractional coefficients in integer arithmetic")
        solver = PLRSolver(recurrence)
        for n in sweep_lengths(recurrence.order, solver.plan_for(1).chunk_size):
            plan = solver.plan_for(n)
            m = plan.chunk_size
            table = cached_factor_table(recurrence.recursive_signature, m, np.dtype(dtype))
            padded = np.zeros(plan.padded_n, dtype=dtype)
            padded[:n] = sweep_values(n, dtype, seed=n)
            force_group_rows(monkeypatch, None, m, dtype)
            want = phase1(padded, table, plan.values_per_thread)
            for rows in GROUP_ROWS:
                force_group_rows(monkeypatch, rows, m, dtype)
                got = phase1(padded, table, plan.values_per_thread)
                assert_same_bytes(got, want, f"phase1 n={n} rows={rows}")

    def test_solvers_bytes(self, name, dtype, monkeypatch):
        recurrence = Recurrence(table1_signatures()[name])
        if not supported(recurrence, dtype):
            pytest.skip("fractional coefficients in integer arithmetic")
        single = PLRSolver(recurrence, backend="single")
        batch = BatchSolver(recurrence, backend="single")
        m = single.plan_for(1).chunk_size
        for n in sweep_lengths(recurrence.order, m):
            row = sweep_values(n, dtype, seed=n)
            stacks = {b: sweep_values(n, dtype, seed=n + b, rows=b) for b in (1, 3)}
            force_group_rows(monkeypatch, None, m, dtype)
            want_row = single.solve(row, dtype=dtype)
            want_stacks = {b: batch.solve(s, dtype=dtype) for b, s in stacks.items()}
            for rows in GROUP_ROWS:
                force_group_rows(monkeypatch, rows, m, dtype)
                assert_same_bytes(
                    single.solve(row, dtype=dtype), want_row, f"single n={n} rows={rows}"
                )
                for b, stack in stacks.items():
                    assert_same_bytes(
                        batch.solve(stack, dtype=dtype),
                        want_stacks[b],
                        f"batch B={b} n={n} rows={rows}",
                    )


def nested(inner, outer) -> bool:
    return outer.ts <= inner.ts and inner.ts + inner.dur <= outer.ts + outer.dur


class TestGroupedOddShapes:
    def test_thread_local_groups_ragged(self, monkeypatch, rng):
        # x = 3 exercises the thread-local solve inside each group; 7
        # chunks leave a ragged last group for every forced size.  The
        # plain merges run it; the default plan runs the integer
        # (1: 2, -1) as two stride-1 prefix stages per group instead.
        sig = Signature.parse("(1: 2, -1)")
        m, x = 12, 3
        table = CorrectionFactorTable.build(sig, m, np.int64)
        padded = rng.integers(-50, 50, 7 * m).astype(np.int64)
        force_group_rows(monkeypatch, None, m, np.int64)
        want = phase1(padded, table, x)
        plain = optimize_factors(table, OptimizationConfig.disabled())
        assert_same_bytes(phase1(padded, table, x, plan=plain), want, "plain vs default")
        for rows in GROUP_ROWS + (4, 6, 7, 8):
            force_group_rows(monkeypatch, rows, m, np.int64)
            for plan, stage, per_block in ((plain, "thread_local_solve", 1), (None, "prefix_stage", 2)):
                tracer = Tracer()
                got = phase1(padded, table, x, tracer=tracer, plan=plan)
                assert_same_bytes(got, want, f"rows={rows} {stage}")
                blocks = [e for e in tracer.events if e.name == "phase1_block"]
                stages = [e for e in tracer.events if e.name == stage]
                assert len(blocks) == -(-7 // rows)
                assert len(stages) == per_block * len(blocks)
                for i, event in enumerate(stages):
                    assert nested(event, blocks[i // per_block])

    def test_default_budget_is_one_mebibyte_of_chunks(self):
        # 1 MiB groups: 23 rows at m = 11264 int32, 28 at m = 9216 float32.
        assert phase1_module._block_rows(11264 * 4) == 23
        assert phase1_module._block_rows(9216 * 4) == 28
        assert phase1_module._block_rows(1 << 30) == 1


class TestCorrectionBlocks:
    def test_float_correction_ignores_budget(self, monkeypatch, rng):
        # Phase 2 reads the same budget.  A one-row block would take
        # BLAS's matrix-vector path and round a float k > 1 sum
        # differently, so no budget may leave one (a lone tail row
        # joins the block before it).
        factors = rng.standard_normal((3, 64))
        prev = rng.standard_normal((7, 3))
        base = rng.standard_normal((7, 64))
        force_group_rows(monkeypatch, None, 64, np.float64)
        want = base.copy()
        add_carry_products(want, prev, factors)
        for rows in range(1, 8):
            force_group_rows(monkeypatch, rows, 64, np.float64)
            got = base.copy()
            add_carry_products(got, prev, factors)
            assert_same_bytes(got, want, f"rows={rows}")


class TestGroupedTrace:
    """Traced grouped runs nest the level spans under ``phase1_block``."""

    N_CHUNKS = 5

    def _run(self, tracer, config=None):
        solver = PLRSolver("(1: 2, -1)", tracer=tracer, optimization=config)
        n = self.N_CHUNKS * solver.plan_for(1).chunk_size - 3
        values = sweep_values(n, np.int32, seed=11)
        return solver, solver.solve(values)

    def test_block_spans_wrap_every_level(self, monkeypatch):
        # The plain merges emit one span per level; the default plan
        # runs this integer sum as prefix stages, one span per stride.
        plain = OptimizationConfig.disabled()
        plan_m = PLRSolver("(1: 2, -1)").plan_for(1).chunk_size
        force_group_rows(monkeypatch, None, plan_m, np.int32)
        ungrouped = Tracer()
        solver, want = self._run(ungrouped, plain)

        force_group_rows(monkeypatch, 2, plan_m, np.int32)
        grouped = Tracer()
        _, got = self._run(grouped, plain)
        untraced = self._run(None, plain)[1]
        staged = Tracer()
        _, default = self._run(staged)
        assert_same_bytes(got, want, "traced grouped vs ungrouped")
        assert_same_bytes(untraced, got, "tracer on vs off")
        assert_same_bytes(default, got, "prefix stages vs merges")

        blocks = [e for e in grouped.events if e.name == "phase1_block"]
        assert [(b.args["first_chunk"], b.args["rows"]) for b in blocks] == [
            (0, 2), (2, 2), (4, 1)
        ]
        levels = [e for e in grouped.events if e.name == "merge_level"]
        for event in levels:
            assert any(
                nested(event, b) for b in blocks
            ), "merge_level span outside every phase1_block"

        staged_blocks = [e for e in staged.events if e.name == "phase1_block"]
        assert [(b.args["first_chunk"], b.args["rows"]) for b in staged_blocks] == [
            (0, 2), (2, 2), (4, 1)
        ]
        stages = [e for e in staged.events if e.name == "prefix_stage"]
        assert [e.args["stride"] for e in stages] == [1, 1] * len(staged_blocks)
        assert not [e for e in staged.events if e.name == "merge_level"]
        for i, event in enumerate(stages):
            assert nested(event, staged_blocks[i // 2])

        plan = solver.plan_for(self.N_CHUNKS * plan_m - 3)
        widths = doubling_widths(plan.values_per_thread, plan.chunk_size)
        assert {e.args["width"] for e in levels} == set(widths)

        def pairs_by_width(events):
            totals: dict[int, int] = {}
            for e in events:
                if e.name == "merge_level":
                    totals[e.args["width"]] = totals.get(e.args["width"], 0) + e.args["pairs"]
            return totals

        assert pairs_by_width(grouped.events) == pairs_by_width(ungrouped.events)
        assert len([e for e in ungrouped.events if e.name == "phase1_block"]) == 1


class TestCallerArrayUntouched:
    def test_solve_without_private_buffer_leaves_input(self):
        # n = 1024 int32 (1: 1): no padding, no cast, no map stage, so
        # the solver holds the caller's own array and must not run
        # Phase 1 in place on it.
        values = np.arange(1024, dtype=np.int32)
        solver = PLRSolver("(1: 1)", backend="single")
        assert solver.plan_for(values.size).padded_n == values.size
        snapshot = values.copy()
        out = solver.solve(values)
        np.testing.assert_array_equal(values, snapshot)
        np.testing.assert_array_equal(out, np.cumsum(snapshot, dtype=np.int32))
