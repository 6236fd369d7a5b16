"""One solve core: a single solve is a batch of one.

``PLRSolver``, ``BatchSolver``, ``solve_batch`` and the streaming
solvers all run the same ``(B, n)`` core, so their outputs agree byte
for byte — compared with ``tobytes``, never with a tolerance, so signed
zeros and the last float bit count too.  The native backend's rows are
pinned the same way by
``tests/test_native.py::TestFusedBatch::test_rows_match_single_solves``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.solver import BatchSolver
from repro.core.coefficients import table1_signatures
from repro.core.recurrence import Recurrence
from repro.plr.phase2 import propagate_carries, transition_matrix
from repro.plr.solver import PLRSolver, cached_factor_table

from tests.conftest import TABLE1_NAMES
from tests.test_phase1_groups import (
    DTYPES,
    assert_same_bytes,
    supported,
    sweep_lengths,
    sweep_values,
)


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_batch_rows_are_single_solves(name):
    """Row i of a B ∈ {1, 3} stack is ``PLRSolver`` on row i, same plan,
    over Table 1 × four dtypes × n ∈ {1, k−1, m−1, m, m+1, 3m+7}."""
    recurrence = Recurrence(table1_signatures()[name])
    single = PLRSolver(recurrence)
    batch = BatchSolver(recurrence)
    m = single.plan_for(1).chunk_size
    for dtype in DTYPES:
        if not supported(recurrence, dtype):
            continue
        for n in sweep_lengths(recurrence.order, m):
            plan = single.plan_for(n)
            for rows in (1, 3):
                stack = sweep_values(n, dtype, seed=n + rows, rows=rows)
                got = batch.solve(stack, plan=plan, dtype=dtype)
                assert got.shape == (rows, n)
                for i in range(rows):
                    want = single.solve(stack[i], plan=plan, dtype=dtype)
                    assert_same_bytes(
                        got[i], want, f"{name} {np.dtype(dtype).name} n={n} B={rows} row {i}"
                    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spine_rows_round_as_they_would_alone(dtype, rng):
    """Stacked rows, and a batch of one, walk each row's own spine."""
    table = cached_factor_table(table1_signatures()["order2_prefix_sum"], 1024, dtype)
    matrix = transition_matrix(table)
    stack = rng.standard_normal((3, 6, table.order)).astype(dtype)
    alone = np.stack([propagate_carries(row, matrix) for row in stack])
    assert_same_bytes(propagate_carries(stack, matrix), alone, "stacked spine")
    assert_same_bytes(propagate_carries(stack[:1], matrix), alone[:1], "batch of one")
