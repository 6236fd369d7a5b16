"""The host kernels realize the factor plan (Section 3.1).

With the default :class:`~repro.plr.optimizer.OptimizationConfig` the
numpy Phase 1 and Phase 2 read the optimizer's decisions: constant-1
factor lists are broadcast adds, periodic 0/1 lists strided adds,
decayed lists stop at their cutoff, and integer signatures that are
chains of strided prefix sums run Phase 1 as one prefix pass per
stride.  :meth:`OptimizationConfig.disabled` multiplies by every factor.
These tests pin the stride analysis, the realized terms, and that both
configs produce the same bytes through every numpy entry point.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.batch.solver import BatchSolver
from repro.core.coefficients import low_pass, table1_signatures
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_recurrence
from repro.core.signature import Signature
from repro.obs.tracer import Tracer
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import OptimizationConfig, optimize_factors, prefix_strides
from repro.plr.phase1 import phase1, prefix_stage
from repro.plr.phase2 import apply_global_correction, phase2
from repro.plr.solver import PLRSolver, cached_factor_table

from tests.conftest import TABLE1_NAMES
from tests.test_phase1_groups import (
    DTYPES,
    assert_same_bytes,
    supported,
    sweep_lengths,
    sweep_values,
)

PLAIN = OptimizationConfig.disabled()


def padded_input(values: np.ndarray, m: int) -> np.ndarray:
    padded = np.zeros(-(-values.size // m) * m, dtype=values.dtype)
    padded[: values.size] = values
    return padded


def local_reference(padded: np.ndarray, m: int, feedback) -> np.ndarray:
    """Every chunk solved serially on its own: Phase 1's definition."""
    chunks = padded.reshape(-1, m)
    return np.stack([serial_recurrence(chunk, list(feedback)) for chunk in chunks])


class TestPrefixStrides:
    @pytest.mark.parametrize(
        "text, strides",
        [
            ("(1: 1)", (1,)),
            ("(1: 0, 1)", (2,)),
            ("(1: 0, 0, 1)", (3,)),
            ("(1: 2, -1)", (1, 1)),
            ("(1: 3, -3, 1)", (1, 1, 1)),
            ("(1: 1, 1, -1)", (2, 1)),
            ("(1: 1, 1)", None),
            ("(1: -1)", None),
            ("(1: 2)", None),
            ("(1: 0.5)", None),
            ("(1: 1.5, -0.5)", None),
        ],
    )
    def test_detection(self, text, strides):
        assert prefix_strides(Signature.parse(text).feedback) == strides

    def test_integral_floats_count_as_integers(self):
        assert prefix_strides((2.0, -1.0)) == (1, 1)

    def test_plan_carries_strides_for_integer_tables_only(self):
        sig = Signature.parse("(1: 2, -1)")
        ints = CorrectionFactorTable.build(sig, 64, np.int32)
        floats = CorrectionFactorTable.build(sig, 64, np.float32)
        assert optimize_factors(ints).prefix_strides == (1, 1)
        assert optimize_factors(floats).prefix_strides is None
        assert optimize_factors(ints, PLAIN).prefix_strides is None


class TestMergeTerms:
    def test_constant_one_is_an_unscaled_add(self):
        table = CorrectionFactorTable.build(Signature.parse("(1: 1)"), 64, np.float32)
        (term,) = optimize_factors(table).merge_terms(8)
        assert (term.carry, term.start, term.stop, term.step, term.scale) == (0, 0, None, 1, None)

    def test_periodic_zero_one_is_strided_adds(self):
        table = CorrectionFactorTable.build(Signature.parse("(1: 0, 1)"), 64, np.int32)
        terms = optimize_factors(table).merge_terms(8)
        # Carry 0 (w[-1]) feeds the odd offsets, carry 1 (w[-2]) the even.
        assert [(t.carry, t.start, t.stop, t.step, t.scale) for t in terms] == [
            (0, 1, None, 2, None),
            (1, 0, None, 2, None),
        ]

    def test_truncated_row_stops_at_its_cutoff(self):
        table = CorrectionFactorTable.build(low_pass(1).recursive_part(), 9216, np.float32)
        plan = optimize_factors(table)
        cutoff = plan.decisions[0].cutoff
        assert 0 < cutoff < 9216
        (wide,) = plan.merge_terms(4608)
        (narrow,) = plan.merge_terms(64)
        assert wide.stop == wide.scale.size == cutoff
        assert narrow.stop is None and narrow.scale.size == 64

    def test_term_suppression(self):
        table = CorrectionFactorTable.build(Signature.parse("(1: 1, 1, 1)"), 16, np.int64)
        assert [t.carry for t in optimize_factors(table).merge_terms(1)] == [0]
        assert [t.carry for t in optimize_factors(table).merge_terms(2)] == [0, 1]

    def test_disabled_multiplies_by_every_full_row(self):
        table = CorrectionFactorTable.build(Signature.parse("(1: 1)"), 64, np.int32)
        (term,) = optimize_factors(table, PLAIN).merge_terms(16)
        assert term.stop is None and term.step == 1
        np.testing.assert_array_equal(term.scale, table.factors[0, :16])

    def test_terms_are_memoized_per_width_and_not_pickled(self):
        table = CorrectionFactorTable.build(Signature.parse("(1: 2, -1)"), 64, np.int32)
        plan = optimize_factors(table)
        assert plan.merge_terms(32) is plan.merge_terms(32)
        assert pickle.loads(pickle.dumps(plan))._terms == {}


class TestPrefixStages:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("text", ["(1: 1)", "(1: 0, 1)", "(1: 2, -1)", "(1: 3, -3, 1)"])
    def test_wraparound_mid_chunk(self, text, dtype, rng):
        # Inputs near the dtype max overflow within the first few
        # elements of every chunk; ring arithmetic keeps the stages exact.
        sig = Signature.parse(text)
        m = 64
        top = np.iinfo(dtype).max
        values = (top - rng.integers(0, 1000, 5 * m)).astype(dtype)
        table = CorrectionFactorTable.build(sig, m, dtype)
        padded = padded_input(values, m)
        with np.errstate(over="ignore"):
            staged = phase1(padded, table, 1)
            plain = phase1(padded, table, 1, plan=optimize_factors(table, PLAIN))
            want = local_reference(padded, m, sig.feedback)
        assert_same_bytes(staged, plain, f"{text} stages vs merges")
        assert_same_bytes(staged, want, f"{text} stages vs serial")

    @pytest.mark.parametrize("text", ["(1: 0, 0, 1)", "(1: 0, 0, 0, 0, 0, 1)"])
    def test_stride_not_dividing_m(self, text, rng):
        # 1024 = 3 * 341 + 1 = 6 * 170 + 4: a ragged tail in every chunk.
        sig = Signature.parse(text)
        m = 1024
        table = CorrectionFactorTable.build(sig, m, np.int64)
        padded = padded_input(rng.integers(-50, 50, 3 * m).astype(np.int64), m)
        staged = phase1(padded, table, 1)
        assert_same_bytes(staged, local_reference(padded, m, sig.feedback), text)

    def test_stride_wider_than_chunk_leaves_it_unchanged(self, rng):
        work = rng.integers(-9, 9, (3, 4)).astype(np.int32)
        want = work.copy()
        prefix_stage(work, 5)
        assert_same_bytes(work, want, "stride 5 on m = 4")

    def test_float_dtype_keeps_the_merges(self):
        tracer = Tracer()
        PLRSolver("(1: 2, -1)", tracer=tracer).solve(np.ones(5000, np.float32))
        names = {e.name for e in tracer.events}
        assert "merge_level" in names and "prefix_stage" not in names


class TestGlobalCorrection:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("text", ["(1: 1)", "(1: 0, 1)", "(1: 2, -1)", "(1: 1.5, -0.6)"])
    def test_base_corrects_chunk_zero(self, text, dtype, rng):
        # ``base`` (the process backend's slab entry carries) corrects
        # chunk 0 too; it equals correcting one chunk more with the
        # base as that chunk's carries.
        sig = Signature.parse(text)
        if not supported(Recurrence(sig), dtype):
            pytest.skip("fractional coefficients in integer arithmetic")
        m, k = 16, sig.order
        table = CorrectionFactorTable.build(sig, m, dtype)
        partial = sweep_values(5 * m, dtype, seed=3).reshape(5, m)
        carries = sweep_values(5 * k, dtype, seed=4).reshape(5, k)
        plan = optimize_factors(table)
        got = apply_global_correction(partial[1:], carries[1:], plan, base=carries[0])
        want = apply_global_correction(partial, carries, plan)[1:]
        assert_same_bytes(got, want, text)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", TABLE1_NAMES)
class TestDefaultEqualsDisabled:
    """Table 1 × dtype × n edges: the realized plan changes no byte."""

    def test_solvers_bytes(self, name, dtype):
        recurrence = Recurrence(table1_signatures()[name])
        if not supported(recurrence, dtype):
            pytest.skip("fractional coefficients in integer arithmetic")
        solvers = {
            config: {
                "single": PLRSolver(recurrence, optimization=config),
                "process": PLRSolver(
                    recurrence, optimization=config, backend="process", workers=2
                ),
            }
            for config in (OptimizationConfig(), PLAIN)
        }
        m = solvers[PLAIN]["single"].plan_for(1).chunk_size
        for n in sweep_lengths(recurrence.order, m):
            row = sweep_values(n, dtype, seed=n)
            for backend in ("single", "process"):
                got = solvers[OptimizationConfig()][backend].solve(row, dtype=dtype)
                want = solvers[PLAIN][backend].solve(row, dtype=dtype)
                assert_same_bytes(got, want, f"{backend} n={n}")
            batch = BatchSolver(recurrence, backend="single")
            for b in (1, 3):
                stack = sweep_values(n, dtype, seed=n + b, rows=b)
                want = plain_batch(batch, stack, dtype)
                assert_same_bytes(batch.solve(stack, dtype=dtype), want, f"batch B={b} n={n}")


def plain_batch(batch: BatchSolver, stack: np.ndarray, dtype) -> np.ndarray:
    """``batch.solve(stack)`` composed from the batched phase kernels
    under the plain merges (BatchSolver itself runs the default plan)."""
    recurrence = batch.recurrence
    rows, n = stack.shape
    work = stack.astype(dtype)
    if recurrence.has_map_stage:
        work = recurrence.apply_map_stage(work)
    plan = batch.plan_for(n)
    padded = np.zeros((rows, plan.padded_n), dtype=dtype)
    padded[:, :n] = work
    table = cached_factor_table(recurrence.recursive_signature, plan.chunk_size, dtype)
    factor_plan = optimize_factors(table, PLAIN)
    partial = phase1(padded, table, plan.values_per_thread, plan=factor_plan)
    corrected = phase2(partial, table, out=partial, plan=factor_plan)
    return corrected.reshape(rows, -1)[:, :n]


class TestSkippedZeroFactors:
    """Past a truncation cutoff the realized plan skips ``0 * carry``.

    ``(1: 0.8)`` (``low_pass(1)`` without its map stage, which would
    turn a -0.0 input into +0.0) in float32 has m = 1024 and its factor
    list decays to 0 at offset 391, so Phase 1's widest merge (width
    512) and every Phase 2 correction stop there.  The plain merges
    still add the ``0 * carry`` products.
    """

    M = 1024

    def solve_both(self, values):
        recurrence = low_pass(1).recursive_part()
        default = PLRSolver(recurrence)
        plain = PLRSolver(recurrence, optimization=PLAIN)
        plan = default.plan_for(values.size)
        table = default.factor_table(plan, values.dtype)
        assert plan.chunk_size == self.M
        cutoff = optimize_factors(table).decisions[0].cutoff
        assert 0 < cutoff < self.M // 2
        return default.solve(values), plain.solve(values), cutoff

    def test_signed_zero_past_a_skipped_factor(self):
        m, half = self.M, self.M // 2
        # Chunk 0: ones then -0.0 (the width-512 merge's second half);
        # chunk 1: ones (a positive carry); chunk 2: -0.0 (Phase 2).
        values = np.concatenate(
            [np.ones(half), np.full(half, -0.0), np.ones(m), np.full(m, -0.0)]
        ).astype(np.float32)
        default, plain, cutoff = self.solve_both(values)
        np.testing.assert_array_equal(default, plain)
        differs = np.flatnonzero(np.signbit(default) != np.signbit(plain))
        skipped = np.r_[half + cutoff : m, 2 * m + cutoff : 3 * m]
        np.testing.assert_array_equal(differs, skipped)
        assert np.signbit(default[skipped]).all()
        assert not np.signbit(plain[skipped]).any()

    def test_non_finite_carry_stays_out_of_skipped_offsets(self):
        m = self.M
        values = np.ones(2 * m, dtype=np.float32)
        values[m - 1] = np.inf  # chunk 0's carry into chunk 1
        with np.errstate(invalid="ignore"):
            default, plain, cutoff = self.solve_both(values)
        skipped = np.arange(m + cutoff, 2 * m)
        assert np.isnan(plain[skipped]).all()
        assert np.isfinite(default[skipped]).all()
        kept = np.setdiff1d(np.arange(2 * m), skipped)
        np.testing.assert_array_equal(default[kept], plain[kept])
