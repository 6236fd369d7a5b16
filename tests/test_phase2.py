"""Phase 2: carry propagation, look-back algebra, final correction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nnacci import carry_transition_matrix
from repro.core.reference import serial_recurrence
from repro.core.signature import Signature
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import optimize_factors
from repro.plr.phase1 import phase1
from repro.plr.phase2 import (
    apply_global_correction,
    local_carries,
    lookback_combine,
    phase2,
    propagate_carries,
    transition_matrix,
)


def pipeline(text: str, values: np.ndarray, m: int) -> np.ndarray:
    sig = Signature.parse(text)
    table = CorrectionFactorTable.build(sig, m, values.dtype)
    chunks = -(-values.size // m)
    padded = np.zeros(chunks * m, dtype=values.dtype)
    padded[: values.size] = values
    partial = phase1(padded, table, 1)
    return phase2(partial, table).reshape(-1)[: values.size]


PAPER_INPUT = np.array(
    [3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16, 17, -18, 19, -20, 21, -22],
    dtype=np.int32,
)


class TestPaperExample:
    def test_final_result(self):
        out = pipeline("(1: 2, -1)", PAPER_INPUT, 8)
        expected = [3, 2, 6, 4, 9, 6, 12, 8, 15, 10, 18, 12, 21, 14, 24, 16, 27, 18, 30, 20]
        np.testing.assert_array_equal(out, expected)

    def test_phase2_carry_hop_from_paper(self):
        # "the global carries of the third chunk are 24 and 16, based on
        # the global carries from the first chunk (12 and 8) and the
        # local carries from the second chunk (44 and 40)".
        sig = Signature.parse("(1: 2, -1)")
        table = CorrectionFactorTable.build(sig, 8, np.int32)
        matrix = transition_matrix(table)
        base_global = np.array([8, 12], dtype=np.int32)  # [w7, w6] of chunk 1
        chunk2_local = np.array([40, 44], dtype=np.int32)
        out = lookback_combine(base_global, [chunk2_local], matrix)
        np.testing.assert_array_equal(out, [16, 24])


class TestTransitionMatrix:
    @pytest.mark.parametrize("text,m", [("(1: 1)", 4), ("(1: 2, -1)", 8), ("(1: 1, 1, 1)", 16)])
    def test_matches_first_principles(self, text, m):
        sig = Signature.parse(text)
        table = CorrectionFactorTable.build(sig, m, np.int64)
        from_table = transition_matrix(table)
        from_scratch = carry_transition_matrix(sig, m)
        np.testing.assert_array_equal(from_table, np.array(from_scratch))

    def test_dtype_follows_table(self):
        table = CorrectionFactorTable.build(Signature.parse("(1: 0.5)"), 8, np.float32)
        assert transition_matrix(table).dtype == np.float32


class TestLocalCarries:
    def test_extraction_order(self):
        partial = np.arange(24).reshape(2, 12)
        carries = local_carries(partial, 3)
        # most recent first: positions 11, 10, 9 of each chunk
        np.testing.assert_array_equal(carries[0], [11, 10, 9])
        np.testing.assert_array_equal(carries[1], [23, 22, 21])

    def test_order_equals_chunk_size(self):
        partial = np.arange(8).reshape(2, 4)
        carries = local_carries(partial, 4)
        np.testing.assert_array_equal(carries[0], [3, 2, 1, 0])

    def test_order_too_large(self):
        with pytest.raises(ValueError):
            local_carries(np.zeros((2, 4)), 5)


class TestPropagation:
    def test_first_chunk_passthrough(self):
        locals_ = np.array([[5, 7], [1, 1]], dtype=np.int64)
        matrix = np.zeros((2, 2), dtype=np.int64)
        out = propagate_carries(locals_, matrix)
        np.testing.assert_array_equal(out[0], [5, 7])
        np.testing.assert_array_equal(out[1], [1, 1])

    def test_affine_chain(self):
        locals_ = np.array([[1], [1], [1]], dtype=np.int64)
        matrix = np.array([[2]], dtype=np.int64)
        out = propagate_carries(locals_, matrix)
        np.testing.assert_array_equal(out.reshape(-1), [1, 3, 7])

    def test_empty(self):
        out = propagate_carries(np.zeros((0, 2), dtype=np.int64), np.eye(2, dtype=np.int64))
        assert out.shape == (0, 2)


class TestLookbackEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        chunks=st.integers(2, 12),
        distance=st.integers(1, 11),
        seed=st.integers(0, 999),
    )
    def test_hopping_equals_sequential(self, chunks, distance, seed):
        """Combining over any look-back distance equals the serial spine.

        This is the correctness core of the pipelined Phase 2: the
        global carries of chunk c computed from *any* earlier base
        chunk plus intervening locals must equal the sequentially
        propagated value.
        """
        distance = min(distance, chunks - 1)
        gen = np.random.default_rng(seed)
        sig = Signature.parse("(1: 2, -1)")
        table = CorrectionFactorTable.build(sig, 8, np.int64)
        matrix = transition_matrix(table)
        locals_ = gen.integers(-9, 9, (chunks, 2)).astype(np.int64)
        sequential = propagate_carries(locals_, matrix)
        target = chunks - 1
        base = target - distance
        hopped = lookback_combine(
            sequential[base], list(locals_[base + 1 : target + 1]), matrix
        )
        np.testing.assert_array_equal(hopped, sequential[target])

    def test_zero_hops_is_identity_plus_local(self):
        matrix = np.array([[3]], dtype=np.int64)
        out = lookback_combine(np.array([5], dtype=np.int64), [], matrix)
        np.testing.assert_array_equal(out, [5])


class TestEndToEnd:
    @pytest.mark.parametrize(
        "text", ["(1: 1)", "(1: 2, -1)", "(1: 0, 1)", "(1: 3, -3, 1)", "(1: 1, 1)"]
    )
    def test_matches_serial(self, text, rng):
        values = rng.integers(-30, 30, 200).astype(np.int64)
        out = pipeline(text, values, 16)
        sig = Signature.parse(text)
        np.testing.assert_array_equal(out, serial_recurrence(values, list(sig.feedback)))

    def test_single_chunk_input(self, rng):
        values = rng.integers(-9, 9, 8).astype(np.int32)
        out = pipeline("(1: 1)", values, 8)
        np.testing.assert_array_equal(out, np.cumsum(values, dtype=np.int32))

    def test_float_within_tolerance(self, rng):
        values = rng.standard_normal(300).astype(np.float32)
        out = pipeline("(1: 0.8)", values, 32)
        expected = serial_recurrence(values, [0.8])
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_apply_global_correction_leaves_chunk0(self, rng):
        sig = Signature.parse("(1: 1)")
        table = CorrectionFactorTable.build(sig, 4, np.int64)
        partial = rng.integers(0, 9, (3, 4)).astype(np.int64)
        carries = propagate_carries(local_carries(partial, 1), transition_matrix(table))
        out = apply_global_correction(partial, carries, optimize_factors(table))
        np.testing.assert_array_equal(out[0], partial[0])
