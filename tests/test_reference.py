"""The serial reference, cross-checked against scipy's lfilter.

scipy.signal.lfilter computes exactly the paper's recursion equation
(1) with the coefficient convention a = [1, -b1, ..., -bk]; it is an
independent implementation, so agreement here validates our oracle
before the oracle validates everything else.
"""

import importlib

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.core.coefficients import table1_signatures
from repro.core.reference import fir_map, resolve_dtype, serial_full, serial_recurrence
from repro.core.signature import Signature


def lfilter_oracle(values: np.ndarray, signature: Signature) -> np.ndarray:
    b = [float(a) for a in signature.feedforward]
    a = [1.0] + [-float(c) for c in signature.feedback]
    return sp_signal.lfilter(b, a, values.astype(np.float64))


@pytest.mark.parametrize("name", list(table1_signatures()))
def test_serial_matches_scipy(name, rng):
    signature = table1_signatures()[name]
    values = rng.standard_normal(2000)
    ours = serial_full(values, signature, dtype=np.float64)
    theirs = lfilter_oracle(values, signature)
    np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-9)


def test_prefix_sum_is_cumsum(rng):
    values = rng.integers(-50, 50, 1000).astype(np.int32)
    out = serial_full(values, Signature.prefix_sum())
    np.testing.assert_array_equal(out, np.cumsum(values, dtype=np.int32))


def test_double_prefix_sum(rng):
    values = rng.integers(-10, 10, 500).astype(np.int64)
    out = serial_full(values, Signature.higher_order_prefix_sum(2), dtype=np.int64)
    expected = np.cumsum(np.cumsum(values))
    np.testing.assert_array_equal(out, expected)


def test_tuple_prefix_sum_interleaves(rng):
    values = rng.integers(-10, 10, 999).astype(np.int32)
    out = serial_full(values, Signature.tuple_prefix_sum(3))
    for lane in range(3):
        np.testing.assert_array_equal(
            out[lane::3], np.cumsum(values[lane::3], dtype=np.int32)
        )


def test_paper_worked_example():
    values = np.array(
        [3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16, 17, -18, 19, -20, 21, -22],
        dtype=np.int32,
    )
    expected = np.array(
        [3, 2, 6, 4, 9, 6, 12, 8, 15, 10, 18, 12, 21, 14, 24, 16, 27, 18, 30, 20],
        dtype=np.int32,
    )
    out = serial_full(values, Signature.parse("(1: 2, -1)"))
    np.testing.assert_array_equal(out, expected)


class TestFirMap:
    def test_identity(self, rng):
        values = rng.integers(-5, 5, 100).astype(np.int32)
        np.testing.assert_array_equal(fir_map(values, [1]), values)

    def test_shifted_difference(self):
        values = np.array([1, 2, 4, 8], dtype=np.int64)
        out = fir_map(values, [1, -1])
        np.testing.assert_array_equal(out, [1, 1, 2, 4])

    def test_missing_terms_are_zero(self):
        values = np.array([5.0, 0.0, 0.0])
        out = fir_map(values, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(out, [0.0, 0.0, 10.0])

    def test_zero_coefficients_skipped(self, rng):
        values = rng.standard_normal(50).astype(np.float32)
        np.testing.assert_array_equal(
            fir_map(values, [2.0, 0.0, 0.0]), fir_map(values, [2.0])
        )

    def test_integer_arithmetic_preserved(self):
        values = np.array([1, 2], dtype=np.int32)
        out = fir_map(values, [3])
        assert out.dtype == np.int32

    @pytest.mark.parametrize("budget", [8, 100, 4096])
    @pytest.mark.parametrize("shape", [(1,), (7,), (3000,), (3, 7), (5, 900)])
    def test_blocked_matches_one_shot(self, budget, shape, rng, monkeypatch):
        """Inputs above the cache block map block by block through one
        product scratch: byte-identical to the one-shot sums, signed
        zeros included (``0 + a0 * -0.0`` is +0)."""
        phase1_module = importlib.import_module("repro.plr.phase1")
        cases = [
            ([1, -1], rng.integers(-100, 100, shape).astype(np.int32)),
            ([3, 0, -2, 5], rng.integers(-100, 100, shape).astype(np.int64)),
            ([0.9, -0.9], rng.standard_normal(shape).astype(np.float32)),
            ([0.0, 0.25, -1.5], rng.standard_normal(shape)),
        ]
        for feedforward, values in cases:
            if values.dtype.kind == "f":
                values.reshape(-1)[::3] = -0.0
            one_shot = fir_map(values, feedforward)
            with monkeypatch.context() as patch:
                patch.setattr(phase1_module, "_CACHE_BLOCK_BYTES", budget)
                blocked = fir_map(values, feedforward)
            assert blocked.dtype == one_shot.dtype
            assert blocked.shape == one_shot.shape
            assert blocked.tobytes() == one_shot.tobytes()


class TestSerialRecurrence:
    def test_empty(self):
        out = serial_recurrence(np.array([], dtype=np.int32), [1])
        assert out.size == 0

    def test_single_element(self):
        out = serial_recurrence(np.array([7], dtype=np.int32), [1, 1])
        np.testing.assert_array_equal(out, [7])

    def test_first_element_unchanged(self, rng):
        values = rng.integers(-9, 9, 64).astype(np.int32)
        out = serial_recurrence(values, [3, -2])
        assert out[0] == values[0]

    def test_does_not_mutate_input(self, rng):
        values = rng.integers(-9, 9, 64).astype(np.int32)
        snapshot = values.copy()
        serial_recurrence(values, [1])
        np.testing.assert_array_equal(values, snapshot)

    def test_int32_wraparound(self):
        # Fibonacci growth overflows int32; the reference must wrap
        # silently like the 32-bit GPU arithmetic it models.
        values = np.ones(64, dtype=np.int32)
        out = serial_recurrence(values, [1, 1])
        assert out.dtype == np.int32  # and no warning/exception


class TestResolveDtype:
    def test_int_signature_int_values(self):
        assert resolve_dtype(Signature.prefix_sum(), np.dtype(np.int32)) == np.int32

    def test_int_signature_keeps_int64(self):
        assert resolve_dtype(Signature.prefix_sum(), np.dtype(np.int64)) == np.int64

    def test_float_signature_forces_float32(self):
        sig = Signature.parse("(0.2: 0.8)")
        assert resolve_dtype(sig, np.dtype(np.int32)) == np.float32

    def test_float64_preserved(self):
        sig = Signature.parse("(0.2: 0.8)")
        assert resolve_dtype(sig, np.dtype(np.float64)) == np.float64

    def test_int_signature_float_values(self):
        assert resolve_dtype(Signature.prefix_sum(), np.dtype(np.float32)) == np.float32
