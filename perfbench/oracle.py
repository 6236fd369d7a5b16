"""Independent full-length oracles for every benchmarked signature.

The repository's own serial loop is O(n) Python (seconds at 2^22), so
the benchmark judges outputs against oracles that share no code with
the program under test:

* integer signatures are compositions of wrapping int32 ``np.cumsum``:
  an order-r sum ``(1: C(r,1), -C(r,2), ...)`` is r cumsums and an
  s-tuple ``(1: 0, ..., 0, 1)`` is s interleaved (strided) cumsums;
* filters run through ``scipy.signal.lfilter`` in float64 and are
  judged with the repository's ``compare_results`` at the paper's 1e-3
  bound.

Each oracle is itself cross-checked once per input on a prefix against
the repository's ``serial_full`` listing.
"""

from __future__ import annotations

from math import comb

import numpy as np

PREFIX = 2048
"""Length of the prefix cross-checked against ``serial_full``."""


def _order_of_sum(feedback) -> int | None:
    r = len(feedback)
    expected = [(-1) ** (j + 1) * comb(r, j) for j in range(1, r + 1)]
    return r if list(feedback) == expected else None


def _tuple_size(feedback) -> int | None:
    s = len(feedback)
    return s if list(feedback) == [0] * (s - 1) + [1] else None


def integer_oracle(signature, values: np.ndarray) -> np.ndarray:
    """Wrapping-int32 result of an integer sum or tuple signature."""
    if tuple(signature.feedforward) != (1,):
        raise ValueError(f"no cumsum oracle for feed-forward terms of {signature}")
    feedback = [int(b) for b in signature.feedback]
    work = np.asarray(values, dtype=np.int32)
    order = _order_of_sum(feedback)
    if order is not None:
        out = work
        for _ in range(order):
            out = np.cumsum(out, axis=-1, dtype=np.int32)
        return out
    size = _tuple_size(feedback)
    if size is not None:
        out = np.empty_like(work)
        for lane in range(size):
            out[..., lane::size] = np.cumsum(work[..., lane::size], axis=-1, dtype=np.int32)
        return out
    raise ValueError(f"no cumsum oracle for {signature}")


def filter_oracle(signature, values: np.ndarray) -> np.ndarray:
    """Float64 ``lfilter`` result of a filter signature."""
    from scipy.signal import lfilter

    b = [float(a) for a in signature.feedforward]
    a = [1.0] + [-float(c) for c in signature.feedback]
    return lfilter(b, a, np.asarray(values, dtype=np.float64), axis=-1)


def oracle(signature, values: np.ndarray) -> np.ndarray:
    if signature.is_integer:
        return integer_oracle(signature, values)
    return filter_oracle(signature, values)


def matches(result: np.ndarray, expected: np.ndarray) -> bool:
    """Exact for integers, the paper's 1e-3 bound for floats."""
    from repro.core.validation import compare_results

    result = np.asarray(result)
    if result.shape != expected.shape:
        return False
    if result.dtype.kind == "i" and expected.dtype.kind == "i":
        return bool(np.array_equal(result, expected))
    return compare_results(result, expected).ok


def cross_check_prefix(signature, values: np.ndarray, expected: np.ndarray) -> None:
    """Check the oracle against the repository's serial listing on a prefix.

    Raises ``AssertionError`` when the two disagree, which means the
    oracle (not the program) is wrong and the run cannot be judged.
    """
    from repro.core.reference import serial_full

    row = values if values.ndim == 1 else values[0]
    want = expected if expected.ndim == 1 else expected[0]
    prefix = min(PREFIX, row.size)
    listing = serial_full(row[:prefix], signature)
    if not matches(listing, want[:prefix]):
        raise AssertionError(f"oracle disagrees with serial_full for {signature}")
