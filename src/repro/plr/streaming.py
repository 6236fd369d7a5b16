"""Streaming recurrence evaluation: carry state across block boundaries.

The paper's kernel processes one resident array.  Real DSP and
data-pipeline users rarely have that luxury: audio arrives in buffers,
logs in batches, and the recurrence must continue *seamlessly* across
them.  The algebra PLR already uses makes this nearly free — a block
boundary is just another chunk border, so the state to carry is the
last k outputs, and the incoming state corrects a new block through
the same precomputed factor table.

:class:`BatchStreamingSolver` runs B streams over the solver's (B, n)
core, and :class:`StreamingSolver` is one stream (B = 1), with exactly
that:

* ``push(block)`` computes the recurrence over the next block as if it
  were appended to everything pushed before, in O(block) work;
* the FIR map stage is also made seamless by retaining the last p
  *inputs* across the boundary: it is the one-shot map stage over
  ``[input history | block]``;
* ``state`` exposes (and ``load_state`` restores) the k-output /
  p-input boundary state, so pipelines can checkpoint and resume.

Equivalence with the one-shot solver over the concatenated input is a
tested invariant for every Table 1 recurrence and random block splits;
the first outputs of a stream carry the one-shot solver's signed zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import StateError
from repro.core.recurrence import Recurrence
from repro.core.signature import Signature
from repro.plr.factors import CorrectionFactorTable
from repro.plr.solver import PLRSolver, cached_factor_table

__all__ = ["StreamState", "StreamingSolver", "BatchStreamingSolver"]


@dataclass
class StreamState:
    """The boundary state between two streamed blocks.

    Attributes
    ----------
    outputs:
        The last k outputs, most recent first — the recurrence carries.
    inputs:
        The last p raw inputs, most recent first — needed by the FIR
        map stage of signatures with feed-forward history.
    position:
        How many values have been consumed so far (for bookkeeping).
    """

    outputs: np.ndarray
    inputs: np.ndarray
    position: int = 0

    def copy(self) -> "StreamState":
        """An independent deep copy; mutating one never affects the other.

        States deserialized from checkpoints may carry plain sequences
        instead of arrays, so the fields are materialized as fresh numpy
        arrays rather than trusting a ``.copy()`` method to exist.
        """
        return StreamState(
            np.array(self.outputs, copy=True),
            np.array(self.inputs, copy=True),
            int(self.position),
        )


def _restored(state: StreamState, dtype: np.dtype, outputs_shape, inputs_shape) -> StreamState:
    """A validated, private copy of ``state`` in the solver's dtype.

    The state usually comes from the outside world (a checkpoint file,
    another process), so it is validated before it can poison every
    subsequent block: wrong shapes, dtypes that cannot be cast safely,
    non-finite carries, values the cast would wrap or overflow, and
    negative or fractional positions all raise
    :class:`~repro.core.errors.StateError` (a :class:`ValueError`
    subclass).
    """
    restored = {}
    for name, shape in (("outputs", outputs_shape), ("inputs", inputs_shape)):
        array = np.asarray(getattr(state, name))
        if array.shape != shape:
            raise StateError(
                f"state carries {name} of shape {array.shape}, the solver "
                f"needs {shape}"
            )
        if not np.can_cast(array.dtype, dtype, casting="same_kind"):
            raise StateError(
                f"state {name} dtype {array.dtype} cannot be cast to "
                f"the solver's {dtype} (same-kind rule)"
            )
        if np.issubdtype(array.dtype, np.floating) and not np.isfinite(array).all():
            raise StateError(
                f"state {name} contain non-finite values; restoring them "
                f"would silently corrupt every later block"
            )
        # astype(copy=True) both detaches from the caller's buffer
        # (mutating the checkpoint afterwards must not change solver
        # behaviour) and materializes the solver's dtype.  Same-kind
        # casting still wraps out-of-range integers (2**40 -> int32
        # becomes 0) and overflows floats to inf, so verify the cast
        # preserved every carry value instead of trusting it.
        with np.errstate(over="ignore", invalid="ignore"):
            cast = array.astype(dtype, copy=True)
        if np.issubdtype(dtype, np.integer):
            if array.size and not np.array_equal(
                cast.astype(np.int64, copy=False),
                array.astype(np.int64, copy=False),
            ):
                raise StateError(
                    f"state {name} values do not fit the solver's "
                    f"{dtype} without wrapping"
                )
        elif array.size and not np.isfinite(cast).all():
            raise StateError(f"state {name} values overflow the solver's {dtype}")
        restored[name] = cast
    position = state.position
    if isinstance(position, float) and not position.is_integer():
        raise StateError(f"state position must be an integer, got {position}")
    if position < 0:
        raise StateError(f"state position must be >= 0, got {position}")
    return StreamState(restored["outputs"], restored["inputs"], int(position))


class BatchStreamingSolver:
    """B independent streams of one signature, advanced in lock step.

    Carries a ``(B, k)`` state *matrix* of output history (plus a
    ``(B, p)`` input-history matrix for FIR signatures) and consumes
    ``(B, block)`` matrices, so B concurrent sessions pay the Python
    dispatch and the factor-table lookup once per push instead of once
    per stream.  :class:`StreamingSolver` is this class at B = 1.

    Semantics: stream b behaves exactly like its own
    :class:`StreamingSolver` fed row b of every pushed matrix — a
    tested invariant, byte for byte.

    Example
    -------
    >>> import numpy as np
    >>> streams = BatchStreamingSolver("(1: 1)", batch_size=2)
    >>> streams.push(np.array([[1, 2], [10, 20]], dtype=np.int32)).tolist()
    [[1, 3], [10, 30]]
    >>> streams.push(np.array([[3], [30]], dtype=np.int32)).tolist()
    [[6], [60]]
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        batch_size: int,
        dtype: np.dtype | type | None = None,
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.recurrence = recurrence
        self.batch_size = batch_size
        if dtype is None:
            dtype = np.int32 if recurrence.is_integer else np.float32
        self.dtype = np.dtype(dtype)
        # The stream owns the map stage (it needs input history across
        # boundaries), so the inner solver gets only the pure-recursive
        # part — otherwise the FIR stage would run twice.
        self._solver = PLRSolver(recurrence.recursive_signature)
        self._order = recurrence.order
        self._fir_order = max(recurrence.signature.fir_order, 0)
        self.reset()

    # ------------------------------------------------------------------
    @property
    def state(self) -> StreamState:
        """Snapshot of the (B, k) output / (B, p) input state matrices."""
        return self._state.copy()

    def load_state(self, state: StreamState) -> None:
        """Resume all B streams from a captured :attr:`state`.

        Validated against the ``(B, k)`` / ``(B, p)`` shapes, and never
        aliases the caller's arrays (see :func:`_restored`).
        """
        self._state = _restored(
            state,
            self.dtype,
            (self.batch_size, self._order),
            (self.batch_size, self._fir_order),
        )

    def reset(self) -> None:
        """Forget all history on every stream."""
        self._state = StreamState(
            outputs=np.zeros((self.batch_size, self._order), dtype=self.dtype),
            inputs=np.zeros((self.batch_size, self._fir_order), dtype=self.dtype),
        )

    # ------------------------------------------------------------------
    def push(self, blocks: np.ndarray) -> np.ndarray:
        """Advance every stream by one ``(B, block)`` matrix of values.

        Row b of the result is exactly what a dedicated
        :class:`StreamingSolver` for stream b would have returned, and
        every row equals solving the concatenation of all its blocks so
        far and returning the slice for this block.
        """
        blocks = np.asarray(blocks)
        if blocks.ndim != 2 or blocks.shape[0] != self.batch_size:
            raise ValueError(
                f"expected a ({self.batch_size}, block) matrix, got shape "
                f"{blocks.shape}"
            )
        bn = blocks.shape[1]
        if bn == 0:
            return blocks.astype(self.dtype)
        blocks = blocks.astype(self.dtype, copy=False)
        state = self._state

        mapped = blocks
        if self.recurrence.has_map_stage:
            # The one-shot map stage over [input history | block]: the
            # first outputs see the raw inputs of earlier blocks.
            history = np.concatenate([state.inputs[:, ::-1], blocks], axis=1)
            mapped = self.recurrence.apply_map_stage(history)[:, self._fir_order :]
        # Solve all rows as standalone sequences, then fold in each
        # stream's incoming carries through the shared factor rows —
        # the same cross-border correction Phase 2 applies, vectorized
        # over the batch axis.
        out = self._solver._solve_rows(mapped, dtype=self.dtype)
        k = self._order
        if np.any(state.outputs != 0):
            table = self._factor_table(bn)
            for j in range(k):
                carries = state.outputs[:, j]
                if np.any(carries != 0):
                    out = out + table.factors[j, :bn][None, :] * carries[:, None]

        # Advance the boundary state; a block shorter than the history
        # shifts the older entries forward.
        self._state = StreamState(
            outputs=_shifted(state.outputs, out),
            inputs=_shifted(state.inputs, blocks),
            position=state.position + bn,
        )
        return out

    def _factor_table(self, length: int) -> CorrectionFactorTable:
        # Round the table length up to limit cache churn across
        # variable block sizes; the table itself comes from the shared
        # process-wide LRU.
        size = max(64, 1 << (length - 1).bit_length())
        return cached_factor_table(
            self.recurrence.recursive_signature, size, self.dtype
        )


def _shifted(history: np.ndarray, newest: np.ndarray) -> np.ndarray:
    """``history`` (most recent first) advanced past the ``newest`` rows."""
    depth = history.shape[1]
    take = min(depth, newest.shape[1])
    shifted = np.zeros_like(history)
    shifted[:, :take] = newest[:, newest.shape[1] - take :][:, ::-1]
    shifted[:, take:] = history[:, : depth - take]
    return shifted


class StreamingSolver:
    """Evaluate a recurrence over an unbounded stream, block by block.

    One stream is :class:`BatchStreamingSolver` at B = 1; the state is
    exposed as k-vectors instead of (1, k) matrices.

    Parameters
    ----------
    recurrence:
        The recurrence (or signature string) to stream.
    dtype:
        Computation dtype; defaults to the paper's convention (int32
        for integer signatures, float32 otherwise).

    Example
    -------
    >>> import numpy as np
    >>> stream = StreamingSolver("(1: 1)")
    >>> stream.push(np.array([1, 2, 3], dtype=np.int32)).tolist()
    [1, 3, 6]
    >>> stream.push(np.array([4], dtype=np.int32)).tolist()
    [10]
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        dtype: np.dtype | type | None = None,
    ) -> None:
        self._streams = BatchStreamingSolver(recurrence, 1, dtype)
        self.recurrence = self._streams.recurrence
        self.dtype = self._streams.dtype

    # ------------------------------------------------------------------
    @property
    def state(self) -> StreamState:
        """A snapshot of the boundary state (copy; safe to stash)."""
        state = self._streams.state
        return StreamState(state.outputs[0], state.inputs[0], state.position)

    def load_state(self, state: StreamState) -> None:
        """Resume from a previously captured :attr:`state`.

        Validated like :meth:`BatchStreamingSolver.load_state`, against
        the ``(k,)`` / ``(p,)`` shapes.
        """
        streams = self._streams
        one = _restored(state, self.dtype, (streams._order,), (streams._fir_order,))
        streams._state = StreamState(one.outputs[None], one.inputs[None], one.position)

    def reset(self) -> None:
        """Forget all history; the next push starts a fresh sequence."""
        self._streams.reset()

    # ------------------------------------------------------------------
    def push(self, block: np.ndarray) -> np.ndarray:
        """Process the next block; returns its recurrence outputs.

        Semantics: identical to solving the concatenation of every
        block pushed so far and returning the slice for this block.
        """
        block = np.asarray(block)
        if block.ndim != 1:
            raise ValueError(f"expected a 1D block, got shape {block.shape}")
        return self._streams.push(block[None])[0]

    def push_many(self, blocks) -> np.ndarray:
        """Convenience: push an iterable of blocks, concatenate outputs."""
        outputs = [self.push(b) for b in blocks]
        if not outputs:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate(outputs)
