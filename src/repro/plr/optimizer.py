"""The domain-specific optimizations of Section 3.1.

PLR's "most important optimizations pertain to the correction factors":

* **shared-memory buffering** — the first 1024 factors of each list are
  cached in shared memory; merging starts with small chunks, so early
  (hot) factors always hit the buffer;
* **constant folding** — a factor list whose elements are all identical
  is replaced by a literal constant (standard prefix sum: all 1s);
* **zero/one conditional add** — lists containing only 0s and 1s use a
  conditional add instead of a multiply-add (tuple prefix sums);
* **repetition folding** — periodic lists are stored once per period;
* **decay truncation** — for stable IIR filters, factors decay below
  float32 precision; denormals are flushed to zero and whole warps
  whose factors are all zero skip their Phase 1 work;
* **term suppression** — corrections that would reference elements
  before the start of a chunk are never emitted (this one lives in
  :meth:`FactorPlan.merge_terms` and the code generators).

The optimizer is an *analysis*: it inspects a
:class:`~repro.plr.factors.CorrectionFactorTable` and produces a
:class:`FactorPlan` describing how each factor list should be realized.
The code generators and the cost model read the decisions; the numpy
kernels read the same decisions through :meth:`FactorPlan.merge_terms`
(a constant-1 list is a broadcast add, a periodic 0/1 list is strided
adds, a truncated list corrects only its nonzero prefix) and, for
integer sums, through :attr:`FactorPlan.prefix_strides` (Phase 1 as r
strided prefix passes, see :func:`prefix_strides`).  So "optimizations
on" means the same thing everywhere — including for Figure 10, which
toggles them off via :class:`OptimizationConfig`:
:meth:`OptimizationConfig.disabled` runs the paper's plain merges,
multiplying by every factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.plr.factors import CorrectionFactorTable

__all__ = [
    "FactorRealization",
    "FactorDecision",
    "FactorPlan",
    "CorrectionTerm",
    "OptimizationConfig",
    "prefix_strides",
    "optimize_factors",
    "SHARED_MEMORY_FACTOR_CAPACITY",
]

SHARED_MEMORY_FACTOR_CAPACITY = 1024
"""Factors per list buffered in shared memory (Section 3.1)."""


class FactorRealization(enum.Enum):
    """How the generated code obtains one factor list's values."""

    GLOBAL_ARRAY = "global_array"  # unoptimized: loads from main memory
    BUFFERED_ARRAY = "buffered_array"  # first 1024 cached in shared memory
    CONSTANT = "constant"  # replaced by a literal
    ZERO_ONE = "zero_one"  # conditional add, no multiply
    PERIODIC = "periodic"  # only the first period stored
    TRUNCATED = "truncated"  # zero tail suppressed (decayed filter)
    SHIFT_OF_FIRST = "shift_of_first"  # scaled shift of factor list 0


@dataclass(frozen=True)
class FactorDecision:
    """The realization chosen for a single carry's factor list."""

    carry_index: int
    realization: FactorRealization
    constant: float | int | None = None  # for CONSTANT
    period: int | None = None  # for PERIODIC
    cutoff: int | None = None  # for TRUNCATED: first all-zero index
    scale: float | int | None = None  # for SHIFT_OF_FIRST

    @property
    def stored_elements(self) -> int | None:
        """How many factor values this realization keeps in memory.

        None means "the full list" (the caller knows m); the cost model
        and the memory accounting use this to size the constant arrays.
        """
        if self.realization in (FactorRealization.CONSTANT, FactorRealization.SHIFT_OF_FIRST):
            return 0
        if self.realization == FactorRealization.PERIODIC:
            return self.period
        if self.realization == FactorRealization.ZERO_ONE and self.period is not None:
            return self.period
        if self.realization == FactorRealization.TRUNCATED:
            return self.cutoff
        return None


@dataclass(frozen=True)
class OptimizationConfig:
    """Which Section 3.1 optimizations are enabled.

    ``OptimizationConfig()`` is the paper's "optimizations on";
    :meth:`disabled` is Figure 10's "optimizations off": factors are
    "always loaded from global memory and no special code is emitted
    for factors that are constants, only zero or one, repeat, or decay
    to zero after a certain point."
    """

    buffer_in_shared: bool = True
    fold_constants: bool = True
    zero_one_conditional: bool = True
    fold_repeats: bool = True
    truncate_decayed: bool = True
    suppress_shifted_duplicate: bool = False
    """Off by default: the paper lists this as future work; we implement
    it as an extension and benchmark it separately."""

    @classmethod
    def disabled(cls) -> "OptimizationConfig":
        return cls(
            buffer_in_shared=False,
            fold_constants=False,
            zero_one_conditional=False,
            fold_repeats=False,
            truncate_decayed=False,
            suppress_shifted_duplicate=False,
        )

    @classmethod
    def extended(cls) -> "OptimizationConfig":
        """All paper optimizations plus the future-work extensions."""
        return cls(suppress_shifted_duplicate=True)


@dataclass(frozen=True)
class CorrectionTerm:
    """One carry's correction of a chunk, as the host kernels apply it.

    The kernels add ``scale * carry`` to the chunk elements at offsets
    ``start:stop:step``; ``scale=None`` is a plain add with no multiply,
    and ``stop=None`` runs to the end of the chunk.  A general list is
    one term whose ``scale`` is the factor prefix ``factors[carry,
    :width]``, a truncated one stops at its cutoff, a constant list is
    one term with a scalar (or no) scale, and a periodic 0/1 list is one
    unscaled term per offset where its period holds a 1.  Every element
    gets the same product the plain ``factor * carry`` loop computes;
    only the terms whose factor is 0 are left out.
    """

    carry: int
    start: int = 0
    stop: int | None = None
    step: int = 1
    scale: np.ndarray | np.generic | None = None
    _index: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A whole-chunk term indexes nothing: on short chunks a view per
        # term per merge level costs more than its add.
        whole = self.start == 0 and self.stop is None and self.step == 1
        index = None if whole else (Ellipsis, slice(self.start, self.stop, self.step))
        object.__setattr__(self, "_index", index)

    def apply(self, target: np.ndarray, carry: np.ndarray) -> None:
        """``target[..., start:stop:step] += scale * carry[..., None]``."""
        view = target if self._index is None else target[self._index]
        if self.scale is None:
            view += carry[..., None]
        else:
            view += self.scale * carry[..., None]


def prefix_strides(feedback) -> tuple[int, ...] | None:
    """Strides p_i with ``1 − Σ b_j z^j = Π (1 − z^{p_i})`` over ℤ, or None.

    A recurrence whose characteristic polynomial factors this way is a
    chain of strided prefix sums: ``1/(1 − z^p)`` is ``y[i] = x[i] +
    y[i − p]``, so r passes with strides p_1..p_r compute it exactly in
    ring (wraparound integer) arithmetic — CUB's shape for an r-th order
    prefix sum in the paper's Figures 4–5.  ``(1: 1)`` → (1),
    ``(1: 0, 1)`` → (2), ``(1: 2, −1)`` → (1, 1), ``(1: 1, 1, −1)`` →
    (2, 1).  Fractional coefficients and polynomials with any other
    factor (``(1: 1, 1)``) return None.  Strides are largest first.
    """
    try:
        coefficients = [int(b) for b in feedback]
    except (TypeError, ValueError, OverflowError):
        return None
    if any(b != c for b, c in zip(feedback, coefficients)):
        return None
    poly = [1] + [-c for c in coefficients]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    strides = []
    while len(poly) > 1:
        # The product's lowest nonconstant term is -c·z^p for its
        # smallest stride p (c = how often p occurs): divide it out.
        p = next(i for i in range(1, len(poly)) if poly[i])
        if poly[p] > 0:
            return None
        quotient = list(poly)
        for i in range(p, len(quotient)):
            quotient[i] += quotient[i - p]
        if any(quotient[-p:]):
            return None
        poly = quotient[:-p]
        strides.append(p)
    return tuple(sorted(strides, reverse=True)) or None


_DEFAULT_CONFIG = OptimizationConfig()
"""The config ``optimize_factors(table)`` reads; one shared instance
keeps the default-plan lookup on the kernels' path a dict hit."""


@dataclass(frozen=True)
class FactorPlan:
    """The optimizer's output: one decision per carry plus globals.

    Attributes
    ----------
    decisions:
        One :class:`FactorDecision` per carry, in carry order.
    shared_buffer_elements:
        Factors per surviving list to stage in shared memory.
    phase1_active_elements:
        How many elements of each merge level actually need correcting;
        equals the chunk size unless decay truncation kicked in.  The
        generated code skips whole warps past this point.
    prefix_strides:
        For an integer table whose signature is a chain of strided
        prefix sums (:func:`prefix_strides`), the strides; the host's
        Phase 1 then runs one prefix pass per stride instead of the
        thread-local solve and the merge levels.  None for float tables,
        for every other signature, and with constant folding off.
    """

    table: CorrectionFactorTable
    config: OptimizationConfig
    decisions: tuple[FactorDecision, ...]
    shared_buffer_elements: int
    phase1_active_elements: int
    prefix_strides: tuple[int, ...] | None = None
    _terms: dict = field(default_factory=dict, repr=False, compare=False)
    """Memoized :meth:`merge_terms` per width."""

    @property
    def uses_multiplies(self) -> bool:
        """False when every correction is a conditional add."""
        return any(
            d.realization
            not in (FactorRealization.ZERO_ONE, FactorRealization.CONSTANT)
            or (d.realization == FactorRealization.CONSTANT and d.constant not in (0, 1))
            for d in self.decisions
        )

    def stored_factor_words(self) -> int:
        """Total factor values materialized across all lists.

        Feeds the GPU memory accounting (Table 2) and the cost model's
        factor-load traffic term.
        """
        m = self.table.chunk_size
        total = 0
        for d in self.decisions:
            stored = d.stored_elements
            total += m if stored is None else stored
        return total

    def decision(self, carry_index: int) -> FactorDecision:
        return self.decisions[carry_index]

    def __getstate__(self) -> dict:
        # Pool workers rebuild the few terms they use; shipping the
        # memoized factor-prefix copies with every task would not pay.
        state = dict(self.__dict__)
        state["_terms"] = {}
        return state

    def merge_terms(self, width: int) -> tuple[CorrectionTerm, ...]:
        """The corrections that carry a width-``width`` chunk into the next.

        Phase 1's merge at this width corrects the second chunk of each
        pair with these terms, and Phase 2 corrects whole chunks with
        ``merge_terms(chunk_size)``.  Only carries that exist at this
        width appear (term suppression: j < min(k, width)), in carry
        order, each realized per its decision:

        * ``CONSTANT`` c: a broadcast add of ``c * carry`` (no multiply
          and no temporary for c = 1; nothing for c = 0);
        * periodic ``ZERO_ONE``: an unscaled strided add per offset
          where the period holds a 1;
        * ``TRUNCATED``: the factor product on ``[:cutoff]`` only;
        * anything else: the factor product on the whole width.

        Memoized per width, so repeated solves rebuild nothing.
        """
        terms = self._terms.get(width)
        if terms is None:
            terms = tuple(self._realize(width))
            self._terms[width] = terms
        return terms

    def _realize(self, width: int):
        factors = self.table.factors
        for decision in self.decisions[: min(self.table.order, width)]:
            j = decision.carry_index
            real = decision.realization
            if real == FactorRealization.CONSTANT:
                if decision.constant == 0:
                    continue
                scale = None if decision.constant == 1 else factors[j, 0]
                yield CorrectionTerm(j, scale=scale)
            elif real == FactorRealization.ZERO_ONE and decision.period is not None:
                for offset in np.flatnonzero(factors[j, : decision.period]):
                    if offset < width:
                        yield CorrectionTerm(j, int(offset), step=decision.period)
            elif real == FactorRealization.TRUNCATED and decision.cutoff < width:
                if decision.cutoff:
                    cutoff = decision.cutoff
                    yield CorrectionTerm(j, stop=cutoff, scale=factors[j, :cutoff])
            else:
                yield CorrectionTerm(j, scale=factors[j, :width])


def _decide_one(
    table: CorrectionFactorTable,
    config: OptimizationConfig,
    carry_index: int,
    shifted_pair: tuple[int, int] | None,
) -> FactorDecision:
    """Pick the best realization for one factor list.

    Precedence: a constant beats everything (no storage, no load); the
    shifted-duplicate suppression beats per-list encodings (no storage);
    zero/one beats periodic (it also kills the multiply); periodic and
    truncated then shrink storage.
    """
    if config.fold_constants:
        const = table.constant_value(carry_index)
        if const is not None:
            return FactorDecision(
                carry_index, FactorRealization.CONSTANT, constant=const
            )
    if (
        config.suppress_shifted_duplicate
        and shifted_pair is not None
        and carry_index == shifted_pair[1]
    ):
        return FactorDecision(
            carry_index,
            FactorRealization.SHIFT_OF_FIRST,
            scale=table.signature.feedback[-1],
        )
    if config.zero_one_conditional and table.is_zero_one(carry_index):
        # Keep the period (if any): a periodic 0/1 pattern needs no
        # factor loads at all — the condition is an index computation.
        period = table.period(carry_index) if config.fold_repeats else None
        return FactorDecision(
            carry_index, FactorRealization.ZERO_ONE, period=period
        )
    if config.fold_repeats:
        period = table.period(carry_index)
        if period is not None:
            return FactorDecision(
                carry_index, FactorRealization.PERIODIC, period=period
            )
    if config.truncate_decayed:
        cutoff = table.decay_index(carry_index)
        if cutoff is not None:
            return FactorDecision(
                carry_index, FactorRealization.TRUNCATED, cutoff=cutoff
            )
    if config.buffer_in_shared:
        return FactorDecision(carry_index, FactorRealization.BUFFERED_ARRAY)
    return FactorDecision(carry_index, FactorRealization.GLOBAL_ARRAY)


def optimize_factors(
    table: CorrectionFactorTable,
    config: OptimizationConfig | None = None,
) -> FactorPlan:
    """Analyze a factor table and choose a realization per carry.

    PLR runs this analysis once, when it emits a kernel; the table is
    immutable, so the plan is memoized on it per (frozen) config and
    every later call for the same table is a dict lookup.
    """
    if config is None:
        config = _DEFAULT_CONFIG
    plan = table._factor_plans.get(config)
    if plan is None:
        plan = _analyze(table, config)
        table._factor_plans[config] = plan
    return plan


def _analyze(table: CorrectionFactorTable, config: OptimizationConfig) -> FactorPlan:
    shifted = table.shifted_duplicate_rows() if config.suppress_shifted_duplicate else None
    decisions = tuple(
        _decide_one(table, config, j, shifted) for j in range(table.order)
    )

    shared = (
        min(SHARED_MEMORY_FACTOR_CAPACITY, table.chunk_size)
        if config.buffer_in_shared
        else 0
    )

    if config.truncate_decayed and table.max_decay_index is not None:
        active = max(1, table.max_decay_index)
    else:
        active = table.chunk_size

    # Prefix stages fold the whole table into its signature's strides —
    # no factor list is read at all — so they ride on constant folding.
    # Wraparound integers are a ring, where the stages are exact; float
    # sums keep the merges and their rounding.
    strides = None
    if config.fold_constants and np.issubdtype(table.dtype, np.integer):
        strides = prefix_strides(table.signature.feedback)

    return FactorPlan(
        table=table,
        config=config,
        decisions=decisions,
        shared_buffer_elements=shared,
        phase1_active_elements=min(active, table.chunk_size),
        prefix_strides=strides,
    )
