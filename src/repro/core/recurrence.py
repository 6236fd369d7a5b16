"""The :class:`Recurrence` facade: a signature plus evaluation plumbing.

This is the object most user code touches.  It bundles a parsed
:class:`~repro.core.signature.Signature` with its classification and the
two-stage split the paper builds on:

* the *map stage* (recursion equation (2)) eliminates the feed-forward
  coefficients in an embarrassingly parallel pass, and
* the *recursive stage* (recursion equation (3)) is the pure recurrence
  ``(1: b...)`` the PLR algorithm parallelizes.

``Recurrence.evaluate`` runs the serial reference; the parallel solvers
live in :mod:`repro.plr` and take a ``Recurrence`` as input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.classify import Classification, classify
from repro.core.reference import fir_map, resolve_dtype, serial_full
from repro.core.signature import Signature

__all__ = ["Recurrence"]


@dataclass(frozen=True)
class Recurrence:
    """A linear recurrence ready to be evaluated or compiled.

    Parameters
    ----------
    signature:
        The recurrence signature.  Strings are accepted for convenience
        via :meth:`parse`.
    """

    signature: Signature

    @classmethod
    def parse(cls, text: str) -> "Recurrence":
        """Build a recurrence from a signature string like ``"(1: 1)"``."""
        return cls(Signature.parse(text))

    @classmethod
    def coerce(cls, value: "Recurrence | Signature | str") -> "Recurrence":
        """``value`` as a recurrence: strings parse, signatures wrap."""
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, Signature):
            return cls(value)
        return value

    # ------------------------------------------------------------------
    @cached_property
    def classification(self) -> Classification:
        """What family this recurrence belongs to (prefix sum, IIR, ...)."""
        return classify(self.signature)

    @property
    def order(self) -> int:
        """The recurrence order k."""
        return self.signature.order

    @property
    def is_integer(self) -> bool:
        return self.signature.is_integer

    @cached_property
    def recursive_signature(self) -> Signature:
        """The type-(3) part ``(1: b...)`` that PLR parallelizes."""
        return self.signature.recursive_part()

    @property
    def has_map_stage(self) -> bool:
        """True when the FIR map stage (2) does real work."""
        return self.signature.feedforward != (1,)

    # ------------------------------------------------------------------
    def dtype_for(self, values: np.ndarray) -> np.dtype:
        """The computation dtype used for the given input values."""
        return resolve_dtype(self.signature, np.asarray(values).dtype)

    def apply_map_stage(self, values: np.ndarray) -> np.ndarray:
        """Run only the embarrassingly parallel FIR stage (2)."""
        work = np.asarray(values)
        ff = [a if isinstance(a, int) else float(a) for a in self.signature.feedforward]
        return fir_map(work, ff)

    def evaluate(self, values: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
        """Compute the recurrence with the serial reference algorithm.

        This is the ground truth; use :class:`repro.plr.solver.PLRSolver`
        (or a generated backend) for the parallel computation.
        """
        return serial_full(np.asarray(values), self.signature, dtype=dtype)

    def __str__(self) -> str:
        return str(self.signature)
