"""Turning calibration measurements into per-solve decisions.

:class:`TuningPolicy` answers three questions for the execution layers:

* which backend should ``backend="auto"`` dispatch to for this
  (signature, n, dtype)?  (:meth:`decide`)
* how many workers should a ``workers=None`` sharded solve spawn?
  (:meth:`recommend_workers`)
* is there a measured values-per-thread the planner should prefer over
  the paper's x heuristic?  (:meth:`recommend_values_per_thread`)

Every answer is a :class:`TuningDecision` whose ``source`` declares its
provenance: ``"measured"`` (this exact bucket was benchmarked),
``"interpolated"`` (the nearest measured bucket in log2 space steered
it — for sizes between measured points the nearer neighbour's winner is
the right side of the crossover), ``"static"`` (cold/absent/invalid
table: fall back to today's hand heuristics), or ``"error"`` (the
tuning layer itself misbehaved).  The contract with the solve path is
absolute: **decide() never raises** — a broken table, a broken policy,
or a broken lookup produce a static decision with a typed reason, and
the solve proceeds exactly as it would have before autotuning existed.

``tune.*`` counters on the global metrics registry track how solves are
being steered; the same numbers appear in the ``tuning`` block of the
server's ``{"op": "metrics"}`` reply.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import log2

from repro.plr.solver import PLRSolver
from repro.tune.db import CalibrationDatabase, n_bucket, signature_class

__all__ = [
    "STATIC_NATIVE_CROSSOVER",
    "TuningDecision",
    "TuningPolicy",
    "default_policy",
    "set_default_policy",
    "reset_default_policy",
]

STATIC_NATIVE_CROSSOVER = 1 << 15
"""Static fallback's native threshold: with a compiler present and no
measurements, inputs at or above this length go native (dispatch and
ctypes overhead dominate below it, the compiled loop dominates above —
the committed bench trajectory puts the real crossover well under
2^22, and 2^15 is conservative on every machine measured so far)."""


@dataclass(frozen=True)
class TuningDecision:
    """One resolved choice, with the evidence trail.

    ``source`` is ``"measured"`` | ``"interpolated"`` | ``"static"`` |
    ``"error"``; ``reason`` is the human-readable story (which bucket
    matched, why the table was cold, which typed error degraded the
    lookup).  Recorded on
    :class:`~repro.plr.solver.SolveArtifacts` so a trace shows *why* a
    backend was picked, not just which.
    """

    backend: str
    source: str
    reason: str
    sig_class: str = ""
    bucket: int | None = None
    workers: int | None = None
    values_per_thread: int | None = None


class TuningPolicy:
    """Decision layer over one :class:`CalibrationDatabase`.

    The database loads lazily on first use and is then held for the
    policy's lifetime; long-lived processes that re-tune on disk can
    call :meth:`reload`.  All methods are thread-safe (the lazy load is
    locked; decisions read immutable entries).
    """

    def __init__(
        self,
        db: CalibrationDatabase | None = None,
        path=None,
        enabled: bool | None = None,
    ) -> None:
        self._db = db
        self._path = path
        self._lock = threading.Lock()
        if enabled is None:
            enabled = os.environ.get("PLR_TUNE_DISABLE", "") != "1"
        self.enabled = enabled

    # -- database access -------------------------------------------------
    @property
    def db(self) -> CalibrationDatabase:
        if self._db is None:
            with self._lock:
                if self._db is None:
                    self._db = CalibrationDatabase.load(self._path)
        return self._db

    def reload(self) -> CalibrationDatabase:
        """Drop the cached table and re-read it from disk."""
        with self._lock:
            self._db = None
        return self.db

    # -- internals -------------------------------------------------------
    def _count(self, name: str) -> None:
        from repro.obs.metrics import global_metrics

        global_metrics().counter(f"tune.{name}").inc()

    def _native_available(self) -> bool:
        from repro.codegen.jit import native_available

        return native_available()

    def _static(self, n: int, sig_class: str, reason: str) -> TuningDecision:
        """Today's hand heuristics, annotated with why we fell back."""
        if n >= STATIC_NATIVE_CROSSOVER and self._native_available():
            backend = "native"
            detail = (
                f"static heuristic: n={n} >= {STATIC_NATIVE_CROSSOVER} "
                "and a C compiler is available"
            )
        else:
            backend = "single"
            detail = "static heuristic: vectorized numpy default"
        return TuningDecision(
            backend=backend,
            source="static",
            reason=f"{reason}; {detail}",
            sig_class=sig_class,
        )

    def _usable(self, entries: list) -> list:
        """Entries this process can actually dispatch to right now."""
        native_ok = self._native_available()
        return [
            entry
            for entry in entries
            if entry.backend in PLRSolver.BACKENDS and entry.backend != "auto"
            and (entry.backend != "native" or native_ok)
        ]

    # -- the decisions ---------------------------------------------------
    def decide(self, signature, n: int, dtype) -> TuningDecision:
        """The backend ``backend="auto"`` should use.  Never raises."""
        import numpy as np

        try:
            sig_class = signature_class(signature)
        except Exception as exc:  # solve path: degrade, never raise
            self._count("errors")
            return self._static(
                n, "", f"tuning lookup failed ({type(exc).__name__}: {exc})"
            )
        try:
            self._count("lookups")
            if not self.enabled:
                self._count("disabled")
                return self._static(
                    n, sig_class, "tuning disabled (PLR_TUNE_DISABLE=1)"
                )
            dtype_name = np.dtype(dtype).name
            db = self.db
            if db.status != "ok":
                self._count("cold")
                return self._static(n, sig_class, db.reason or db.status)
            bucket = n_bucket(n)
            exact = self._usable(db.lookup(sig_class, bucket, dtype_name))
            if exact:
                best = min(exact, key=lambda e: e.wall_s)
                self._count("measured")
                return TuningDecision(
                    backend=best.backend,
                    source="measured",
                    reason=(
                        f"measured fastest at bucket {bucket} "
                        f"({best.wall_s * 1e3:.2f} ms, "
                        f"{len(exact)} backends compared)"
                    ),
                    sig_class=sig_class,
                    bucket=bucket,
                    workers=best.workers if best.backend == "process" else None,
                    values_per_thread=best.values_per_thread,
                )
            buckets = db.buckets(sig_class, dtype_name)
            nearest = self._nearest_bucket(buckets, bucket, sig_class, dtype_name)
            if nearest is not None:
                best = min(
                    self._usable(db.lookup(sig_class, nearest, dtype_name)),
                    key=lambda e: e.wall_s,
                )
                self._count("interpolated")
                return TuningDecision(
                    backend=best.backend,
                    source="interpolated",
                    reason=(
                        f"bucket {bucket} unmeasured; nearest measured "
                        f"bucket {nearest} (of {buckets}) picks the same "
                        "side of the crossover"
                    ),
                    sig_class=sig_class,
                    bucket=nearest,
                    workers=best.workers if best.backend == "process" else None,
                    values_per_thread=best.values_per_thread,
                )
            self._count("cold")
            return self._static(
                n,
                sig_class,
                f"no measurements for {sig_class}/{dtype_name} "
                f"(table has {len(db.entries)} entries)",
            )
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._count("errors")
            return self._static(
                n, sig_class, f"tuning lookup failed ({type(exc).__name__}: {exc})"
            )

    def _nearest_bucket(
        self, buckets: list[int], bucket: int, sig_class: str, dtype_name: str
    ) -> int | None:
        """The measured bucket nearest in log2 space with usable entries."""
        candidates = [
            b
            for b in buckets
            if self._usable(self.db.lookup(sig_class, b, dtype_name))
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda b: abs(log2(b) - log2(bucket)))

    def recommend_workers(self, n: int, signature=None, dtype=None) -> int | None:
        """Measured-best pool size for sharded solves of length n.

        None means "no measurement — use the machine default" (one
        worker per core, clamped to the work).  Never raises.
        """
        try:
            db = self.db
            if not self.enabled or db.status != "ok":
                return None
            process = [
                e for e in db.entries.values() if e.backend == "process"
            ]
            if signature is not None:
                try:
                    sig_class = signature_class(signature)
                    scoped = [e for e in process if e.sig_class == sig_class]
                    process = scoped or process
                except Exception:
                    pass
            if dtype is not None:
                import numpy as np

                dtype_name = np.dtype(dtype).name
                scoped = [e for e in process if e.dtype == dtype_name]
                process = scoped or process
            if not process:
                return None
            bucket = n_bucket(n)
            nearest = min(
                {e.bucket for e in process},
                key=lambda b: abs(log2(b) - log2(bucket)),
            )
            at_bucket = [e for e in process if e.bucket == nearest]
            return min(at_bucket, key=lambda e: e.wall_s).workers
        except Exception:
            return None

    def recommend_values_per_thread(self, signature, n: int, dtype) -> int | None:
        """Measured-best x for the planner, or None for the heuristic.

        Only exact-bucket measurements steer the plan: x shifts the
        chunk size, and extrapolating a chunk shape across buckets is
        exactly the guess the tuner exists to replace.  Never raises.
        """
        try:
            import numpy as np

            db = self.db
            if not self.enabled or db.status != "ok":
                return None
            best = db.best(
                signature_class(signature), n_bucket(n), np.dtype(dtype).name
            )
            return best.values_per_thread if best is not None else None
        except Exception:
            return None

    def describe(self) -> dict:
        """The ``tuning`` block for metrics replies and ``plr tune --show``."""
        from repro.obs.metrics import global_metrics

        counters = global_metrics().snapshot().get("counters", {})
        block = {
            "enabled": self.enabled,
            "database": self.db.describe(),
            "decisions": {
                key.split(".", 1)[1]: value
                for key, value in counters.items()
                if key.startswith("tune.")
            },
        }
        return block


# -- the process-wide default policy ------------------------------------
_DEFAULT_POLICY: TuningPolicy | None = None
_DEFAULT_LOCK = threading.Lock()


def default_policy() -> TuningPolicy:
    """The policy every ``backend="auto"`` solve consults by default.

    Created lazily over :func:`~repro.tune.db.default_db_path`; replace
    it with :func:`set_default_policy` (services that manage their own
    table) or :func:`reset_default_policy` (tests, or after re-tuning).
    """
    global _DEFAULT_POLICY
    if _DEFAULT_POLICY is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_POLICY is None:
                _DEFAULT_POLICY = TuningPolicy()
    return _DEFAULT_POLICY


def set_default_policy(policy: TuningPolicy | None) -> None:
    """Install ``policy`` as the process-wide default (None to reset)."""
    global _DEFAULT_POLICY
    with _DEFAULT_LOCK:
        _DEFAULT_POLICY = policy


def reset_default_policy() -> None:
    """Forget the cached default policy (it reloads lazily on next use)."""
    set_default_policy(None)
