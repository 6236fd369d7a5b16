"""The in-process workloads: ``long-signal`` and ``short-calls``.

Both are closed loops on one thread: each op is one API call a user
makes (``PLRSolver(...).solve(x)`` or ``BatchSolver(...).solve(X)``),
timed alone, its output checked against the independent oracle outside
the timed region.  Every round runs every op once in a seeded random
order, so all kinds see the same machine noise, and the loop stops only
at a round boundary, so every round has the same mix.
"""

from __future__ import annotations

import time

import numpy as np

from common import LayerStats, Spans, geomean, median, reference_s

INT_SIGNATURES = ("(1: 1)", "(1: 0, 1)", "(1: 2, -1)", "(1: 3, -3, 1)")
"""Table 1's integer classes: prefix sum, 2-tuple, order-2 and order-3 sums."""

LONG_N = 1 << 22
REF_PERIOD_S = 0.1
"""How often the loop re-times the reference op; each op is judged
against the latest reading."""
SMOKE_LONG_N = 1 << 14
"""``long-signal``'s length under ``--smoke`` (the benchmark's self-test)."""
SHORT_NS = (1 << 10, 1 << 12)
SHORT_SINGLE_INPUTS = 4
"""Distinct single-call inputs per (signature, n) in ``short-calls``."""
BATCH_ROWS = 64
ALL_KINDS = ("solve", "native", "process", "batch", "batch_native")


def table1_mix():
    """The benchmarked Table 1 mix: four integer classes and three filters.

    ``high_pass(1)`` has feed-forward terms, so it runs the map stage.
    """
    from repro.core.coefficients import high_pass, low_pass
    from repro.core.signature import Signature

    return [Signature.parse(text) for text in INT_SIGNATURES] + [
        low_pass(1),
        low_pass(3),
        high_pass(1),
    ]


class Op:
    """One timed API call with its input and the oracle's answer."""

    __slots__ = ("kind", "solver", "values", "expected", "elems", "key")

    def __init__(self, kind, solver, values, expected):
        self.kind = kind
        self.solver = solver
        self.values = values
        self.expected = expected
        self.elems = values.size
        self.key = (str(solver.recurrence.signature), values.shape)
        """The op's class: ops of one class do the same work on other data."""


class LibraryWorkload:
    """Shared set-up, loop and metrics of the two in-process workloads."""

    name = ""
    kinds: tuple = ()

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.skipped: list[str] = []

    # -- set-up ----------------------------------------------------------
    def lengths(self):
        raise NotImplementedError

    def setup(self, spans: Spans | None) -> None:
        """Imports, solvers, cold factor tables and cold native compiles."""
        from repro.batch.solver import BatchSolver
        from repro.codegen.jit import native_available
        from repro.plr.solver import PLRSolver

        import layers

        self.layers = layers
        if not native_available():
            self.skipped = [k for k in self.kinds if k.endswith("native")]
        self.kinds = tuple(k for k in self.kinds if k not in self.skipped)
        self.signatures = table1_mix()
        self.solvers = {}
        for sig in self.signatures:
            for kind in self.kinds:
                if kind in layers.SOLVER_KINDS:
                    solver = PLRSolver(sig, backend=layers.SOLVER_KINDS[kind])
                else:
                    solver = BatchSolver(sig, backend=layers.BATCH_KINDS[kind])
                self.solvers[(kind, sig)] = solver
        dtype = {True: np.int32, False: np.float32}
        native = any(k.endswith("native") for k in self.kinds)
        for sig in self.signatures:
            solver = self.solvers[(self.kinds[0], sig)]
            for n in self.lengths():
                layers.warm(
                    solver.recurrence, solver.machine, n, dtype[sig.is_integer], native, spans
                )

    # -- inputs ----------------------------------------------------------
    def make_ops(self, rng) -> list[Op]:
        raise NotImplementedError

    @staticmethod
    def draw(rng, sig, shape):
        if sig.is_integer:
            return rng.integers(-1000, 1000, size=shape, dtype=np.int32)
        return rng.standard_normal(size=shape, dtype=np.float32)

    # -- the timed loop --------------------------------------------------
    def run(self, seed: int, seconds: float, spans: Spans | None) -> dict:
        import oracle
        from common import reset_peak_rss, peak_rss_mb
        from repro.plr.solver import factor_cache_stats

        rng = np.random.default_rng(seed)
        ops = self.make_ops(rng)
        answers = {}
        for op in ops:
            key = id(op.values)
            if key not in answers:
                answers[key] = oracle.oracle(op.solver.recurrence.signature, op.values)
            op.expected = answers[key]
        checked = set()
        for op in ops:
            key = (op.solver.recurrence.signature, op.values.shape[-1])
            if key not in checked:
                oracle.cross_check_prefix(key[0], op.values, op.expected)
                checked.add(key)

        lat = {k: {} for k in self.kinds}
        rel = {k: {} for k in self.kinds}
        rounds = {k: [] for k in self.kinds}
        refs = []
        busy = {k: 0.0 for k in self.kinds}
        traced = {k: 0.0 for k in self.kinds}
        attempted = failed = 0
        wrong, errors = [], []
        stats_before = factor_cache_stats()
        reset_peak_rss()
        start = time.perf_counter()
        ref_at = -REF_PERIOD_S
        while True:
            round_busy = {k: 0.0 for k in self.kinds}
            round_elems = {k: 0 for k in self.kinds}
            for index in rng.permutation(len(ops)):
                op = ops[index]
                if time.perf_counter() - ref_at >= REF_PERIOD_S:
                    ref = reference_s(3)
                    refs.append(ref)
                    ref_at = time.perf_counter()
                attempted += 1
                try:
                    t0 = time.perf_counter()
                    out = op.solver.solve(op.values)
                    dt = time.perf_counter() - t0
                except Exception as exc:  # a typed error is a failed op
                    failed += 1
                    errors.append(f"{op.kind} raised {type(exc).__name__}: {exc}")
                    continue
                lat[op.kind].setdefault(op.key, []).append(dt)
                rel[op.kind].setdefault(op.key, []).append(dt / ref)
                busy[op.kind] += dt
                round_busy[op.kind] += dt
                round_elems[op.kind] += op.elems
                if not oracle.matches(out, op.expected):
                    failed += 1
                    wrong.append(f"{op.kind} {op.solver.recurrence.signature} n={op.values.shape}")
                if spans is not None:
                    traced[op.kind] += self.traced_call(spans, op, out)
            for k in self.kinds:
                if round_busy[k]:
                    rounds[k].append(round_elems[k] / round_busy[k] / 1e6)
            if time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        rss = peak_rss_mb()

        per_kind = {
            k: {
                "melem_s": median(rounds[k]),
                "p50_ms": geomean(median(v) for v in lat[k].values()) * 1e3,
                "p50_ref": geomean(median(v) for v in rel[k].values()),
                "ops": sum(len(v) for v in lat[k].values()),
                "rounds": len(rounds[k]),
            }
            for k in self.kinds
            if lat[k]
        }
        result = {
            "attempted": attempted,
            "failed": failed,
            "correct": not wrong,
            "mismatches": wrong[:10],
            "errors": errors[:10],
            "skipped_kinds": self.skipped,
            "wall_s": wall,
            "reference_us": median(refs) * 1e6,
            "per_kind": per_kind,
        }
        if spans is None:
            result["metrics"] = {
                "p50_ref": geomean(v["p50_ref"] for v in per_kind.values()),
                "peak_rss_mb": rss,
            }
            return result
        stats_after = factor_cache_stats()
        result["layer_metrics"] = self.layer_metrics(
            spans, per_kind, busy, traced, stats_before, stats_after,
            self.layers.compiles(), ops,
        )
        result["layer_metrics"]["fail_frac"] = failed / attempted
        return result

    def traced_call(self, spans, op, reference) -> float:
        """Run the op again as layer calls, in spans; check bit-identity."""
        layers = self.layers
        with spans.span(f"kind.{op.kind}") as root:
            if op.kind in layers.SOLVER_KINDS:
                out = layers.solve_layers(spans, op.solver, op.values, op.kind)
            else:
                out = layers.batch_layers(spans, op.solver, op.values, op.kind)
        layers.check_identical(out, reference, f"{op.kind} {op.solver.recurrence.signature}")
        return spans.duration_ns(root) / 1e9

    # -- per-layer metrics -----------------------------------------------
    def layer_metrics(self, spans, per_kind, busy, traced, before, after, compiles, ops):
        stats = LayerStats(spans)
        m = {name: 0.0 for name in NOT_CALLED}
        for kind in ALL_KINDS:
            info = per_kind.get(kind, {"melem_s": 0.0, "p50_ms": 0.0})
            m[f"{kind}.melem_s"] = info["melem_s"]
            if kind in ("solve", "native", "batch"):
                m[f"{kind}.p50_ms"] = info["p50_ms"]

        m["plr.planner.plan_us"] = stats.mean_us("plr.planner")
        m["plr.optimizer.optimize_us"] = stats.mean_us("plr.optimizer")
        hits, builds = [], []
        for i, name in enumerate(spans.names):
            if name == "plr.factors.lookup":
                (builds if spans.args[i]["build"] else hits).append(spans.duration_ns(i))
        m["plr.factors.lookup_us"] = (sum(hits) / len(hits) / 1e3) if hits else 0.0
        m["plr.factors.build_ms"] = (sum(builds) / len(builds) / 1e6) if builds else 0.0
        dm = after["misses"] - before["misses"]
        dh = after["hits"] - before["hits"]
        m["plr.factors.builds"] = float(dm)
        m["plr.factors.hit_ratio"] = dh / (dh + dm) if dh + dm else 0.0
        m["core.recurrence.map_stage_ms"] = stats.mean_us("core.recurrence.map_stage") / 1e3
        for phase in ("plr.phase1", "plr.phase2"):
            m[f"{phase}.ms"] = stats.mean_us(phase) / 1e3
            elems = sum(spans.args[i]["elems"] for i, n in enumerate(spans.names) if n == phase)
            m[f"{phase}.ns_per_elem"] = stats.total_ns.get(phase, 0) / elems if elems else 0.0
        m["plr.solver.self_us"] = stats.mean_us("kind.solve", self_time=True)

        compile_ns = [
            spans.duration_ns(i)
            for i, name in enumerate(spans.names)
            if name == "codegen.jit.native_kernel" and (spans.args[i] or {}).get("compiled")
        ]
        m["codegen.jit.compile_ms"] = sum(compile_ns) / len(compile_ns) / 1e6 if compile_ns else 0.0
        m["codegen.jit.compiles"] = float(compiles)
        kernels = [i for i, name in enumerate(spans.names) if name == "codegen.jit.kernel"]
        kernel_ns = sum(spans.duration_ns(i) for i in kernels)
        kernel_bytes = sum(2 * spans.args[i]["n"] * spans.args[i]["itemsize"] for i in kernels)
        m["codegen.jit.kernel_ms"] = stats.mean_us("codegen.jit.kernel") / 1e3
        m["codegen.jit.kernel_gb_s"] = kernel_bytes / kernel_ns if kernel_ns else 0.0
        memcpy_gb_s = self.memcpy_gb_s(ops)
        m["ref.memcpy_gb_s"] = memcpy_gb_s
        m["codegen.jit.kernel_frac_memcpy"] = m["codegen.jit.kernel_gb_s"] / memcpy_gb_s
        # Native solve minus its kernel call, for single native solves.
        dispatch = [
            spans.duration_ns(spans.parents[i]) - spans.duration_ns(i)
            for i in kernels
            if spans.names[spans.parents[i]] == "kind.native"
        ]
        m["codegen.jit.dispatch_us"] = sum(dispatch) / len(dispatch) / 1e3 if dispatch else 0.0
        m["parallel.solve_sharded_ms"] = stats.mean_us("parallel.solve_sharded") / 1e3
        m["parallel.workers"] = float(self.process_workers()) if "process" in self.kinds else 0.0
        m["plr.nd.solve_batch_ms"] = stats.mean_us("plr.nd.solve_batch") / 1e3
        m["batch.solver.native_row_us"] = stats.mean_us("batch.solver.native_row")

        # What the layer spans do not cover, per kind, as a share of the
        # untraced op time: untraced time minus the layers' self times
        # (the kind's root self time included, bookkeeping excluded).
        layer_self = {k: 0 for k in self.kinds}
        self_ns = spans.self_times_ns()
        kind_of = {-1: None}
        for i, name in enumerate(spans.names):
            kind_of[i] = name[5:] if name.startswith("kind.") else kind_of[spans.parents[i]]
            if kind_of[i] is not None and name != self.layers.BOOKKEEPING:
                layer_self[kind_of[i]] += self_ns[i]
        for kind in ALL_KINDS:
            if busy.get(kind):
                m[f"remainder.{kind}_frac"] = (busy[kind] - layer_self[kind] / 1e9) / busy[kind]
            else:
                m[f"remainder.{kind}_frac"] = 0.0
        m["obs.trace_overhead_frac"] = sum(traced.values()) / sum(busy.values()) - 1.0
        return m

    def process_workers(self) -> int:
        from repro.parallel.sharding import resolve_workers
        from repro.plr.planner import plan_execution

        plan = plan_execution(self.signatures[0], self.lengths()[0])
        return resolve_workers(None, plan.padded_n // plan.chunk_size)

    @staticmethod
    def memcpy_gb_s(ops) -> float:
        """``np.copyto`` bandwidth on the workload's own input arrays."""
        rates = []
        for op in ops[:16]:
            dst = np.empty_like(op.values)
            for _ in range(3):
                t0 = time.perf_counter()
                np.copyto(dst, op.values)
                dt = time.perf_counter() - t0
                rates.append(2 * op.values.nbytes / dt / 1e9)
        return median(rates)


class LongSignal(LibraryWorkload):
    name = "long-signal"
    kinds = ("solve", "native", "process")

    def lengths(self):
        return (SMOKE_LONG_N if self.smoke else LONG_N,)

    def make_ops(self, rng):
        ops = []
        for sig in self.signatures:
            values = self.draw(rng, sig, self.lengths()[0])
            for kind in self.kinds:
                ops.append(Op(kind, self.solvers[(kind, sig)], values, None))
        return ops


class ShortCalls(LibraryWorkload):
    name = "short-calls"
    kinds = ("solve", "native", "batch", "batch_native")

    def lengths(self):
        return SHORT_NS

    def make_ops(self, rng):
        ops = []
        for sig in self.signatures:
            for n in SHORT_NS:
                singles = [self.draw(rng, sig, n) for _ in range(SHORT_SINGLE_INPUTS)]
                batch = self.draw(rng, sig, (BATCH_ROWS, n))
                for kind in self.kinds:
                    if kind in ("solve", "native"):
                        ops.extend(Op(kind, self.solvers[(kind, sig)], x, None) for x in singles)
                    else:
                        ops.append(Op(kind, self.solvers[(kind, sig)], batch, None))
        return ops


NOT_CALLED = (
    "serve.p50_ms", "serve.p99_ms", "serve.slo_frac", "serve.req_s",
    "serve.open_loop_samples", "serve.protocol.decode_us", "serve.protocol.encode_us",
    "serve.client.encode_us", "serve.server.latency_p50_ms", "serve.server.flushes",
    "serve.server.occupancy", "serve.loadgen.lag_ms", "remainder.serve_frac",
    "batch.planner.plan_us", "batch.engine.execute_ms", "serve.factors.lookup_us",
    "serve.factors.build_ms", "serve.factors.builds", "serve.factors.hit_ratio",
    "serve.trace_overhead_frac",
)
"""Per-layer metrics of the serve phase; 0 unless the traced short-calls
run adds them."""
