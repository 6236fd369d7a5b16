"""The native (JIT-compiled C) backend: cache correctness + equivalence.

Covers the compile-cache hardening (atomic publication, corrupt-``.so``
recovery, digest over compiler identity and flags), the typed kernel
contract, the NumPy-equivalence sweep through ``PLRSolver``, the fused
batch entry point behind ``BatchSolver(backend="native")``, the typed
rejection of a worker pool on the native backend, fork safety of the
process pool after OpenMP kernels ran, and graceful degradation when
no compiler exists.

Everything here carries the ``native`` marker; the whole module skips
cleanly on machines without a C compiler (the degradation *behaviour*
is still exercised on machines with one, by monkeypatching the
compiler probe away).
"""

from __future__ import annotations

import ctypes
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen import cbackend, jit
from repro.codegen.cbackend import (
    compile_c_kernel,
    kernel_digest,
    load_kernel_library,
)
from repro.batch.solver import BatchSolver
from repro.cli import main
from repro.codegen.ir import build_ir
from repro.codegen.jit import clear_native_cache, native_available, solver_kernel
from repro.core.coefficients import table1_signatures
from repro.core.errors import BackendError, NumericalError
from repro.core.recurrence import Recurrence
from repro.core.validation import assert_valid
from repro.obs.metrics import global_metrics
from repro.parallel.backend import solve_sharded
from repro.parallel.sharding import ShardOptions
from repro.plr.optimizer import optimize_factors
from repro.plr.phase1 import phase1
from repro.plr.phase2 import phase2
from repro.plr.solver import PLRSolver, cached_factor_table
from repro.resilience.solver import ResilientSolver
from repro.serve.server import ServeConfig
from tests.conftest import TABLE1_NAMES, make_values

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(
        not native_available(), reason="no C compiler on this machine"
    ),
]


def _ir(text: str = "(1: 1)", n: int = 4096):
    return build_ir(Recurrence.parse(text), n)


class TestCacheHardening:
    def test_corrupt_so_recompiled(self, tmp_path):
        """A truncated/garbage ``.so`` under the digest path must not be
        trusted — the loader failure triggers an in-place recompile.

        The first compile runs in a child process: a crashed writer
        leaves its corrupt artifact behind for a *fresh* process, and
        overwriting a ``.so`` this process has dlopen'ed would be
        undefined behaviour, not a cache test.
        """
        script = (
            "from repro.codegen.cbackend import compile_c_kernel\n"
            "from repro.codegen.ir import build_ir\n"
            "from repro.core.recurrence import Recurrence\n"
            f"k = compile_c_kernel(build_ir(Recurrence.parse('(1: 1)'), 4096), workdir={str(tmp_path)!r})\n"
            "print(k.library_path)\n"
        )
        probe = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            capture_output=True,
            text=True,
        )
        so_path = Path(probe.stdout.strip())
        assert so_path.exists()
        so_path.write_bytes(b"not an ELF object")  # simulate a torn write
        kernel = compile_c_kernel(_ir(), workdir=tmp_path)
        assert kernel.library_path == so_path
        values = np.arange(1, 9, dtype=np.int32)
        np.testing.assert_array_equal(
            kernel(values), np.cumsum(values, dtype=np.int32)
        )

    def test_flag_change_misses_cache(self, tmp_path):
        plain = compile_c_kernel(_ir(), workdir=tmp_path)
        flagged = compile_c_kernel(
            _ir(), workdir=tmp_path, extra_flags=("-DPLR_CACHE_PROBE",)
        )
        assert plain.library_path != flagged.library_path
        assert plain.digest != flagged.digest

    def test_compiler_version_in_digest(self, tmp_path, monkeypatch):
        before = compile_c_kernel(_ir(), workdir=tmp_path)
        monkeypatch.setattr(
            cbackend, "_compiler_version", lambda compiler: "phantom 99.9.9"
        )
        after = compile_c_kernel(_ir(), workdir=tmp_path)
        assert before.digest != after.digest
        assert before.library_path != after.library_path

    def test_digest_is_deterministic(self):
        parts = ("int x;", "/usr/bin/cc", ("-O2",), np.dtype(np.int32), 64)
        assert kernel_digest(*parts) == kernel_digest(*parts)
        assert kernel_digest("int y;", *parts[1:]) != kernel_digest(*parts)

    def test_no_leftover_temp_files(self, tmp_path):
        compile_c_kernel(_ir(), workdir=tmp_path)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []

    def test_compile_failure_is_typed_and_uncached(self, tmp_path):
        with pytest.raises(BackendError, match="compil"):
            compile_c_kernel(_ir(), workdir=tmp_path, extra_flags=("-Wl,--no-such-flag-ever",))
        # Nothing was published under the failing digest.
        assert list(tmp_path.glob("*.so")) == []


class TestKernelContract:
    def test_missing_symbol_is_typed(self, tmp_path):
        source = tmp_path / "empty.c"
        source.write_text("int plr_unrelated(void) { return 0; }\n")
        so_path = tmp_path / "empty.so"
        compiler = cbackend._find_compiler()
        subprocess.run(
            [compiler, "-shared", "-fPIC", str(source), "-o", str(so_path)],
            check=True,
            capture_output=True,
        )
        with pytest.raises(BackendError, match="plr_compute"):
            load_kernel_library(so_path)

    def test_missing_batch_symbol_is_typed(self, tmp_path):
        """A kernel from before the batched entry point fails its load."""
        source = tmp_path / "single_only.c"
        source.write_text(
            "void plr_compute(const int *in, int *out, long long n) "
            "{ for (long long i = 0; i < n; i++) out[i] = in[i]; }\n"
        )
        so_path = tmp_path / "single_only.so"
        compiler = cbackend._find_compiler()
        subprocess.run(
            [compiler, "-shared", "-fPIC", str(source), "-o", str(so_path)],
            check=True,
            capture_output=True,
        )
        with pytest.raises(BackendError, match="plr_compute_batch"):
            load_kernel_library(so_path)

    def test_unloadable_library_is_typed(self, tmp_path):
        bogus = tmp_path / "bogus.so"
        bogus.write_bytes(b"\x7fELF-but-not-really")
        with pytest.raises(BackendError, match="failed to load"):
            load_kernel_library(bogus)

    def test_rejects_2d_and_empty(self, tmp_path):
        kernel = compile_c_kernel(_ir(), workdir=tmp_path)
        with pytest.raises(BackendError, match="1-D"):
            kernel(np.zeros((2, 3), dtype=np.int32))
        with pytest.raises(BackendError, match="non-empty"):
            kernel(np.array([], dtype=np.int32))


class TestNativeEquivalence:
    """backend="native" must be indistinguishable from the numpy path:
    bit-identical for integer dtypes, tolerance-equal for floats."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(TABLE1_NAMES),
        n=st.one_of(
            st.integers(min_value=1, max_value=8),  # n < k tails
            st.integers(min_value=9, max_value=20000),
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_table1_sweep(self, name, n, seed):
        recurrence = Recurrence(table1_signatures()[name])
        values = make_values(recurrence, n, seed=seed)
        native = PLRSolver(recurrence, backend="native", native_fallback=False)
        single = PLRSolver(recurrence, backend="single")
        got, artifacts = native.solve_with_artifacts(values)
        expected = single.solve(values)
        assert artifacts.native is not None and artifacts.native.used
        # Integer dtypes compare bit for bit; floats use the paper's
        # Section 5 tolerance (the serial-per-chunk kernel and the
        # doubling-merge numpy path round differently).
        assert_valid(got, expected, context=f"native/{name}/n={n}")

    @pytest.mark.parametrize(
        "text,dtype",
        [
            ("(1: 2, -1)", np.int32),  # wraps around the int32 ring
            ("(1: 2, -1)", np.int64),
            ("(0.04: 1.6, -0.64)", np.float64),
        ],
    )
    def test_wraparound_and_wide_dtypes(self, text, dtype, rng):
        recurrence = Recurrence.parse(text)
        if np.issubdtype(dtype, np.integer):
            values = rng.integers(-100, 100, 20000).astype(dtype)
        else:
            values = rng.standard_normal(20000).astype(dtype)
        native = PLRSolver(recurrence, backend="native", native_fallback=False)
        got = native.solve(values, dtype=dtype)
        expected = PLRSolver(recurrence).solve(values, dtype=dtype)
        if np.issubdtype(dtype, np.integer):
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_batch_solver_native_matches(self, rng):
        values = rng.integers(-50, 50, size=(6, 4000)).astype(np.int32)
        native = BatchSolver("(1: 2, -1)", backend="native")
        single = BatchSolver("(1: 2, -1)")
        np.testing.assert_array_equal(native.solve(values), single.solve(values))


class TestFusedBatch:
    """``BatchSolver(backend="native")`` is one ``plr_compute_batch``
    call whose every row is byte-for-byte the single-sequence solve."""

    @pytest.mark.parametrize("name", TABLE1_NAMES)
    def test_rows_match_single_solves(self, name):
        recurrence = Recurrence(table1_signatures()[name])
        single = PLRSolver(recurrence, backend="native", native_fallback=False)
        batch = BatchSolver(recurrence, backend="native")
        m = single.plan_for(1).chunk_size
        k = recurrence.recursive_signature.order
        lengths = sorted({1, max(1, k - 1), m - 1, m, m + 1, 3 * m + 7})
        generator = np.random.default_rng(len(name))
        fallbacks = global_metrics().counter("native.fallbacks")
        before = fallbacks.value
        for dtype in (np.int32, np.int64, np.float32, np.float64):
            for n in lengths:
                for rows in (1, 3, 64):
                    if np.issubdtype(dtype, np.integer):
                        values = generator.integers(-100, 100, (rows, n)).astype(dtype)
                    else:
                        values = generator.standard_normal((rows, n)).astype(dtype)
                    if np.issubdtype(dtype, np.integer) and not recurrence.is_integer:
                        # Fractional coefficients cannot run in an
                        # integer ring: both paths refuse alike.
                        with pytest.raises(NumericalError):
                            batch.solve(values, dtype=dtype)
                        with pytest.raises(NumericalError):
                            single.solve(values[0], dtype=dtype)
                        continue
                    got = batch.solve(values, dtype=dtype)
                    assert got.dtype == dtype and got.shape == (rows, n)
                    for i in range(rows):
                        expected = single.solve(values[i], dtype=dtype)
                        assert got[i].tobytes() == expected.tobytes(), (
                            f"{name} {np.dtype(dtype).name} n={n} B={rows} row {i}"
                        )
        assert fallbacks.value == before

    def test_one_kernel_call_per_batch(self, monkeypatch, rng):
        recurrence = Recurrence.parse("(1: 2, -1)")
        solver = BatchSolver(recurrence, backend="native")
        values = rng.integers(-50, 50, size=(64, 4000)).astype(np.int32)
        solver.solve(values)  # compile outside the count
        plan = solver.plan_for(4000)
        table = cached_factor_table(
            recurrence.recursive_signature, plan.chunk_size, np.int32
        )
        kernel = solver_kernel(
            recurrence.recursive_signature, plan, table, optimize_factors(table)
        )
        calls = []
        library = kernel._lib

        class CountingLibrary:
            def __getattr__(self, symbol):
                entry = getattr(library, symbol)

                def counted(*args):
                    calls.append(symbol)
                    return entry(*args)

                return counted

        monkeypatch.setattr(kernel, "_lib", CountingLibrary())
        out = solver.solve(values)
        assert calls == ["plr_compute_batch"]
        np.testing.assert_array_equal(out, BatchSolver(recurrence).solve(values))


class TestNoWorkerPool:
    """``backend="native"`` is one in-process OpenMP kernel: asking for a
    worker pool on it is a typed error at construction."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PLRSolver("(1: 1)", backend="native", workers=2),
            lambda: PLRSolver(
                "(1: 1)", backend="native", shard_options=ShardOptions(workers=2)
            ),
            lambda: BatchSolver("(1: 1)", backend="native", workers=2),
            lambda: ResilientSolver("(1: 1)", backend="native", workers=2),
            lambda: ServeConfig(backend="native", workers=2),
        ],
        ids=["solver", "shard-options", "batch", "resilient", "serve-config"],
    )
    def test_native_rejects_workers(self, make):
        with pytest.raises(BackendError, match="no worker pool"):
            make()

    def test_cli_rejects_workers(self, capsys):
        code = main(
            ["serve", "--self-test", "--backend", "native", "--workers", "2"]
        )
        assert code == 2
        assert "no worker pool" in capsys.readouterr().err
        # ``plr run`` has no pool at all: the flag is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "(1: 1)", "--backend", "native", "--workers", "2"])
        assert exit_info.value.code == 2


class TestForkSafety:
    def test_sharded_pool_after_openmp_kernel(self, rng):
        """A forked pool must complete after OpenMP kernels ran here.

        A fork copies the parent's OpenMP runtime state but not its
        threads; a child that then enters an OpenMP region deadlocks.
        Run a kernel on two threads first, then shard.
        """
        recurrence = Recurrence.parse("(1: 2, -1)")
        values = rng.integers(-50, 50, 40000).astype(np.int32)
        try:
            gomp = ctypes.CDLL("libgomp.so.1")
        except OSError:
            gomp = None
        previous = gomp.omp_get_max_threads() if gomp is not None else None
        if gomp is not None:
            gomp.omp_set_num_threads(2)
        try:
            PLRSolver(recurrence, backend="native", native_fallback=False).solve(values)
            single = PLRSolver(recurrence)
            plan = single.plan_for(values.size)
            table = single.factor_table(plan, np.dtype(np.int32))
            padded = np.zeros(plan.padded_n, dtype=np.int32)
            padded[: values.size] = values
            got = solve_sharded(
                padded,
                table,
                plan.values_per_thread,
                options=ShardOptions(workers=2, timeout_s=60.0),
            )
        finally:
            if gomp is not None:
                gomp.omp_set_num_threads(previous)
        expected = phase2(phase1(padded, table, plan.values_per_thread), table)
        np.testing.assert_array_equal(got, expected)


class TestDegradation:
    """No compiler must never kill a solve — typed record, numpy result."""

    def _hide_compiler(self, monkeypatch):
        def _missing() -> str:
            raise BackendError("no C compiler found (tried: cc, gcc, clang)")

        monkeypatch.setattr(cbackend, "_find_compiler", _missing)
        clear_native_cache()

    def test_solver_degrades_with_attempt_record(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        # A non-Table-1 signature so no previously cached kernel can hit.
        recurrence = Recurrence.parse("(3: 1, 1, 1)")
        values = rng.integers(-9, 9, 5000).astype(np.int32)
        solver = PLRSolver(recurrence, backend="native")
        got, artifacts = solver.solve_with_artifacts(values)
        assert artifacts.native is not None
        assert not artifacts.native.used
        assert "BackendError" in artifacts.native.error
        np.testing.assert_array_equal(got, PLRSolver(recurrence).solve(values))

    def test_strict_mode_raises(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        solver = PLRSolver(
            "(3: 1, 1, 1)", backend="native", native_fallback=False
        )
        with pytest.raises(BackendError):
            solver.solve(rng.integers(-9, 9, 5000).astype(np.int32))

    def test_resilient_chain_records_backend_fault(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        from repro.resilience.solver import ResilientSolver

        solver = ResilientSolver("(3: 1, 1, 1)", backend="native")
        values = rng.integers(-9, 9, 5000).astype(np.int32)
        report = solver.solve_with_report(values)
        assert report.ok
        assert [attempt.outcome for attempt in report.attempts] == ["backend", "ok"]
        assert report.degraded
        np.testing.assert_array_equal(
            report.output, PLRSolver("(3: 1, 1, 1)").solve(values)
        )

    def test_batch_solver_degrades_to_numpy(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        values = rng.integers(-9, 9, size=(5, 3000)).astype(np.int32)
        fallbacks = global_metrics().counter("native.fallbacks")
        before = fallbacks.value
        got = BatchSolver("(3: 1, 1, 1)", backend="native").solve(values)
        assert fallbacks.value == before + 1
        np.testing.assert_array_equal(got, BatchSolver("(3: 1, 1, 1)").solve(values))

    def test_native_available_reflects_probe(self, monkeypatch):
        assert native_available()
        self._hide_compiler(monkeypatch)
        assert not native_available()

    def test_clear_native_cache_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLR_NATIVE_CACHE_DIR", str(tmp_path))
        clear_native_cache()
        kernel = jit.native_kernel(_ir("(1: 0, 1)", 4096))
        assert kernel.library_path.exists()
        removed = clear_native_cache(disk=True)
        assert removed >= 1
        assert not kernel.library_path.exists()
