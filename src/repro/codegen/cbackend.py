"""The C backend: emitted code that actually compiles and runs.

The paper's toolchain emits CUDA and runs it on a GPU; without one, the
reproduction still needs an end-to-end *executable* code-generation
path, or the emitters would be write-only artifacts.  This backend
emits C99 implementing the identical algorithm —

* the same FIR map stage,
* the same Phase 1 doubling with the same correction factors, realized
  per the same optimizer decisions (constants folded, periodic lists
  indexed modulo their period, decayed tails suppressed, 0/1 factors as
  conditional adds),
* the same carry-transition propagation and final correction

— parallelized with OpenMP across chunks.  The decoupled-lookback
busy-wait of the GPU version is replaced by a chunk-barrier between the
carry propagation and the bulk correction, which is the natural shape
for a CPU with a handful of cores (the carry spine is O(chunks * k^2)
and not worth pipelining there); the protocol itself is exercised by
:mod:`repro.gpusim.executor`.

The emitted source is compiled with the system C compiler into a shared
object and loaded through ctypes, giving a genuine
signature -> generated code -> machine code -> verified result path.

Compiled objects are cached on disk as ``plr_<digest>.so`` under
:func:`default_cache_dir`.  The digest covers the emitted source, the
compiler's real path and ``--version`` banner, the exact flag set, and
the dtype/chunk-size pair, so a toolchain swap or flag change can never
resurrect a stale binary.  Publication is atomic (compile to a unique
temp file, then ``os.replace``): concurrent processes race benignly —
first writer wins, later writers replace it with a byte-equivalent
object — and a reader can never load a half-written ``.so``.  A
corrupt cache entry (e.g. left by a compile killed before this
hardening) fails its load-time validation and is recompiled in place.
See ``docs/native.md`` for the cache layout and how to clear it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.codegen.ir import KernelIR
from repro.core.errors import BackendError
from repro.plr.optimizer import FactorRealization
from repro.plr.phase2 import transition_matrix

__all__ = [
    "emit_c",
    "CompiledCKernel",
    "compile_c_kernel",
    "default_cache_dir",
    "kernel_digest",
    "load_kernel_library",
]


def _chunked(literals: list[str], per_line: int = 12) -> str:
    lines = []
    for i in range(0, len(literals), per_line):
        lines.append("    " + ", ".join(literals[i : i + per_line]) + ",")
    return "\n".join(lines).rstrip(",")


def _factor_function(ir: KernelIR, j: int) -> str:
    """A C function returning factor j at offset i, realization-aware."""
    decision = ir.factor_plan.decisions[j]
    ctype = ir.c_type
    real = decision.realization
    if real == FactorRealization.CONSTANT:
        return (
            f"static inline {ctype} plr_factor_{j}(long long i) {{\n"
            f"    (void)i;\n    return {ir.literal(decision.constant)};\n}}\n"
        )
    if real == FactorRealization.SHIFT_OF_FIRST:
        scale = ir.literal(decision.scale)
        return (
            f"static inline {ctype} plr_factor_{j}(long long i) {{\n"
            f"    return (i == 0) ? {scale} : {scale} * plr_factor_0(i - 1);\n}}\n"
        )
    if real == FactorRealization.PERIODIC:
        period = decision.period
        lits = ir.factor_row_literals(j, period)
        return (
            f"static const {ctype} plr_factors_{j}[{period}] = {{\n{_chunked(lits)}\n}};\n"
            f"static inline {ctype} plr_factor_{j}(long long i) {{\n"
            f"    return plr_factors_{j}[i % {period}];\n}}\n"
        )
    if real == FactorRealization.TRUNCATED:
        cutoff = max(1, decision.cutoff)
        lits = ir.factor_row_literals(j, cutoff)
        return (
            f"static const {ctype} plr_factors_{j}[{cutoff}] = {{\n{_chunked(lits)}\n}};\n"
            f"static inline {ctype} plr_factor_{j}(long long i) {{\n"
            f"    return (i < {cutoff}) ? plr_factors_{j}[i] : {ir.literal(0)};\n}}\n"
        )
    lits = ir.factor_row_literals(j)
    return (
        f"static const {ctype} plr_factors_{j}[{ir.chunk_size}] = {{\n{_chunked(lits)}\n}};\n"
        f"static inline {ctype} plr_factor_{j}(long long i) {{\n"
        f"    return plr_factors_{j}[i];\n}}\n"
    )


def _correction_statement(ir: KernelIR, j: int, offset: str, carry: str) -> str:
    """One carry's contribution, honoring the zero/one optimization."""
    decision = ir.factor_plan.decisions[j]
    if decision.realization == FactorRealization.CONSTANT:
        const = decision.constant
        if const == 0:
            return ";"
        if const == 1:
            return f"acc += {carry};"
        return f"acc += {ir.literal(const)} * {carry};"
    factor = f"plr_factor_{j}({offset})"
    zero_one = decision.realization == FactorRealization.ZERO_ONE or (
        decision.realization == FactorRealization.PERIODIC
        and ir.factor_plan.config.zero_one_conditional
        and ir.table.is_zero_one(j)
    )
    if zero_one:
        return f"if ({factor}) acc += {carry};"
    return f"acc += {factor} * {carry};"


def emit_c(ir: KernelIR) -> str:
    """Emit the complete C99 translation unit for one kernel plan."""
    ctype = ir.c_type
    k = ir.order
    x = ir.plan.values_per_thread
    sig = ir.recurrence.signature
    active = ir.factor_plan.phase1_active_elements

    factor_functions = [
        f"static inline {ctype} plr_factor_0(long long i);"
        if any(
            d.realization == FactorRealization.SHIFT_OF_FIRST
            for d in ir.factor_plan.decisions
        )
        else ""
    ]
    for j in range(k):
        factor_functions.append(_factor_function(ir, j))

    matrix = transition_matrix(ir.table)
    matrix_rows = ", ".join(
        "{" + ", ".join(ir.literal(v) for v in matrix[r]) + "}" for r in range(k)
    )

    map_stage_lines = []
    if ir.recurrence.has_map_stage:
        ff = ir.feedforward_literals()
        map_stage_lines.append(
            f"        {ctype} acc = {ff[0]} * ((gpos < n) ? input[gpos] : {ir.literal(0)});"
        )
        for d in range(1, len(ff)):
            map_stage_lines.append(
                f"        if (gpos >= {d} && gpos - {d} < n) acc += {ff[d]} * input[gpos - {d}];"
            )
        map_stage_lines.append("        chunk_vals[i] = acc;")
    else:
        map_stage_lines.append(
            f"        chunk_vals[i] = (gpos < n) ? input[gpos] : {ir.literal(0)};"
        )
    map_stage = "\n".join(map_stage_lines)

    fb = ir.feedback_literals()
    local_solve = []
    for j, b in enumerate(fb, start=1):
        local_solve.append(f"            if (i >= lo + {j}) acc += {b} * chunk_vals[i - {j}];")
    local_solve_body = "\n".join(local_solve)

    merge_corrections = "\n".join(
        f"                    {{ {_correction_statement(ir, j, 'i', f'carry[{j}]')} }}"
        for j in range(k)
    )
    final_corrections = "\n".join(
        f"            {{ {_correction_statement(ir, j, 'i', f'prev[{j}]')} }}"
        for j in range(k)
    )

    active_guard = (
        f"                long long limit = width < {active} ? width : {active};"
        if active < ir.chunk_size
        else "                long long limit = width;"
    )

    return f"""\
/* Generated by PLR (reproduction, C backend) -- do not edit.
 * Recurrence signature: {sig}
 * order k={k}, chunk m={ir.chunk_size}, x={x}, dtype={ir.dtype}
 * Factor realizations: {", ".join(d.realization.value for d in ir.factor_plan.decisions)}
 */
#include <stdlib.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#define PLR_K {k}
#define PLR_M {ir.chunk_size}
#define PLR_X {x}

{chr(10).join(f for f in factor_functions if f)}
static const {ctype} plr_carry_matrix[PLR_K][PLR_K] = {{ {matrix_rows} }};

/* Phase 1 for one chunk: thread-local solve then pairwise doubling. */
static void plr_phase1_chunk(const {ctype} *input, {ctype} *chunk_vals,
                             long long base, long long n) {{
    for (long long i = 0; i < PLR_M; i++) {{
        long long gpos = base + i;
{map_stage}
    }}
    /* thread-local serial solve over each width-PLR_X cell */
    for (long long lo = 0; lo < PLR_M; lo += PLR_X) {{
        for (long long i = lo + 1; i < lo + PLR_X; i++) {{
            {ctype} acc = chunk_vals[i];
{local_solve_body}
            chunk_vals[i] = acc;
        }}
    }}
    /* doubling merges: widths PLR_X, 2*PLR_X, ..., PLR_M/2 */
    for (long long width = PLR_X; width < PLR_M; width <<= 1) {{
        for (long long border = width; border < PLR_M; border += 2 * width) {{
            {ctype} carry[PLR_K];
            for (int j = 0; j < PLR_K; j++)
                carry[j] = (j < width) ? chunk_vals[border - 1 - j] : {ir.literal(0)};
            {{
{active_guard}
                for (long long i = 0; i < limit; i++) {{
                    {ctype} acc = 0;
{merge_corrections}
                    chunk_vals[border + i] += acc;
                }}
            }}
        }}
    }}
}}

/* rows independent sequences of length n, stored row-major.  Every
 * row is cut into the same chunks and runs the same per-chunk code and
 * the same spine as a one-row call, so each output row is bit-identical
 * to plr_compute on that row alone. */
void plr_compute_batch(const {ctype} *input, {ctype} *output,
                       long long rows, long long n) {{
    if (rows <= 0 || n <= 0) return;
    long long chunks = (n + PLR_M - 1) / PLR_M;
    long long pairs = rows * chunks;
    {ctype} *work = ({ctype} *)malloc((size_t)pairs * PLR_M * sizeof({ctype}));
    {ctype} *local = ({ctype} *)malloc((size_t)pairs * PLR_K * sizeof({ctype}));
    {ctype} *global = ({ctype} *)malloc((size_t)pairs * PLR_K * sizeof({ctype}));

    /* Phase 1 over all (row, chunk) pairs (embarrassingly parallel). */
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (long long p = 0; p < pairs; p++) {{
        long long r = p / chunks, c = p % chunks;
        plr_phase1_chunk(input + r * n, work + p * PLR_M, c * PLR_M, n);
        for (int j = 0; j < PLR_K; j++)
            local[p * PLR_K + j] = work[p * PLR_M + PLR_M - 1 - j];
    }}

    /* Carry spine per row: G_c = L_c + M * G_(c-1).  O(chunks * k^2). */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (rows > 1)
#endif
    for (long long r = 0; r < rows; r++) {{
        const {ctype} *lrow = local + r * chunks * PLR_K;
        {ctype} *grow = global + r * chunks * PLR_K;
        for (int j = 0; j < PLR_K; j++) grow[j] = lrow[j];
        for (long long c = 1; c < chunks; c++) {{
            for (int q = 0; q < PLR_K; q++) {{
                {ctype} acc = lrow[c * PLR_K + q];
                for (int j = 0; j < PLR_K; j++)
                    acc += plr_carry_matrix[q][j] * grow[(c - 1) * PLR_K + j];
                grow[c * PLR_K + q] = acc;
            }}
        }}
    }}

    /* Phase 2 bulk correction over all pairs (embarrassingly parallel). */
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (long long p = 0; p < pairs; p++) {{
        long long r = p / chunks, c = p % chunks;
        const {ctype} *prev = (c > 0) ? global + (p - 1) * PLR_K : 0;
        {ctype} *chunk_vals = work + p * PLR_M;
        if (prev) {{
            for (long long i = 0; i < PLR_M; i++) {{
                {ctype} acc = 0;
{final_corrections}
                chunk_vals[i] += acc;
            }}
        }}
        long long lo = c * PLR_M;
        long long count = (lo + PLR_M <= n) ? PLR_M : (n - lo);
        memcpy(output + r * n + lo, chunk_vals, (size_t)count * sizeof({ctype}));
    }}

    free(work);
    free(local);
    free(global);
}}

void plr_compute(const {ctype} *input, {ctype} *output, long long n) {{
    plr_compute_batch(input, output, 1, n);
}}
"""


@dataclass
class CompiledCKernel:
    """A compiled-and-loaded generated kernel, callable from numpy.

    ``kernel(x)`` solves one sequence; ``kernel.batch(X)`` solves every
    row of a ``(B, n)`` stack in one ``plr_compute_batch`` call, each row
    bit-identical to ``kernel(X[i])``.
    """

    ir: KernelIR
    source: str
    library_path: Path
    _lib: ctypes.CDLL
    digest: str = ""

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise BackendError(
                f"native kernel expects a 1-D array, got shape {values.shape}"
            )
        return self.batch(values[None, :])[0]

    def batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 2:
            raise BackendError(
                f"native batch kernel expects a 2-D array, got shape {values.shape}"
            )
        if values.size == 0:
            raise BackendError(
                "native kernel expects a non-empty array (length-0 inputs "
                "are handled by the numpy path before reaching a kernel)"
            )
        values = np.ascontiguousarray(values, dtype=self.ir.dtype)
        out = np.empty_like(values)
        rows, n = values.shape
        self._lib.plr_compute_batch(values.ctypes.data, out.ctypes.data, rows, n)
        return out


_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

# Base flag set.  -fwrapv makes signed-integer overflow wrap (two's
# complement) instead of being undefined: the integer recurrences are
# ring arithmetic and must match numpy's wraparound bit for bit.
_BASE_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv")

# OpenMP support per compiler realpath, probed once per process.
_OPENMP_SUPPORT: dict[str, bool] = {}


def _find_compiler() -> str:
    for candidate in _COMPILER_CANDIDATES:
        path = shutil.which(candidate)
        if path:
            return path
    raise BackendError(
        f"no C compiler found (tried {', '.join(_COMPILER_CANDIDATES)})"
    )


def _compiler_version(compiler: str) -> str:
    """First line of ``<compiler> --version`` — the toolchain identity."""
    try:
        proc = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    text = (proc.stdout or proc.stderr or "").strip()
    return text.splitlines()[0] if text else "unknown"


def _openmp_supported(compiler: str) -> bool:
    """Whether the compiler accepts -fopenmp, probed on a trivial TU.

    The probe runs once per compiler per process.  Knowing the answer
    *before* compiling a kernel means the final flag set is fixed up
    front and can be part of the cache digest — the old try-with-then-
    without dance made ``-fopenmp`` availability invisible to the cache
    key, so toolchain changes silently reused stale binaries.
    """
    real = os.path.realpath(compiler)
    cached = _OPENMP_SUPPORT.get(real)
    if cached is not None:
        return cached
    with tempfile.TemporaryDirectory(prefix="plr_omp_probe_") as tmp:
        probe = Path(tmp) / "probe.c"
        probe.write_text("int plr_probe(void) { return 0; }\n")
        proc = subprocess.run(
            [compiler, "-fopenmp", "-fPIC", "-shared", str(probe),
             "-o", str(Path(tmp) / "probe.so")],
            capture_output=True,
            text=True,
        )
        ok = proc.returncode == 0
    _OPENMP_SUPPORT[real] = ok
    return ok


def default_cache_dir() -> Path:
    """Where compiled kernels live: $PLR_NATIVE_CACHE_DIR or the tmpdir."""
    env = os.environ.get("PLR_NATIVE_CACHE_DIR")
    return Path(env) if env else Path(tempfile.gettempdir()) / "plr_cgen"


def kernel_digest(
    source: str,
    compiler: str,
    flags: tuple[str, ...],
    dtype: np.dtype,
    chunk_size: int,
) -> str:
    """The cache key: source + toolchain identity + flags + shape.

    dtype and chunk size are already baked into the source, but they are
    hashed explicitly so the key's coverage doesn't depend on the header
    comment the emitter happens to write.
    """
    h = hashlib.sha256()
    parts = (
        source,
        os.path.realpath(compiler),
        _compiler_version(compiler),
        "\x1f".join(flags),
        np.dtype(dtype).str,
        str(chunk_size),
    )
    for part in parts:
        h.update(part.encode("utf-8", "replace"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def load_kernel_library(so_path: str | os.PathLike) -> ctypes.CDLL:
    """Load a compiled kernel and validate its entry points.

    Raises a typed :class:`BackendError` both when the object cannot be
    loaded (truncated/corrupt file) and when it loads but does not
    export ``plr_compute`` and ``plr_compute_batch`` — callers never see
    a raw ``OSError`` or ``AttributeError`` from the ctypes layer.
    """
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise BackendError(f"failed to load native kernel {so_path}: {exc}") from exc
    entries = {
        "plr_compute": [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong],
        "plr_compute_batch": [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong,
        ],
    }
    for name, argtypes in entries.items():
        try:
            entry = getattr(lib, name)
        except AttributeError:
            raise BackendError(
                f"native kernel {so_path} does not export the {name!r} symbol"
            ) from None
        entry.restype = None
        entry.argtypes = argtypes
    return lib


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def compile_c_kernel(
    ir: KernelIR,
    workdir: str | os.PathLike | None = None,
    extra_flags: tuple[str, ...] = (),
) -> CompiledCKernel:
    """Emit, compile (with OpenMP when available), and load a kernel.

    The compile goes to a unique temp file that is ``os.replace``d into
    ``plr_<digest>.so`` only once it is complete, so a concurrent or
    killed compile can never leave a partially written object under the
    published name.  An existing entry that fails to load (corrupt
    leftovers from before this hardening) is recompiled in place.
    """
    source = emit_c(ir)
    compiler = _find_compiler()
    flags = list(_BASE_FLAGS)
    if _openmp_supported(compiler):
        flags.insert(0, "-fopenmp")
    flags.extend(extra_flags)
    digest = kernel_digest(source, compiler, tuple(flags), ir.dtype, ir.chunk_size)
    base = Path(workdir) if workdir else default_cache_dir()
    base.mkdir(parents=True, exist_ok=True)
    so_path = base / f"plr_{digest}.so"

    lib = None
    if so_path.exists():
        try:
            lib = load_kernel_library(so_path)
        except BackendError:
            lib = None
    if lib is None:
        c_path = base / f"plr_{digest}.c"
        _atomic_write_text(c_path, source)
        fd, tmp_so = tempfile.mkstemp(dir=base, prefix=f"plr_{digest}.", suffix=".so.tmp")
        os.close(fd)
        try:
            attempt = subprocess.run(
                [compiler, *flags, str(c_path), "-o", tmp_so],
                capture_output=True,
                text=True,
            )
            if attempt.returncode != 0:
                raise BackendError(
                    f"C compilation failed ({compiler} {' '.join(flags)}):\n"
                    f"{attempt.stderr}\n(source at {c_path})"
                )
            os.replace(tmp_so, so_path)
        finally:
            if os.path.exists(tmp_so):
                os.unlink(tmp_so)
        lib = load_kernel_library(so_path)
    return CompiledCKernel(
        ir=ir, source=source, library_path=so_path, _lib=lib, digest=digest
    )
