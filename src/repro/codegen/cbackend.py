"""The C backend: emitted code that actually compiles and runs.

The paper's toolchain emits CUDA and runs it on a GPU; without one, the
reproduction still needs an end-to-end *executable* code-generation
path, or the emitters would be write-only artifacts.  This backend
emits C99 implementing the identical algorithm —

* the same FIR map stage,
* the same Phase 1 doubling with the same correction factors, realized
  per the same optimizer decisions (constants folded, periodic lists
  indexed modulo their period, decayed tails suppressed, 0/1 factors as
  branch-free selects),
* the same carry-transition propagation and final correction

— parallelized with OpenMP across chunks.  The decoupled-lookback
busy-wait of the GPU version is replaced by a chunk-barrier between the
carry propagation and the bulk correction, which is the natural shape
for a CPU with a handful of cores (the carry spine is O(chunks * k^2)
and not worth pipelining there); the protocol itself is exercised by
:mod:`repro.gpusim.executor`.

The body is shaped for a CPU.  Serial solves keep their last k outputs
in registers.  Chunks are solved from the input straight into the
caller's output, the carry spine reads each chunk's carries back from
there, and the bulk correction adds them in place up to the last
nonzero correction factor.  The kernel reads its input once and writes
its output once, and reads and writes again only the corrected prefix
of each chunk; it keeps no work buffer.

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
    """One carry's contribution, honoring the zero/one optimization.

    A 0/1 factor is a branch-free select.  ``acc`` starts at +0 and an
    IEEE sum is -0 only when both terms are, so adding a literal 0 where
    the factor is 0 leaves ``acc`` bit-for-bit as skipping the add would.
    """
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
        return f"acc += {factor} ? {carry} : {ir.literal(0)};"
    return f"acc += {factor} * {carry};"


def _solve_function(ir: KernelIR) -> str:
    """``plr_solve``: the serial solve of every width-x cell of a chunk.

    It reads ``src`` and writes ``vals`` (which may be the same buffer).
    Each cell keeps its last k outputs in the scalars ``y1`` (one back)
    to ``yk``; the first k elements are peeled, each with only the terms
    that exist inside the cell, so the steady-state loop has no guards.
    """
    k, x = ir.order, ir.plan.values_per_thread
    fb = ir.feedback_literals()
    ctype = ir.c_type

    def step(index: str, terms: int) -> str:
        body = [f"{ctype} acc = s[{index}];"]
        body += [f"acc += {fb[j - 1]} * y{j};" for j in range(1, terms + 1)]
        body.append(f"d[{index}] = acc;")
        body += [f"y{j} = y{j - 1};" for j in range(min(terms + 1, k), 1, -1)]
        body.append("y1 = acc;")
        return "{ " + " ".join(body) + " }"

    lines = [f"{ctype} " + ", ".join(f"y{j}" for j in range(1, k + 1)) + ";"]
    lines += [step(str(t), t) for t in range(min(k, x))]
    if x > k:
        lines.append(f"for (long long i = {k}; i < PLR_X; i++)")
        lines.append("    " + step("i", k))
    return f"""\
static void plr_solve(const {ctype} *src, {ctype} *vals) {{
    for (long long lo = 0; lo < PLR_M; lo += PLR_X) {{
        const {ctype} *s = src + lo;
        {ctype} *d = vals + lo;
{_indent(lines, 8)}
    }}
}}"""


def _indent(lines: list[str], depth: int) -> str:
    return "\n".join(" " * depth + line for line in lines)


def emit_c(ir: KernelIR) -> str:
    """Emit the complete C99 translation unit for one kernel plan.

    One body serves both plan shapes: the native backend's one serial
    cell per chunk (``x == m``) and the paper's ``x < m`` cells merged
    by doubling.  Full chunks are solved from ``input`` straight into
    ``output``; only a row's partial last chunk goes through one
    zero-padded m-element scratch per thread.  The carry spine reads
    each chunk's local carries back from ``output``, and the bulk
    correction adds the hoisted carries in place, up to the optimizer's
    ``phase1_active_elements``, past which every factor is zero (the
    ``TRUNCATED`` cutoffs; a constant-0 carry adds nothing anywhere).

    Each element's arithmetic is fixed by the plan alone: its local
    solve, then its corrections in carry order.  Threads and batch size
    change only which core does it, so integer results are exact and
    float results reproducible.  Past the last nonzero factor
    the correction is skipped rather than adding zero, so a local
    result of -0.0 there stays -0.0.  ``plr_compute_batch`` returns 0,
    or 1 when a ``malloc`` failed.
    """
    ctype = ir.c_type
    k = ir.order
    m = ir.chunk_size
    x = ir.plan.values_per_thread
    sig = ir.recurrence.signature
    active = ir.factor_plan.phase1_active_elements
    zero = ir.literal(0)

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

    if ir.recurrence.has_map_stage:
        ff = ir.feedforward_literals()
        map_lines = [f"{ctype} acc = {ff[0]} * ((gpos < n) ? input[gpos] : {zero});"]
        for d in range(1, len(ff)):
            map_lines.append(
                f"if (gpos >= {d} && gpos - {d} < n) acc += {ff[d]} * input[gpos - {d}];"
            )
        map_function = f"""
/* Map stage: vals[i] = sum_d a_d * input[base + i - d], zero outside [0, n). */
static void plr_map(const {ctype} *input, {ctype} *vals, long long base, long long n) {{
    for (long long i = 0; i < PLR_M; i++) {{
        long long gpos = base + i;
{_indent(map_lines, 8)}
        vals[i] = acc;
    }}
}}
"""
        full_solve = "plr_map(in, out, lo, n);\n                plr_solve(out, out);"
        partial_fill = "plr_map(in, scratch, lo, n);"
    else:
        map_function = ""
        full_solve = "plr_solve(in + lo, out);"
        partial_fill = (
            f"memcpy(scratch, in + lo, (size_t)count * sizeof({ctype}));\n"
            f"                memset(scratch + count, 0, (size_t)(PLR_M - count) * sizeof({ctype}));"
        )

    merge_function = merge_full = merge_scratch = ""
    if x < m:
        merge_corrections = _indent(
            [f"{{ {_correction_statement(ir, j, 'i', f'carry[{j}]')} }}" for j in range(k)],
            16,
        )
        merge_full = "\n                plr_merge(out);"
        merge_scratch = "\n                plr_merge(scratch);"
        merge_function = f"""

/* Phase 1 doubling merges of one solved chunk: widths PLR_X, 2*PLR_X,
 * ..., PLR_M/2. */
static void plr_merge({ctype} *vals) {{
    for (long long width = PLR_X; width < PLR_M; width <<= 1) {{
        for (long long border = width; border < PLR_M; border += 2 * width) {{
            {ctype} carry[PLR_K];
            for (int j = 0; j < PLR_K; j++)
                carry[j] = (j < width) ? vals[border - 1 - j] : {zero};
            long long limit = width < PLR_ACTIVE ? width : PLR_ACTIVE;
            for (long long i = 0; i < limit; i++) {{
                {ctype} acc = 0;
{merge_corrections}
                vals[border + i] += acc;
            }}
        }}
    }}
}}"""

    carries = ", ".join(f"c{j} = g[{j}]" for j in range(k))
    final_corrections = _indent(
        [f"{{ {_correction_statement(ir, j, 'i', f'c{j}')} }}" for j in range(k)], 8
    )

    return f"""\
/* Generated by PLR (reproduction, C backend) -- do not edit.
 * Recurrence signature: {sig}
 * order k={k}, chunk m={m}, x={x}, dtype={ir.dtype}
 * Factor realizations: {", ".join(d.realization.value for d in ir.factor_plan.decisions)}
 */
#include <stdlib.h>
#include <string.h>

#define PLR_K {k}
#define PLR_M {m}
#define PLR_X {x}
/* Every correction factor is zero from this offset on. */
#define PLR_ACTIVE {active}

{chr(10).join(f for f in factor_functions if f)}
static const {ctype} plr_carry_matrix[PLR_K][PLR_K] = {{ {matrix_rows} }};
{map_function}
/* Phase 1 serial solve of one chunk's cells, in registers. */
{_solve_function(ir)}{merge_function}

/* Phase 2 for one chunk: add the previous chunk's global carries g to
 * the first len elements, in place. */
static void plr_correct({ctype} *vals, const {ctype} *g, long long len) {{
    const {ctype} {carries};
#ifdef _OPENMP
#pragma omp simd
#endif
    for (long long i = 0; i < len; i++) {{
        {ctype} acc = 0;
{final_corrections}
        vals[i] += acc;
    }}
}}

/* rows independent sequences of length n, stored row-major; input and
 * output must not overlap.  Every row is cut into the same chunks and
 * runs the same per-chunk code and the same spine as a one-row call,
 * so each output row is bit-identical to plr_compute on that row
 * alone.  Returns 0, or 1 when working memory could not be allocated. */
int plr_compute_batch(const {ctype} *input, {ctype} *output,
                      long long rows, long long n) {{
    if (rows <= 0 || n <= 0) return 0;
    long long chunks = (n + PLR_M - 1) / PLR_M;
    long long pairs = rows * chunks;
    /* Global carries of every chunk but a row's last, which nothing reads. */
    {ctype} *global = 0;
    if (chunks > 1) {{
        global = ({ctype} *)malloc((size_t)(rows * (chunks - 1) * PLR_K) * sizeof({ctype}));
        if (!global) return 1;
    }}
    int failed = 0;

#ifdef _OPENMP
#pragma omp parallel if (pairs > 1)
#endif
    {{
        {ctype} *scratch = 0;

        /* Phase 1 over all (row, chunk) pairs, full chunks straight
         * into output. */
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (long long p = 0; p < pairs; p++) {{
            long long r = p / chunks, lo = (p % chunks) * PLR_M;
            const {ctype} *in = input + r * n;
            {ctype} *out = output + r * n + lo;
            if (lo + PLR_M <= n) {{
                {full_solve}{merge_full}
            }} else {{
                long long count = n - lo;
                if (!scratch) scratch = ({ctype} *)malloc(PLR_M * sizeof({ctype}));
                if (!scratch) {{
#ifdef _OPENMP
#pragma omp atomic write
#endif
                    failed = 1;
                    continue;
                }}
                {partial_fill}
                plr_solve(scratch, scratch);{merge_scratch}
                memcpy(out, scratch, (size_t)count * sizeof({ctype}));
            }}
        }}
        free(scratch);

        /* Carry spine per row: G_0 = L_0, G_c = L_c + M * G_(c-1), with
         * L_c read back from chunk c's solved tail.  O(chunks * k^2). */
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (long long r = 0; r < rows; r++) {{
            const {ctype} *row = output + r * n;
            {ctype} *g = global + r * (chunks - 1) * PLR_K;
            for (long long c = 0; c + 1 < chunks; c++) {{
                const {ctype} *tail = row + c * PLR_M + PLR_M - 1;
                for (int q = 0; q < PLR_K; q++) {{
                    {ctype} acc = tail[-q];
                    if (c > 0)
                        for (int j = 0; j < PLR_K; j++)
                            acc += plr_carry_matrix[q][j] * g[(c - 1) * PLR_K + j];
                    g[c * PLR_K + q] = acc;
                }}
            }}
        }}

        /* Phase 2 bulk correction over all pairs, in place. */
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (long long p = 0; p < pairs; p++) {{
            long long r = p / chunks, c = p % chunks;
            if (c == 0) continue;
            long long count = n - c * PLR_M;
            plr_correct(output + r * n + c * PLR_M,
                        global + (r * (chunks - 1) + c - 1) * PLR_K,
                        count < PLR_ACTIVE ? count : PLR_ACTIVE);
        }}
    }}

    free(global);
    return failed;
}}

int plr_compute(const {ctype} *input, {ctype} *output, long long n) {{
    return plr_compute_batch(input, output, 1, n);
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
        self.ir.check_input_dtype(values.dtype)
        values = np.ascontiguousarray(values, dtype=self.ir.dtype)
        out = np.empty_like(values)
        rows, n = values.shape
        if self._lib.plr_compute_batch(values.ctypes.data, out.ctypes.data, rows, n):
            raise BackendError(
                f"native kernel could not allocate working memory for a "
                f"({rows}, {n}) batch"
            )
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
        entry.restype = ctypes.c_int
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
