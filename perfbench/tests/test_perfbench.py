"""Self-test of the benchmark's checkers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

* a tiny ``--smoke`` run of every workload, untraced and traced, emits
  every metric ``BENCHMARK.json`` names, with its unit;
* the oracle catches an output with one element off;
* the bit-identity guard catches traced layers that drift from the
  program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
from common import Spans  # noqa: E402
from library import BATCH_ROWS, LibraryWorkload, Op, table1_mix  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "short-calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _solved(sig, shape, rng):
    from repro import PLRSolver
    from repro.batch.solver import BatchSolver

    if sig.is_integer:
        values = rng.integers(-1000, 1000, size=shape, dtype=np.int32)
    else:
        values = rng.standard_normal(size=shape, dtype=np.float32)
    solver = PLRSolver(sig) if len(shape) == 1 else BatchSolver(sig)
    return values, solver.solve(values)


@pytest.mark.parametrize("shape", [(3000,), (4, 1000)])
@pytest.mark.parametrize("index", range(7))
def test_oracle_catches_one_element_off(index, shape):
    sig = table1_mix()[index]
    values, out = _solved(sig, shape, np.random.default_rng(index))
    expected = oracle.oracle(sig, values)
    oracle.cross_check_prefix(sig, values, expected)
    assert oracle.matches(out, expected)
    corrupted = out.copy()
    flat = corrupted.reshape(-1)
    flat[flat.size // 2] += 1 if sig.is_integer else 0.01 * max(1.0, abs(float(flat[flat.size // 2])))
    assert not oracle.matches(corrupted, expected)


def _traced(kind, sig, values, solver):
    workload = LibraryWorkload()
    workload.layers = layers
    return workload.traced_call(Spans(), Op(kind, solver, values, None), solver.solve(values))


@pytest.mark.parametrize("kind", ["solve", "batch"])
def test_traced_layers_match_the_program(kind):
    from repro import PLRSolver
    from repro.batch.solver import BatchSolver

    sig = table1_mix()[6]  # high_pass(1): map stage included
    rng = np.random.default_rng(3)
    if kind == "solve":
        _traced(kind, sig, rng.standard_normal(5000, dtype=np.float32), PLRSolver(sig))
    else:
        values = rng.standard_normal((BATCH_ROWS, 300), dtype=np.float32)
        _traced(kind, sig, values, BatchSolver(sig))


def test_drift_in_the_traced_layers_fails_the_guard(monkeypatch):
    from repro import PLRSolver

    real_phase2 = layers.phase2

    def drifted(partial, table, out=None):
        corrected = real_phase2(partial, table, out=out)
        corrected.reshape(-1)[17] += 1
        return corrected

    monkeypatch.setattr(layers, "phase2", drifted)
    sig = table1_mix()[0]
    values = np.random.default_rng(5).integers(-9, 9, size=4000, dtype=np.int32)
    with pytest.raises(layers.LayerDrift):
        _traced("solve", sig, values, PLRSolver(sig))
