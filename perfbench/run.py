"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload long-signal --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``long-signal`` and ``short-calls``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that gives the per-layer split and writes Chrome traces
under ``.perfbench/traces/``; for ``short-calls`` it also drives
``plr serve`` (``serve_stream.py``) for the serve layers.

Every workload run starts in a fresh interpreter with an empty
calibration table (``PLR_TUNE_DB``) and an empty native kernel cache
(``PLR_NATIVE_CACHE_DIR``) of its own, so plans and worker counts follow
the paper heuristics and set-up always includes the cold compile.  The
end-to-end run sets up ``SETUP_SAMPLES`` times, each in a fresh
interpreter, and reports the median set-up time; the last of those
interpreters goes on to the timed loop.

The last line of standard output is the result object; the line before
it carries the machine stamp and per-kind detail.  The exit code is 0
only when every output matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import median  # noqa: E402

WORKLOADS = ("long-signal", "short-calls")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
"""Hard limit on one run, set-ups included; a run that would exceed it
is killed and reported as a failure, never as a result."""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def hermetic_env(run_dir: str, index: int, src: str) -> dict:
    env = dict(os.environ)
    native = os.path.join(run_dir, f"native-{index}")
    tmp = os.path.join(run_dir, f"tmp-{index}")
    os.makedirs(native)
    os.makedirs(tmp)
    env["PYTHONPATH"] = src
    env["PLR_TUNE_DB"] = os.path.join(run_dir, f"tune-{index}.json")
    env["PLR_NATIVE_CACHE_DIR"] = native
    env["XDG_CACHE_HOME"] = os.path.join(run_dir, f"xdg-{index}")
    env["TMPDIR"] = tmp
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PLR_TUNE_DISABLE", None)
    return env


def spawn(args, run_dir, index, src, deadline, setup_only, trace_out=None) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = hermetic_env(run_dir, index, src)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawn-t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload {args.workload} overran the {RUN_LIMIT_S:.0f} s limit")
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"worker exited {proc.returncode} without a result") from None
    result["returncode"] = proc.returncode
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's self-test only"
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail("no program to measure: src/repro is missing from this checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    state = os.path.join(root, ".perfbench")
    run_dir = os.path.join(state, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            trace_out = os.path.join(state, "traces", f"{tag}.json")
            result = spawn(args, run_dir, 0, src, deadline, False, trace_out)
            setups = [result.get("setup_s")]
            measured = result.get("layer_metrics", {})
        else:
            setups = []
            for index in range(SETUP_SAMPLES - 1):
                probe = spawn(args, run_dir, index, src, deadline, True)
                if not probe.get("correct"):
                    return fail(f"set-up failed: {probe.get('error')}")
                setups.append(probe["setup_s"])
            result = spawn(args, run_dir, SETUP_SAMPLES - 1, src, deadline, False)
            setups.append(result.get("setup_s"))
            measured = dict(result.get("metrics", {}))
            if result.get("correct"):
                measured["setup_s"] = median(setups)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    with open(os.path.join(state, "results", f"{tag}.json"), "w") as handle:
        json.dump({"setup_samples_s": setups, **result}, handle, indent=1)

    if not result.get("correct"):
        print(f"perfbench: outputs were wrong: {result.get('error') or result.get('mismatches')}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        return fail(f"the run did not measure {missing}")
    print(
        json.dumps(
            {
                "machine": result.get("machine"),
                "setup_samples_s": setups,
                "per_kind": result.get("per_kind"),
                "skipped_kinds": result.get("skipped_kinds", []),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
