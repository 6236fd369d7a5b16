"""One workload run in a fresh interpreter; started by ``run.py``.

Set-up time runs from the moment ``run.py`` spawned this interpreter
(``--spawn-t0``, a ``time.monotonic`` reading, which is system-wide on
Linux) until the first timed op can start.  With ``--setup-only`` the
worker stops there, so ``run.py`` can take the median of several
set-ups.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def make_workload(name: str, smoke: bool):
    if name == "long-signal":
        from library import LongSignal

        return LongSignal(smoke)
    if name == "short-calls":
        from library import ShortCalls

        return ShortCalls(smoke)
    raise SystemExit(f"unknown workload {name!r}")


def serve_phase(args, result: dict) -> None:
    """The traced short-calls run's second phase: the serve stream.

    Its ``serve.*`` and batch-engine metrics replace the zeros the
    in-process phase reports for them; its spans go to a trace of their
    own, next to the first.
    """
    from common import Spans
    from serve_stream import ServeStream

    spans = Spans()
    serve = ServeStream()
    try:
        serve.setup(spans)
        served = serve.run(args.seed, args.seconds, spans)
    finally:
        serve.close()
    result["layer_metrics"].update(served["layer_metrics"])
    result["layer_metrics"]["fail_frac"] = (result["failed"] + served["failed"]) / (
        result["attempted"] + served["attempted"]
    )
    for key in ("attempted", "failed"):
        result[key] += served[key]
    result["correct"] = result["correct"] and served["correct"]
    result["mismatches"] += served["mismatches"]
    result["errors"] += served["errors"]
    result["per_kind"].update(served["per_kind"])
    if served["correct"]:
        spans.write_chrome_trace(
            args.trace_out.replace(".json", "-serve.json"),
            {"workload": args.workload, "phase": "serve", "seed": args.seed},
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawn-t0", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from common import Spans

    spans = Spans() if args.trace_out else None
    workload = make_workload(args.workload, args.smoke)
    try:
        workload.setup(spans)
        setup_s = time.monotonic() - args.spawn_t0
        if args.setup_only:
            result = {"setup_s": setup_s, "correct": True}
        else:
            result = workload.run(args.seed, args.seconds, spans)
            result["setup_s"] = setup_s
            if spans is not None and args.workload == "short-calls":
                serve_phase(args, result)
    except AssertionError as exc:
        # An oracle that disagrees with the serial listing, or traced
        # layers that drifted from the program: the run cannot be judged.
        result = {"correct": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    from common import machine_info

    result["machine"] = machine_info()
    if spans is not None and result.get("correct"):
        spans.write_chrome_trace(
            args.trace_out,
            {"workload": args.workload, "seed": args.seed, "machine": result["machine"]},
        )
    print(json.dumps(result))
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
