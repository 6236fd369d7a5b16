"""The serve stream: ``plr serve`` under open- and closed-loop load.

It runs as the second phase of the traced ``short-calls`` run and gives
the ``serve.*`` per-layer metrics.  It is not a gated workload of its
own: on a shared 2-vCPU host its round trips, two processes contending
for both cores, spread 20-50% between runs when the host is busy, far
beyond any bound the benchmark can hold (see ``README.md``).

The server is ``python -m repro.cli serve --port 0`` with its default
configuration, in its own process.  Load comes from this one process
over at most ``nproc`` connections:

* Phase A is an open loop: Poisson arrivals at ``OPEN_RATE`` requests/s,
  well below the server's capacity, each request timed from its
  *scheduled* send time, so a stall in the generator or the server
  counts against every request it delays.  The generator's lateness is
  reported as ``serve.loadgen.lag_ms``.
* Phase B is a closed loop: every connection keeps ``DEPTH`` requests in
  flight, which gives the server's capacity.

Requests have n in 2^8..2^12 and draw their signature with a Zipf skew
from a seeded pool of about 100 (random-pole 1–3 stage low/high-pass
filters, integer sums of order 1–4, tuples of 2–4).  The pool is larger
than the server's 32-entry warm-table LRU and the 64-entry factor-table
LRU, so factor tables keep getting built as well as read.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time

import numpy as np

from common import LayerStats, Spans, median, peak_rss_mb, quantile

POOL_SIZE = 100
ZIPF_S = 1.0
MIN_LOG2_N, MAX_LOG2_N = 8, 12
POLES = (0.5, 0.8)
"""Random filter poles stay at or below Table 1's pole of 0.8, the regime
in which the paper validates float32 PLR against its 1e-3 bound.  Above
it float32 PLR leaves that bound for 3-stage high-pass filters (3.5e-3
at pole 0.85, 3e-2 at 0.89, against 8e-5 for the float32 serial loop at
n = 4096); that is a known accuracy defect, not something this
throughput benchmark measures."""
OPEN_RATE = 50.0
"""Phase A arrival rate in requests/s."""
OPEN_SHARE = 0.8
"""Share of ``--seconds`` spent in the open loop; the rest is closed loop.
At ``--seconds 30`` the open loop sends 1200 requests, enough for a p99
with at least 10 samples beyond it."""
DEPTH = 16
"""Closed-loop requests in flight per connection."""
WARMUP = 60
"""Untimed closed-loop requests sent before phase A."""
REPLAY = 240
"""Requests replayed in-process through BatchPlanner/BatchEngine when traced."""
RECV_TIMEOUT_S = 30.0
WINDOW_S = 1.0
"""Closed-loop throughput is the median over windows of this length, so a
short stall on the shared host moves one window, not the result."""


def signature_pool(rng):
    """``POOL_SIZE`` distinct signatures, ranked for the Zipf skew.

    The pool's shape is fixed: which ranks hold the seven integer sums
    and tuples, and which hold a low- or high-pass filter of how many
    stages.  Only the filter poles come from the seed, so every seed
    sends the same mix of signature kinds.
    """
    from repro.core.coefficients import high_pass, low_pass
    from repro.core.signature import Signature

    integers = [Signature.higher_order_prefix_sum(r) for r in range(1, 5)]
    integers += [Signature.tuple_prefix_sum(s) for s in range(2, 5)]
    stride = POOL_SIZE // len(integers)
    pool, seen, filters = [], set(), 0
    while len(pool) < POOL_SIZE:
        if len(pool) % stride == 0 and len(pool) // stride < len(integers):
            pool.append(integers[len(pool) // stride])
            continue
        design = low_pass if (filters // 3) % 2 == 0 else high_pass
        sig = design(1 + filters % 3, round(float(rng.uniform(*POLES)), 3))
        if str(sig) not in seen:
            seen.add(str(sig))
            pool.append(sig)
            filters += 1
    weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_S
    return pool, weights / weights.sum()


class Request:
    __slots__ = ("signature", "values", "expected", "frame")

    def __init__(self, signature, values, expected):
        self.signature = signature
        self.values = values
        self.expected = expected
        self.frame = {
            "signature": str(signature),
            "values": values.tolist(),
            "dtype": values.dtype.name,
        }


def make_requests(rng, pool, weights, count):
    """``count`` requests in seeded order, with stratified draws.

    Signature counts follow the Zipf weights by quota and lengths are a
    stratified log-uniform sample of 2^8..2^12, so runs with different
    seeds send the same mix; the seed picks the values and the order.
    """
    import oracle

    quota = weights * count
    counts = np.floor(quota).astype(int)
    short = count - counts.sum()
    counts[np.argsort(counts - quota)[:short]] += 1
    picks = rng.permutation(np.repeat(np.arange(len(pool)), counts))
    strata = (np.arange(count) + rng.random(count)) / count
    lengths = rng.permutation(np.rint(2 ** (MIN_LOG2_N + (MAX_LOG2_N - MIN_LOG2_N) * strata)))
    requests = []
    for index, n in zip(picks, lengths.astype(int)):
        sig = pool[index]
        if sig.is_integer:
            values = rng.integers(-1000, 1000, size=n, dtype=np.int32)
        else:
            values = rng.standard_normal(size=n, dtype=np.float32)
        requests.append(Request(sig, values, oracle.oracle(sig, values)))
    return requests


def windowed_rate(stamps, elapsed: float) -> float:
    """Median over whole ``WINDOW_S`` windows of elements completed per second."""
    windows = max(1, int(elapsed // WINDOW_S))
    width = elapsed / windows if elapsed < WINDOW_S else WINDOW_S
    totals = [0] * windows
    for offset, n in stamps:
        index = int(offset // width)
        if index < windows:
            totals[index] += n
    return median(totals) / width


class LoadError(RuntimeError):
    """The server stopped answering: connection lost or no reply in time."""


class ServeStream:
    """The server process, its clients, and the load generator."""

    def __init__(self) -> None:
        self.proc = None
        self.loop = None
        self.clients = []
        self.drained_rc = None

    # -- set-up: start the server and connect --------------------------------
    def setup(self, spans: Spans | None) -> None:
        from repro.serve import ServeClient

        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            raise LoadError(f"server did not start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))
        self.loop = asyncio.new_event_loop()
        connections = min(2, len(os.sched_getaffinity(0)))

        async def connect():
            clients = [await ServeClient.connect(self.address) for _ in range(connections)]
            for client in clients:
                reply = await client.ping(timeout=RECV_TIMEOUT_S)
                if not (reply and reply.get("ok")):
                    raise LoadError(f"ping failed: {reply!r}")
            return clients

        self.clients = self.loop.run_until_complete(connect())

    def close(self) -> None:
        """Drain the server if it still runs, and wait until it has exited."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None and self.clients:
                self.loop.run_until_complete(self._drain())
            self.proc.wait(timeout=30)
        except (subprocess.TimeoutExpired, LoadError, OSError, asyncio.TimeoutError):
            self.proc.kill()
            self.proc.wait()
        finally:
            if self.proc.stdout:
                self.proc.stdout.close()
            if self.loop is not None:
                self.loop.close()
            self.drained_rc = self.proc.returncode
            self.proc = None

    async def _drain(self):
        reply = await self.clients[0].drain(timeout=RECV_TIMEOUT_S)
        for client in self.clients:
            await client.close()
        self.clients = []
        if not (reply and reply.get("ok")):
            raise LoadError(f"drain refused: {reply!r}")

    # -- the load generator ----------------------------------------------------
    async def open_loop(self, requests, offsets, first_id):
        loop = asyncio.get_running_loop()
        clients = self.clients
        width = len(clients)
        sched = [0.0] * len(requests)
        replies = [None] * len(requests)
        lags, sends = [], []

        async def receiver(lane):
            for _ in range(lane, len(requests), width):
                reply = await clients[lane].recv(timeout=RECV_TIMEOUT_S)
                now = loop.time()
                if reply is None:
                    raise LoadError("connection lost in the open loop")
                index = reply.get("id") - first_id
                replies[index] = (now - sched[index], self.decode(reply, requests[index]))

        async def sender():
            start = loop.time() + 0.05
            for index, request in enumerate(requests):
                target = start + offsets[index]
                sched[index] = target
                delay = target - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = loop.time()
                lags.append(sent - target)
                await clients[index % width].send(dict(request.frame, id=first_id + index))
                sends.append(loop.time() - sent)

        await asyncio.gather(sender(), *(receiver(lane) for lane in range(width)))
        return replies, lags, sends

    async def closed_loop(self, requests, seconds, first_id, limit=None):
        """Keep ``DEPTH`` requests in flight per connection for ``seconds``
        (or until ``limit`` requests were sent).

        Returns (request, output) pairs, the elapsed time, and each
        reply's (arrival offset, n) for the windowed throughput.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        deadline = start + seconds
        counter = iter(range(limit if limit is not None else 10**9))
        done, stamps = [], []
        last = [start]

        async def lane(client):
            inflight = {}

            async def send_next():
                k = next(counter, None)
                if k is None:
                    return
                request = requests[k % len(requests)]
                inflight[first_id + k] = request
                await client.send(dict(request.frame, id=first_id + k))

            for _ in range(DEPTH):
                await send_next()
            while inflight:
                reply = await client.recv(timeout=RECV_TIMEOUT_S)
                now = loop.time()
                if reply is None:
                    raise LoadError("connection lost in the closed loop")
                request = inflight.pop(reply.get("id"))
                done.append((request, self.decode(reply, request)))
                stamps.append((now - start, request.values.size))
                last[0] = max(last[0], now)
                if now < deadline:
                    await send_next()

        await asyncio.gather(*(lane(client) for client in self.clients))
        return done, last[0] - start, stamps

    @staticmethod
    def decode(reply, request):
        """The reply's output as an array of the request's dtype, or its error."""
        if reply.get("ok"):
            return np.asarray(reply["output"], dtype=request.values.dtype)
        return reply.get("error") or "error"

    # -- the run -------------------------------------------------------------
    def run(self, seed: int, seconds: float, spans: Spans) -> dict:
        import oracle
        from repro.serve import ServeConfig

        slo_ms = ServeConfig().slo_latency_ms
        rng = np.random.default_rng(seed)
        pool, weights = signature_pool(rng)
        open_n = max(1, round(OPEN_RATE * OPEN_SHARE * seconds))
        offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=open_n))
        open_s = offsets[-1]
        requests = make_requests(rng, pool, weights, len(offsets))
        warmup = make_requests(rng, pool, weights, WARMUP)
        checked = set()
        for request in warmup + requests:
            if str(request.signature) not in checked:
                oracle.cross_check_prefix(request.signature, request.values, request.expected)
                checked.add(str(request.signature))

        run = self.loop.run_until_complete
        depth = DEPTH * len(self.clients)
        warm_done, _, _ = run(self.closed_loop(warmup, float("inf"), 1, limit=WARMUP))
        replies, lags, sends = run(self.open_loop(requests, offsets, 10**6))
        # The server's own latency histogram, before the closed loop's
        # deliberately deep queue joins it.
        open_metrics = run(self.clients[0].metrics(timeout=RECV_TIMEOUT_S))
        closed, closed_s, stamps = run(
            self.closed_loop(requests, max(0.5, seconds - open_s), 2 * 10**6)
        )
        metrics_reply = run(self.clients[0].metrics(timeout=RECV_TIMEOUT_S))
        server_rss = peak_rss_mb(self.proc.pid)
        server_pid = self.proc.pid
        self.close()
        if self.drained_rc != 0:
            raise LoadError(f"server {server_pid} exited with code {self.drained_rc}")

        wrong, errors = [], []
        outcomes = [(r, out) for r, (_, out) in zip(requests, replies)] + closed + warm_done
        for request, out in outcomes:
            if isinstance(out, str):
                errors.append(out)
            elif not oracle.matches(out, request.expected):
                wrong.append(f"{request.signature} n={request.values.size}")
        attempted = len(outcomes)
        failed = len(errors) + len(wrong)
        latencies = [lat * 1e3 for lat, _ in replies]
        ok_in_time = sum(
            1 for lat, out in replies if not isinstance(out, str) and lat * 1e3 <= slo_ms
        )
        open_n = len(replies)
        serve = {
            "p50_ms": median(latencies),
            "p99_ms": quantile(latencies, 0.99),
            "slo_frac": ok_in_time / open_n,
            "req_s": len(closed) / closed_s,
            "open_loop_samples": open_n,
            "samples_beyond_p99": sum(1 for v in latencies if v > quantile(latencies, 0.99)),
            "open_rate_req_s": OPEN_RATE,
            "closed_depth": depth,
            "melem_s": windowed_rate(stamps, closed_s) / 1e6,
            "server_peak_rss_mb": server_rss,
        }
        result = {
            "attempted": attempted,
            "failed": failed,
            "correct": not wrong,
            "mismatches": wrong[:10],
            "errors": errors[:10],
            "per_kind": {"serve": serve},
        }
        result["layer_metrics"] = self.layer_metrics(
            spans, serve, open_metrics, metrics_reply, lags, sends, requests, replies
        )
        result["layer_metrics"]["fail_frac"] = failed / attempted
        return result

    # -- per-layer metrics -----------------------------------------------------
    def layer_metrics(
        self, spans, serve, open_metrics, metrics_reply, lags, sends, requests, replies
    ):
        from repro.serve.protocol import encode_reply, parse_frame

        import json

        m = {}
        m.update({f"serve.{k}": float(serve[k]) for k in ("p50_ms", "p99_ms", "slo_frac", "req_s")})
        m["serve.open_loop_samples"] = float(serve["open_loop_samples"])

        sample = requests[:REPLAY]
        lines = [(json.dumps(dict(r.frame, id=i)) + "\n").encode() for i, r in enumerate(sample)]
        m["serve.protocol.decode_us"] = self.mean_call_us(spans, "serve.protocol.parse_frame", parse_frame, lines)
        answers = [
            {"id": i, "ok": True, "output": out.tolist(), "engine": "batch"}
            for i, (_, out) in enumerate(replies[:REPLAY])
            if not isinstance(out, str)
        ]
        m["serve.protocol.encode_us"] = self.mean_call_us(spans, "serve.protocol.encode_reply", encode_reply, answers)
        m["serve.client.encode_us"] = sum(sends) / len(sends) * 1e6
        m["serve.server.latency_p50_ms"] = float(open_metrics["serving"]["latency_ms"]["p50"])
        m["serve.server.flushes"] = float(metrics_reply["metrics"]["counters"].get("serve.flushes", 0))
        m["serve.server.occupancy"] = float(metrics_reply["serving"]["batch_occupancy"]["mean"])
        m["serve.loadgen.lag_ms"] = quantile(lags, 0.99) * 1e3
        m["remainder.serve_frac"] = (serve["p50_ms"] - m["serve.server.latency_p50_ms"]) / serve["p50_ms"]
        m.update(self.replay(spans, sample, max(1, round(m["serve.server.occupancy"]))))
        return m

    @staticmethod
    def mean_call_us(spans, name, fn, items) -> float:
        for item in items:
            with spans.span(name):
                fn(item)
        return LayerStats(spans).mean_us(name)

    def replay(self, spans, sample, group_size) -> dict:
        """Replay requests through BatchPlanner + BatchEngine as the server does.

        Groups of the server's mean flush occupancy run three times: once
        to reach the LRU churn steady state, once untimed-by-spans for the
        reference time, once with a span around every layer call.  Each
        flush prewarms its factor tables (the server's warm-table touch)
        before ``BatchEngine.execute``.
        """
        import layers
        import oracle
        from repro.batch.engine import BatchEngine
        from repro.batch.planner import BatchPlanner, BatchRequest
        from repro.plr.planner import plan_execution
        from repro.plr.solver import factor_cache_stats
        from repro.serve.server import ServeConfig

        config = ServeConfig()
        planner = BatchPlanner(min_bucket=config.min_bucket, max_batch=config.max_batch)
        engine = BatchEngine(planner=planner)
        flushes = [sample[i:i + group_size] for i in range(0, len(sample), group_size)]

        def batch(flush):
            return [BatchRequest(r.signature, r.values, r.values.dtype) for r in flush]

        outputs = []
        untraced = 0.0
        for timed in (False, True):
            outputs = []
            for flush in flushes:
                t0 = time.perf_counter()
                outcomes = engine.execute(batch(flush))
                untraced += (time.perf_counter() - t0) if timed else 0.0
                outputs.append([o.output for o in outcomes])
        before = factor_cache_stats()
        traced = 0.0
        for flush, reference in zip(flushes, outputs):
            with spans.span("kind.serve_flush") as root:
                requests = batch(flush)
                with spans.span("batch.planner.plan"):
                    groups = planner.plan(requests)
                for group in groups:
                    with spans.span("plr.planner"):
                        plan = plan_execution(group.signature, group.bucket)
                    layers.factor_lookup(spans, group.signature, plan.chunk_size, group.dtype)
                with spans.span("batch.engine.execute"):
                    outcomes = engine.execute(requests)
            traced += spans.duration_ns(root) / 1e9
            for request, outcome, ref in zip(flush, outcomes, reference):
                if not outcome.ok or not oracle.matches(outcome.output, request.expected):
                    raise AssertionError(f"replayed flush failed for {request.signature}")
                layers.check_identical(outcome.output, ref, f"replay {request.signature}")
        after = factor_cache_stats()
        stats = LayerStats(spans)
        hits, builds = [], []
        for i, name in enumerate(spans.names):
            if name == "plr.factors.lookup":
                (builds if spans.args[i]["build"] else hits).append(spans.duration_ns(i))
        dm = after["misses"] - before["misses"]
        dh = after["hits"] - before["hits"]
        return {
            "batch.planner.plan_us": stats.mean_us("batch.planner.plan"),
            "batch.engine.execute_ms": stats.mean_us("batch.engine.execute") / 1e3,
            "serve.factors.lookup_us": sum(hits) / len(hits) / 1e3 if hits else 0.0,
            "serve.factors.build_ms": sum(builds) / len(builds) / 1e6 if builds else 0.0,
            "serve.factors.builds": float(dm),
            "serve.factors.hit_ratio": dh / (dh + dm) if dh + dm else 0.0,
            "serve.trace_overhead_frac": traced / untraced - 1.0,
        }
