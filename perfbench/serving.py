"""The serving workloads: ``serve-single`` (open loop) and ``serve-pool`` (closed loop).

The program runs as a black box: ``python -m repro.service`` in its own
session, driven over the JSON-lines protocol by one asyncio process with
no worker threads and at most ``nproc`` connections.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.prf import PRFe
from repro.engine.facade import Engine
from repro.service.client import RemoteServiceError, TCPRankingClient
from repro.service.spec import decode_value

import inputs
from common import Op, Result, hwm_mib, nproc, op_metrics, pairs, same_ranking, twin
from inputs import K, Request
from procs import BenchError, Server, descendants
from tracing import Tracer, quantile

CONNECTIONS = max(1, min(2, nproc()))
#: Server launches per run; ``setup_s`` is their median.
SETUPS = 3
#: Open-loop arrival rate of serve-single, about half of the rate the
#: single engine sustains on this mix with closed-loop callers
#: (measured on a 2-core x86-64 container).
SINGLE_RATE = 12.0
SINGLE_LIMIT_MS = 250.0
POOL_CALLERS = 16
POOL_ARGS = ["--pool-shards", "2"]
POOL_LIMIT_MS = 2000.0
#: Seconds between ``ping`` probes in the traced phase.
PING_EVERY = 0.25


@dataclass
class Outcome:
    """A request's client-side record: the op plus the reply."""

    request: Request
    op: Op
    reply: list[Any] | None


def _size(request: Request, hot: dict[str, Any]) -> int:
    return len(request.inline) if request.inline is not None else len(hot[request.ref])


async def _call(client: TCPRankingClient, request: Request) -> list[Any]:
    rf = PRFe(request.alpha)
    if request.op == "top_k":
        return await client.top_k(request.ref, rf, K)
    if request.op == "rank":
        response = await client.rank_detailed(request.ref, rf, k=K)
    else:
        response = await client.rank_detailed(request.inline, rf)
    return [(entry["tid"], decode_value(entry["value"])) for entry in response["ranking"]]


async def _issue(
    client: TCPRankingClient,
    request: Request,
    start: float,
    hot: dict[str, Any],
    tracer: Tracer,
) -> Outcome:
    """Send one request; ``start`` is when it was due (open) or issued (closed)."""
    sent = time.perf_counter()
    reply: list[Any] | None = None
    status = "ok"
    try:
        reply = await _call(client, request)
    except RemoteServiceError as exc:
        status = "shed" if exc.kind in ("overloaded", "deadline") else "failed"
    except (ConnectionError, OSError):
        status = "failed"
    done = time.perf_counter()
    root = tracer.record("client.op", start, done, request=request.rid)
    tracer.record("client.lag", start, sent, parent=root, request=request.rid)
    tracer.record("tcp.call", sent, done, parent=root, request=request.rid)
    op = Op(request.op, start, done, _size(request, hot), status)
    return Outcome(request, op, reply)


_UNTRACED = Tracer(False)


def _pick(tracer: Tracer, request: Request) -> Tracer:
    """Trace every other request, so that the traced run can compare the halves."""
    return tracer if request.rid % 2 == 0 else _UNTRACED


async def _pinger(client: TCPRankingClient, stop: asyncio.Event, tracer: Tracer) -> None:
    while not stop.is_set():
        start = time.perf_counter()
        await client.ping()
        tracer.record("tcp.ping", start, time.perf_counter())
        try:
            await asyncio.wait_for(stop.wait(), PING_EVERY)
        except asyncio.TimeoutError:
            pass


async def _open_loop(
    clients: list[TCPRankingClient],
    requests: list[Request],
    hot: dict[str, Any],
    tracer: Tracer,
) -> tuple[list[Outcome], float]:
    """Send each request when it is due, whatever is still outstanding."""
    if not requests:
        return [], 0.0
    base = time.perf_counter() - requests[0].due
    tasks: list[asyncio.Task[Outcome]] = []
    loop = asyncio.get_running_loop()
    for request in requests:
        due = base + request.due
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[request.rid % len(clients)]
        tasks.append(loop.create_task(_issue(client, request, due, hot, _pick(tracer, request))))
    outcomes = list(await asyncio.gather(*tasks))
    return outcomes, time.perf_counter() - (base + requests[0].due)


async def _closed_loop(
    clients: list[TCPRankingClient],
    stream: Iterator[Request],
    seconds: float,
    hot: dict[str, Any],
    tracer: Tracer,
) -> tuple[list[Outcome], float]:
    """``POOL_CALLERS`` callers, each sending only after its last reply."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    end = start + seconds

    async def caller(index: int) -> None:
        client = clients[index % len(clients)]
        while time.perf_counter() < end:
            request = next(stream)
            outcomes.append(
                await _issue(client, request, time.perf_counter(), hot, _pick(tracer, request))
            )

    await asyncio.gather(*(caller(index) for index in range(POOL_CALLERS)))
    return outcomes, time.perf_counter() - start


class Session:
    """A started server with its hot set registered and warmed."""

    def __init__(self, server: Server, clients: list[TCPRankingClient], setup_s: float) -> None:
        self.server = server
        self.clients = clients
        self.setup_s = setup_s

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        code = self.server.stop()
        if code not in (0, None):
            raise BenchError(f"server exited with code {code}")

    def peak_rss_mib(self) -> float:
        pid = self.server.proc.pid
        return hwm_mib([pid, *descendants(pid, {self.server.pgid})])


async def start_session(
    root: Path, args: list[str], hot: dict[str, Any], warm_alpha: float, log: Path
) -> Session:
    """Launch, connect, register the hot set and warm it; times all of it."""
    started = time.perf_counter()
    server = Server(root, args, log)
    port = server.wait_listening()
    clients = [await TCPRankingClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
    names = list(hot)
    await asyncio.gather(
        *(clients[i % len(clients)].register(name, hot[name]) for i, name in enumerate(names))
    )
    warm = PRFe(warm_alpha)
    await asyncio.gather(
        *(clients[i % len(clients)].rank_detailed(name, warm, k=K) for i, name in enumerate(names)),
        *(clients[i % len(clients)].top_k(name, warm, K) for i, name in enumerate(names)),
    )
    return Session(server, clients, time.perf_counter() - started)


def verify(outcomes: list[Outcome], hot: dict[str, Any]) -> int:
    """Check every reply against an in-process engine; returns mismatches.

    ``rank`` replies must equal the head of ``Engine.rank`` bit for bit,
    inline ranks the whole ranking, and ``top_k`` tids must equal both the
    head of the full ranking and ``Engine.rank_top_k``.
    """
    mismatches = 0
    heads: dict[tuple[str, float], list[tuple[Any, Any]]] = {}
    twins = {name: twin(data) for name, data in hot.items()}
    with Engine() as engine:
        for outcome in outcomes:
            request, op = outcome.request, outcome.op
            if op.status != "ok" or outcome.reply is None:
                continue
            rf = PRFe(request.alpha)
            if request.inline is not None:
                expected: list[Any] = pairs(engine.rank(twin(request.inline), rf))
                op.correct = same_ranking(outcome.reply, expected)
            else:
                key = (request.ref, request.alpha)
                if key not in heads:
                    heads[key] = pairs(engine.rank(twins[request.ref], rf)[:K])
                head = heads[key]
                if request.op == "top_k":
                    pruned = engine.rank_top_k(twins[request.ref], rf, K)[0]
                    op.correct = same_ranking(outcome.reply, [tid for tid, _ in head]) and (
                        same_ranking(outcome.reply, [item.tid for item in pruned])
                    )
                else:
                    op.correct = same_ranking(outcome.reply, head)
            mismatches += not op.correct
    return mismatches


def accounting(before: dict[str, Any], after: dict[str, Any], ops: list[Op]) -> list[str]:
    """Server-side counters must agree with what the client attempted."""
    problems: list[str] = []
    served = sum(op.status == "ok" for op in ops)
    shed = sum(op.status == "shed" for op in ops)
    failed = sum(op.status == "failed" for op in ops)
    requests = after["requests"] - before["requests"]
    server_shed = (after["shed"] - before["shed"]) + (
        after["deadline_shed"] - before["deadline_shed"]
    )
    if served + shed + failed != len(ops) or requests != len(ops):
        problems.append(
            f"attempted {len(ops)} != served {served} + shed {shed} + failed {failed}"
            f" or != server requests delta {requests}"
        )
    if server_shed != shed:
        problems.append(f"server shed {server_shed} != client-observed shed {shed}")
    if after["pending"] != 0:
        problems.append(f"server reports {after['pending']} pending requests at the end")
    return problems


class Workload:
    """One serving workload's fixed shape."""

    def __init__(
        self,
        name: str,
        args: list[str],
        hot_set: Callable[[int], dict[str, Any]],
        limit_ms: float,
        warm_alpha: float,
        open_loop: bool,
    ) -> None:
        self.name = name
        self.args = args
        self.hot_set = hot_set
        self.limit_ms = limit_ms
        #: Alpha of the set-up requests that warm every hot dataset.
        self.warm_alpha = warm_alpha
        self.open_loop = open_loop

    def describe(self, hot: dict[str, Any]) -> dict[str, Any]:
        sizes = sorted({len(data) for data in hot.values()})
        meta: dict[str, Any] = {
            "server_args": self.args,
            "connections": CONNECTIONS,
            "hot_set": {"datasets": len(hot), "sizes": sizes, "inline_n": inputs.INLINE_N},
            "latency_limit_ms": self.limit_ms,
        }
        if self.open_loop:
            meta.update(loop="open", rate_rps=SINGLE_RATE, hot_alpha_share=inputs.HOT_SHARE)
        else:
            meta.update(loop="closed", callers=POOL_CALLERS)
        return meta

    async def drive(
        self, session: Session, seed: int, seconds: float, hot: dict[str, Any], tracer: Tracer
    ) -> tuple[list[Outcome], float]:
        """The measured phase; returns the outcomes and its elapsed seconds."""
        names = list(hot)
        if self.open_loop:
            requests = inputs.single_stream(seed, names, SINGLE_RATE, seconds)
            return await _open_loop(session.clients, requests, hot, tracer)
        stream = inputs.pool_stream(seed, names)
        return await _closed_loop(session.clients, stream, seconds, hot, tracer)


WORKLOADS = {
    "serve-single": Workload(
        "serve-single", [], inputs.single_hot_set, SINGLE_LIMIT_MS, inputs.HOT_ALPHA, True
    ),
    "serve-pool": Workload(
        "serve-pool", POOL_ARGS, inputs.pool_hot_set, POOL_LIMIT_MS, inputs.WARM_ALPHA, False
    ),
}


async def _run(
    root: Path, workload: Workload, seed: int, seconds: float, trace: bool, out: Path
) -> Result:
    hot = workload.hot_set(seed)
    result = Result(meta=workload.describe(hot))
    setups: list[float] = []
    sessions = 1 if trace else SETUPS
    for index in range(sessions):
        session = await start_session(
            root, workload.args, hot, workload.warm_alpha, out / f"server-{workload.name}.log"
        )
        setups.append(session.setup_s)
        if index < sessions - 1:
            await session.close()
    try:
        before = await session.clients[0].stats()
        tracer = Tracer(trace)
        stop = asyncio.Event()
        pinger = None
        if trace:
            pinger = asyncio.get_running_loop().create_task(
                _pinger(session.clients[0], stop, tracer)
            )
        outcomes, elapsed = await workload.drive(session, seed, seconds, hot, tracer)
        stop.set()
        if pinger is not None:
            await pinger
        after = await session.clients[0].stats()
        rss = session.peak_rss_mib()
    finally:
        await session.close()
    ops = [outcome.op for outcome in outcomes]
    result.problems += accounting(before, after, ops)
    result.mismatches = verify(outcomes, hot)
    result.attempted = len(ops)
    result.failed = sum(op.status != "ok" for op in ops) + result.mismatches
    if not trace:
        result.metrics = op_metrics(ops, elapsed, workload.limit_ms)
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["peak_rss_mib"] = rss
        return result
    import replay

    traced_ops = [o.op for o in outcomes if o.request.rid % 2 == 0]
    plain_ops = [o.op for o in outcomes if o.request.rid % 2 == 1]
    layers = await replay.server_layers(
        workload.name, hot, [o.request for o in outcomes], tracer, workload.warm_alpha
    )
    layers.update(_stats_layers(before, after))
    lags = [(span.end - span.start) * 1000.0 for span in tracer.by_name("client.lag")]
    layers["client.lag_p99_ms"] = quantile(lags, 0.99)
    layers["tcp.ping_ms"] = quantile(
        [span.duration * 1000.0 for span in tracer.by_name("tcp.ping")], 0.5
    )
    layers["trace.overhead_ms"] = quantile([op.latency_ms for op in traced_ops], 0.5) - (
        quantile([op.latency_ms for op in plain_ops], 0.5)
    )
    result.meta["trace_spans"] = len(tracer.spans)
    result.metrics = layers
    tracer.write(out / f"trace-{workload.name}-seed{seed}.json", result.meta)
    return result


def _stats_layers(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Per-layer counts from the server's ``stats`` deltas."""

    def delta(*path: str) -> float:
        a: Any = after
        b: Any = before
        for key in path:
            a, b = a[key], b[key]
        return float(a - b)

    requests = delta("requests")
    lookups = delta("engine_cache", "hits") + delta("engine_cache", "misses")
    layers = {
        "service.batch_size": delta("executed") / max(delta("batches"), 1.0),
        "service.result_cache_hit_ratio": delta("cache_hits") / max(requests, 1.0),
        "service.dedup_ratio": delta("deduplicated") / max(requests, 1.0),
        "service.shed": delta("shed") + delta("deadline_shed"),
        "cache.hit_ratio": delta("engine_cache", "hits") / max(lookups, 1.0),
        "cache.evictions": delta("engine_cache", "evictions"),
        "pool.hedge_ratio": 0.0,
        "pool.hedge_win_ratio": 0.0,
        "pool.breaker_opens": 0.0,
        "pool.retries": 0.0,
        "pool.replica_routed_ratio": 0.0,
    }
    if "pool" in after:
        dispatched = delta("pool", "totals", "dispatched")
        fired = delta("pool", "hedges_fired")
        opens = after["pool"]["breakers"] or {"opens": [0]}
        opens_before = before["pool"]["breakers"] or {"opens": [0]}
        layers.update(
            {
                "pool.hedge_ratio": fired / max(dispatched, 1.0),
                "pool.hedge_win_ratio": delta("pool", "hedges_won") / max(fired, 1.0),
                "pool.breaker_opens": float(sum(opens["opens"]) - sum(opens_before["opens"])),
                "pool.retries": delta("pool", "totals", "retries"),
                "pool.replica_routed_ratio": delta("pool", "totals", "replica_routed")
                / max(dispatched, 1.0),
            }
        )
    return layers


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, out: Path) -> Result:
    return asyncio.run(_run(root, WORKLOADS[name], seed, seconds, trace, out))
