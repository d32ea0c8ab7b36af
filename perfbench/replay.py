"""In-process replay of a serving workload's seeded request stream.

The replay feeds the same requests through the layers the server runs,
each timed from outside around its public functions: the wire codecs
(``service.spec`` plus ``json``), the fingerprint (``engine.cache``),
``RankingService.submit`` or ``PooledRankingService.submit`` over a
:class:`~layers.TimedEngine`, and, for the pool, a :class:`WorkerPool`
whose ``execute`` is timed.  Below the service, :func:`layers.probe`
times the planner, kernels, top-k and materialisation directly.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any

from repro.core.prf import PRFe, RankingFunction
from repro.engine.cache import dataset_fingerprint
from repro.engine.facade import Engine
from repro.service import (
    BreakerConfig,
    HedgePolicy,
    PooledRankingService,
    RankingService,
    WorkerPool,
)
from repro.service.spec import (
    dataset_from_payload,
    dataset_to_payload,
    encode_value,
    ranking_function_from_payload,
    ranking_function_to_payload,
)

import layers
from inputs import K, Request
from tracing import Tracer, mean

#: Requests replayed per traced run; enough for stable means, bounded in time.
REPLAY_REQUESTS = 120
POOL_SHARDS = 2
POOL_CALLERS = 16


@dataclass
class _Execute:
    """One ``WorkerPool.execute`` call: a sub-batch dispatched to a shard."""

    seconds: float
    datasets: list[Any]
    rf: RankingFunction
    top_k: int | None


class TimedWorkerPool(WorkerPool):
    """A :class:`WorkerPool` whose ``execute`` calls are timed."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.executes: list[_Execute] = []

    async def execute(self, shard: int, datasets: Any, rf: RankingFunction, **kwargs: Any) -> Any:
        start = time.perf_counter()
        results = await super().execute(shard, datasets, rf, **kwargs)
        self.executes.append(
            _Execute(time.perf_counter() - start, list(datasets), rf, kwargs.get("top_k"))
        )
        return results


def _message(request: Request) -> dict[str, Any]:
    """The request object a ``TCPRankingClient`` sends for ``request``."""
    message: dict[str, Any] = {
        "id": request.rid,
        "op": "top_k" if request.op == "top_k" else "rank",
        "dataset": (
            {"ref": request.ref}
            if request.ref is not None
            else dataset_to_payload(request.inline)
        ),
        "rf": ranking_function_to_payload(PRFe(request.alpha)),
    }
    if request.op != "inline":
        message["k"] = K
    return message


class _Replay:
    def __init__(self, service: RankingService, registry: dict[str, Any], tracer: Tracer) -> None:
        self.service = service
        self.registry = registry
        self.tracer = tracer
        self.submits: list[tuple[float, int]] = []  # (submit start, id(data)) of misses
        self.request_bytes: list[int] = []
        self.reply_bytes: list[int] = []

    async def one(self, request: Request) -> None:
        """Decode, fingerprint, submit and encode one request, as the server does."""
        tracer, rid = self.tracer, request.rid
        line = json.dumps(_message(request)).encode()
        self.request_bytes.append(len(line) + 1)
        with tracer.span("replay.request", request=rid) as root:
            with tracer.span("spec.decode", parent=root, request=rid):
                message = json.loads(line)
                payload = message["dataset"]
                if "ref" in payload:
                    data = self.registry[payload["ref"]]
                else:
                    data = dataset_from_payload(payload)
                rf = ranking_function_from_payload(message["rf"])
            with tracer.span("cache.fingerprint", parent=root, request=rid):
                dataset_fingerprint(data)
            submitted = time.perf_counter()
            with tracer.span("service.submit", parent=root, request=rid):
                top_k = K if request.op == "top_k" else None
                reply = await self.service.submit(data, rf, top_k=top_k)
            if not (reply.cached or reply.deduplicated):
                self.submits.append((submitted, id(data)))
            with tracer.span("spec.encode", parent=root, request=rid):
                items = reply.result[:K] if "k" in message else reply.result
                body = json.dumps(
                    {
                        "id": rid,
                        "ok": True,
                        "ranking": [
                            {
                                "position": item.position,
                                "tid": item.item.tid,
                                "value": encode_value(item.value),
                            }
                            for item in items
                        ],
                    }
                ).encode()
        self.reply_bytes.append(len(body) + 1)


async def _warm(service: RankingService, registry: dict[str, Any], alpha: float) -> None:
    warm = PRFe(alpha)
    await asyncio.gather(
        *(service.submit(data, warm) for data in registry.values()),
        *(service.submit(data, warm, top_k=K) for data in registry.values()),
    )


def _self_ms(tracer: Tracer, name: str) -> float:
    own = tracer.self_times()
    return mean([own[span.sid] * 1000.0 for span in tracer.by_name(name)])


def _queue_ms(submits: list[tuple[float, int]], batches: list[layers.Batch]) -> float:
    """Mean wait from ``submit`` until the engine batch holding the request began."""
    waits: list[float] = []
    for submitted, member in submits:
        starts = [b.start for b in batches if member in b.members and b.start >= submitted]
        if starts:
            waits.append((min(starts) - submitted) * 1000.0)
    return mean(waits)


async def _replay_single(
    requests: list[Request], registry: dict[str, Any], tracer: Tracer, warm_alpha: float
) -> dict[str, float]:
    engine = layers.TimedEngine(tracer)
    try:
        async with RankingService(engine) as service:
            await _warm(service, registry, warm_alpha)
            engine.batches.clear()
            replay = _Replay(service, registry, tracer)
            base = time.perf_counter() - requests[0].due
            tasks = []
            for request in requests:
                delay = base + request.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.get_running_loop().create_task(replay.one(request)))
            await asyncio.gather(*tasks)
    finally:
        engine.close()
    return _wire_layers(replay, tracer) | {
        "service.queue_ms": _queue_ms(replay.submits, engine.batches),
        "pool.dispatch_ms": 0.0,
    }


async def _replay_pool(
    requests: list[Request], registry: dict[str, Any], tracer: Tracer, warm_alpha: float
) -> dict[str, float]:
    engine = layers.TimedEngine(tracer)
    pool = TimedWorkerPool(
        POOL_SHARDS, breaker=BreakerConfig(), hedge=HedgePolicy(quantile=0.95)
    )
    try:
        service = PooledRankingService(pool, engine=engine, probe_interval=5.0)
        async with service:
            await _warm(service, registry, warm_alpha)
            pool.executes.clear()
            replay = _Replay(service, registry, tracer)
            queue = iter(requests)

            async def caller() -> None:
                for request in queue:
                    await replay.one(request)

            await asyncio.gather(*(caller() for _ in range(POOL_CALLERS)))
    finally:
        await asyncio.to_thread(pool.close)
        engine.close()
    # IPC cost: each sub-batch's pool time minus a warm local engine's time.
    dispatch: list[float] = []
    with Engine(cache_relations=256) as local:
        for data in registry.values():
            local.sorted_tuples(data)
        for call in pool.executes:
            start = time.perf_counter()
            local.rank_batch(call.datasets, call.rf, top_k=call.top_k)
            dispatch.append((call.seconds - (time.perf_counter() - start)) * 1000.0)
    return _wire_layers(replay, tracer) | {
        "service.queue_ms": _self_ms(tracer, "service.submit") - mean(
            [call.seconds * 1000.0 for call in pool.executes]
        ),
        "pool.dispatch_ms": mean(dispatch),
    }


def _wire_layers(replay: _Replay, tracer: Tracer) -> dict[str, float]:
    return {
        "spec.decode_ms": _self_ms(tracer, "spec.decode"),
        "spec.encode_ms": _self_ms(tracer, "spec.encode"),
        "spec.request_bytes": mean([float(size) for size in replay.request_bytes]),
        "spec.reply_bytes": mean([float(size) for size in replay.reply_bytes]),
    }


async def server_layers(
    workload: str,
    hot: dict[str, Any],
    requests: list[Request],
    tracer: Tracer,
    warm_alpha: float,
) -> dict[str, float]:
    """Per-layer metrics of a serving workload from an in-process replay."""
    requests = requests[:REPLAY_REQUESTS]
    # The server holds registered datasets as decoded from their payloads.
    registry = {
        name: dataset_from_payload(json.loads(json.dumps(dataset_to_payload(data))))
        for name, data in hot.items()
    }
    replay = _replay_single if workload == "serve-single" else _replay_pool
    metrics = await replay(requests, registry, tracer, warm_alpha)
    rankings = [
        layers.Ranking(
            request.inline if request.inline is not None else registry[request.ref],
            PRFe(request.alpha),
            top_k=K if request.op == "top_k" else None,
        )
        for request in requests
    ]
    metrics.update(layers.probe(rankings, tracer))
    return metrics
