"""Result record, reference checks and memory readings shared by workloads."""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.result import ColumnarRankingResult
from repro.core.tuples import ProbabilisticRelation

from tracing import quantile

#: Units of every metric the benchmark reports.
UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "throughput_rps": "1/s",
    "slo_ratio": "ratio",
    "fail_ratio": "ratio",
    "rank.p50_ms": "ms",
    "rank.p99_ms": "ms",
    "top_k.p50_ms": "ms",
    "top_k.p99_ms": "ms",
    "inline.p50_ms": "ms",
    "tuples_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "spec.decode_ms": "ms",
    "spec.encode_ms": "ms",
    "spec.request_bytes": "bytes",
    "spec.reply_bytes": "bytes",
    "tcp.ping_ms": "ms",
    "service.queue_ms": "ms",
    "service.batch_size": "count",
    "service.result_cache_hit_ratio": "ratio",
    "service.dedup_ratio": "ratio",
    "service.shed": "count",
    "pool.dispatch_ms": "ms",
    "pool.hedge_ratio": "ratio",
    "pool.hedge_win_ratio": "ratio",
    "pool.breaker_opens": "count",
    "pool.retries": "count",
    "pool.replica_routed_ratio": "ratio",
    "cache.fingerprint_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "engine.plan_ms": "ms",
    "engine.rank_ms.independent": "ms",
    "engine.rank_ms.columnar": "ms",
    "engine.rank_ms.andxor": "ms",
    "engine.rank_ms.markov": "ms",
    "kernel.prfe_ms": "ms",
    "kernel.omega_ms": "ms",
    "kernel.andxor_ms": "ms",
    "kernel.markov_ms": "ms",
    "topk.ms": "ms",
    "topk.examined_ratio": "ratio",
    "approx.ms": "ms",
    "approx.terms": "count",
    "result.materialize_ms": "ms",
    "client.lag_p99_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: The end-to-end metrics gated in ``BENCHMARK.json``; the other
#: end-to-end metrics are printed but not gated (see ``README.md``).
END_TO_END = [
    "setup_s",
    "throughput_rps",
    "slo_ratio",
    "tuples_per_s",
    "peak_rss_mib",
]
PER_LAYER = list(UNITS)[list(UNITS).index("spec.decode_ms"):]


@dataclass
class Op:
    """One measured operation: a request or a library call."""

    kind: str  # "rank", "top_k" or "inline"
    start: float  # when it was due (open loop) or issued
    done: float
    tuples: int
    status: str = "ok"  # "ok", "shed" or "failed"
    correct: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.start) * 1000.0


@dataclass
class Result:
    """What one run reports."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)


def op_metrics(ops: list[Op], elapsed: float, limit_ms: float) -> dict[str, float]:
    """The latency, rate and ratio metrics over one measured phase."""
    good = [op for op in ops if op.status == "ok" and op.correct]
    latencies = [op.latency_ms for op in ops if op.status == "ok"]

    def of(kind: str) -> list[float]:
        return [op.latency_ms for op in ops if op.status == "ok" and op.kind == kind]

    attempted = max(len(ops), 1)
    return {
        "p50_ms": quantile(latencies, 0.5),
        "p99_ms": quantile(latencies, 0.99),
        "throughput_rps": len(good) / elapsed,
        "slo_ratio": sum(op.latency_ms <= limit_ms for op in good) / attempted,
        "fail_ratio": (len(ops) - len(good)) / attempted,
        "rank.p50_ms": quantile(of("rank"), 0.5),
        "rank.p99_ms": quantile(of("rank"), 0.99),
        "top_k.p50_ms": quantile(of("top_k"), 0.5),
        "top_k.p99_ms": quantile(of("top_k"), 0.99),
        "inline.p50_ms": quantile(of("inline"), 0.5),
        "tuples_per_s": sum(op.tuples for op in good) / elapsed,
    }


def same_ranking(got: list[Any], expected: list[Any]) -> bool:
    """Exact equality of ``(tid, value)`` pairs or of tid lists.

    The wire float codec round-trips exactly, so values must be equal bit
    for bit; ``==`` on floats is that test for non-NaN values.
    """
    return len(got) == len(expected) and all(a == b for a, b in zip(got, expected))


def pairs(result: Any) -> list[tuple[Any, Any]]:
    """``(tid, value)`` in ranking order.

    A columnar result is read from its arrays, so checking against a
    columnar reference builds no per-tuple objects.
    """
    if isinstance(result, ColumnarRankingResult):
        return list(zip(result.tids(), result.values_array().tolist()))
    return [(item.tid, item.value) for item in result]


def twin(data: Any) -> Any:
    """The columnar twin of a tuple relation, else ``data`` itself.

    The engine ranks a relation and its columnar twin bit-identically, and
    the columnar path builds no per-tuple objects, so references computed
    on twins are cheap and still check the served path exactly.
    """
    return data.to_columnar() if isinstance(data, ProbabilisticRelation) else data


def hwm_mib(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kib = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def self_peak_rss_mib() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))
