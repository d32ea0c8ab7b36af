"""The ``batch-offline`` workload: in-process ``Engine`` calls, one thread.

A closed loop of library calls, the way an analyst ranks new data: every
dataset is freshly generated from the seed (untimed) and ranked once,
cold, on one long-lived engine.  One round is a fixed list of calls sized
so that no call kind takes more than about half of the round; rounds
repeat until ``--seconds`` of call time has been measured.  Every result
is checked against a separate reference engine outside the timed calls.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.prf import PRFe, PRFOmega, RankingFunction
from repro.core.tuples import Tuple
from repro.core.weights import StepWeight
from repro.datasets.synthetic import generate_independent, syn_med
from repro.engine.facade import Engine
from repro.graphical.markov_chain import MarkovChainRelation

import layers
from common import Op, Result, op_metrics, pairs, same_ranking, self_peak_rss_mib, twin
from inputs import INLINE_N, K
from tracing import Tracer, quantile

BATCH_RELATIONS, BATCH_N = 64, 2_000
MANY_N = 20_000
OMEGA_N, OMEGA_H, APPROX = 200_000, 100, 1e-3
COLUMNAR_N = 1_000_000
TREE_N, TREES = 2_000, 5
MARKOV_N, MARKOVS = 30, 2
TOPK_N, TOPKS = 20_000, 4
INLINES = 40
#: Calls of the cheaper kinds run this many times per round, so that the
#: PRF-omega pair at n = 2e5 stays under about half of a round.
REPEAT = 2
LIMIT_MS = 10_000.0
#: Fresh-interpreter set-ups per run; each is short, so take the median of many.
SETUPS = 9
SETUP_SNIPPET = """
from repro.core.prf import PRFe
from repro.datasets.synthetic import generate_independent
from repro.engine.facade import Engine
Engine().rank(generate_independent(200, rng=0), PRFe(0.9))
print("ready", flush=True)
"""


@dataclass
class Call:
    """One measured library call and what it ranked."""

    op: Op
    label: str
    rankings: list[layers.Ranking]


class Analyst:
    """Generates, times and checks the calls of the workload."""

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.rng = np.random.default_rng([seed, 5])
        self.engine = Engine()
        self.reference = Engine()
        self.tracer = tracer
        self.calls: list[Call] = []
        self.mismatches = 0

    def close(self) -> None:
        self.engine.close()
        self.reference.close()

    def _alpha(self) -> float:
        return float(self.rng.uniform(0.5, 0.99))

    def _relation(self, n: int, columnar: bool = False) -> Any:
        return generate_independent(n, rng=self.rng, columnar=columnar)

    def _time(
        self, kind: str, label: str, tuples: int, call: Callable[[], Any]
    ) -> tuple[Any, Op]:
        start = time.perf_counter()
        value = call()
        done = time.perf_counter()
        self.tracer.record(f"call.{label}", start, done)
        op = Op(kind, start, done, tuples)
        return value, op

    def _check(self, op: Op, ok: bool) -> None:
        op.correct = ok
        self.mismatches += not ok

    def _add(self, op: Op, label: str, rankings: list[layers.Ranking]) -> None:
        share = op.latency_ms / max(len(rankings), 1)
        for ranking in rankings:
            if ranking.top_k is None and ranking.approx is None:
                ranking.engine_ms = share
        self.calls.append(Call(op, label, rankings if self.tracer.enabled else []))

    # -- the calls -------------------------------------------------------
    def rank_batch(self) -> None:
        datasets = [self._relation(BATCH_N) for _ in range(BATCH_RELATIONS)]
        rf = PRFe(self._alpha())
        results, op = self._time(
            "rank", "rank_batch", BATCH_N * BATCH_RELATIONS,
            lambda: self.engine.rank_batch(datasets, rf),
        )
        self._check(op, all(
            same_ranking(pairs(result), pairs(self.reference.rank(twin(data), rf)))
            for data, result in zip(datasets, results)
        ))
        self._add(op, "rank_batch", [layers.Ranking(data, rf) for data in datasets])

    def rank_many(self) -> None:
        data = self._relation(MANY_N)
        specs: list[RankingFunction] = [PRFe(self._alpha()) for _ in range(4)]
        specs += [PRFOmega(StepWeight(h)) for h in (10, 25, 50, 100)]
        results, op = self._time(
            "rank", "rank_many", MANY_N * len(specs), lambda: self.engine.rank_many(data, specs)
        )
        reference = twin(data)
        self._check(op, all(
            same_ranking(pairs(result), pairs(self.reference.rank(reference, rf)))
            for rf, result in zip(specs, results)
        ))
        self._add(op, "rank_many", [layers.Ranking(data, rf) for rf in specs])

    def omega(self) -> None:
        data = self._relation(OMEGA_N)
        rf = PRFOmega(StepWeight(OMEGA_H))
        exact, op = self._time("rank", "omega_exact", OMEGA_N, lambda: self.engine.rank(data, rf))
        expected = self.reference.rank(twin(data), rf)
        self._check(op, same_ranking(pairs(exact), pairs(expected)))
        self._add(op, "omega_exact", [layers.Ranking(data, rf)])
        approx, op = self._time(
            "rank", "omega_approx", OMEGA_N,
            lambda: self.engine.rank(data, rf, approx=APPROX),
        )
        bound = self.engine.approx_decision(data, rf, APPROX).error_bound
        values = expected.values()
        self._check(op, same_ranking(pairs(approx), pairs(expected)) if bound is None else all(
            abs(complex(item.value) - complex(values[item.tid])) <= bound * (1 + 1e-9)
            for item in approx
        ))
        self._add(op, "omega_approx", [layers.Ranking(data, rf, approx=APPROX)])

    def columnar(self) -> None:
        data = self._relation(COLUMNAR_N, columnar=True)
        rf = PRFe(self._alpha())
        (result,), op = self._time(
            "rank", "columnar", COLUMNAR_N, lambda: self.engine.rank_batch([data], rf)
        )
        expected = self.reference.rank(data, rf)
        self._check(op, bool(
            np.array_equal(result.original_indices(), expected.original_indices())
            and np.array_equal(result.values_array(), expected.values_array())
        ))
        self._add(op, "columnar", [layers.Ranking(data, rf)])

    def _single(self, kind: str, label: str, data: Any, rf: RankingFunction) -> None:
        result, op = self._time(kind, label, len(data), lambda: self.engine.rank(data, rf))
        self._check(op, same_ranking(pairs(result), pairs(self.reference.rank(twin(data), rf))))
        self._add(op, label, [layers.Ranking(data, rf)])

    def tree(self) -> None:
        self._single("rank", "syn_med", syn_med(TREE_N, rng=self.rng), PRFe(self._alpha()))

    def markov(self) -> None:
        scores = self.rng.uniform(0.0, 10_000.0, MARKOV_N)
        tuples = [Tuple(f"m{i}", float(score), 0.5) for i, score in enumerate(scores)]
        chain = MarkovChainRelation.homogeneous(
            tuples, 0.5, float(self.rng.uniform(0.5, 0.9)), float(self.rng.uniform(0.5, 0.9))
        )
        self._single("rank", "markov", chain.to_markov_network(), PRFe(self._alpha()))

    def inline(self) -> None:
        self._single("inline", "inline", self._relation(INLINE_N), PRFe(self._alpha()))

    def top_k(self) -> None:
        data = self._relation(TOPK_N)
        rf = PRFe(self._alpha())
        (result, _), op = self._time(
            "top_k", "top_k", TOPK_N, lambda: self.engine.rank_top_k(data, rf, K)
        )
        head = pairs(self.reference.rank(twin(data), rf)[:K])
        self._check(op, same_ranking(pairs(result), head))
        self._add(op, "top_k", [layers.Ranking(data, rf, top_k=K)])

    def run_once(self) -> None:
        for _ in range(REPEAT):
            self.rank_batch()
            self.rank_many()
            self.columnar()
        self.omega()
        for _ in range(TREES):
            self.tree()
        for _ in range(MARKOVS):
            self.markov()
        for _ in range(TOPKS):
            self.top_k()
        for _ in range(INLINES):
            self.inline()

    def measure(self, seconds: float) -> list[Call]:
        """Whole rounds, at least one, for about ``seconds`` of call time.

        A further round starts only while less than ``seconds`` minus half
        a round has been measured, so a run overshoots by at most half a
        round.
        """
        first = len(self.calls)
        measured = 0.0
        while True:
            start = len(self.calls)
            self.run_once()
            spent = _elapsed(self.calls[start:])
            measured += spent
            if measured >= seconds - spent / 2.0:
                return self.calls[first:]


def _setup_s(root: Path) -> float:
    """Seconds from launching a fresh interpreter until its first ranking."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        line = proc.stdout.readline() if proc.stdout is not None else ""
        elapsed = time.perf_counter() - start
    finally:
        proc.wait(60)
        if proc.stdout is not None:
            proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("the set-up interpreter did not rank its warm-up relation")
    return elapsed


def _elapsed(calls: list[Call]) -> float:
    return sum(call.op.done - call.op.start for call in calls)


def run(root: Path, seed: int, seconds: float, trace: bool, out: Path) -> Result:
    meta = {
        "loop": "closed",
        "callers": 1,
        "latency_limit_ms": LIMIT_MS,
        "sizes": {
            "rank_batch": [BATCH_RELATIONS, BATCH_N],
            "rank_many": [8, MANY_N],
            "omega": [OMEGA_N, OMEGA_H, APPROX],
            "columnar": COLUMNAR_N,
            "syn_med": [TREES, TREE_N],
            "markov": [MARKOVS, MARKOV_N],
            "top_k": [TOPKS, TOPK_N, K],
            "inline": [INLINES, INLINE_N],
            "repeat": REPEAT,
        },
    }
    result = Result(meta=meta)
    setups = [] if trace else [_setup_s(root) for _ in range(SETUPS)]
    tracer = Tracer(trace)
    work = Analyst(seed, Tracer(False))
    try:
        if trace:
            plain = work.measure(seconds / 2.0)
            work.tracer = tracer
            before = work.engine.cache_info()
            traced = work.measure(seconds / 2.0)
            after = work.engine.cache_info()
            calls = plain + traced
        else:
            calls = work.measure(seconds)
            rss = self_peak_rss_mib()
    finally:
        work.close()
    ops = [call.op for call in calls]
    result.attempted = len(ops)
    result.mismatches = work.mismatches
    result.failed = work.mismatches
    if not trace:
        result.metrics = op_metrics(ops, _elapsed(calls), LIMIT_MS)
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["peak_rss_mib"] = rss
        return result
    rankings = [ranking for call in traced for ranking in call.rankings]
    metrics = layers.probe(rankings, tracer)
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    metrics.update(
        {
            "cache.hit_ratio": (after["hits"] - before["hits"]) / max(lookups, 1),
            "cache.evictions": float(after["evictions"] - before["evictions"]),
            "trace.overhead_ms": quantile([c.op.latency_ms for c in traced], 0.5)
            - quantile([c.op.latency_ms for c in plain], 0.5),
        }
    )
    for name in (
        "spec.decode_ms", "spec.encode_ms", "spec.request_bytes", "spec.reply_bytes",
        "tcp.ping_ms", "service.queue_ms", "service.batch_size",
        "service.result_cache_hit_ratio", "service.dedup_ratio", "service.shed",
        "pool.dispatch_ms", "pool.hedge_ratio", "pool.hedge_win_ratio",
        "pool.breaker_opens", "pool.retries", "pool.replica_routed_ratio",
        "client.lag_p99_ms",
    ):
        metrics[name] = 0.0  # no wire, service, pool or load generator here
    result.metrics = metrics
    meta["trace_spans"] = len(tracer.spans)
    tracer.write(out / f"trace-batch-offline-seed{seed}.json", meta)
    return result
