"""Per-layer timings taken from outside, around public calls of each layer.

:func:`probe` times, for each ranking, the layers a ranking request passes
below the service: fingerprint (``engine.cache``, on a fresh twin), planner
(``engine.facade``), the backend kernel on the already sorted inputs
(``engine.kernels``, ``algorithms.independent``, ``andxor.ranking``,
``graphical.ranking``), pruned top-k (``engine.topk``), the approximation
planner (``engine.approx``) and, by difference, result materialisation
(``core.result``).  :class:`TimedEngine` wraps the engine's batch entry
point so that a service replay can see when each coalesced batch ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.algorithms.independent import prf_values
from repro.andxor.ranking import prfe_values_tree
from repro.andxor.tree import AndXorTree
from repro.core.columnar import ColumnarRelation
from repro.core.prf import PRFOmega, RankingFunction
from repro.core.tuples import ProbabilisticRelation
from repro.engine.approx import plan_approx
from repro.engine.cache import dataset_fingerprint
from repro.engine.facade import Engine
from repro.engine.kernels import batched_prfe_log_values
from repro.graphical.model import MarkovNetworkRelation
from repro.graphical.ranking import prf_values_markov

from tracing import Tracer, mean

MODELS = ("independent", "columnar", "andxor", "markov")


def model_of(data: Any) -> str:
    if isinstance(data, ColumnarRelation):
        return "columnar"
    if isinstance(data, AndXorTree):
        return "andxor"
    if isinstance(data, MarkovNetworkRelation):
        return "markov"
    return "independent"


@dataclass
class Ranking:
    """One (dataset, ranking function) pair to probe.

    ``engine_ms`` is the engine's time for this ranking when the caller
    measured it (a share of a batch call); ``None`` lets :func:`probe`
    time a direct ``Engine.rank`` on a warm engine.
    """

    data: Any
    rf: RankingFunction
    top_k: int | None = None
    engine_ms: float | None = None
    approx: float | None = None


@dataclass
class Batch:
    """One ``rank_batch`` call seen by :class:`TimedEngine`."""

    start: float
    end: float
    members: set[int] = field(default_factory=set)


class TimedEngine(Engine):
    """An :class:`Engine` that records every ``rank_batch`` call.

    The service runs ``rank_batch`` on the engine's executor thread;
    appending to a list is atomic, so no lock is needed.
    """

    def __init__(self, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self.batches: list[Batch] = []

    def rank_batch(self, datasets: Any, rf: RankingFunction, **kwargs: Any) -> Any:
        datasets = list(datasets)
        start = time.perf_counter()
        results = super().rank_batch(datasets, rf, **kwargs)
        end = time.perf_counter()
        self.batches.append(Batch(start, end, {id(data) for data in datasets}))
        self.tracer.record("engine.rank_batch", start, end)
        return results


class _Clock:
    """Times calls as child spans of one probe span."""

    def __init__(self, tracer: Tracer, parent: int | None) -> None:
        self.tracer = tracer
        self.parent = parent

    def __call__(self, name: str, call: Callable[[], Any]) -> tuple[float, Any]:
        start = time.perf_counter()
        value = call()
        end = time.perf_counter()
        self.tracer.record(name, start, end, parent=self.parent)
        return (end - start) * 1000.0, value


def unfingerprinted(data: Any) -> Any:
    """An equal dataset built anew, so its fingerprint is not memoized yet.

    The program memoizes a dataset's fingerprint on the object, so timing
    ``dataset_fingerprint`` on a dataset the engine has already seen
    would time the memo lookup; a fresh twin times the hash itself.
    """
    if isinstance(data, ColumnarRelation):
        tids = None if data.has_implicit_tids else data.tid_values()
        return ColumnarRelation(data.scores(), data.probabilities(), tids=tids, validate=False)
    if isinstance(data, AndXorTree):
        return AndXorTree(data.root)
    if isinstance(data, MarkovNetworkRelation):
        return MarkovNetworkRelation(data.tuples, data.factors)
    return ProbabilisticRelation(data)


def _scores(data: Any) -> np.ndarray:
    if isinstance(data, (ColumnarRelation, ProbabilisticRelation)):
        return np.asarray(data.scores())
    return np.array([t.score for t in data.sorted_tuples()])


def _kernel(data: Any, rf: RankingFunction, engine: Engine, clock: _Clock) -> tuple[str, float]:
    """Time the backend kernel on the sorted inputs; returns (kind, ms)."""
    model = model_of(data)
    if model == "markov":
        return "markov", clock("kernel.markov", lambda: prf_values_markov(data, rf))[0]
    if model == "andxor":
        return "andxor", clock("kernel.andxor", lambda: prfe_values_tree(data, rf.alpha))[0]
    if isinstance(rf, PRFOmega):
        # The single-relation streaming kernel; it sorts its input itself.
        return "omega", clock("kernel.omega", lambda: prf_values(data, rf))[0]
    if isinstance(data, ColumnarRelation):
        probabilities = data.sorted_probabilities()[None, :]
    else:
        ordered = engine.sorted_tuples(data)
        probabilities = np.array([t.probability for t in ordered])[None, :]
    spent = clock("kernel.prfe", lambda: batched_prfe_log_values(probabilities, rf.alpha))[0]
    return "prfe", spent


def probe(rankings: list[Ranking], tracer: Tracer) -> dict[str, float]:
    """Per-layer means over ``rankings`` (0.0 where a layer saw no work)."""
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    with Engine(cache_relations=256) as engine:
        for data in {id(r.data): r.data for r in rankings}.values():
            if not isinstance(data, ColumnarRelation):
                engine.sorted_tuples(data)
        for ranking in rankings:
            data, rf, k = ranking.data, ranking.rf, ranking.top_k
            with tracer.span("probe.ranking") as root:
                clock = _Clock(tracer, root)
                fresh = unfingerprinted(data)
                fingerprint = clock("cache.fingerprint", lambda: dataset_fingerprint(fresh))
                add("cache.fingerprint_ms", fingerprint[0])
                plan = clock("engine.plan", lambda: engine.plan(data, rf, top_k=k))
                add("engine.plan_ms", plan[0])
                if ranking.approx is not None:
                    budget = ranking.approx
                    spent, decision = clock(
                        "approx.plan", lambda: plan_approx(rf, len(data), budget)
                    )
                    add("approx.ms", spent)
                    add("approx.terms", float(decision.terms or 0))
                    continue
                if k is not None:
                    spent, (_, report) = clock("topk", lambda: engine.rank_top_k(data, rf, k))
                    add("topk.ms", spent)
                    add("topk.examined_ratio", report.fraction_examined)
                    continue
                scores = _scores(data)
                sort_ms = clock("sort", lambda: np.argsort(-scores, kind="stable"))[0]
                kind, kernel_ms = _kernel(data, rf, engine, clock)
                engine_ms = ranking.engine_ms
                if engine_ms is None:
                    engine_ms = clock("engine.rank", lambda: engine.rank(data, rf))[0]
                add(f"engine.rank_ms.{model_of(data)}", engine_ms)
                add(f"kernel.{kind}_ms", kernel_ms)
                if kind == "omega":
                    sort_ms = 0.0  # already inside the kernel's time
                add("result.materialize_ms", max(engine_ms - kernel_ms - sort_ms, 0.0))
    names = [
        "cache.fingerprint_ms",
        "engine.plan_ms",
        *(f"engine.rank_ms.{model}" for model in MODELS),
        "kernel.prfe_ms",
        "kernel.omega_ms",
        "kernel.andxor_ms",
        "kernel.markov_ms",
        "topk.ms",
        "topk.examined_ratio",
        "approx.ms",
        "approx.terms",
        "result.materialize_ms",
    ]
    return {name: mean(samples.get(name, [])) for name in names}
