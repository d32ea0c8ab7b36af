"""Seeded inputs: datasets and request streams of every workload.

Everything here is a pure function of the ``--seed`` argument, so the
same seed always yields the same datasets and the same request sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.core.tuples import ProbabilisticRelation
from repro.datasets.synthetic import generate_independent, syn_med

# serve-single: the hot set and the mix.
SINGLE_HOT_RELATIONS = 8
SINGLE_HOT_N = 20_000
TREE_N = 2_000
INLINE_N = 200
SINGLE_RANK_SHARE = 0.45
SINGLE_TOPK_SHARE = 0.40  # the remaining 15% are inline ranks
ZIPF_EXPONENT = 1.1
#: This share of serve-single's rank and top_k requests use ``HOT_ALPHA``;
#: set-up warms those (dataset, rf) pairs, so they always hit the result
#: cache within its TTL.  The others draw from a 512-value grid and rarely
#: repeat.
HOT_SHARE = 0.25
HOT_ALPHA = 0.95
ALPHA_GRID = tuple(0.5 + 0.49 * j / 511 for j in range(512))
#: Alpha of the warm-up requests that fill the engine caches without
#: priming the result cache for any measured request.
WARM_ALPHA = 1.0

# serve-pool: a hot set larger than one engine's 64-entry LRU.
POOL_HOT_RELATIONS = 96
POOL_HOT_N = 2_000
POOL_RANK_SHARE = 0.65
POOL_TOPK_SHARE = 0.25  # the remaining 10% are inline ranks

K = 10


@dataclass
class Request:
    """One request of a serving workload."""

    rid: int
    op: str  # "rank", "top_k" or "inline"
    alpha: float
    #: Name of a registered dataset, or ``None`` for an inline request.
    ref: str | None
    #: The inline relation, generated from the seed.
    inline: ProbabilisticRelation | None = None
    #: Open-loop send time in seconds after the start of the phase.
    due: float = 0.0
    key: tuple[Any, ...] = field(init=False)

    def __post_init__(self) -> None:
        dataset = self.ref if self.ref is not None else f"inline-{self.rid}"
        self.key = (self.op, dataset, self.alpha)


def _inline_relation(rng: np.random.Generator, rid: int) -> ProbabilisticRelation:
    return generate_independent(INLINE_N, rng=rng, name=f"inline-{rid}")


def single_hot_set(seed: int) -> dict[str, Any]:
    """The registered datasets of serve-single, most popular first.

    Eight relations and one and/xor tree; the tree is third in popularity
    on every seed, so the seed changes the data but not the mix.
    """
    rng = np.random.default_rng([seed, 1])
    hot: dict[str, Any] = {}
    for index in range(SINGLE_HOT_RELATIONS):
        hot[f"ind-{index}"] = generate_independent(SINGLE_HOT_N, rng=rng)
        if index == 1:
            hot["syn-med"] = syn_med(TREE_N, rng=rng)
    return hot


def pool_hot_set(seed: int) -> dict[str, Any]:
    """The registered datasets of serve-pool: 96 relations of n=2000."""
    rng = np.random.default_rng([seed, 2])
    return {
        f"pool-{index}": generate_independent(POOL_HOT_N, rng=rng)
        for index in range(POOL_HOT_RELATIONS)
    }


def _shuffled(rng: np.random.Generator, count: int, shares: dict[str, float]) -> list[str]:
    """``count`` labels in exactly the given shares (the last takes the rest), shuffled."""
    labels: list[str] = []
    for label, share in shares.items():
        labels += [label] * int(round(share * count))
    labels = labels[:count]
    labels += [label] * (count - len(labels))
    return [labels[i] for i in rng.permutation(count)]


def single_stream(seed: int, names: list[str], rate: float, seconds: float) -> list[Request]:
    """Poisson arrivals at ``rate`` per second over ``seconds``.

    The arrival count is fixed at ``rate * seconds`` and the arrival times
    are uniform order statistics, which is a Poisson process conditioned
    on its count; the op shares and the hot-alpha share are exact.  So
    every seed offers the same load and mix, and the seed picks the
    datasets, alphas and timing.  ``names`` are in popularity order.
    """
    rng = np.random.default_rng([seed, 3])
    weights = np.array([1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(names))])
    weights /= weights.sum()
    count = int(round(rate * seconds))
    dues = np.sort(rng.uniform(0.0, seconds, count))
    shares = {"rank": SINGLE_RANK_SHARE, "top_k": SINGLE_TOPK_SHARE, "inline": 1.0}
    ops = _shuffled(rng, count, shares)
    hot = _shuffled(rng, count, {"hot": HOT_SHARE, "grid": 1.0})
    requests: list[Request] = []
    for rid, (due, op, pick) in enumerate(zip(dues, ops, hot)):
        if op == "inline":
            alpha = ALPHA_GRID[int(rng.integers(len(ALPHA_GRID)))]
            relation = _inline_relation(rng, rid)
            requests.append(Request(rid, op, alpha, None, relation, due=float(due)))
            continue
        alpha = HOT_ALPHA if pick == "hot" else ALPHA_GRID[int(rng.integers(len(ALPHA_GRID)))]
        ref = names[int(rng.choice(len(names), p=weights))]
        requests.append(Request(rid, op, alpha, ref, due=float(due)))
    return requests


def pool_stream(seed: int, names: list[str]) -> Iterator[Request]:
    """An endless closed-loop request sequence; alpha is continuous.

    Requests come in blocks of 20 holding the op shares exactly.
    """
    rng = np.random.default_rng([seed, 4])
    rid = 0
    shares = {"rank": POOL_RANK_SHARE, "top_k": POOL_TOPK_SHARE, "inline": 1.0}
    while True:
        for op in _shuffled(rng, 20, shares):
            alpha = float(rng.uniform(0.5, 0.99))
            if op == "inline":
                yield Request(rid, op, alpha, None, _inline_relation(rng, rid))
            else:
                yield Request(rid, op, alpha, names[int(rng.integers(len(names)))])
            rid += 1
