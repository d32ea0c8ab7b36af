"""The blocked O(n h) general-weight kernel.

Contracts under test:

* values agree with the per-tuple recurrence of Algorithm 1
  (``prf_oracle``) to ``RTOL`` of the value scale ``max|g| max|w|``, and
  rank identically except at near-ties, in both the many-block and the
  one-block regime, for real and complex weights and ``tuple_factor``
  specs, with exact 0 and 1 probabilities;
* small relations match the possible-worlds definition (Definition 3);
* ``rank``, ``rank_batch``, ``rank_many``, the columnar twin, the
  ranking service and ``rank_independent`` return bit-identical values,
  and neither the result type nor a value bit depends on the engine's
  ``max_batch_elements`` budget;
* the kernel never holds the ``(n, h)`` prefix matrix.
"""

from __future__ import annotations

import asyncio
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prf_oracle import oracle_prf_values
from repro import PRF, Engine, PRFe, PRFOmega, ProbabilisticRelation
from repro.algorithms.independent import prf_values, rank_independent
from repro.core.columnar import ColumnarRelation
from repro.core.possible_worlds import enumerate_worlds, prf_by_enumeration
from repro.core.result import ColumnarRankingResult
from repro.core.weights import StepWeight, TabulatedWeight
from repro.engine import kernels
from repro.engine.kernels import batched_general_values, general_block_count
from repro.service import AsyncRankingClient, RankingService

#: Largest deviation from the oracle, relative to ``max|g| max|w|`` (a
#: bound on every value, since the prefix coefficients sum to one).
#: Observed deviations stay below 1e-14.
RTOL = 1e-12


def make_relation(n: int, seed: int, extremes: float = 0.0) -> ProbabilisticRelation:
    """``n`` tuples; a share ``extremes`` of the probabilities is exactly 0 or 1."""
    rng = np.random.default_rng(seed)
    probabilities = rng.uniform(0.0, 1.0, n)
    marked = rng.uniform(0.0, 1.0, n) < extremes
    probabilities[marked] = rng.integers(0, 2, int(marked.sum())).astype(float)
    scores = rng.integers(0, 3 * n, n).astype(float)  # some scores tie
    return ProbabilisticRelation.from_arrays(scores, probabilities, name=f"rel-{seed}")


def make_spec(kind: str, h: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "step":
        return PRFOmega(StepWeight(h))
    if kind == "real":
        return PRFOmega(rng.uniform(-1.0, 1.0, h))
    if kind == "complex":
        return PRFOmega(rng.uniform(-1.0, 1.0, h) + 1j * rng.uniform(-1.0, 1.0, h))
    if kind == "factor":
        return PRF(TabulatedWeight(rng.uniform(0.0, 1.0, h)), tuple_factor=lambda t: t.score)
    raise ValueError(kind)


def value_scale(relation, rf) -> float:
    limit = min(rf.weight.horizon, len(relation))
    weights = np.abs(rf.weight_array(limit)[1:])
    factors = [abs(rf.factor(t)) for t in relation]
    return max(float(weights.max(initial=0.0)) * max(factors, default=0.0), 1e-300)


def ranked_magnitudes(ordered, values, reference) -> list[float]:
    """Reference magnitudes listed in the order ``values`` ranks the tuples."""
    keys = [(-abs(v), -t.score, str(t.tid)) for t, v in zip(ordered, values.tolist())]
    order = sorted(range(len(ordered)), key=keys.__getitem__)
    return [abs(reference[i]) for i in order]


def assert_matches_oracle(relation, rf) -> None:
    ordered, values, _ = prf_values(relation, rf)
    oracle_ordered, expected = oracle_prf_values(relation, rf)
    assert [t.tid for t in ordered] == [t.tid for t in oracle_ordered]
    tolerance = RTOL * value_scale(relation, rf)
    assert np.max(np.abs(values - expected), initial=0.0) <= tolerance
    # Identical ranking except at near-ties: walking the kernel's order,
    # the oracle magnitudes never increase by more than the tolerance.
    magnitudes = ranked_magnitudes(ordered, values, expected)
    assert all(b <= a + 2 * tolerance for a, b in zip(magnitudes, magnitudes[1:]))


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 400),
        horizon=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        extremes=st.sampled_from([0.0, 0.3]),
        kind=st.sampled_from(["step", "real", "complex", "factor"]),
        regime=st.sampled_from(["blocked", "one-block"]),
    )
    def test_kernel_matches_per_tuple_recurrence(
        self, n, horizon, seed, extremes, kind, regime
    ):
        h = 1 + int(horizon * (n - 1))  # h in [1, n]
        relation = make_relation(n, seed, extremes)
        rf = make_spec(kind, h, seed)
        if regime == "blocked":
            assert n < 4 or general_block_count(n, h) > 1
            assert_matches_oracle(relation, rf)
        else:
            with mock.patch.object(kernels, "general_block_count", lambda n, limit: 1):
                assert_matches_oracle(relation, rf)

    @pytest.mark.parametrize("n,h", [(5000, 1500), (3000, 3000)])
    def test_wide_horizons_run_one_block(self, n, h):
        assert general_block_count(n, h) == 1
        assert_matches_oracle(make_relation(n, seed=n + h, extremes=0.1), make_spec("real", h, 3))

    @pytest.mark.parametrize("n", [4, 17, 100, 401, 2500])
    def test_blocks_that_do_not_divide_n(self, n):
        relation = make_relation(n, seed=n, extremes=0.2)
        for h in (1, 2, 9, n):
            assert_matches_oracle(relation, make_spec("complex", h, h))

    def test_degenerate_inputs(self):
        empty = np.zeros((2, 0))
        assert batched_general_values(empty, np.ones(3)).shape == (2, 0)
        P = np.full((1, 5), 0.5)
        assert np.array_equal(batched_general_values(P, np.ones(0)), np.zeros((1, 5)))
        certain = np.ones((1, 6))
        # Every tuple present: tuple i sits at rank i + 1.
        weights = np.arange(1.0, 7.0)
        assert np.array_equal(batched_general_values(certain, weights)[0], weights)


class TestPossibleWorlds:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 10),
        horizon=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["step", "real", "complex", "factor"]),
    )
    def test_values_are_possible_world_expectations(self, n, horizon, seed, kind):
        h = 1 + int(horizon * (n - 1))
        relation = make_relation(n, seed, extremes=0.2)
        rf = make_spec(kind, h, seed)
        worlds = enumerate_worlds(relation)
        weights = rf.weight_array(n)
        ordered, values, _ = prf_values(relation, rf)
        for t, value in zip(ordered, values):
            exact = rf.factor(t) * prf_by_enumeration(worlds, t.tid, weights.__getitem__)
            assert value == pytest.approx(exact, abs=1e-12 * value_scale(relation, rf))


def assert_same_bits(result, reference, context: str = "") -> None:
    assert result.tids() == reference.tids(), context
    assert [item.value for item in result] == [item.value for item in reference], context


#: An engine budget the sizes below straddle: n * h = 15k under, 40k over.
SMALL_BUDGET = 20_000
SPECS = {
    "step": PRFOmega(StepWeight(100)),
    "complex": make_spec("complex", 100, 5),
    "factor": make_spec("factor", 100, 6),
}


class TestBitIdentityAcrossShapes:
    @pytest.mark.parametrize("budget", [None, SMALL_BUDGET], ids=["default", "small"])
    @pytest.mark.parametrize("n", [150, 400])
    @pytest.mark.parametrize("spec", list(SPECS))
    def test_every_shape_returns_the_same_bits(self, budget, n, spec):
        rf = SPECS[spec]
        relation = make_relation(n, seed=n, extremes=0.1)
        others = [make_relation(n, seed=n + i) for i in (1, 2)]

        def engine() -> Engine:
            return Engine() if budget is None else Engine(max_batch_elements=budget)

        reference = engine().rank(relation, rf)
        shapes = {
            "rank_batch": engine().rank_batch([others[0], relation, others[1]], rf)[1],
            "rank_many": engine().rank_many(
                relation, [PRFe(0.9), rf, PRFOmega(StepWeight(7))]
            )[1],
            "warm": (lambda e: (e.rank(relation, rf), e.rank(relation, rf))[1])(engine()),
            "rank_independent": rank_independent(relation, rf),
            "columnar": engine().rank(relation.to_columnar(), rf),
        }

        async def serve():
            async with RankingService(engine(), max_delay=0.05) as service:
                client = AsyncRankingClient(service)
                batch = [(data, rf) for data in (others[0], relation, others[1])]
                return await client.rank_all(batch)

        shapes["service"] = asyncio.run(serve())[1]
        for shape, result in shapes.items():
            assert_same_bits(result, reference, shape)

    @pytest.mark.parametrize(
        "rf", [PRFOmega(StepWeight(10)), SPECS["complex"]], ids=["step", "complex"]
    )
    def test_result_type_and_bits_do_not_depend_on_the_budget(self, rf):
        data = ColumnarRelation(
            *np.random.default_rng(5).uniform(0.0, 1.0, (2, 5000)), name="col"
        )
        default, small = Engine(), Engine(max_batch_elements=1000)
        reference = default.rank(data, rf)
        assert isinstance(reference, ColumnarRankingResult)
        results = [
            default.rank_batch([data, data], rf)[1],
            default.rank_many(data, [rf])[0],
            small.rank(data, rf),
            small.rank_batch([data, data], rf)[0],
            small.rank_many(data, [rf])[0],
        ]
        for result in results:
            assert isinstance(result, ColumnarRankingResult)
            assert np.array_equal(result.original_indices(), reference.original_indices())
            assert np.array_equal(result.values_array(), reference.values_array())


def test_kernel_never_holds_the_prefix_matrix():
    n, h = 50_000, 100
    P = np.random.default_rng(9).uniform(0.0, 1.0, (1, n))
    tracemalloc.start()
    try:
        batched_general_values(P, np.ones(h))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * h * 8 / 8
