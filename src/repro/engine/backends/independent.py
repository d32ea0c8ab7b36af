"""The tuple-independent backend — batched vectorized kernels.

Evaluation strategy per ranking-function spec (Table 3 of the paper):

* PRFe(alpha) — the O(n) closed form after sorting; real alphas run in
  log space so huge relations neither under- nor overflow.
* LinearCombinationPRFe — one stacked cumulative-product pass per term.
* General weights — the blocked O(n h) prefix kernel of
  :func:`~repro.engine.kernels.batched_general_values`, matrix-free, on
  the cached sorted probabilities (a columnar relation's sorted column
  feeds it directly; tuples are built only for a ``tuple_factor``).

Batches of equal-size relations are stacked and pushed through the
kernels of :mod:`repro.engine.kernels` in single vectorized passes.  Each
row's arithmetic is independent of the stack, so ``rank``,
``rank_batch``, ``rank_many``, the columnar twin and the ranking service
return bit-identical values.  Every spec is also bit-identical to
:func:`repro.algorithms.independent.rank_independent`, which runs the
same kernels.  General-weight values are not those of the per-tuple
recurrence of Algorithm 1 bit for bit: they agree with it to within
``1e-12`` of the value scale ``max|g| max|w|`` and rank identically
except at near-ties.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...algorithms.independent import (
    general_weights,
    positional_probabilities,
    uses_log_space,
)
from ...core.columnar import ColumnarRelation
from ...core.prf import LinearCombinationPRFe, PRFe, RankingFunction
from ...core.result import RankingResult
from ...core.tuples import ProbabilisticRelation, Tuple
from ..cache import CachedRelation
from ..kernels import (
    batched_general_values,
    batched_lincomb_values,
    batched_prfe_log_values,
    batched_prfe_values,
    general_row_elements,
)
from ..topk import (
    TopKReport,
    certified,
    independent_topk_log_values,
    prefix_top_k,
    prunable,
    validated_k,
)
from .base import RankingBackend, build_result

__all__ = ["IndependentBackend"]


class IndependentBackend(RankingBackend):
    """Batched vectorized ranking over tuple-independent relations."""

    model = "independent"

    def handles(self, data) -> bool:
        """Whether ``data`` is a tuple-independent relation (either storage)."""
        return isinstance(data, (ProbabilisticRelation, ColumnarRelation))

    def algorithm(self, rf: RankingFunction) -> str:
        """Label of the Table-3 algorithm picked for ``rf``."""
        if isinstance(rf, PRFe):
            return "independent-prfe-closed-form (O(n log n))"
        if isinstance(rf, LinearCombinationPRFe):
            return "independent-prfe-combination (O(n L))"
        if rf.weight.horizon is not None:
            return "independent-blocked-prefix (O(n h))"
        return "independent-general (O(n^2))"

    # ------------------------------------------------------------------
    # Single relation, single ranking function
    # ------------------------------------------------------------------
    def rank(
        self, relation: ProbabilisticRelation, rf: RankingFunction, name: str = ""
    ) -> RankingResult:
        """Rank one relation — the drop-in replacement for ``rank_independent``.

        The single-spec case of :meth:`rank_many`: the same kernels run
        against the cached entry (sorted order and probability array), so
        a request served alone is bit-identical to one served coalesced
        (the guarantee the ranking service builds on).
        """
        return self.rank_many(relation, [rf], name=name or relation.name)[0]

    # ------------------------------------------------------------------
    # Top-k with early termination
    # ------------------------------------------------------------------
    def rank_top_k(
        self,
        relation: ProbabilisticRelation,
        rf: RankingFunction,
        k: int,
        name: str = "",
        store: bool = True,
    ) -> tuple[RankingResult, TopKReport]:
        """Top ``k`` under ``rf``, early-terminating the log-space PRFe kernel.

        For prunable specs the streaming kernel of
        :func:`~repro.engine.topk.independent_topk_log_values` examines a
        geometrically growing score-sorted prefix and stops at the
        geometric-decay bound; the returned items equal the first ``k``
        of the full ranking bit for bit (values included — the examined
        prefix reproduces the full kernel's arithmetic exactly).  The
        examined log-values are memoized on the cache entry under
        ``("topk", alpha)``, so repeated top-k requests (equal or
        smaller ``k``, or any ``k`` the prefix still certifies) skip the
        kernel entirely.
        """
        k = validated_k(k)
        n = len(relation)
        label = name or relation.name
        if not prunable(rf) or k >= n:
            return super().rank_top_k(relation, rf, k, name=label, store=store)
        entry = self.entry(relation, store=store)
        if k == 0:
            return RankingResult([], name=label), TopKReport(
                k=0, n=n, examined=0, pruned=n > 0
            )
        alpha = float(rf.alpha)
        key = ("topk", alpha)
        memo = entry.extras.get(key)
        log_values = None
        if memo is not None:
            cached_values, cached_examined, cached_bound = memo
            if cached_examined >= n or certified(cached_values, k, cached_bound):
                log_values, examined, bound = cached_values, cached_examined, cached_bound
        if log_values is None:
            log_values, examined, bound = independent_topk_log_values(
                entry.probabilities, alpha, k
            )
            if store and (memo is None or examined > memo[1]):
                entry.extras[key] = (log_values, examined, bound)
        with np.errstate(over="ignore", under="ignore"):
            values = np.exp(log_values)
        result = prefix_top_k(entry, values, k, label, sort_keys=log_values)
        self.cache.enforce_budget()
        return result, TopKReport(k=k, n=n, examined=examined, pruned=examined < n)

    # ------------------------------------------------------------------
    # Many relations, one ranking function
    # ------------------------------------------------------------------
    def rank_batch(
        self,
        relations: Sequence[ProbabilisticRelation],
        rf: RankingFunction,
        store: bool = True,
    ) -> list[RankingResult]:
        """Serial stacked evaluation of a batch (sharding lives in the planner)."""
        results: list[RankingResult | None] = [None] * len(relations)
        groups: dict[int, list[int]] = {}
        for index, relation in enumerate(relations):
            groups.setdefault(len(relation), []).append(index)
        for n, indices in groups.items():
            entries = [self.entry(relations[i], store=store) for i in indices]
            for chunk_indices, chunk_entries in self._chunk(indices, entries, n, rf):
                values, sort_keys = self._evaluate_stack(chunk_entries, n, rf)
                for row, index in enumerate(chunk_indices):
                    entry = chunk_entries[row]
                    keys = sort_keys[row] if sort_keys is not None else None
                    results[index] = build_result(
                        entry, values[row], relations[index].name, sort_keys=keys
                    )
        self.cache.enforce_budget()
        return [result for result in results if result is not None]

    def _chunk(self, indices, entries, n: int, rf: RankingFunction):
        """Split one equal-size group into memory-bounded kernel chunks.

        The budget bounds the stack height only: chunking never changes
        a row's arithmetic.
        """
        if isinstance(rf, PRFe):
            per_relation = max(n, 1)
        elif isinstance(rf, LinearCombinationPRFe):
            per_relation = max(n * len(rf), 1)
        else:
            per_relation = general_row_elements(n, self._general_limit(n, rf))
        rows = max(1, self._engine.max_batch_elements // per_relation)
        for start in range(0, len(indices), rows):
            yield indices[start : start + rows], entries[start : start + rows]

    def _evaluate_stack(
        self,
        entries: Sequence[CachedRelation],
        n: int,
        rf: RankingFunction,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Values (and optional sort keys) for a stack of equal-size entries."""
        P = np.stack([entry.probabilities for entry in entries]) if n else np.zeros(
            (len(entries), 0)
        )
        if isinstance(rf, PRFe):
            alpha = rf.alpha
            if uses_log_space(rf):
                log_values = batched_prfe_log_values(P, alpha)
                with np.errstate(over="ignore", under="ignore"):
                    values = np.exp(log_values)
                return values, log_values
            return batched_prfe_values(P, alpha), None
        if isinstance(rf, LinearCombinationPRFe):
            return batched_lincomb_values(P, rf.coefficients, rf.alphas), None
        weights = general_weights(rf, n)
        if rf.tuple_factor is not None:
            factors = np.array(
                [[rf.factor(t) for t in entry.ordered] for entry in entries], dtype=float
            )
            return batched_general_values(P, weights, factors), None
        # Without a tuple factor the values depend on the entry and the
        # tabulated weights alone, so they are memoized on the entry (n
        # elements, where the prefix matrix was n * limit): warm rankings
        # skip the kernel, and only the missing rows are stacked.
        key = ("general", weights.dtype.str, weights.tobytes())
        rows = [entry.extras.get(key) for entry in entries]
        missing = [row for row, values in enumerate(rows) if values is None]
        if missing:
            computed = batched_general_values(P[missing], weights)
            for position, row in enumerate(missing):
                rows[row] = entries[row].extras[key] = np.array(computed[position])
        return np.stack(rows), None

    # ------------------------------------------------------------------
    # One relation, many ranking functions
    # ------------------------------------------------------------------
    def rank_many(
        self,
        relation: ProbabilisticRelation,
        rfs: Sequence[RankingFunction],
        name: str = "",
    ) -> list[RankingResult]:
        """Rank one relation under many ranking functions, sharing intermediates.

        The relation is sorted once; real-``alpha`` PRFe specs are swept in
        a single stacked log-space evaluation (this is the Figure 7 alpha
        sweep), and every other spec runs its kernel on the shared cached
        entry, with the same per-spec arithmetic as :meth:`rank`.
        """
        rfs = list(rfs)
        if not rfs:
            return []
        label = name or relation.name
        entry = self.entry(relation)
        results: list[RankingResult | None] = [None] * len(rfs)

        sweep = [i for i, rf in enumerate(rfs) if uses_log_space(rf)]
        if sweep:
            for index, values, log_values in self._prfe_alpha_sweep(
                entry, [(i, rfs[i].alpha) for i in sweep]
            ):
                results[index] = build_result(entry, values, label, sort_keys=log_values)
        for index, rf in enumerate(rfs):
            if results[index] is None:
                # Every other spec runs the rank_batch kernel as a stack of
                # one row, so its arithmetic is the batched one exactly.
                values, _ = self._evaluate_stack([entry], entry.n, rf)
                results[index] = build_result(entry, values[0], label)
        self.cache.enforce_budget()
        return [result for result in results if result is not None]

    def _prfe_alpha_sweep(self, entry: CachedRelation, specs):
        """Stacked log-space PRFe evaluation over many real alphas.

        One relation broadcast across the rows, one alpha per row — the
        same kernel that serves ``rank_batch``.
        """
        p = entry.probabilities
        alphas = np.array([alpha for _, alpha in specs], dtype=float)
        P = np.broadcast_to(p, (alphas.size, p.size))
        log_values = batched_prfe_log_values(P, alphas)
        with np.errstate(over="ignore", under="ignore"):
            values = np.exp(log_values)
        for row, (index, _) in enumerate(specs):
            yield index, values[row], log_values[row]

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def positional_matrix(
        self, relation: ProbabilisticRelation, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """Cached positional probabilities (same contract as the algorithm).

        Matrices wider than ``max_batch_elements`` bypass the cache and
        fall through to the streaming implementation.
        """
        n = len(relation)
        limit = self._validated_limit(n, max_rank)
        if n * limit > self._engine.max_batch_elements:
            return positional_probabilities(relation, max_rank=max_rank)
        entry = self.entry(relation)
        matrix = entry.positional_matrix(limit)
        self.cache.enforce_budget()
        return list(entry.ordered), matrix

    def marginal_probabilities(self, relation: ProbabilisticRelation) -> dict:
        """Existence probability per tuple identifier (trivial when independent)."""
        if isinstance(relation, ColumnarRelation):
            return dict(zip(relation.tid_values(), relation.probabilities().tolist()))
        return {t.tid: t.probability for t in relation}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _validated_limit(n: int, max_rank: int | None) -> int:
        from ...algorithms.independent import _resolve_limit

        return _resolve_limit(n, max_rank)

    @staticmethod
    def _general_limit(n: int, rf: RankingFunction) -> int:
        """Weight horizon clamped to the relation size (matrix width)."""
        horizon = rf.weight.horizon
        return n if horizon is None else min(int(horizon), n)
