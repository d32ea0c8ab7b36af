"""Per-tuple reference evaluation of general-weight PRF values.

The straight transcription of Algorithm 1 (Section 4.1): walk the
score-sorted tuples once, take ``g(t_i) p_i sum_m w(m + 1) F^i_m`` from
the running prefix polynomial ``F^i(x) = prod_{l < i} (1 - p_l + p_l x)``
(truncated to the weight horizon), then multiply in ``(1 - p_i + p_i x)``.
One Python step per tuple: this is the oracle the blocked kernel of
:func:`repro.engine.kernels.batched_general_values` is checked against
(tests) and timed against (``benchmarks/bench_engine_batch.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.prf import RankingFunction


def oracle_prf_values(relation, rf: RankingFunction) -> tuple[list, np.ndarray]:
    """``(sorted_tuples, values)`` of a general-weight ``rf``, one tuple at a time."""
    ordered = relation.sorted_by_score()
    n = len(ordered)
    horizon = rf.weight.horizon
    limit = n if horizon is None else min(int(horizon), n)
    dtype = float if rf.is_real() else complex
    weights = rf.weight_array(limit)[1:].astype(dtype)  # w(1) .. w(limit)
    values = np.zeros(n, dtype=dtype)
    if n == 0 or limit == 0:
        return ordered, values
    prefix = np.zeros(limit, dtype=float)
    prefix[0] = 1.0
    for i, t in enumerate(ordered):
        p = t.probability
        upto = min(i, limit - 1) + 1
        values[i] = rf.factor(t) * p * np.dot(weights[:upto], prefix[:upto])
        if p != 0.0:
            shifted = np.empty_like(prefix)
            shifted[0] = 0.0
            shifted[1:] = prefix[:-1]
            prefix = (1.0 - p) * prefix + p * shifted
    return ordered, values
