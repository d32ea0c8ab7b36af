"""Batched numpy kernels of the ranking engine.

Every kernel operates on a stack of ``B`` equal-length relations at once:
``P`` is the ``(B, n)`` matrix of existence probabilities in score-
descending order, one row per relation.  Each row's arithmetic depends on
that row alone — elementwise passes, cumulative sums/products and
reductions all stay within one row — so a batch of size one and any
larger stack produce the same values bit for bit, and stacking only
amortizes Python and dispatch overhead across rows.  The PRFe kernels
mirror :func:`repro.algorithms.independent.prfe_values` /
:func:`~repro.algorithms.independent.prfe_log_values` operation for
operation; :func:`repro.algorithms.independent.prf_values` calls
:func:`batched_general_values` itself, so every general-weight
evaluation on independent relations runs one kernel.

:func:`batched_general_values` never holds the ``(n, limit)`` prefix
matrix; only :func:`batched_prefix_matrices` (positional matrices) does,
and callers chunk that allocation against ``Engine.max_batch_elements``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "batched_prefix_matrices",
    "batched_general_values",
    "general_block_count",
    "general_row_elements",
    "batched_prfe_log_values",
    "batched_prfe_values",
    "batched_lincomb_values",
]

_LOG_EPS = 1e-300

#: Widest weight horizon evaluated in blocks.  Blocking trades Python
#: steps for a second O(n min(S, h)) pass plus O((n / S) h min(S, h))
#: of carry convolutions over (h, n / S) working arrays, so it pays while
#: per-step overhead dominates.  Measured with one row on a 2-core x86
#: container (numpy 2.4), sqrt(n) blocks against one block:
#:   n = 2*10^4: 10x at h = 100, 2.8x at 500, 1.6x at 1000, 1.1x at 1500, 0.86x at 2000
#:   n = 10^5:   13x at h = 100, 2.3x at 500, 1.4x at 1000, 1.2x at 1500, 0.75x at 2000
#:   n = 10^6:   2.1x at h = 500, 1.2x at 1000, 0.60x at 2000
#: The crossover falls as n grows, so the cut sits below all of them.
_BLOCKED_MAX_LIMIT = 1024


def _advance(
    polynomials: np.ndarray, p: np.ndarray, q: np.ndarray, scratch: np.ndarray
) -> None:
    """``c <- c (q + p x)`` truncated, in place, along axis 1 (``q = 1 - p``).

    ``polynomials`` is ``(B, degree + 1, ...)`` with coefficients on
    axis 1, ``p`` and ``q`` broadcast against ``polynomials[:, :1]`` and
    ``scratch`` has the shape of ``polynomials[:, :-1]``.  The
    per-coefficient arithmetic ``(1 - p) c_m + p c_{m-1}`` is that of the
    per-tuple recurrence of Algorithm 1, so one block reproduces its
    prefixes bit for bit.
    """
    np.multiply(polynomials[:, :-1], p, out=scratch)
    polynomials *= q
    polynomials[:, 1:] += scratch


def batched_prefix_matrices(P: np.ndarray, limit: int) -> np.ndarray:
    """Stacked prefix polynomial matrices, shape ``(B, n, limit)``.

    ``out[b, i, m]`` is the coefficient of ``x^m`` in ``F^i(x)`` of
    relation ``b`` — the probability that exactly ``m`` of its ``i``
    higher-score tuples are present.  One pass over the shared tuple axis
    advances all ``B`` recurrences simultaneously; truncating at a
    smaller ``limit`` yields exactly the leading columns of a wider one.
    """
    P = np.asarray(P, dtype=float)
    B, n = P.shape
    out = np.zeros((B, n, limit), dtype=float)
    if n == 0 or limit == 0 or B == 0:
        return out
    prefix = np.zeros((B, limit), dtype=float)
    prefix[:, 0] = 1.0
    scratch = np.empty((B, limit - 1), dtype=float)
    complement = 1.0 - P
    for i in range(n):
        out[:, i, :] = prefix
        _advance(prefix, P[:, i, None], complement[:, i, None], scratch)
    return out


def general_block_count(n: int, limit: int) -> int:
    """Number of blocks :func:`batched_general_values` splits ``n`` tuples into.

    A function of ``(n, limit)`` only — never of the stack height — so a
    relation ranked alone and the same relation stacked in a batch run
    identical arithmetic.  About ``sqrt(n)`` blocks balance the ``2 S``
    in-block steps against the ``n / S`` carries; horizons wider than
    ``_BLOCKED_MAX_LIMIT`` run as one block (the plain recurrence).
    """
    if limit > _BLOCKED_MAX_LIMIT:
        return 1
    return max(1, math.isqrt(n))


def general_row_elements(n: int, limit: int) -> int:
    """Float64 elements :func:`batched_general_values` holds per stacked row.

    About four length-``n`` columns (probabilities, their complements,
    values and the reordered copy) plus four ``(limit, K)`` working arrays.
    """
    return 4 * n + 4 * general_block_count(n, limit) * max(limit, 1)


def batched_general_values(
    P: np.ndarray,
    weights: np.ndarray,
    factors: np.ndarray | None = None,
) -> np.ndarray:
    """General PRF values ``Upsilon(t) = g(t) p_t sum_m w(m+1) F^t_m`` per row.

    ``weights`` holds the tabulated ``[w(1), ..., w(limit)]`` (real or
    complex) and ``factors`` the optional ``(B, n)`` per-tuple
    multipliers ``g(t)``.  Algorithm 1's prefix recurrence runs blocked:
    the ``n`` tuples are split into ``K`` blocks of length ``S`` and

    1. every block's polynomial ``prod (1 - p + p x)`` (degree
       ``min(S, limit - 1)``) is advanced at once, ``S`` steps;
    2. the block-start prefixes ``F^{kS}`` are carried across blocks by
       truncated convolutions, ``K - 1`` steps;
    3. every block is replayed from its start prefix at once, taking
       ``p * (prefix . w)`` per tuple, ``S`` steps.

    Cost stays O(n limit) with about ``2 S + K`` Python steps, and the
    ``(n, limit)`` prefix matrix is never formed: the working set is
    ``O(n + K limit)`` per row.  Values agree with the per-tuple
    recurrence to within ``1e-12`` of ``max|g| max|w|`` (a bound on
    every value), not bit for bit.
    """
    P = np.asarray(P, dtype=float)
    weights = np.asarray(weights)
    dtype = complex if np.iscomplexobj(weights) else float
    B, n = P.shape
    limit = weights.size
    if n == 0 or limit == 0 or B == 0:
        return np.zeros((B, n), dtype=dtype)
    blocks = general_block_count(n, limit)
    size = -(-n // blocks)
    # Coefficient-major layout: axis 1 walks a block and a trailing axis
    # runs across blocks (dropped for one block), so every step touches
    # contiguous rows.  Padding tuples have p = 0: factor 1, value 0,
    # sliced off at the end.
    tail = (blocks,) if blocks > 1 else ()
    Q = np.zeros((B, blocks * size), dtype=float)
    Q[:, :n] = P
    Q = Q.reshape(B, blocks, size).transpose(0, 2, 1).reshape((B, size) + tail)
    Q = np.ascontiguousarray(Q)
    complement = 1.0 - Q
    prefix = np.zeros((B, limit) + tail, dtype=float)
    prefix[:, 0] = 1.0
    if blocks > 1:
        degree = min(size, limit - 1)
        block_poly = np.zeros((B, degree + 1, blocks - 1), dtype=float)
        block_poly[:, 0, :] = 1.0
        scratch = np.empty((B, degree, blocks - 1), dtype=float)
        for j in range(size):
            _advance(block_poly, Q[:, j, None, :-1], complement[:, j, None, :-1], scratch)
        reversed_poly = np.ascontiguousarray(block_poly[:, ::-1, :].transpose(0, 2, 1))
        padded = np.zeros((B, degree + limit), dtype=float)
        for k in range(1, blocks):
            padded[:, degree:] = prefix[:, :, k - 1]
            # windows[b, m] = F^{(k-1)S}[m - degree .. m]
            windows = np.lib.stride_tricks.sliding_window_view(padded, degree + 1, axis=1)
            np.add.reduce(windows * reversed_poly[:, k - 1, None, :], axis=-1, out=prefix[:, :, k])
    values = np.empty((B, size) + tail, dtype=dtype)
    products = np.empty((B, limit) + tail, dtype=dtype)
    scratch = np.empty((B, limit - 1) + tail, dtype=float)
    column = weights.reshape((limit,) + (1,) * len(tail))
    for j in range(size):
        # The weighted sum runs over axis 1 for each (row, block) on its
        # own, so the stack height never changes a bit.
        np.multiply(prefix, column, out=products)
        np.add.reduce(products, axis=1, out=values[:, j])
        if j + 1 < size:
            _advance(prefix, Q[:, j, None], complement[:, j, None], scratch)
    values *= Q
    values = values.reshape(B, size, blocks).transpose(0, 2, 1).reshape(B, blocks * size)[:, :n]
    if factors is not None:
        values = values * factors
    return values


def batched_prfe_log_values(P: np.ndarray, alpha) -> np.ndarray:
    """Log-magnitudes of PRFe(alpha) per row for real ``alpha`` in (0, 1].

    Mirrors :func:`repro.algorithms.independent.prfe_log_values` row-wise.
    ``alpha`` is either one scalar shared by every row or a length-``B``
    vector giving each row its own alpha (the Figure 7 sweep: one relation
    broadcast across the rows, one alpha per row).
    """
    P = np.asarray(P, dtype=float)
    alphas = np.asarray(alpha, dtype=float)
    scalar = alphas.ndim == 0
    if not scalar and alphas.shape != (P.shape[0],):
        raise ValueError(
            f"alpha must be a scalar or one value per row; got shape "
            f"{alphas.shape} for {P.shape[0]} rows"
        )
    if np.any(alphas <= 0.0) or np.any(alphas > 1.0):
        raise ValueError(f"log-space PRFe evaluation requires 0 < alpha <= 1, got {alpha}")
    column = alphas if scalar else alphas[:, None]
    factors = 1.0 - P + P * column
    log_factors = np.log(np.maximum(factors, _LOG_EPS))
    prefix_log = np.zeros_like(factors)
    if P.shape[1] > 1:
        prefix_log[:, 1:] = np.cumsum(log_factors, axis=1)[:, :-1]
    with np.errstate(divide="ignore"):
        log_probabilities = np.where(
            P > 0.0, np.log(np.maximum(P, _LOG_EPS)), -np.inf
        )
    # math.log per alpha keeps the additive constant bit-identical to the
    # single-relation implementation.
    if scalar:
        log_alpha = math.log(max(float(alphas), _LOG_EPS))
    else:
        log_alpha = np.array(
            [math.log(max(a, _LOG_EPS)) for a in alphas.tolist()]
        )[:, None]
    return prefix_log + log_probabilities + log_alpha


def batched_prfe_values(P: np.ndarray, alpha: complex) -> np.ndarray:
    """PRFe(alpha) values ``F^i(alpha)`` per row (complex ``alpha`` allowed).

    Mirrors :func:`repro.algorithms.independent.prfe_values` row-wise.
    """
    P = np.asarray(P, dtype=float)
    is_complex = isinstance(alpha, complex) and alpha.imag != 0.0
    dtype = complex if is_complex else float
    alpha_value = complex(alpha) if is_complex else float(np.real(alpha))
    factors = ((1.0 - P) + P * alpha_value).astype(dtype)
    prefix = np.ones_like(factors)
    if P.shape[1] > 1:
        prefix[:, 1:] = np.cumprod(factors, axis=1)[:, :-1]
    return prefix * P * alpha_value


def _conjugate_pair_split(
    coefficients: np.ndarray, alphas: np.ndarray
) -> tuple[list[int], list[int]] | None:
    """Split term indices into ``(real_singles, pair_representatives)``.

    Succeeds only when the term multiset is *exactly* closed under
    conjugation — every complex ``(u, alpha)`` has a bitwise-conjugate
    partner (the planner's ``conjugate_symmetric`` DFT construction
    guarantees this).  Returns ``None`` for arbitrary term sets, which
    then run the generic complex loop.
    """
    count = int(alphas.size)
    used = [False] * count
    singles: list[int] = []
    representatives: list[int] = []
    for l in range(count):
        if used[l]:
            continue
        used[l] = True
        alpha = complex(alphas[l])
        coefficient = complex(coefficients[l])
        if alpha.imag == 0.0 and coefficient.imag == 0.0:
            singles.append(l)
            continue
        partner = None
        for m in range(l + 1, count):
            if (
                not used[m]
                and complex(alphas[m]) == alpha.conjugate()
                and complex(coefficients[m]) == coefficient.conjugate()
            ):
                partner = m
                break
        if partner is None:
            return None
        used[partner] = True
        representatives.append(l)
    return singles, representatives


def batched_lincomb_values(
    P: np.ndarray, coefficients: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """``sum_l u_l PRFe(alpha_l)`` values per row, shape ``(B, n)``.

    Mirrors the LinearCombinationPRFe fast path of
    :func:`repro.algorithms.independent.prf_values`, evaluated one
    contiguous ``(B, n)`` pass per term instead of a single strided
    ``(B, n, L)`` pass: the cumulative products run along the innermost
    axis and peak memory stays ``O(B n)``, which at n = 10^6 and L = 16
    (the planner's DFT approximations) is the difference between a
    sub-second kernel and a gigabyte of axis-1 cumprod.

    Term multisets exactly closed under conjugation (the planner's
    symmetrized DFT approximations) take a further-halved path: each
    conjugate pair contributes ``2 Re(u alpha prefix) p`` from one
    cumulative product, all in real arithmetic, and the returned array
    is real float64.  Arbitrary term sets keep the generic complex loop.
    """
    P = np.asarray(P, dtype=float)
    coefficients = np.asarray(coefficients, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    B, n = P.shape
    if n == 0:
        return np.zeros((B, n), dtype=complex)
    complement = 1.0 - P
    pairing = _conjugate_pair_split(coefficients, alphas)
    if pairing is not None:
        singles, representatives = pairing
        values = np.zeros((B, n), dtype=float)
        accumulator = np.empty((B, n), dtype=float)
        if singles:
            real_factors = np.empty((B, n), dtype=float)
            real_prefix = np.empty((B, n), dtype=float)
            for l in singles:
                alpha = float(alphas[l].real)
                np.multiply(P, alpha, out=real_factors)
                real_factors += complement
                real_prefix[:, 0] = 1.0
                if n > 1:
                    np.cumprod(real_factors[:, :-1], axis=1, out=real_prefix[:, 1:])
                np.multiply(real_prefix, P, out=accumulator)
                accumulator *= float((coefficients[l] * alphas[l]).real)
                values += accumulator
        if representatives:
            factors = np.empty((B, n), dtype=complex)
            prefix = np.empty((B, n), dtype=complex)
            for l in representatives:
                alpha = complex(alphas[l])
                np.multiply(P, alpha, out=factors)
                factors += complement
                prefix[:, 0] = 1.0
                if n > 1:
                    np.cumprod(factors[:, :-1], axis=1, out=prefix[:, 1:])
                # u* conj-term + u term = 2 Re(u alpha prefix) p per tuple.
                prefix *= 2.0 * (coefficients[l] * alphas[l])
                np.multiply(prefix.real, P, out=accumulator)
                values += accumulator
        return values
    values = np.zeros((B, n), dtype=complex)
    factors = np.empty((B, n), dtype=complex)
    prefix = np.empty((B, n), dtype=complex)
    for coefficient, alpha in zip(coefficients, alphas):
        np.multiply(P, alpha, out=factors)
        factors += complement
        prefix[:, 0] = 1.0
        if n > 1:
            np.cumprod(factors[:, :-1], axis=1, out=prefix[:, 1:])
        prefix *= P
        prefix *= alpha
        prefix *= coefficient
        values += prefix
    return values
