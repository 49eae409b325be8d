"""Closed-form run and query totals, figure tables, and the deletion-model
query count.

The run total for finding all m states with per-step tolerance delta is

    1 + sum_{k=1}^{m-1} ln(1/delta) / ln(m/k)

which is affine in ln(1/delta): the k-sum is computed once per m and the
ln(1/delta) factor applied after. Its terms are evaluated in numpy blocks in
buffers made once per process and summed exactly (exact_sum): the result is
the exactly rounded sum, equal bit for bit to math.fsum of the same terms.
Query totals price each run at the exact per-run iteration count, giving the
asymptotic sqrt(N/m) factor a concrete, reproducible constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import BLOCK, budget_term_blocks, inverse_log_ratio_block
from .search import search_params

# The k-sum's work buffers: the terms, and exact_sum's limb and remainder.
# One set per process, so summing allocates nothing per m; two threads must
# not sum at once (the program starts none).
_TERMS, _LIMB, _REST = np.empty(BLOCK), np.empty(BLOCK), np.empty(BLOCK)


@dataclass(frozen=True)
class ComplexityReport:
    """All cost figures for one (m, N, delta) setting.

    ``q_duality`` counts queries in the deletion model, where an already
    found state can be removed from the superposition at unit cost, giving
    m * log2(N/m) in total. The logarithm base is an assumption (the model
    only fixes the register width, log2 N), so it is recorded in the report.
    """

    m: int
    n_states: int
    delta: float
    r_real: float
    r_integer: int
    queries_per_run: int
    q_real: float
    q_integer: int
    q_duality: float
    quantum_to_duality_ratio: float | None
    duality_log_base: int = 2


def _units(v: float) -> int:
    """v as an exact integer count of 2**-1074, the smallest subnormal."""
    num, den = v.as_integer_ratio()
    return num << (1075 - den.bit_length())


def exact_sum(blocks) -> float:
    """Exactly rounded sum of 1-D float64 arrays of positive finite values,
    equal bit for bit to math.fsum of their concatenation.

    Chunks of at most BLOCK values are cut from the top into float limbs
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008): with
    C = 1.5 * 2**(s + 52), q = (x + C) - C is x rounded to a multiple of
    2**s, and x - q is exact and at most 2**(s - 1). A limb spans at most
    `width` bits above 2**s, so its n values sum exactly while
    n * 2**width < 2**53. Cutting stops at the chunk's lowest bit, 53 below
    the exponent of its smallest value. Limb sums are added as integer
    counts of 2**-1074 and rounded once, half to even, as fsum rounds. A
    chunk too near 2**1024 for a finite C is added value by value.
    """
    total = 0
    for block in blocks:
        for i in range(0, len(block), BLOCK):
            x = block[i : i + BLOCK]
            width = min(53 - len(x).bit_length(), 51)  # 51: x + C <= 2**(s+53)
            top = math.frexp(np.maximum.reduce(x))[1]  # every x < 2**top
            low = max(math.frexp(np.minimum.reduce(x))[1] - 53, -1074)
            if top - width > 970:  # C or a limb sum would pass 2**1023
                total += sum(map(_units, x.tolist()))
                continue
            q, rest = _LIMB[: len(x)], _REST[: len(x)]
            while top - width > low:
                s = top - width
                c = math.ldexp(1.5, s + 52)
                np.add(x, c, out=q)
                np.subtract(q, c, out=q)
                total += _units(np.add.reduce(q))
                x = np.subtract(x, q, out=rest)
                top = s - 1  # every |x| <= 2**top
            total += _units(np.add.reduce(x))  # the last limb, on 2**low
    return total / 2**1074  # int / int rounds correctly, overflow raises


def _inverse_log_ratio_terms(m: int):
    """1/log1p((m-k)/k) for k = 1..m-1 in views of one buffer made once per
    process. k sits in exact_sum's remainder buffer, which exact_sum writes
    only after the block's terms are made."""
    for start in range(0, m - 1, BLOCK):
        c = min(BLOCK, m - 1 - start)
        yield inverse_log_ratio_block(m, start, _REST[:c], _TERMS[:c])


def _inverse_log_ratio_sum(m: int) -> float:
    """sum_{k=1}^{m-1} 1/ln(m/k), exactly rounded: exact_sum of the terms,
    equal to math.fsum of them."""
    if m < 2:
        return 0.0
    return exact_sum(_inverse_log_ratio_terms(m))


def total_runs_closed_form(m: int, delta: float) -> float:
    """Run total guaranteeing each step succeeds with probability 1-delta."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if m == 1:
        return 1.0
    return 1.0 + (-math.log(delta)) * _inverse_log_ratio_sum(m)


def f_of_m_curve(
    delta: float, m_min: int, m_max: int, stride: int = 1
) -> list[tuple[int, float]]:
    """Table of (m, run total) over [m_min, m_max].

    With a stride, the last point is pinned to m_max so the table always
    covers the full range. Each point is a direct evaluation; there is no
    partial-sum reuse across m because every term depends on m.
    """
    if not 1 <= m_min <= m_max:
        raise ValueError(f"need 1 <= m_min <= m_max, got {m_min}..{m_max}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    points = list(range(m_min, m_max + 1, stride))
    if points[-1] != m_max:
        points.append(m_max)
    return [(m, total_runs_closed_form(m, delta)) for m in points]


def f_of_delta_curve(
    m: int,
    delta_min: float,
    delta_max: float,
    n_points: int,
    spacing: str = "linear",
) -> list[tuple[float, float]]:
    """Table of (delta, run total) at fixed m.

    The curve is affine in ln(1/delta), so the k-sum is computed once and
    each point costs one log; values are bit-identical to per-point
    total_runs_closed_form calls.
    """
    if not 0.0 < delta_min <= delta_max < 1.0:
        raise ValueError(
            f"need 0 < delta_min <= delta_max < 1, got {delta_min}..{delta_max}"
        )
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if spacing == "linear":
        deltas = np.linspace(delta_min, delta_max, n_points)
    elif spacing == "log":
        deltas = np.logspace(math.log10(delta_min), math.log10(delta_max), n_points)
    else:
        raise ValueError(f"unknown spacing: {spacing!r}")
    if m == 1:
        return [(float(d), 1.0) for d in deltas]
    c = _inverse_log_ratio_sum(m)
    return [(float(d), 1.0 + (-math.log(float(d))) * c) for d in deltas]


def duality_queries(m: int, n_states: int) -> float:
    """Deletion-model query count: m * log2(N/m); zero when everything is
    marked."""
    if not 1 <= m <= n_states:
        raise ValueError(f"need 1 <= m <= N, got m={m}, N={n_states}")
    return m * math.log2(n_states / m)


def _budget_total(blocks) -> int:
    """Exact sum of integer-valued budget blocks, float64 or int64. Budgets rise
    with i, so a block whose last entry is under 2**52 / len(block) sums in
    its own type (float64 is exact to 2**53, and half that leaves room for a
    step out of order); others as Python ints, so int64 cannot wrap either."""
    return sum(int(b.sum()) if b[-1] < 2**52 // len(b) else sum(map(int, b.tolist()))
               for b in blocks)


def compare_models(m: int, n_states: int, delta: float) -> ComplexityReport:
    """Assemble every cost figure for one setting, plus the quantum-over-
    deletion query ratio (None when the deletion count is zero). Each block
    of k-sum terms also gives its step budgets, so one pass over k makes both."""
    params = search_params(n_states, m)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    r_int = 1  # step 1

    def terms():  # each block's budgets are totalled before exact_sum reuses _LIMB
        nonlocal r_int
        for y, u in budget_term_blocks(m, delta, _REST, _TERMS, _LIMB):
            r_int += _budget_total([u])
            yield y

    r_real = 1.0 + (-math.log(delta)) * exact_sum(terms())
    q_real = r_real * params.iterations
    q_int = r_int * params.iterations
    q_dual = duality_queries(m, n_states)
    ratio = q_real / q_dual if q_dual > 0 else None
    return ComplexityReport(
        m=m,
        n_states=n_states,
        delta=delta,
        r_real=r_real,
        r_integer=r_int,
        queries_per_run=params.iterations,
        q_real=q_real,
        q_integer=q_int,
        q_duality=q_dual,
        quantum_to_duality_ratio=ratio,
    )
