"""Closed-form run and query totals, figure tables, and the deletion-model
query count.

The run total for finding all m states with per-step tolerance delta is

    1 + sum_{k=1}^{m-1} ln(1/delta) / ln(m/k)

which is affine in ln(1/delta): the k-sum is computed once per m and the
ln(1/delta) factor applied after. Its terms are evaluated in fixed-size numpy
blocks and summed exactly (exact_sum), so the result is the exactly rounded
sum, equal bit for bit to math.fsum of the same terms, in memory that does
not grow with m. Query totals price each run at the exact per-run iteration
count, giving the asymptotic sqrt(N/m) factor a concrete, reproducible
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import BLOCK, ramp_blocks, step_budget_blocks
from .search import search_params


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


def _round_scaled(total: int, exp: int) -> float:
    """total * 2**exp rounded once to the nearest float, ties to even."""
    extra = total.bit_length() - 64
    if extra > 0:  # keep 64 bits and a sticky bit: float() then rounds as if exact
        sticky = total & ((1 << extra) - 1) != 0
        total = (total >> extra) | sticky
        exp += extra
    return math.ldexp(float(total), exp)


def exact_sum(blocks) -> float:
    """Exactly rounded sum of 1-D float64 arrays of positive finite values,
    equal bit for bit to math.fsum of their concatenation.

    Every value of a block is a multiple of 2**low, low being 53 below the
    frexp exponent of the block's smallest value, and below 2**top, top
    being the exponent of its largest. The block is cut from the top into
    int64 fixed-point limbs of at most 62 - bit_length(len(block)) bits
    (floor of the rest scaled by ldexp), so each limb's sum over the block is
    exact in int64. Limb sums are added as Python ints and the total is
    rounded once, half to even, as fsum rounds.
    """
    total, base = 0, None  # the sum so far is total * 2**base
    scaled = limbs = rest = None
    for x in blocks:
        n = len(x)
        if n == 0:
            continue
        if scaled is None or len(scaled) < n:
            scaled, rest = np.empty(n), np.empty(n)
            limbs = np.empty(n, dtype=np.int64)
        y, q, r = scaled[:n], limbs[:n], rest[:n]
        width = 62 - n.bit_length()
        shift = math.frexp(float(x.max()))[1]
        low = math.frexp(float(x.min()))[1] - 53
        if base is None:
            base = low
        elif low < base:
            total <<= base - low
            base = low
        while True:
            shift = max(shift - width, low)
            np.ldexp(x, -shift, out=y)
            np.floor(y, out=y)
            np.copyto(q, y, casting="unsafe")
            total += int(q.sum()) << (shift - base)
            if shift == low:
                break
            np.ldexp(y, shift, out=y)  # the limb's part of x, exactly
            x = np.subtract(x, y, out=r)
    return 0.0 if base is None else _round_scaled(total, base)


def _inverse_log_ratio_terms(m: int):
    """1/log1p((m-k)/k) for k = 1..m-1, in blocks that are views of one
    reused buffer.

    log1p((m-k)/k) keeps the k ~ m terms accurate where ln(m/k) is tiny and
    the summands are largest.
    """
    term = np.empty(min(m - 1, BLOCK))
    for _, k in ramp_blocks(m - 1):
        t = term[: len(k)]
        np.subtract(m, k, out=t)
        np.divide(t, k, out=t)
        np.log1p(t, out=t)
        yield np.divide(1.0, t, out=t)


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


def compare_models(m: int, n_states: int, delta: float) -> ComplexityReport:
    """Assemble every cost figure for one setting, plus the quantum-over-
    deletion query ratio (None when the deletion count is zero)."""
    params = search_params(n_states, m)
    r_real = total_runs_closed_form(m, delta)
    r_int = sum(int(block.sum()) for block in step_budget_blocks(m, delta))
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
