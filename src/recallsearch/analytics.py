"""Closed-form run and query totals, figure tables, and the deletion-model
query count.

The run total for finding all m states with per-step tolerance delta is

    1 + sum_{k=1}^{m-1} ln(1/delta) / ln(m/k)

which is affine in ln(1/delta): the k-sum is computed once per m with exact
compensated summation (math.fsum) and the ln(1/delta) factor applied after.
Query totals price each run at the exact per-run iteration count, giving the
asymptotic sqrt(N/m) factor a concrete, reproducible constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import step_budget
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


def _inverse_log_ratio_sum(m: int) -> float:
    """sum_{k=1}^{m-1} 1/ln(m/k), exactly-rounded compensated summation.

    log1p((m-k)/k) keeps the k ~ m terms accurate where ln(m/k) is tiny and
    the summands are largest.
    """
    if m < 2:
        return 0.0
    k = np.arange(1, m, dtype=np.float64)
    return math.fsum(1.0 / np.log1p((m - k) / k))


def total_runs_closed_form(m: int, delta: float) -> float:
    """Run total guaranteeing each step succeeds with probability 1-delta."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if m == 1:
        return 1.0
    return 1.0 + (-math.log(delta)) * _inverse_log_ratio_sum(m)


def total_queries_closed_form(m: int, n_states: int, delta: float) -> tuple[float, int]:
    """(real, integerized) total oracle queries to find all m states.

    The real value prices the closed-form run total; the integer value prices
    the sum of the ceiled per-step budgets actually used by the planner.
    """
    report = compare_models(m, n_states, delta)
    return report.q_real, report.q_integer


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
    r_int = sum(step_budget(m, i, delta) for i in range(1, m + 1))
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
