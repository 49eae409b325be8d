"""Closed-form run and query totals, figure tables, and the deletion-model
query count.

The run total for finding all m states with per-step tolerance delta is

    1 + sum_{k=1}^{m-1} ln(1/delta) / ln(m/k)

which is affine in ln(1/delta): the k-sum is computed once per m and the
ln(1/delta) factor applied after. One kernel (_price_rows) prices any list of
m for curves, compare tables and one-row reports alike: it packs the rows'
terms into shared numpy blocks in buffers made once per process, reads the
step budgets off the terms, and sums each row's terms, all under m, exactly in
float limbs (_limb_sums), equal bit for bit to math.fsum. Query totals price
each run at the exact per-run iteration count, giving the asymptotic sqrt(N/m)
factor a concrete constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import BLOCK, budget_term_blocks
from .search import SearchParams

# The k-sum's work buffers: the terms, and the limb loop's limb and remainder,
# which hold a block's budgets and k while it is made. One set per process, so
# pricing allocates nothing per m; two threads must not price at once.
_TERMS, _LIMB, _REST = np.empty(BLOCK), np.empty(BLOCK), np.empty(BLOCK)
_UNITS_PER_ONE = 2**1074  # the smallest subnormal is 2**-1074


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
    """v as an exact integer count of 2**-1074."""
    num, den = v.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _limb_sums(x, top: int, low: int, starts) -> list[int]:
    """Exact sums of the segments of 1..BLOCK positive finite values x that
    begin at each index in starts, in units of 2**-1074, given every
    x < 2**top and a multiple of 2**low. x is cut from the top into float limbs
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008): with
    C = 1.5 * 2**(s + 52), q = (x + C) - C is x rounded to a multiple of 2**s,
    and x - q is exact and at most 2**(s - 1). A limb spans at most `width`
    bits above 2**s, so its n values sum exactly, in any order or segment,
    while n * 2**width < 2**53. C and the limb sums stay finite while
    top - width <= 970: the kernel's terms are under m, so it holds for any
    m < 2**1000.
    """
    width = min(53 - len(x).bit_length(), 51)  # 51: x + C <= 2**(s+53)
    totals = [0] * len(starts)
    q, rest = _LIMB[: len(x)], _REST[: len(x)]
    while top - width > low:
        s = top - width
        c = math.ldexp(1.5, s + 52)
        np.add(x, c, out=q)
        np.subtract(q, c, out=q)
        totals = [t + _units(v) for t, v in zip(totals, np.add.reduceat(q, starts).tolist())]
        x = np.subtract(x, q, out=rest)
        top = s - 1  # every |x| <= 2**top
    return [t + _units(v) for t, v in zip(totals, np.add.reduceat(x, starts).tolist())]  # on 2**low


def _budget_totals(u, starts) -> list[int]:
    """Exact sums of the segments of integer-valued budgets u, float64 or
    int64, that begin at each index in starts. Budgets rise within a segment,
    so where every segment's last entry is under 2**52 / len(u) they sum in
    their own type (float64 is exact to 2**53, and half that leaves room for
    a step out of order); else as Python ints, so int64 cannot wrap either."""
    ends = [*starts[1:], len(u)]
    if max(u[e - 1] for e in ends) < 2**52 // len(u):
        return list(map(int, np.add.reduceat(u, starts).tolist()))
    return [sum(map(int, u[a:b].tolist())) for a, b in zip(starts, ends)]


def _price_rows(ms, delta: float | None = None):
    """The k-sum sum_{k=1}^{m-1} 1/ln(m/k) of each m in ms, exactly rounded
    (equal to math.fsum of its float terms), and, unless delta is None, each
    row's budget total r_1 + ... + r_m.

    The rows' terms share blocks (driver.packed_blocks). A row's terms rise
    with k, so each piece's first and last term bound the block's limbs, with
    a bit to spare on each side for rounding; each piece sums to its row.
    """
    units = [0] * len(ms)
    runs = None if delta is None else [1] * len(ms)  # step 1 is one run
    for pieces, y, u in budget_term_blocks(ms, delta, _REST, _TERMS, _LIMB):
        starts = [p[3] for p in pieces]
        if u is not None:  # totalled before _limb_sums reuses _LIMB
            for p, r in zip(pieces, _budget_totals(u, starts)):
                runs[p[0]] += r
        top = math.frexp(max(y[at + count - 1] for _, _, _, at, count in pieces))[1] + 1
        low = max(math.frexp(min(y[p[3]] for p in pieces))[1] - 54, -1074)
        for p, v in zip(pieces, _limb_sums(y, top, low, starts)):
            units[p[0]] += v
    return [v / _UNITS_PER_ONE for v in units], runs


def total_runs_closed_form(m: int, delta: float) -> float:
    """Run total guaranteeing each step succeeds with probability 1-delta."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return 1.0 + (-math.log(delta)) * _price_rows([m])[0][0]


def f_of_m_curve(
    delta: float, m_min: int, m_max: int, stride: int = 1
) -> list[tuple[int, float]]:
    """Table of (m, run total) over [m_min, m_max].

    With a stride, the last point is pinned to m_max so the table always
    covers the full range. Every term depends on m, so there is no
    partial-sum reuse across m; the points' k-sums share blocks instead, and
    each value is bit-identical to total_runs_closed_form(m, delta).
    """
    if not 1 <= m_min <= m_max:
        raise ValueError(f"need 1 <= m_min <= m_max, got {m_min}..{m_max}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    points = list(range(m_min, m_max + 1, stride))
    if points[-1] != m_max:
        points.append(m_max)
    log_inv_delta = -math.log(delta)
    return [(m, 1.0 + log_inv_delta * c) for m, c in zip(points, _price_rows(points)[0])]


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
    c = _price_rows([m])[0][0]
    return [(float(d), 1.0 + (-math.log(float(d))) * c) for d in deltas]


def duality_queries(m: int, n_states: int) -> float:
    """Deletion-model query count: m * log2(N/m); zero when everything is
    marked."""
    if not 1 <= m <= n_states:
        raise ValueError(f"need 1 <= m <= N, got m={m}, N={n_states}")
    return m * math.log2(n_states / m)


def compare_table(ms, n_states: int, delta: float) -> list[ComplexityReport]:
    """Every cost figure for each m in the sequence ms at one (N, delta), plus
    the quantum-over-deletion query ratio (None when the deletion count is 0)."""
    params = [SearchParams(n_states, m) for m in ms]
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    log_inv_delta, reports = -math.log(delta), []
    for p, c, r_int in zip(params, *_price_rows(ms, delta)):
        r_real = 1.0 + log_inv_delta * c
        q_real, q_dual = r_real * p.iterations, duality_queries(p.n_marked, n_states)
        reports.append(ComplexityReport(
            m=p.n_marked, n_states=n_states, delta=delta, r_real=r_real, r_integer=r_int,
            queries_per_run=p.iterations, q_real=q_real, q_integer=r_int * p.iterations,
            q_duality=q_dual, quantum_to_duality_ratio=q_real / q_dual if q_dual > 0 else None))
    return reports


def compare_models(m: int, n_states: int, delta: float) -> ComplexityReport:
    """Every cost figure for one setting: the one-row compare_table."""
    return compare_table([m], n_states, delta)[0]
