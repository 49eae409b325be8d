"""Closed forms: per-step retry budgets, run and query totals, figure tables,
and the deletion-model query count.

Step i's budget is r_i = min{r : ((i-1)/m)^r <= delta}, and the run total for
finding all m states with per-step tolerance delta is

    1 + sum_{k=1}^{m-1} ln(1/delta) / ln(m/k)

which is affine in ln(1/delta): the k-sum is computed once per m and the
ln(1/delta) factor applied after. One kernel (budget_term_blocks) makes the
terms 1/ln(m/k) in numpy blocks and reads r_{k+1} off each. step_budgets runs
it for one m, _price_rows for any list of m (curves, compare tables and one-row
reports): the rows share blocks, in buffers made once per process, and one
routine (_limb_sums) cuts each row's terms and whole-number budgets into exact
float partials, summed once a row after the blocks (the terms by math.fsum).
From LANE_TERMS terms on, with two usable CPUs, the blocks alternate between
two lanes (_run_lanes) that extend the same partials, so they change no bit.
Query totals price each run at the exact per-run iteration count, giving the
asymptotic sqrt(N/m) factor a concrete constant.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .search import SearchParams

# Entries per vectorized block: the kernels work in buffers of at most this
# many float64s, reused from block to block, so their memory does not grow
# with m. 32768 (256 KiB a buffer) suits two pricing lanes: a ufunc call over
# 16384 terms takes 5-27 us, about what a hand-off of the GIL between the lanes
# costs, and there fig1 priced slower in two lanes than in one (medians 0.48 s
# against 0.39 s); at 32768, 0.31 s against 0.35 s. Larger blocks made one
# lane slower (0.42 s at 49152, 0.50 s at 65536) and hold more memory. RAMP,
# 1..BLOCK, is made once per process; the kernel offsets it.
BLOCK = 32768
RAMP = np.arange(1.0, BLOCK + 1)
# The k-sum's work buffers, one set per pricing lane: (rest, terms, limb). The
# limb loop's remainder and limb hold a block's k and budgets while it is
# made. Both sets are made here, once per process and on the importing thread,
# so pricing allocates nothing per m and a lane's thread makes none. A pricing
# call owns both sets while it holds _PRICING, so callers on several threads
# price one at a time.
_BUFFERS = tuple(tuple(np.empty(BLOCK) for _ in range(3)) for _ in range(2))
_PRICING = threading.Lock()
# Fewest k-sum terms in one pricing call that pay for a second lane: below
# this, the GIL hand-offs between a block's short numpy calls outweigh them.
LANE_TERMS = 2**20


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_lanes(lanes: Sequence, run: Callable) -> None:
    """run(lane) for every lane: the first here, each other on its own thread.
    Every thread is joined before this returns or raises; a lane's error is
    raised here, after the joins."""
    errors = []

    def guarded(lane):
        try:
            run(lane)
        except BaseException as exc:  # re-raised by the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(lane,)) for lane in lanes[1:]]
    for thread in threads:
        thread.start()
    try:
        run(lanes[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def step_budget(m: int, i: int, delta: float) -> int:
    """Smallest number of runs r with ((i-1)/m)^r <= delta.

    Step 1 always turns up a new state, so its budget is a single run. The
    closed form ceil(ln(1/t) / -ln p) seeds r, nudged to match the minimal-r
    definition under float pow semantics: p is the float (i-1)/m that pow
    raises (ln m - ln(i-1) cancels near i = m), and t = delta + 2**-1075,
    below which pow may round p**r to delta (some 0.4 m steps at 5e-324).
    From this seed, m <= 1e12 takes a nudge or two at most.
    """
    if not 1 <= i <= m:
        raise ValueError(f"step index must satisfy 1 <= i <= m, got i={i}, m={m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if i == 1:
        return 1
    p = (i - 1) / m
    if p == 1.0:  # no finite r: (i-1)/m rounds to 1 near i = m once m >= 2**54
        raise ValueError(f"(i-1)/m rounds to 1 at i={i}, m={m}: no finite budget")
    log_inv_t = -math.log(delta) - math.log1p(2.0**-1074 / delta / 2)
    r = max(math.ceil(log_inv_t / -math.log(p)), 1)
    while p**r > delta:
        r += 1
    while r > 1 and p ** (r - 1) <= delta:
        r -= 1
    return r


def packed_blocks(ms):
    """Cut the k-ranges 1..m-1 of the rows m in ms, in order, into blocks of at
    most BLOCK terms, every block but the last full. A block is a list of
    pieces (row, m, start, at, count): the row's terms k = start+1..start+count,
    at offset `at` of the block."""
    block, at = [], 0
    for row, m in enumerate(ms):
        start = 0
        while start < m - 1:
            count = min(BLOCK - at, m - 1 - start)
            block.append((row, m, start, at, count))
            start, at = start + count, at + count
            if at == BLOCK:
                yield block
                block, at = [], 0
    if block:
        yield block


def budget_term_blocks(blocks, delta: float | None, k, y, u):
    """Yield (pieces, terms, budgets) for each block of blocks (packed_blocks),
    as views of the float64 buffers y and u that the next block overwrites: the
    terms y = 1/ln(m/k), as 1/log1p((m-k)/k), and, unless delta is None,
    r_i = step_budget(m, i, delta), i = k + 1, as floats, read off y. log1p
    keeps the k ~ m terms accurate, where ln(m/k) is tiny and the terms are
    largest. k is a work buffer; each buffer holds at least as many entries as
    a block.

    Let L = ln(1/delta) and l = -ln p, p = fl(k/m). pow is within an ulp of
    p**r, so pow(p, r) <= delta if r*l > L, and pow(p, r) > delta if
    r*l < L - s, s = ln(1 + max(2**-51, 2**-1073 / delta)): twice the ulp at
    delta, 2**-52 * delta, or 2**-1074 where delta is subnormal. y is 1/l to
    a few 2**-53 relative (rounding of (m-k)/k, log1p and the division) plus
    m * 2**-53, because rounding p moves l by up to 2**-53 and l > 1/m.
    slack = 2**-40 + m * 2**-50 covers these and the products' rounding, so
    every r >= hi*y passes, hi = L * (1 + slack), and every r <= lo*y fails,
    lo = L * (1 - slack) - s. Where ceil(hi*y) == ceil(lo*y) that is r_i;
    elsewhere the scalar step_budget decides. A block takes the slack of its
    largest m: a wider band sends more steps to the scalar and changes no
    budget. lo is floored at 2**-1000, as r = 0 is never a candidate: at
    delta = 1 - 2**-53, L < s would send every step to the scalar. The
    scalar takes about s * sum(y) steps: a handful for normal delta, hundreds
    at delta = 1e-320 and m = 1e5, and nearly all at delta = 5e-324, where
    pow returns delta for every p**r below 1.5 * 2**-1074, so s = ln 3 and
    the float terms cannot tell r apart.
    """
    if delta is not None:
        log_inv_delta = -math.log(delta)
        s = math.log1p(max(2.0**-51, 2.0**-1073 / delta))
    for pieces in blocks:
        n = pieces[-1][3] + pieces[-1][4]
        k_, y_, u_ = k[:n], y[:n], None
        for _, m, start, at, count in pieces:
            np.add(RAMP[:count], start, out=k_[at : at + count])
            np.subtract(m, k_[at : at + count], out=y_[at : at + count])
        np.divide(y_, k_, out=y_)
        np.log1p(y_, out=y_)
        np.divide(1.0, y_, out=y_)
        if delta is not None:
            slack = 2.0**-40 + max(piece[1] for piece in pieces) * 2.0**-50
            hi, lo = log_inv_delta * (1 + slack), max(log_inv_delta * (1 - slack) - s, 2.0**-1000)
            u_ = u[:n]
            np.ceil(np.multiply(y_, hi, out=u_), out=u_)
            np.ceil(np.multiply(y_, lo, out=k_), out=k_)
            for j in np.subtract(u_, k_, out=k_).nonzero()[0].tolist():
                _, m, start, at, _ = pieces[bisect.bisect(pieces, j, key=lambda p: p[3]) - 1]
                u_[j] = step_budget(m, start + j - at + 2, delta)
        yield pieces, y_, u_


def step_budgets(m: int, delta: float) -> tuple[int, ...]:
    """r_1..r_m, equal to [step_budget(m, i, delta) for i in 1..m], read off
    the k-sum's terms block by block; see budget_term_blocks. Its buffers are
    its own, so any thread may call it."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    budgets, i = np.ones(m, dtype=np.int64), 1  # step 1 always turns up a new state
    size = min(BLOCK, m - 1)
    for _, _, u in budget_term_blocks(packed_blocks([m]), delta,
                                      *(np.empty(size) for _ in range(3))):
        budgets[i : i + len(u)] = u
        i += len(u)
    return tuple(budgets.tolist())


def _limb_sums(x, top: int, low: int, starts, limb, rest) -> list[tuple[float, ...]]:
    """For each segment of 1..BLOCK positive finite values x that begins at an
    index in starts, floats whose exact sum is the segment's, given every
    x < 2**top and a multiple of 2**low. x is cut from the top into float limbs
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008): with
    C = 1.5 * 2**(s + 52), q = (x + C) - C is x rounded to a multiple of 2**s,
    and x - q is exact and at most 2**(s - 1). A limb spans at most `width`
    bits above 2**s, so its n values, and the last remainder's on 2**low, sum
    exactly in any order or segment while n * 2**width < 2**53. C and these
    partials stay finite while top - width <= 970: the kernel's terms are under
    m and its budgets under 745 m, so it holds for any m < 2**990. limb and
    rest are work buffers at least as long as x; rest may be x itself, which
    is then overwritten.
    """
    width = min(53 - len(x).bit_length(), 51)  # 51: x + C <= 2**(s+53)
    partials = []
    q, rest = limb[: len(x)], rest[: len(x)]
    while top - width > low:
        s = top - width
        c = math.ldexp(1.5, s + 52)
        np.add(x, c, out=q)
        np.subtract(q, c, out=q)
        partials.append(np.add.reduceat(q, starts).tolist())
        x = np.subtract(x, q, out=rest)
        top = s - 1  # every |x| <= 2**top
    partials.append(np.add.reduceat(x, starts).tolist())  # on 2**low
    return list(zip(*partials))


def _price_blocks(blocks, delta: float | None, buffers, sums, runs) -> None:
    """Extend sums[row] with the exact partials of the packed blocks' k-sum
    terms and, unless delta is None, runs[row] with those of the budgets of
    steps 2..m, working in buffers (rest, terms, limb).

    A row's terms rise with k, so each piece's first and last term bound the
    block's limbs, with a bit to spare on each side for rounding; its budgets
    rise too and are whole, so its last budget bounds them and they sum on the
    grid 2**0, in place in u. Each piece's partials go to its row.
    """
    rest, terms, limb = buffers
    for pieces, y, u in budget_term_blocks(blocks, delta, rest, terms, limb):
        starts = [p[3] for p in pieces]
        if u is not None:  # before the terms reuse limb
            top = math.frexp(max(u[at + count - 1] for _, _, _, at, count in pieces))[1]
            for p, r in zip(pieces, _limb_sums(u, top, 0, starts, rest, u)):
                runs[p[0]].extend(r)
        top = math.frexp(max(y[at + count - 1] for _, _, _, at, count in pieces))[1] + 1
        low = max(math.frexp(min(y[p[3]] for p in pieces))[1] - 54, -1074)
        for p, v in zip(pieces, _limb_sums(y, top, low, starts, limb, rest)):
            sums[p[0]].extend(v)


def _price_rows(ms, delta: float | None = None):
    """The k-sum sum_{k=1}^{m-1} 1/ln(m/k) of each m in ms, exactly rounded
    (equal to math.fsum of its float terms), and, unless delta is None, each
    row's budget total r_1 + ... + r_m.

    The rows' terms share blocks (packed_blocks). With LANE_TERMS terms or
    more and two usable CPUs, the blocks alternate between two lanes, else
    all go to one, which runs here with no thread (_run_lanes). Both extend
    the same per-row lists (one list.extend is one step under the GIL), and
    each row's exact partials are summed once after the join, which no order
    changes. Each lane walks the blocks and skips the others', which costs
    about 1 ms for fig1; a list of the blocks would hold every piece at once.
    """
    lanes = 2 if sum(ms) - len(ms) >= LANE_TERMS and _usable_cpus() >= 2 else 1
    sums, runs = [[] for _ in ms], None if delta is None else [[] for _ in ms]
    with _PRICING:
        _run_lanes(range(lanes), lambda lane: _price_blocks(itertools.islice(
            packed_blocks(ms), lane, None, lanes), delta, _BUFFERS[lane], sums, runs))
    runs = None if delta is None else [1 + sum(map(int, row)) for row in runs]  # r_1 = 1
    return [math.fsum(row) for row in sums], runs


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
