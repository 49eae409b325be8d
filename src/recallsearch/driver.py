"""Repeat exact search runs until every marked state has been found.

Two strategies. The budgeted schedule allots step i the smallest retry count
r_i with ((i-1)/m)^r_i <= delta, so each step misses a new state with
probability at most delta; exhausting a step's budget ends the trial as an
honest failure. The unbounded strategy simply draws until all m states have
appeared.

Draws come from a sampler: the quantum simulator, whose final state is built
once and measured per draw, or an idealized uniform draw over the marked set at
the same query price. The two are statistically interchangeable because one
exact run measures a marked state with certainty, uniformly across the marked set.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .search import (
    FULL,
    ProblemInstance,
    SearchParams,
    final_state,
    measure_at,
    require_matching_params,
)

PER_STEP = "per-step"
OVERALL = "overall"

# Entries per vectorized block: the closed-form kernels work in buffers of
# at most this many float64s, reused from block to block, so their memory
# does not grow with m; 16384 (128 KiB a buffer) timed fastest for the
# k-sum. RAMP, 1..BLOCK, is made once per process; the kernels offset it.
BLOCK = 16384
RAMP = np.arange(1.0, BLOCK + 1)


@dataclass(frozen=True)
class StepPlan:
    """Retry budgets r_1..r_m plus the query price of a single run."""

    budgets: tuple[int, ...]
    queries_per_run: int
    total_runs_budget: int
    total_queries_budget: int


@dataclass(frozen=True)
class TrialOutcome:
    """What one trial found and what it cost."""

    found_order: tuple[int, ...]
    runs_used: int
    queries_used: int
    success: bool
    failed_at_step: int | None


@dataclass(frozen=True)
class Budgeted:
    plan: StepPlan


@dataclass(frozen=True)
class Unbounded:
    pass


def step_budget(m: int, i: int, delta: float) -> int:
    """Smallest number of runs r with ((i-1)/m)^r <= delta.

    Step 1 always turns up a new state, so its budget is a single run. The
    closed-form ceil(ln(1/delta) / ln(m/(i-1))) seeds the answer and the
    result is nudged so it exactly matches the minimal-r definition under
    float pow semantics.
    """
    if not 1 <= i <= m:
        raise ValueError(f"step index must satisfy 1 <= i <= m, got i={i}, m={m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if i == 1:
        return 1
    p = (i - 1) / m
    r = math.ceil(-math.log(delta) / (math.log(m) - math.log(i - 1)))
    r = max(r, 1)
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


def inverse_log_ratio_block(pieces, k, out):
    """1/ln(m/k) for a block's pieces (packed_blocks), packed into out, as
    1/log1p((m-k)/k): log1p keeps the k ~ m terms accurate, where ln(m/k) is
    tiny and the terms are largest. k is a work buffer as long as out."""
    n = pieces[-1][3] + pieces[-1][4]
    k, out = k[:n], out[:n]
    for _, m, start, at, count in pieces:
        np.add(RAMP[:count], start, out=k[at : at + count])
        np.subtract(m, k[at : at + count], out=out[at : at + count])
    np.divide(out, k, out=out)
    np.log1p(out, out=out)
    return np.divide(1.0, out, out=out)


def budget_term_blocks(ms, delta: float | None, k, y, u):
    """Yield (pieces, terms, budgets) for each block of packed_blocks(ms), as
    views of the float64 buffers y and u that the next block overwrites: the
    terms y = 1/ln(m/k) of inverse_log_ratio_block and, unless delta is None,
    r_i = step_budget(m, i, delta), i = k + 1, as floats, read off y. k is a
    work buffer; each buffer holds at least min(BLOCK, sum of m - 1) entries.

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
    for pieces in packed_blocks(ms):
        y_, u_ = inverse_log_ratio_block(pieces, k, y), None
        if delta is not None:
            slack = 2.0**-40 + max(piece[1] for piece in pieces) * 2.0**-50
            hi, lo = log_inv_delta * (1 + slack), max(log_inv_delta * (1 - slack) - s, 2.0**-1000)
            u_, w = u[: len(y_)], k[: len(y_)]
            np.ceil(np.multiply(y_, hi, out=u_), out=u_)
            np.ceil(np.multiply(y_, lo, out=w), out=w)
            for j in np.subtract(u_, w, out=w).nonzero()[0].tolist():
                _, m, start, at, _ = pieces[bisect.bisect(pieces, j, key=lambda p: p[3]) - 1]
                u_[j] = step_budget(m, start + j - at + 2, delta)
        yield pieces, y_, u_


def step_budgets(m: int, delta: float) -> tuple[int, ...]:
    """r_1..r_m, equal to [step_budget(m, i, delta) for i in 1..m], read off
    the k-sum's terms block by block; see budget_term_blocks."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    budgets, i = np.ones(m, dtype=np.int64), 1  # step 1 always turns up a new state
    size = min(BLOCK, m - 1)
    for _, _, u in budget_term_blocks([m], delta, *(np.empty(size) for _ in range(3))):
        budgets[i : i + len(u)] = u
        i += len(u)
    return tuple(budgets.tolist())


def build_plan(problem: ProblemInstance, params: SearchParams) -> StepPlan:
    """Per-step retry budgets for the problem's delta, priced per run."""
    require_matching_params(problem, params)
    m = problem.n_marked
    budgets = step_budgets(m, problem.delta)
    total_runs = sum(budgets)
    return StepPlan(
        budgets=budgets,
        queries_per_run=params.iterations,
        total_runs_budget=total_runs,
        total_queries_budget=total_runs * params.iterations,
    )


def resolve_step_delta(delta: float, m: int, mode: str = PER_STEP) -> float:
    """Per-step failure tolerance for planning.

    ``overall`` treats delta as a joint success target across steps 2..m and
    converts it to the per-step tolerance 1 - (1-delta)^(1/(m-1)), evaluated
    as -expm1(log1p(-delta)/(m-1)) so small tolerances keep full precision.
    """
    if mode not in (PER_STEP, OVERALL):
        raise ValueError(f"unknown delta mode: {mode!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if mode == PER_STEP or m <= 1:
        return delta
    step = -math.expm1(math.log1p(-delta) / (m - 1))
    if step == 0.0:
        raise ValueError(f"overall delta {delta!r} over {m - 1} steps underflows to 0")
    return step


class IdealSampler:
    """Uniform draw over the marked set, at the per-run query price."""

    def __init__(self, problem: ProblemInstance, params: SearchParams):
        require_matching_params(problem, params)
        self.problem = problem
        self.queries_per_draw = params.iterations

    def draw(self, rng: np.random.Generator) -> int:
        return self.problem.marked[int(rng.integers(self.problem.n_marked))]


class QuantumSampler:
    """Measurement draws from the simulated final state of one exact run.

    The run's evolution is deterministic, so the final state is built once;
    each draw is a fresh measurement of it, exactly as a per-draw simulation
    would produce.
    """

    def __init__(self, problem: ProblemInstance, params: SearchParams, representation: str = FULL):
        require_matching_params(problem, params)
        self.problem = problem
        self.queries_per_draw = params.iterations
        self._final = final_state(problem, params, representation)

    def draw(self, rng: np.random.Generator) -> int:
        return measure_at(self._final, self.problem, rng.random())


def execute_trial(
    problem: ProblemInstance,
    sampler,
    strategy,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Run the find-everything procedure once and record what it cost.

    Step i draws until a new marked state turns up or its budget runs out;
    an unbounded step has no budget. Every draw counts against the active
    budget and costs a full run's queries, whether or not it turns up a new
    state.
    """
    if sampler.problem != problem:
        raise ValueError("sampler was built for a different problem")
    marked = set(problem.marked)
    m = len(marked)
    cost = sampler.queries_per_draw
    found: list[int] = []
    seen: set[int] = set()
    runs = 0
    failed_at = None

    if isinstance(strategy, Budgeted):
        plan = strategy.plan
        if len(plan.budgets) != m or plan.queries_per_run != cost:
            raise ValueError("plan does not match this problem/sampler")
        steps = (range(budget) for budget in plan.budgets)
    elif isinstance(strategy, Unbounded):
        steps = itertools.repeat(itertools.count(), m)
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    for step, attempts in enumerate(steps, start=1):
        for _ in attempts:
            runs += 1
            outcome = sampler.draw(rng)
            if outcome in marked and outcome not in seen:
                seen.add(outcome)
                found.append(outcome)
                break
        else:  # the step's budget ran out without a new state
            failed_at = step
            break
    return TrialOutcome(tuple(found), runs, runs * cost, failed_at is None, failed_at)
