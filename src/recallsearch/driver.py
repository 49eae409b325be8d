"""Repeat exact search runs until every marked state has been found.

Two strategies. The budgeted schedule allots step i the smallest retry count
r_i with ((i-1)/m)^r_i <= delta, so each step misses a new state with
probability at most delta; exhausting a step's budget ends the trial as an
honest failure. The unbounded strategy simply draws until all m states have
appeared.

Draws come from a sampler: either the quantum simulator or an idealized
uniform draw over the marked set at the same query price per draw. The two
are statistically interchangeable because one exact run measures a marked
state with certainty, uniformly across the marked set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .search import (
    FULL,
    ProblemInstance,
    SearchParams,
    final_state,
    measure,
    require_matching_params,
)

PER_STEP = "per-step"
OVERALL = "overall"

# Entries per vectorized block: the closed-form kernels work in buffers of
# at most this many float64s, reused from block to block, so their memory
# does not grow with m.
BLOCK = 4096


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


def ramp_blocks(n: int):
    """Yield (start, k) with k = start+1..start+c as float64, in blocks of at
    most BLOCK that together cover 1..n. k is a view of one reused buffer."""
    size = min(BLOCK, n)
    ramp = np.arange(1, size + 1, dtype=np.float64)
    k = np.empty(size)
    for start in range(0, n, BLOCK):
        c = min(BLOCK, n - start)
        yield start, np.add(ramp[:c], start, out=k[:c])


def step_budget_blocks(m: int, delta: float):
    """Yield r_1..r_m in order as int64 arrays of at most BLOCK entries, each
    equal to step_budget(m, i, delta). Each array is a view of a buffer that
    the next block overwrites.

    The seed ceil(ln(1/delta) / ln(m/(i-1))) is nudged with numpy's power
    until it is minimal. numpy's power can differ from Python's ** in the
    last ulp, so it cannot decide p**r <= delta when p**r is that close to
    delta: any entry whose p**r or p**(r-1) lies within the guard band
    max(delta * 2**-40, 2**-1064) of delta is decided by the scalar
    step_budget instead. The band is about 4000 ulps wide for normal delta,
    and at least 1024 steps of the smallest subnormal for subnormal delta,
    where one ulp is a large relative error.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    yield np.ones(1, dtype=np.int64)  # step 1 always turns up a new state
    size = min(BLOCK, m - 1)
    p, r, hi, lo = (np.empty(size) for _ in range(4))
    over, under = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    budgets = np.empty(size, dtype=np.int64)
    log_inv_delta, log_m = -math.log(delta), math.log(m)
    guard = max(delta * 2.0**-40, 2.0**-1064)
    for start, k in ramp_blocks(m - 1):  # k = i - 1
        c = len(k)
        p_, r_, hi_, lo_, over_, under_ = (a[:c] for a in (p, r, hi, lo, over, under))
        np.divide(k, m, out=p_)
        np.log(k, out=r_)
        np.subtract(log_m, r_, out=r_)
        np.divide(log_inv_delta, r_, out=r_)
        np.ceil(r_, out=r_)
        np.maximum(r_, 1.0, out=r_)
        while True:  # raise r while p**r > delta
            np.power(p_, r_, out=hi_)
            np.greater(hi_, delta, out=over_)
            if not over_.any():
                break
            r_ += over_
        while True:  # lower r while p**(r-1) <= delta; p**0 = 1 stops it at 1
            np.subtract(r_, 1.0, out=lo_)
            np.power(p_, lo_, out=lo_)
            np.less_equal(lo_, delta, out=under_)
            if not under_.any():
                break
            r_ -= under_
            np.copyto(hi_, lo_, where=under_)
        out = budgets[:c]
        np.copyto(out, r_, casting="unsafe")
        np.equal(r_, 1.0, out=under_)  # p**0 = 1 exactly: nothing to decide
        np.copyto(lo_, np.inf, where=under_)
        for p_r in (hi_, lo_):  # distance of p**r and p**(r-1) from delta
            np.subtract(p_r, delta, out=p_r)
            np.abs(p_r, out=p_r)
        np.minimum(hi_, lo_, out=hi_)
        np.less_equal(hi_, guard, out=over_)
        for j in np.flatnonzero(over_).tolist():
            out[j] = step_budget(m, start + j + 2, delta)
        yield out


def step_budgets(m: int, delta: float) -> tuple[int, ...]:
    """r_1..r_m, equal to [step_budget(m, i, delta) for i in 1..m]; see
    step_budget_blocks."""
    return tuple(itertools.chain.from_iterable(
        block.tolist() for block in step_budget_blocks(m, delta)))


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
        return measure(self._final, self.problem, rng)


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
