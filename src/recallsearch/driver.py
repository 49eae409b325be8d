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

import math
from dataclasses import dataclass

import numpy as np

from .search import (
    FULL,
    ProblemInstance,
    SearchParams,
    final_state,
    full_cdf,
    measure,
    require_matching_params,
)

PER_STEP = "per-step"
OVERALL = "overall"


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


def build_plan(problem: ProblemInstance, params: SearchParams) -> StepPlan:
    """Per-step retry budgets for the problem's delta, priced per run."""
    require_matching_params(problem, params)
    m = problem.n_marked
    budgets = tuple(step_budget(m, i, problem.delta) for i in range(1, m + 1))
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

    The run's evolution is deterministic, so the final state (and, for FULL,
    its CDF) is built once; each draw is a fresh measurement of it, exactly
    as a per-draw simulation would produce.
    """

    def __init__(self, problem: ProblemInstance, params: SearchParams, representation: str = FULL):
        require_matching_params(problem, params)
        self.problem = problem
        self.queries_per_draw = params.iterations
        self._final = final_state(problem, params, representation)
        self._cdf = full_cdf(self._final) if representation == FULL else None

    def draw(self, rng: np.random.Generator) -> int:
        return measure(self._final, self.problem, rng, self._cdf)


def execute_trial(
    problem: ProblemInstance,
    sampler,
    strategy,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Run the find-everything procedure once and record what it cost.

    Every draw counts against the active budget and costs a full run's
    queries, whether or not it turns up a new state.
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
        for step, budget in enumerate(plan.budgets, start=1):
            for _ in range(budget):
                runs += 1
                outcome = sampler.draw(rng)
                if outcome in marked and outcome not in seen:
                    seen.add(outcome)
                    found.append(outcome)
                    break
            else:  # the step's budget ran out without a new state
                failed_at = step
                break
    elif isinstance(strategy, Unbounded):
        while len(seen) < m:
            runs += 1
            outcome = sampler.draw(rng)
            if outcome in marked and outcome not in seen:
                seen.add(outcome)
                found.append(outcome)
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    return TrialOutcome(tuple(found), runs, runs * cost, failed_at is None, failed_at)
