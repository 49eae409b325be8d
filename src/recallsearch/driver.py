"""Repeat exact search runs until every marked state has been found: step
plans, samplers and trials. The budgets a plan holds are closed forms, made in
analytics (step_budgets).

Two strategies. The budgeted schedule allots step i the smallest retry count
r_i with ((i-1)/m)^r_i <= delta, so each step misses a new state with
probability at most delta; exhausting a step's budget ends the trial as an
honest failure. The unbounded strategy simply draws until all m states have
appeared.

Draws come from a sampler: the quantum simulator, whose final state is built
once and measured per draw, or an idealized uniform draw over the marked set at
the same query price. The two are statistically interchangeable because one
exact run measures a marked state with certainty, uniformly across the marked set.
A sampler draws one at a time from a numpy Generator (draw, which execute_trial
uses: the scalar reference) or a block at a time from raw stream words
(draw_block, which montecarlo.run_trials uses), with the same draws in the same
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# step_budget is imported, though only analytics calls it, so that callers and
# the benchmark's tracer (bench/tracer.py, which counts scalar budgets by this
# name) still find recallsearch.driver.step_budget.
from .analytics import step_budget, step_budgets
from .search import (
    FULL,
    ProblemInstance,
    SearchParams,
    final_state,
    marked_positions,
    measure_at,
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

    draws_per_word = 2

    def draw_block(self, words: np.ndarray) -> np.ndarray:
        """What draw returns for each trial's stream words, row by row, as
        positions in problem.marked: integers(m) reads the words' 32-bit
        halves, low then high, and draws (x m) >> 32 unless Lemire's test
        rejects x, where the half gives no draw (-2)."""
        m = self.problem.n_marked
        if m > 2**32:
            raise ValueError(f"block draws take m <= 2**32, got m={m}")
        # little-endian words viewed as 32-bit halves: low half, then high
        halves = words.astype("<u8", copy=False).view("<u4")
        k = halves.astype(np.uint64)
        k *= np.uint64(m)
        k >>= np.uint64(32)
        k = k.view(np.int64)
        threshold = (2**32 - m) % m
        if threshold:  # then m < 2**32, and uint32 products keep (x m) mod 2**32
            k[halves * np.uint32(m) < threshold] = -2
        return k


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

    draws_per_word = 1

    def draw_block(self, words: np.ndarray) -> np.ndarray:
        """What draw returns for each trial's stream words, row by row, as
        positions in problem.marked (-1 for an unmarked state): random()
        reads each word as one uniform."""
        return marked_positions(self._final, self.problem, _uniforms(words))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """random()'s doubles from stream words: (w >> 11) 2^-53, exact in float64."""
    return (words >> 11) * 2.0**-53


def _plan_budgets(problem: ProblemInstance, sampler, strategy) -> tuple[int, ...] | None:
    """The step budgets of a Budgeted strategy's plan, or None for Unbounded,
    once the sampler and plan are checked against the problem."""
    if sampler.problem != problem:
        raise ValueError("sampler was built for a different problem")
    if isinstance(strategy, Budgeted):
        plan = strategy.plan
        if (len(plan.budgets) != problem.n_marked
                or plan.queries_per_run != sampler.queries_per_draw):
            raise ValueError("plan does not match this problem/sampler")
        return plan.budgets
    if isinstance(strategy, Unbounded):
        return None
    raise ValueError(f"unknown strategy: {strategy!r}")


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
    budgets = _plan_budgets(problem, sampler, strategy)
    marked = set(problem.marked)
    m = len(marked)
    cost = sampler.queries_per_draw
    found: list[int] = []
    seen: set[int] = set()
    runs = 0
    failed_at = None

    if budgets is None:
        steps = itertools.repeat(itertools.count(), m)
    else:
        steps = (range(budget) for budget in budgets)
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
