"""Statistical harness: deterministic batch trials and uniformity testing.

Trials run one after another, in trial order. Every trial owns a
counter-based random stream keyed by (master_seed, trial_index), so a
trial's outcome depends only on its index, never on the trials before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import total_runs_closed_form
from .driver import Budgeted, IdealSampler, TrialOutcome, build_plan, execute_trial
from .search import ProblemInstance, derive_search_params

# Upper-tail chi-square critical values at significance 0.001, dof 1..64.
# Embedded so the uniformity test needs no special-functions dependency.
_CHI2_CRIT_001 = (
    10.827566, 13.815511, 16.266236, 18.466827,
    20.515006, 22.457744, 24.321886, 26.124482,
    27.877165, 29.588298, 31.264134, 32.909490,
    34.528179, 36.123274, 37.697298, 39.252355,
    40.790217, 42.312396, 43.820196, 45.314747,
    46.797038, 48.267942, 49.728232, 51.178598,
    52.619656, 54.051962, 55.476020, 56.892285,
    58.301173, 59.703064, 61.098306, 62.487219,
    63.870099, 65.247217, 66.618829, 67.985168,
    69.346452, 70.702887, 72.054663, 73.401958,
    74.744938, 76.083763, 77.418578, 78.749524,
    80.076732, 81.400326, 82.720423, 84.037134,
    85.350565, 86.660815, 87.967980, 89.272151,
    90.573412, 91.871847, 93.167533, 94.460545,
    95.750954, 97.038829, 98.324234, 99.607233,
    100.887885, 102.166248, 103.442377, 104.716325,
)


@dataclass(frozen=True)
class TrialStats:
    """Aggregate of a trial batch; rates are paired with binomial standard
    errors computed from the trials that actually reached each step."""

    n_trials: int
    per_step_success_rate: tuple[float, ...]
    per_step_stderr: tuple[float, ...]
    mean_runs: float
    mean_queries: float
    overall_success_rate: float
    master_seed: int


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    key = np.array(
        [master_seed & 0xFFFFFFFFFFFFFFFF, trial_index & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def run_trials(
    problem: ProblemInstance,
    strategy,
    sampler,
    n_trials: int,
    master_seed: int,
) -> TrialStats:
    """Execute n_trials independent trials and aggregate in trial order.

    Deterministic for a given (problem, strategy, sampler kind, n_trials,
    master_seed).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    outcomes = [
        execute_trial(problem, sampler, strategy, trial_stream(master_seed, t))
        for t in range(n_trials)
    ]
    return _aggregate(problem, outcomes, master_seed)


def _aggregate(
    problem: ProblemInstance, outcomes: Sequence[TrialOutcome], master_seed: int
) -> TrialStats:
    n = len(outcomes)
    m = problem.n_marked
    fail_at = [0] * (m + 1)
    runs_total = 0
    queries_total = 0
    successes = 0
    for o in outcomes:
        runs_total += o.runs_used
        queries_total += o.queries_used
        if o.success:
            successes += 1
        else:
            fail_at[o.failed_at_step] += 1

    rates: list[float] = []
    errs: list[float] = []
    reached = n
    for step in range(1, m + 1):
        won = reached - fail_at[step]
        if reached == 0:
            rates.append(math.nan)
            errs.append(math.nan)
            continue
        p = won / reached
        rates.append(p)
        errs.append(math.sqrt(p * (1.0 - p) / reached))
        reached = won

    return TrialStats(
        n_trials=n,
        per_step_success_rate=tuple(rates),
        per_step_stderr=tuple(errs),
        mean_runs=runs_total / n,
        mean_queries=queries_total / n,
        overall_success_rate=successes / n,
        master_seed=master_seed,
    )


def chi_square_uniformity(counts: Sequence[int]) -> tuple[float, int, bool]:
    """Pearson goodness-of-fit against the uniform expectation.

    Returns (statistic, dof, passed) with passed = statistic below the
    critical value at significance 0.001.
    """
    k = len(counts)
    if k < 2:
        raise ValueError("need at least 2 categories")
    total = sum(counts)
    if total < 5 * k:
        raise ValueError(
            f"undersampled: total count {total} is below 5x categories ({5 * k})"
        )
    dof = k - 1
    if dof > len(_CHI2_CRIT_001):
        raise ValueError(f"critical-value table covers dof <= {len(_CHI2_CRIT_001)}")
    expected = total / k
    statistic = sum((c - expected) ** 2 for c in counts) / expected
    return statistic, dof, statistic < _CHI2_CRIT_001[dof - 1]


def empirical_vs_closed_form(
    problem: ProblemInstance,
    n_trials: int,
    master_seed: int,
    sampler=None,
) -> dict:
    """Closed-form run budget next to what simulation actually spends.

    The closed form is a confidence budget (runs sufficient for each step to
    succeed with probability 1-delta), not an expected cost, so the
    empirical mean sits well below the budget.
    """
    params = derive_search_params(problem)
    plan = build_plan(problem, params)
    if sampler is None:
        sampler = IdealSampler(problem, params)
    stats = run_trials(problem, Budgeted(plan), sampler, n_trials, master_seed)
    return {
        "r_real": total_runs_closed_form(problem.n_marked, problem.delta),
        "total_runs_budget": plan.total_runs_budget,
        "empirical_mean_runs": stats.mean_runs,
        "empirical_success_rate": stats.overall_success_rate,
    }
