"""Statistical harness: deterministic batch trials and uniformity testing.

Trials run one after another, in trial order. Every trial owns a counter-based
Philox stream keyed by (master_seed, trial_index), so its outcome depends only on
its index; run_trials re-keys one generator per trial rather than building one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .driver import TrialOutcome, execute_trial
from .search import ProblemInstance


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


def _stream_key(master_seed: int, trial_index: int) -> np.ndarray:
    return np.array([master_seed % 2**64, trial_index % 2**64], dtype=np.uint64)


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    return np.random.Generator(np.random.Philox(key=_stream_key(master_seed, trial_index)))


def _trial_streams(master_seed: int, n_trials: int):
    """Yield trial_stream(master_seed, t) for t < n_trials as one Generator re-keyed
    in place: key (master_seed, t), zero counter, empty buffer, no buffered half."""
    rng = trial_stream(master_seed, 0)
    fresh = rng.bit_generator.state
    for t in range(n_trials):
        fresh["state"]["key"] = _stream_key(master_seed, t)
        rng.bit_generator.state = fresh
        yield rng


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
        execute_trial(problem, sampler, strategy, rng)
        for rng in _trial_streams(master_seed, n_trials)
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
    expected = total / k
    statistic = sum((c - expected) ** 2 for c in counts) / expected
    return statistic, dof, statistic < chi_square_critical(dof)


def chi_square_critical(dof: int) -> float:
    """Chi-square critical value at significance 0.001: 2y with Q(dof/2, y) =
    0.001, Q the regularized upper incomplete gamma: Newton on ln Q from
    Wilson-Hilferty (3.0902... is the 0.999 normal quantile), Q = y h pdf(y),
    h by Numerical Recipes' continued fraction, accurate at y >= a; root > a."""
    a, w = dof / 2.0, 2.0 / (9.0 * dof)
    y = a * (1.0 - w + 3.090232306167813 * math.sqrt(w)) ** 3
    for _ in range(100):
        b = y + 1.0 - a
        c, d = math.inf, 1.0 / b
        h = d
        for i in range(1, 10**6):
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            h *= c * d
            if abs(c * d - 1.0) <= 1e-15:
                break
        log_q = math.log(y * h) + (a - 1.0) * math.log(y) - y - math.lgamma(a)
        step = (log_q - math.log(0.001)) * y * h
        y = max(y + step, y / 2)  # halving keeps y > 0
        if abs(step) <= 1e-15 * y:
            break
    return 2.0 * y

