import math

import numpy as np
import pytest
import scipy.stats

from recallsearch.driver import (
    Budgeted,
    IdealSampler,
    QuantumSampler,
    Unbounded,
    build_plan,
)
from recallsearch.montecarlo import (
    TrialStats,
    chi_square_critical,
    chi_square_uniformity,
    empirical_vs_closed_form,
    run_trials,
    trial_stream,
)
from recallsearch.search import ProblemInstance, derive_search_params, run_search_once


def problem(n, m, delta=0.01):
    return ProblemInstance(n_states=n, marked=tuple(range(m)), delta=delta)


def expected_budgeted_runs(plan, m):
    """Exact expected runs under the budgeted strategy with uniform draws.

    Step i succeeds per draw with probability (m-i+1)/m; a failed step
    consumes its full budget and ends the trial.
    """
    total = 0.0
    reach = 1.0
    for i, budget in enumerate(plan.budgets, start=1):
        p = (m - i + 1) / m
        q = 1.0 - p
        mean_draws = sum(t * p * q ** (t - 1) for t in range(1, budget + 1))
        mean_draws += budget * q**budget
        total += reach * mean_draws
        reach *= 1.0 - q**budget
    return total


def exact_overall_success(plan, m):
    out = 1.0
    for i, budget in enumerate(plan.budgets, start=1):
        out *= 1.0 - ((i - 1) / m) ** budget
    return out


class TestStreams:
    def test_reproducible_per_key(self):
        a = trial_stream(99, 5).random(8)
        b = trial_stream(99, 5).random(8)
        assert np.array_equal(a, b)

    def test_distinct_across_trials_and_seeds(self):
        base = trial_stream(99, 5).random(8)
        assert not np.array_equal(base, trial_stream(99, 6).random(8))
        assert not np.array_equal(base, trial_stream(100, 5).random(8))


class TestRunTrials:
    def test_single_marked(self):
        prob = problem(16, 1)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        stats = run_trials(prob, Budgeted(plan), IdealSampler(prob, params), 500, 1)
        assert isinstance(stats, TrialStats)
        assert stats.overall_success_rate == 1.0
        assert stats.mean_runs == 1.0
        assert stats.per_step_success_rate == (1.0,)
        assert stats.mean_queries == stats.mean_runs * plan.queries_per_run

    def test_mean_queries_scales_with_run_price(self):
        prob = problem(256, 3, delta=0.05)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        stats = run_trials(prob, Budgeted(plan), IdealSampler(prob, params), 300, 7)
        assert stats.mean_queries == pytest.approx(
            stats.mean_runs * plan.queries_per_run, rel=1e-12
        )

    def test_per_step_rates_beat_tolerance(self):
        prob = problem(1024, 10, delta=0.05)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        stats = run_trials(prob, Budgeted(plan), IdealSampler(prob, params), 5000, 11)
        band = 4 * math.sqrt(0.05 * 0.95 / 5000)
        for rate in stats.per_step_success_rate:
            assert rate >= 0.95 - band

    def test_unbounded_matches_collector_expectation(self):
        prob = problem(64, 5, delta=0.05)
        params = derive_search_params(prob)
        stats = run_trials(prob, Unbounded(), IdealSampler(prob, params), 10000, 23)
        expected = 5 * sum(1 / k for k in range(1, 6))
        # Var of the collector count, for a 4-sigma band on the mean
        var = sum((1 - p) / p**2 for p in (5 / 5, 4 / 5, 3 / 5, 2 / 5, 1 / 5))
        assert abs(stats.mean_runs - expected) <= 4 * math.sqrt(var / 10000)

    def test_rejects_empty_batch(self):
        prob = problem(16, 1)
        params = derive_search_params(prob)
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(prob, Unbounded(), IdealSampler(prob, params), 0, 1)


class TestChiSquare:
    def test_perfectly_uniform(self):
        statistic, dof, passed = chi_square_uniformity([2500, 2500, 2500, 2500])
        assert statistic == 0.0
        assert dof == 3
        assert passed

    def test_maximally_skewed(self):
        statistic, dof, passed = chi_square_uniformity([10000, 0, 0, 0])
        assert not passed
        assert statistic == pytest.approx(30000.0)

    def test_rejects_undersampled(self):
        with pytest.raises(ValueError, match="undersampled"):
            chi_square_uniformity([3, 3, 3])

    def test_rejects_single_category(self):
        with pytest.raises(ValueError, match="categories"):
            chi_square_uniformity([50])

    def test_large_dof_is_tested(self):
        # the critical value is computed for any dof, so m > 65 is testable
        statistic, dof, passed = chi_square_uniformity([10] * 70)
        assert (statistic, dof, passed) == (0.0, 69, True)
        _, dof, passed = chi_square_uniformity([10] * 69 + [100])
        assert dof == 69 and not passed
        counts = np.random.default_rng(3).multinomial(200_000, [1e-4] * 10_000)
        statistic, dof, passed = chi_square_uniformity(counts.tolist())
        assert dof == 9999 and passed
        assert statistic == pytest.approx(float(scipy.stats.chisquare(counts)[0]))

    def test_critical_values_match_scipy(self):
        dofs = sorted(set(range(1, 1001)) | set(
            np.geomspace(1000, 10**5, 300).round().astype(int).tolist()))
        expected = scipy.stats.chi2.isf(0.001, dofs)
        for dof, value in zip(dofs, expected):
            assert chi_square_critical(dof) == pytest.approx(value, rel=1e-9, abs=0)

    def test_quantum_shot_histogram_is_uniform(self):
        prob = ProblemInstance(n_states=64, marked=(4, 21, 38, 55), delta=0.05)
        params = derive_search_params(prob)
        rng = trial_stream(606, 0)
        counts = dict.fromkeys(prob.marked, 0)
        for _ in range(4000):
            index, _ = run_search_once(prob, params, rng, "subspace")
            counts[index] += 1
        _, _, passed = chi_square_uniformity(list(counts.values()))
        assert passed


class TestEmpiricalVsClosedForm:
    def test_single_marked_all_ones(self):
        row = empirical_vs_closed_form(problem(16, 1), 200, 3)
        assert row["r_real"] == 1.0
        assert row["total_runs_budget"] == 1
        assert row["empirical_mean_runs"] == 1.0
        assert row["empirical_success_rate"] == 1.0

    def test_m2_budget_is_loose_bound_on_mean(self):
        prob = problem(1024, 2, delta=0.01)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        row = empirical_vs_closed_form(prob, 20000, 17)
        expected_mean = expected_budgeted_runs(plan, 2)
        assert expected_mean == pytest.approx(1 + 1.984375, rel=1e-12)
        assert row["empirical_mean_runs"] == pytest.approx(expected_mean, abs=0.05)
        assert row["empirical_mean_runs"] < row["total_runs_budget"]
        assert row["total_runs_budget"] == 8
        assert row["empirical_success_rate"] == pytest.approx(
            exact_overall_success(plan, 2), abs=0.005
        )

    def test_m10_mean_tracks_exact_expectation(self):
        prob = problem(1024, 10, delta=0.01)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        row = empirical_vs_closed_form(prob, 8000, 29)
        expected_mean = expected_budgeted_runs(plan, 10)
        assert row["empirical_mean_runs"] == pytest.approx(expected_mean, rel=0.03)
        assert row["empirical_mean_runs"] < row["total_runs_budget"]


class TestQuantumIdealAgreement:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_per_step_rates_agree(self, m):
        prob = problem(64, m, delta=0.05)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        n = 3000
        ideal = run_trials(prob, Budgeted(plan), IdealSampler(prob, params), n, 5)
        quantum = run_trials(prob, Budgeted(plan), QuantumSampler(prob, params), n, 6)
        for i in range(m):
            gap = abs(
                ideal.per_step_success_rate[i] - quantum.per_step_success_rate[i]
            )
            pooled = math.hypot(ideal.per_step_stderr[i], quantum.per_step_stderr[i])
            assert gap <= 4 * pooled + 1e-12
        assert quantum.mean_runs == pytest.approx(ideal.mean_runs, rel=0.05)
        assert quantum.overall_success_rate == pytest.approx(
            ideal.overall_success_rate, abs=0.04
        )
