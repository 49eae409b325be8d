import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recallsearch.analytics import total_runs_closed_form
from recallsearch.driver import (
    Budgeted,
    IdealSampler,
    QuantumSampler,
    Unbounded,
    build_plan,
    execute_trial,
)
from recallsearch.montecarlo import (
    TrialStats,
    _aggregate,
    _trial_streams,
    chi_square_critical,
    chi_square_uniformity,
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

    # Each trial's draws: None is a random(), an int m an integers(m). An odd
    # number of integers(m) with m <= 2**32 leaves a 32-bit half buffered for
    # the next trial to inherit if re-keying missed it; larger m takes 64 bits.
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, 2**64 - 1, -1, -(2**63)]),
                       st.integers(min_value=-(2**70), max_value=2**70)),
        trials=st.lists(
            st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=2**40)),
                     max_size=9),
            min_size=1, max_size=6),
    )
    @example(seed=0, trials=[[5], [5, None]])
    @example(seed=2**64 - 1, trials=[[None, 3, 7], [], [2**33, 9, 9]])
    @example(seed=-7, trials=[[9] * 9, [None] * 5, [1, 2**32]])
    def test_rekeyed_stream_equals_a_fresh_one(self, seed, trials):
        def take(rng, draws):
            return [rng.random() if m is None else int(rng.integers(m)) for m in draws]

        streams = _trial_streams(seed, len(trials))
        for t, (rng, draws) in enumerate(zip(streams, trials)):
            fresh = trial_stream(seed, t)
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
            assert take(rng, draws) == take(fresh, draws)

    def test_run_trials_equals_a_fresh_stream_per_trial(self):
        prob = ProblemInstance(n_states=64, marked=(3, 9, 20, 41, 63), delta=0.2)
        params = derive_search_params(prob)
        sampler, strategy = QuantumSampler(prob, params), Budgeted(build_plan(prob, params))
        outcomes = [execute_trial(prob, sampler, strategy, trial_stream(-3, t)) for t in range(300)]
        assert run_trials(prob, strategy, sampler, 300, -3) == _aggregate(prob, outcomes, -3)


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

    def test_memory_does_not_grow_with_trials(self):
        # outcomes are folded as they come: 4000 trials peak within a few KiB
        # of 200 (kept, each outcome would add a few hundred bytes)
        prob = problem(1024, 50, delta=0.5)
        params = derive_search_params(prob)
        sampler, strategy = IdealSampler(prob, params), Budgeted(build_plan(prob, params))
        run_trials(prob, strategy, sampler, 50, 1)  # first-call allocations
        peaks = []
        for n_trials in (200, 4000):
            tracemalloc.start()
            try:
                run_trials(prob, strategy, sampler, n_trials, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 8 * 2**10

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
    """The closed-form run budget next to what budgeted ideal trials spend: a
    confidence budget, not an expected cost, so the mean sits well below it."""

    @staticmethod
    def budgeted_trials(prob, n_trials, seed):
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        return plan, run_trials(prob, Budgeted(plan), IdealSampler(prob, params), n_trials, seed)

    def test_single_marked_all_ones(self):
        prob = problem(16, 1)
        plan, stats = self.budgeted_trials(prob, 200, 3)
        assert total_runs_closed_form(prob.n_marked, prob.delta) == 1.0
        assert plan.total_runs_budget == 1
        assert stats.mean_runs == 1.0
        assert stats.overall_success_rate == 1.0

    def test_m2_budget_is_loose_bound_on_mean(self):
        plan, stats = self.budgeted_trials(problem(1024, 2, delta=0.01), 20000, 17)
        expected_mean = expected_budgeted_runs(plan, 2)
        assert expected_mean == pytest.approx(1 + 1.984375, rel=1e-12)
        assert stats.mean_runs == pytest.approx(expected_mean, abs=0.05)
        assert stats.mean_runs < plan.total_runs_budget
        assert plan.total_runs_budget == 8
        assert stats.overall_success_rate == pytest.approx(
            exact_overall_success(plan, 2), abs=0.005
        )

    def test_m10_mean_tracks_exact_expectation(self):
        plan, stats = self.budgeted_trials(problem(1024, 10, delta=0.01), 8000, 29)
        expected_mean = expected_budgeted_runs(plan, 10)
        assert stats.mean_runs == pytest.approx(expected_mean, rel=0.03)
        assert stats.mean_runs < plan.total_runs_budget


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
