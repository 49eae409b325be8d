import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recallsearch import analytics
from recallsearch.analytics import BLOCK, step_budget, step_budgets
from recallsearch.driver import (
    OVERALL,
    PER_STEP,
    Budgeted,
    IdealSampler,
    QuantumSampler,
    Unbounded,
    build_plan,
    execute_trial,
    resolve_step_delta,
)
from recallsearch.montecarlo import trial_stream
from recallsearch.search import (
    FULL,
    ProblemInstance,
    derive_search_params,
    final_state,
    measure,
)
from test_search import uniform_state

SRC = Path(__file__).resolve().parents[1] / "src"

def brute_force_budget(m, i, delta):
    """Smallest r with ((i-1)/m)^r <= delta, by linear scan."""
    if i == 1:
        return 1
    p = (i - 1) / m
    r = 1
    while p**r > delta:
        r += 1
    return r


def problem(n, m, delta=0.01):
    return ProblemInstance(n_states=n, marked=tuple(range(m)), delta=delta)


class TestStepBudget:
    def test_first_step_is_always_one(self):
        for m in (1, 2, 17, 1000):
            for delta in (0.5, 0.01, 1e-6):
                assert step_budget(m, 1, delta) == 1

    def test_known_values(self):
        assert step_budget(2, 2, 0.01) == 7
        assert step_budget(2, 2, 0.01) == brute_force_budget(2, 2, 0.01)
        assert step_budget(1000, 1000, 0.01) == 4603
        assert step_budget(1000, 1000, 0.01) == brute_force_budget(1000, 1000, 0.01)

    def test_exact_power_boundary(self):
        # (1/2)^2 equals 0.25 exactly; the bound is <=, so r = 2
        assert step_budget(4, 3, 0.25) == 2

    def test_subnormal_delta(self):
        # 1/delta overflows to inf below ~5.6e-309; the budget must not
        for m, i, delta in [(2, 2, 1e-310), (1000, 500, 5e-324), (10**9, 2, 1e-309)]:
            assert step_budget(m, i, delta) == brute_force_budget(m, i, delta)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=400),
        data=st.data(),
    )
    def test_matches_brute_force(self, m, data):
        i = data.draw(st.integers(min_value=2, max_value=m))
        delta = data.draw(
            st.floats(min_value=1e-9, max_value=0.99, allow_nan=False)
        )
        assert step_budget(m, i, delta) == brute_force_budget(m, i, delta)

    def test_seed_does_not_crawl_near_i_equal_m(self):
        # ln m - ln(i - 1) cancels near i = m: seeded from it, this budget
        # takes about 1e10 nudges
        script = ("from recallsearch.analytics import step_budget\n"
                  "print(step_budget(10**12, 10**12, 0.01))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert done.stdout == "4605272062526\n", done.stderr

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=10**12),
        at=st.sampled_from(["2", "m // 2", "m - 1", "m"]),
        delta=st.floats(min_value=5e-324, max_value=1 - 2**-53),
    )
    @example(m=10**12, at="m", delta=5e-324)
    @example(m=10**12, at="m - 1", delta=1 - 2**-53)
    def test_meets_the_definition_up_to_m_1e12(self, m, at, delta):
        # m <= 1e12 keeps r < 2**53, where p**r is exact in r
        i = {"2": 2, "m // 2": m // 2, "m - 1": m - 1, "m": m}[at]
        r, p = step_budget(m, i, delta), (i - 1) / m
        assert p**r <= delta
        assert r == 1 or p ** (r - 1) > delta

    def test_rejects_a_step_whose_p_rounds_to_one(self):
        # (i-1)/m rounds to 1.0 at i = m from m = 2**54: no finite r exists
        for m in (2**54, 2**54 + 7):
            with pytest.raises(ValueError, match=f"m={m}"):
                step_budget(m, m, 0.01)
        m = 2**54 - 1  # the largest m with (m-1)/m below 1
        r, p = step_budget(m, m, 0.01), (m - 1) / m
        assert p < 1.0
        assert p**r <= 0.01 < p ** (r - 1)

    def test_rejects_bad_step_index(self):
        with pytest.raises(ValueError, match="step index"):
            step_budget(5, 0, 0.1)
        with pytest.raises(ValueError, match="step index"):
            step_budget(5, 6, 0.1)

    def test_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError, match="delta"):
                step_budget(5, 2, bad)


def scalar_budgets(m, delta):
    return [step_budget(m, i, delta) for i in range(1, m + 1)]


def nudge(x, ulps):
    """x moved by `ulps` float steps (down when negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, 0.0 if ulps < 0 else 1.0)
    return x


# per-step tolerances spread evenly in log10 from subnormal to just below 1
LOG_DELTAS = st.floats(min_value=-320.0, max_value=-1e-15).map(lambda e: 10.0**e)
DELTAS = st.one_of(LOG_DELTAS, st.floats(min_value=5e-324, max_value=1 - 2**-53),
                   st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 1 - 2**-53]))


class TestStepBudgets:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(min_value=1, max_value=20_000), delta=DELTAS)
    @example(m=20_000, delta=1e-320)
    @example(m=20_000, delta=1 - 2**-53)
    def test_equal_scalar_budgets(self, m, delta):
        assert list(step_budgets(m, delta)) == scalar_budgets(m, delta)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(min_value=2, max_value=3 * BLOCK), data=st.data())
    def test_equal_scalar_budgets_where_a_power_lands_near_delta(self, m, data):
        # delta on or a few ulps from p**r for one step, including subnormal p**r
        i = data.draw(st.integers(min_value=2, max_value=m))
        r = data.draw(st.integers(min_value=1, max_value=200_000))
        delta = nudge(((i - 1) / m) ** r, data.draw(st.integers(min_value=-3, max_value=3)))
        assume(0.0 < delta < 1.0)
        assert list(step_budgets(m, delta)) == scalar_budgets(m, delta)

    @pytest.mark.parametrize("log_delta", [-2.0, -300.0, -709.0, -712.0])
    def test_equal_scalar_budget_where_delta_is_a_power(self, log_delta):
        # For every step i, delta on or one ulp from p**r at the r where
        # p**r first falls near exp(log_delta). numpy's power differs from
        # Python's ** in the last ulp for some of these, which puts the two
        # on opposite sides of delta; at -712 p**r is subnormal.
        m = 1000
        for i in range(2, m + 1):
            p = (i - 1) / m
            base = p ** max(math.ceil(log_delta / math.log(p)), 1)
            for ulps in (-1, 0, 1):
                delta = nudge(base, ulps)
                if 0.0 < delta < 1.0:
                    assert step_budgets(m, delta)[i - 1] == step_budget(m, i, delta)

    @pytest.mark.parametrize("m", [21_994, 49_153, 3 * BLOCK + 1])
    def test_equal_scalar_budget_where_delta_is_a_power_near_k_equal_m(self, m):
        # p = fl(k/m) rounds by up to 2**-54 near k = m, which moves ln(1/p)
        # by up to m * 2**-54 relative to ln(m/k): a band of 2**-40 relative
        # around the log-space estimate misses it and returns r + 1 here
        for j in (1, 2, 5):
            k = m - j
            p = k / m
            for r in (m // 2, 3 * m, 7 * m + 11):
                for ulps in (-1, 0, 1):
                    delta = nudge(p**r, ulps)
                    assert step_budgets(m, delta)[k] == step_budget(m, k + 1, delta)

    @pytest.mark.parametrize("delta,most", [(1e-320, 5000), (1 - 2**-53, 100)])
    def test_scalar_fallback_count(self, delta, most, monkeypatch):
        # the band is about ln(1 + 2**-1073/delta) / ln(m/k) wide, so the
        # scalar is rare unless delta is subnormal (0.01: see the test
        # below); at 5e-324 it is ln 3 wide and nearly every step needs it
        calls = []

        def counted(m, i, delta):
            calls.append(i)
            return step_budget(m, i, delta)

        monkeypatch.setattr(analytics, "step_budget", counted)
        budgets = step_budgets(100_000, delta)
        assert len(calls) < most
        monkeypatch.undo()
        assert list(budgets) == scalar_budgets(100_000, delta)

    def test_subnormal_delta_takes_few_nudges(self, monkeypatch):
        # p**r rounds to 5e-324 up to p**r = 1.5 * 5e-324; seeded from delta
        # alone, the steps near i = m were about 0.4 * m nudges off, each one
        # a numpy power over the whole block
        power, calls = np.power, []
        monkeypatch.setattr(np, "power", lambda *a, **kw: (calls.append(1), power(*a, **kw))[1])
        assert step_budgets(20_000, 5e-324) == tuple(scalar_budgets(20_000, 5e-324))
        assert len(calls) < 20

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(min_value=1, max_value=3 * BLOCK + 2),
           delta=st.one_of(st.sampled_from([5e-324, 1e-320, 1e-300, 0.5, 1 - 2**-53]), DELTAS))
    @example(m=3 * BLOCK + 2, delta=5e-324)
    @example(m=3 * BLOCK + 2, delta=1 - 2**-53)
    def test_budgets_never_decrease(self, m, delta):
        budgets = step_budgets(m, delta)
        assert all(a <= b for a, b in zip(budgets, budgets[1:]))
        # steps i = jB + 1 and jB + 2 end one block of k = i - 1 and start the next
        edges = {1, 2, m} | {i for j in range(1, 4) for i in (j * BLOCK + 1, j * BLOCK + 2)}
        for i in sorted(e for e in edges if e <= m):
            assert budgets[i - 1] == step_budget(m, i, delta)

    def test_blocks_at_block_boundaries(self):
        for m in (1, 2, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1):
            assert step_budgets(m, 0.01) == tuple(scalar_budgets(m, 0.01))

    def test_scalar_fallback_is_rare(self, monkeypatch):
        calls = []

        def counted(m, i, delta):
            calls.append(i)
            return step_budget(m, i, delta)

        monkeypatch.setattr(analytics, "step_budget", counted)
        budgets = step_budgets(100_000, 0.01)
        assert len(budgets) == 100_000 and budgets[-1] == 460_515
        # a few steps do reach the scalar: a counter that sees none is
        # patched where the kernel does not look
        assert 0 < len(calls) < 100

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="m must be"):
            step_budgets(0, 0.1)
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError, match="delta"):
                step_budgets(5, bad)


class TestBuildPlan:
    def test_single_marked(self):
        prob = problem(16, 1)
        plan = build_plan(prob, derive_search_params(prob))
        assert plan.budgets == (1,)
        assert plan.total_runs_budget == 1

    def test_m2_n1024(self):
        prob = problem(1024, 2, delta=0.01)
        plan = build_plan(prob, derive_search_params(prob))
        assert plan.budgets == (1, 7)
        assert plan.queries_per_run == 19
        assert plan.total_runs_budget == 8
        assert plan.total_queries_budget == 152

    def test_m3_budgets_match_direct_evaluation(self):
        prob = problem(64, 3, delta=0.01)
        plan = build_plan(prob, derive_search_params(prob))
        log100 = math.log(100)
        assert plan.budgets == (
            1,
            math.ceil(log100 / math.log(3)),
            math.ceil(log100 / math.log(1.5)),
        )
        assert plan.budgets == (1, 5, 12)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=120),
        delta=st.floats(min_value=1e-6, max_value=0.9, allow_nan=False),
    )
    def test_budgets_start_at_one_and_never_decrease(self, m, delta):
        prob = problem(256, m, delta=delta)
        plan = build_plan(prob, derive_search_params(prob))
        assert plan.budgets[0] == 1
        assert all(a <= b for a, b in zip(plan.budgets, plan.budgets[1:]))
        assert plan.total_runs_budget == sum(plan.budgets)

    def test_rejects_foreign_params(self):
        with pytest.raises(ValueError, match="derived"):
            build_plan(problem(64, 4), derive_search_params(problem(64, 5)))


class TestResolveStepDelta:
    def test_per_step_is_identity(self):
        assert resolve_step_delta(0.05, 10, PER_STEP) == 0.05

    def test_overall_conversion(self):
        expected = 1.0 - (1.0 - 0.05) ** (1.0 / 9.0)
        assert resolve_step_delta(0.05, 10, OVERALL) == pytest.approx(
            expected, rel=1e-15
        )
        # joint success over the 9 retry steps recovers the target
        per_step = resolve_step_delta(0.05, 10, OVERALL)
        assert (1.0 - per_step) ** 9 == pytest.approx(0.95, rel=1e-12)

    def test_single_marked_needs_no_conversion(self):
        assert resolve_step_delta(0.3, 1, OVERALL) == 0.3

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            resolve_step_delta(0.1, 5, "joint")

    def test_overall_matches_50_digit_reference(self):
        mpmath.mp.dps = 50
        for m in (2, 3, 10, 1000, 10**6, 10**8):
            for delta in (0.5, 0.05, 1e-6, 1e-12, 1e-17, 1e-100, 1e-300):
                got = resolve_step_delta(delta, m, OVERALL)
                d = mpmath.mpf(delta)
                exact = -mpmath.expm1(mpmath.log1p(-d) / (m - 1))
                # 1e-300 / 1e8 is subnormal, which keeps ~2^-51 relative precision
                assert abs(got - exact) <= 1e-14 * exact, (m, delta)

    def test_overall_underflow_is_an_error(self):
        with pytest.raises(ValueError, match="underflows"):
            resolve_step_delta(1e-320, 10**6, OVERALL)


class TestExecuteTrial:
    def test_single_marked_takes_one_run(self):
        prob = problem(16, 1)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        outcome = execute_trial(
            prob, IdealSampler(prob, params), Budgeted(plan), trial_stream(3, 0)
        )
        assert outcome.success
        assert outcome.runs_used == 1
        assert outcome.found_order == tuple(prob.marked)
        assert outcome.failed_at_step is None

    def test_queries_equal_runs_times_price(self):
        prob = problem(64, 4, delta=0.05)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        for t in range(20):
            outcome = execute_trial(
                prob, IdealSampler(prob, params), Budgeted(plan), trial_stream(8, t)
            )
            assert outcome.queries_used == outcome.runs_used * plan.queries_per_run
            if outcome.success:
                assert outcome.runs_used >= 4

    def test_budgeted_reports_failures_honestly(self):
        # delta = 0.9 gives step 2 a single-run budget: it fails half the time
        prob = problem(8, 2, delta=0.9)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        assert plan.budgets == (1, 1)
        sampler = IdealSampler(prob, params)
        outcomes = [
            execute_trial(prob, sampler, Budgeted(plan), trial_stream(21, t))
            for t in range(400)
        ]
        failures = [o for o in outcomes if not o.success]
        wins = [o for o in outcomes if o.success]
        assert failures and wins
        for o in failures:
            assert o.failed_at_step == 2
            assert o.runs_used == 2
            assert len(o.found_order) == 1
        for o in wins:
            assert sorted(o.found_order) == sorted(prob.marked)

    def test_unbounded_always_succeeds(self):
        prob = problem(32, 6, delta=0.5)
        params = derive_search_params(prob)
        sampler = IdealSampler(prob, params)
        for t in range(50):
            outcome = execute_trial(prob, sampler, Unbounded(), trial_stream(13, t))
            assert outcome.success
            assert outcome.runs_used >= 6
            assert sorted(outcome.found_order) == sorted(prob.marked)

    def test_rejects_sampler_for_other_problem(self):
        prob = problem(16, 2)
        other = problem(16, 3)
        sampler = IdealSampler(other, derive_search_params(other))
        plan = build_plan(prob, derive_search_params(prob))
        with pytest.raises(ValueError, match="different problem"):
            execute_trial(prob, sampler, Budgeted(plan), trial_stream(0, 0))

    def test_rejects_mismatched_plan(self):
        prob = problem(16, 2)
        other = problem(16, 3)
        params = derive_search_params(prob)
        plan_other = build_plan(other, derive_search_params(other))
        with pytest.raises(ValueError, match="plan"):
            execute_trial(
                prob, IdealSampler(prob, params), Budgeted(plan_other), trial_stream(0, 0)
            )

    def test_rejects_unknown_strategy(self):
        prob = problem(16, 2)
        params = derive_search_params(prob)
        with pytest.raises(ValueError, match="strategy"):
            execute_trial(prob, IdealSampler(prob, params), "greedy", trial_stream(0, 0))

    def test_deterministic_given_stream(self):
        prob = problem(64, 5, delta=0.05)
        params = derive_search_params(prob)
        plan = build_plan(prob, params)
        sampler = IdealSampler(prob, params)
        a = execute_trial(prob, sampler, Budgeted(plan), trial_stream(77, 4))
        b = execute_trial(prob, sampler, Budgeted(plan), trial_stream(77, 4))
        assert a == b


class TestSamplers:
    def test_ideal_draws_only_marked(self):
        prob = ProblemInstance(n_states=64, marked=(9, 30, 41), delta=0.1)
        sampler = IdealSampler(prob, derive_search_params(prob))
        rng = trial_stream(1, 0)
        assert all(sampler.draw(rng) in prob.marked for _ in range(300))

    def test_quantum_draws_only_marked(self):
        prob = ProblemInstance(n_states=16, marked=(2, 7, 11), delta=0.1)
        sampler = QuantumSampler(prob, derive_search_params(prob))
        rng = trial_stream(2, 0)
        assert all(sampler.draw(rng) in prob.marked for _ in range(300))

    def test_cached_cdf_draws_equal_measure_draws(self):
        # one state measured repeatedly (its CDF cached) draws what a fresh
        # state per measurement (its CDF built anew) draws
        prob = ProblemInstance(n_states=2**10, marked=(3, 500, 1023), delta=0.1)
        params = derive_search_params(prob)
        sampler = QuantumSampler(prob, params, FULL)
        rng_a, rng_b = trial_stream(5, 1), trial_stream(5, 1)
        draws = [sampler.draw(rng_a) for _ in range(500)]
        assert draws == [measure(final_state(prob, params, FULL), prob, rng_b)
                         for _ in range(500)]
        assert set(draws) <= set(prob.marked)
        # a spread-out state, where a wrong CDF index would show
        uniform = uniform_state(prob, FULL)
        rng_a, rng_b = trial_stream(6, 2), trial_stream(6, 2)
        cached = [measure(uniform, prob, rng_a) for _ in range(500)]
        assert cached == [measure(uniform_state(prob, FULL), prob, rng_b)
                          for _ in range(500)]
        assert len(set(cached)) > 300

    def test_full_state_builds_its_cdf_once(self, monkeypatch):
        cumsum = np.cumsum
        calls = []
        monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
        prob = ProblemInstance(n_states=2**10, marked=(3, 500, 1023), delta=0.1)
        sampler = QuantumSampler(prob, derive_search_params(prob), FULL)
        rng = trial_stream(7, 0)
        for _ in range(200):
            sampler.draw(rng)
        assert len(calls) == 1
        uniform = uniform_state(prob, FULL)
        for _ in range(50):
            measure(uniform, prob, rng)
        assert len(calls) == 2

    def test_samplers_price_draws_identically(self):
        prob = problem(256, 4)
        params = derive_search_params(prob)
        ideal = IdealSampler(prob, params)
        quantum = QuantumSampler(prob, params)
        assert ideal.queries_per_draw == quantum.queries_per_draw == params.iterations
