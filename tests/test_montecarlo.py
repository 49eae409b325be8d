import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recallsearch import montecarlo
from recallsearch.analytics import total_runs_closed_form
from recallsearch.driver import (
    Budgeted,
    IdealSampler,
    QuantumSampler,
    Unbounded,
    _uniforms,
    build_plan,
    execute_trial,
)
from recallsearch.montecarlo import (
    PASS,
    TrialStats,
    _aggregate,
    chi_square_critical,
    chi_square_uniformity,
    run_trials,
    trial_stream,
    trial_words,
)
from recallsearch.search import (
    FULL,
    SUBSPACE,
    ProblemInstance,
    QuantumState,
    derive_search_params,
    final_state,
    marked_positions,
    measure_at,
    run_search_once,
)


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

    # The batch kernel, pinned draw kind by draw kind against a fresh
    # trial_stream, so a numpy change to Philox, integers or random fails
    # here rather than changing simulate's bytes.
    # The kernel folds rounds 0 and 1 and keys each row by a column: trial
    # keys near 2^64 wrap within the ten rounds, and first blocks reach 2^40.
    SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1, -1, -(2**63), 2**70, -(2**70)]),
                      st.integers(min_value=-(2**70), max_value=2**70))
    TRIALS = st.one_of(st.sampled_from([0, 1, 2**32, 2**40, 2**64 - 2, 2**64 - 1]),
                       st.integers(min_value=0, max_value=2**64 - 1))
    FIRSTS = st.one_of(st.integers(min_value=0, max_value=40),
                       st.sampled_from([2**32 - 1, 2**40]),
                       st.integers(min_value=0, max_value=2**40))

    @staticmethod
    def stream_words(seed, trial, first, blocks):
        """Blocks first + 1 to first + blocks of trial_stream(seed, trial)."""
        bit_generator = trial_stream(seed, trial).bit_generator
        bit_generator.advance(first)
        return bit_generator.random_raw(4 * blocks)

    @pytest.mark.parametrize("first", [0, 1, 5])
    def test_advance_skips_whole_blocks(self, first):
        raw = trial_stream(3, 2**64 - 1).bit_generator.random_raw(4 * (first + 4))
        assert np.array_equal(self.stream_words(3, 2**64 - 1, first, 4), raw[4 * first:])

    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, trial=TRIALS, first=FIRSTS, blocks=st.integers(min_value=1, max_value=12))
    @example(seed=0, trial=0, first=0, blocks=1)
    @example(seed=2**64 - 1, trial=2**40, first=3, blocks=5)
    @example(seed=-(2**63), trial=2**32, first=0, blocks=2)
    @example(seed=2**64 - 1, trial=2**64 - 1, first=2**40, blocks=3)
    @example(seed=-1, trial=2**64 - 2, first=2**32 - 1, blocks=2)
    def test_kernel_words_equal_random_raw(self, seed, trial, first, blocks):
        words = trial_words(seed, np.array([trial], np.uint64), np.array([first], np.uint64), blocks)
        assert words.shape == (1, 4 * blocks)
        assert np.array_equal(words[0], self.stream_words(seed, trial, first, blocks))

    def test_kernel_rows_are_independent_trials(self):
        trials = np.array([5, 0, 2**40, 5], np.uint64)
        starts = np.array([0, 2, 1, 3], np.uint64)
        words = trial_words(-7, trials, starts, 3)
        for row, (t, b) in enumerate(zip(trials.tolist(), starts.tolist())):
            raw = trial_stream(-7, t).bit_generator.random_raw(4 * (b + 3))
            assert np.array_equal(words[row], raw[4 * b:])

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS,
           rows=st.lists(st.tuples(TRIALS, FIRSTS), min_size=2, max_size=6,
                         unique_by=(lambda row: row[0], lambda row: row[1])),
           blocks=st.integers(min_value=1, max_value=300))
    @example(seed=2**64 - 1, rows=[(2**64 - 1, 2**40), (0, 0), (2**64 - 2, 7)], blocks=300)
    def test_kernel_rows_equal_random_raw(self, seed, rows, blocks):
        trials, firsts = (np.array(column, np.uint64) for column in zip(*rows))
        words = trial_words(seed, trials, firsts, blocks)
        assert words.shape == (len(rows), 4 * blocks)
        for row, (trial, first) in enumerate(rows):
            assert np.array_equal(words[row], self.stream_words(seed, trial, first, blocks))

    # m = 3 * 2**30 rejects about a quarter of the halves
    @pytest.mark.parametrize("m", [1, 2, 3, 200, 2**20 - 1, 2**20, 3 * 2**30])
    @pytest.mark.parametrize("seed,trial", [(0, 0), (2**64 - 1, 5), (-1, 2**40),
                                            (-(2**63), 7), (2**70, 3), (-(2**70), 2**40 - 1)])
    def test_ideal_positions_equal_integers(self, m, seed, trial):
        prob = ProblemInstance(n_states=m + 1, marked=range(m), delta=0.5)
        sampler = IdealSampler(prob, derive_search_params(prob))
        words = trial_words(seed, np.array([trial], np.uint64), np.zeros(1, np.uint64), 100)
        drawn = sampler.draw_block(words)[0]
        rng = trial_stream(seed, trial)
        expected = [int(rng.integers(m)) for _ in range(300)]
        assert drawn[drawn != -2][:300].tolist() == expected
        if m == 3 * 2**30:
            assert 0.2 < np.mean(drawn == -2) < 0.3

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, trial=TRIALS)
    @example(seed=-(2**70), trial=2**40)
    def test_uniforms_equal_random(self, seed, trial):
        words = trial_words(seed, np.array([trial], np.uint64), np.zeros(1, np.uint64), 8)
        rng = trial_stream(seed, trial)
        assert _uniforms(words[0]).tolist() == [rng.random() for _ in range(32)]

    def test_run_trials_equals_a_fresh_stream_per_trial(self):
        prob = ProblemInstance(n_states=64, marked=(3, 9, 20, 41, 63), delta=0.2)
        params = derive_search_params(prob)
        sampler, strategy = QuantumSampler(prob, params), Budgeted(build_plan(prob, params))
        outcomes = [execute_trial(prob, sampler, strategy, trial_stream(-3, t)) for t in range(300)]
        assert run_trials(prob, strategy, sampler, 300, -3) == _aggregate(prob, outcomes, -3)


def oracle(prob, strategy, sampler, n_trials, seed):
    """run_trials' definition: execute_trial on a fresh stream per trial."""
    outcomes = [execute_trial(prob, sampler, strategy, trial_stream(seed, t))
                for t in range(n_trials)]
    return _aggregate(prob, outcomes, seed)


def positions_of(prob, indices):
    return [prob.marked.index(i) if i in prob.marked else -1 for i in indices]


class TestBatchEngine:
    """run_trials against the scalar reference, trial for trial."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 256]),
        m=st.sampled_from([1, 2, 5, 13, "N"]),
        scattered=st.booleans(),
        delta=st.sampled_from([1 - 2**-53, 0.9, 0.3, 0.01, 1e-300]),
        budgeted=st.booleans(),
        sampler_kind=st.sampled_from(["ideal", FULL, SUBSPACE]),
        n_trials=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        pass_size=st.sampled_from([16, 64, 512, PASS, 2 * PASS]),
    )
    @example(n=64, m="N", scattered=False, delta=0.3, budgeted=True,
             sampler_kind=FULL, n_trials=3, seed=1, pass_size=PASS)
    @example(n=16, m=1, scattered=True, delta=0.01, budgeted=False,
             sampler_kind="ideal", n_trials=20, seed=-1, pass_size=16)
    @example(n=256, m=13, scattered=True, delta=1 - 2**-53, budgeted=True,
             sampler_kind=SUBSPACE, n_trials=150, seed=2**64, pass_size=64)
    # passes of 128 trials at the real PASS, each trial in 2-4 of them
    @example(n=256, m=200, scattered=False, delta=1e-3, budgeted=True,
             sampler_kind="ideal", n_trials=150, seed=2**64 - 1, pass_size=PASS)
    @example(n=256, m=200, scattered=True, delta=0.05, budgeted=False,
             sampler_kind="ideal", n_trials=150, seed=-5, pass_size=PASS)
    # the benchmark's simulate shape: every trial starts in the first pass
    @example(n=256, m=200, scattered=False, delta=0.05, budgeted=True,
             sampler_kind="ideal", n_trials=100, seed=12345, pass_size=PASS)
    def test_run_trials_equals_execute_trial(self, n, m, scattered, delta, budgeted,
                                             sampler_kind, n_trials, seed, pass_size):
        if m == "N":  # every state marked: runs of zero iterations
            n = m = 16
        marked = tuple(range(n - 1, -1, -(n // m)))[:m] if scattered else range(n - m, n)
        prob = ProblemInstance(n_states=n, marked=marked, delta=delta)
        params = derive_search_params(prob)
        if sampler_kind == "ideal":
            sampler = IdealSampler(prob, params)
        else:
            sampler = QuantumSampler(prob, params, sampler_kind)
        strategy = Budgeted(build_plan(prob, params)) if budgeted else Unbounded()
        expected = oracle(prob, strategy, sampler, n_trials, seed)
        with pytest.MonkeyPatch.context() as patch:
            # a small PASS makes passes of few trials, and trials of many passes
            patch.setattr(montecarlo, "PASS", pass_size)
            assert run_trials(prob, strategy, sampler, n_trials, seed) == expected

    @staticmethod
    def new_states_oracle(keys, seen):
        """_new_states' definition, entry by entry: -2 is no draw, -1 an
        unmarked one, and a position is new the first time its row draws it."""
        rows, at, drawn = [], [], []
        for r, (row_keys, row_seen) in enumerate(zip(keys, seen)):
            draws = 0
            for key in row_keys:
                if key == -2:
                    continue
                draws += 1
                if key >= 0 and not row_seen[key]:
                    row_seen[key] = True
                    rows.append(r)
                    at.append(draws)
            drawn.append(draws)
        return rows, at, drawn, seen

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(min_value=1, max_value=6),
           m=st.integers(min_value=1, max_value=40), log_width=st.integers(min_value=0, max_value=7))
    # a table shorter than the draws, and one longer; neither has a -2
    @example(data=None, rows=3, m=5, log_width=4)
    @example(data=None, rows=2, m=40, log_width=3)
    def test_new_states_equal_first_occurrences(self, data, rows, m, log_width):
        width = 2**log_width
        if data is None:  # the examples: every row draws 0, 1, ..., -1, 0, 1, ...
            keys = [[c % (m + 1) - 1 for c in range(width)] for _ in range(rows)]
            seen = [[p % 3 == 0 for p in range(m)] for _ in range(rows)]
        else:
            keys = data.draw(st.lists(st.lists(st.integers(min_value=-2, max_value=m - 1),
                                               min_size=width, max_size=width),
                                      min_size=rows, max_size=rows))
            seen = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                      min_size=rows, max_size=rows))
        want_rows, want_at, want_drawn, want_seen = self.new_states_oracle(
            keys, [list(row) for row in seen])
        first = np.full(rows * m + 5, PASS, np.int32)  # the scratch may be longer
        got_seen = np.array(seen, bool).reshape(rows, m)
        row, at, drawn = montecarlo._new_states(np.array(keys, np.int64), got_seen, first)
        assert row.tolist() == want_rows and at.tolist() == want_at
        assert np.broadcast_to(drawn, rows).tolist() == want_drawn
        assert got_seen.tolist() == want_seen
        assert (first == PASS).all()

    def test_kernel_leaves_its_inputs(self):
        # it works in place, and run_trials reuses both arrays across passes
        trials = np.array([3, 2**64 - 1, 0], np.uint64)
        first = np.array([0, 7, 2**40], np.uint64)
        trial_words(11, trials, first, 5)
        assert trials.tolist() == [3, 2**64 - 1, 0] and first.tolist() == [0, 7, 2**40]

    @pytest.mark.parametrize("rep", [FULL, SUBSPACE])
    @pytest.mark.parametrize("marked", [range(40, 45), (63, 2, 17, 40)], ids=["range", "tuple"])
    def test_marked_positions_equal_measure_at(self, rep, marked):
        prob = ProblemInstance(n_states=64, marked=marked, delta=0.1)
        params = derive_search_params(prob)
        share = len(marked) / 64
        uniform = np.full(64, 0.125) if rep == FULL else [math.sqrt(share), math.sqrt(1 - share)]
        # the uniform state draws mostly unmarked indices
        for state in (final_state(prob, params, rep), QuantumState(rep, uniform)):
            p = float(abs(state.amplitudes[0]) ** 2)
            u = np.concatenate((np.linspace(0.0, 1.0 - 2**-53, 2001),
                                [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]))
            expected = positions_of(prob, [measure_at(state, prob, x) for x in u.tolist()])
            assert marked_positions(state, prob, u).tolist() == expected

    def test_ideal_blocks_stop_at_2_pow_32(self):
        # (x m) >> 32 of a 32-bit half needs m <= 2**32; integers(m) takes 64 bits above
        for m, ok in ((2**32, True), (2**32 + 1, False)):
            prob = ProblemInstance(n_states=2**33, marked=range(m), delta=0.5)
            sampler = IdealSampler(prob, derive_search_params(prob))
            words = trial_words(3, np.array([1], np.uint64), np.zeros(1, np.uint64), 2)
            if ok:
                rng = trial_stream(3, 1)
                assert sampler.draw_block(words)[0].tolist() == [
                    int(rng.integers(m)) for _ in range(16)]
            else:
                with pytest.raises(ValueError, match="m <= 2\\*\\*32"):
                    sampler.draw_block(words)

    def test_rejects_what_execute_trial_rejects(self):
        prob = problem(64, 4)
        params = derive_search_params(prob)
        sampler = IdealSampler(prob, params)
        other = problem(64, 5)
        with pytest.raises(ValueError, match="different problem"):
            run_trials(other, Unbounded(), sampler, 5, 1)
        plan = build_plan(other, derive_search_params(other))
        with pytest.raises(ValueError, match="plan does not match"):
            run_trials(prob, Budgeted(plan), sampler, 5, 1)
        with pytest.raises(ValueError, match="unknown strategy"):
            run_trials(prob, "greedy", sampler, 5, 1)

    def test_simulate_never_imports_numpy_random(self):
        # numpy.random costs about 6 MB resident, and simulate needs none of it
        script = (
            "import sys\n"
            "from recallsearch import cli\n"
            "for args in ('--sampler ideal', '--sampler ideal --strategy unbounded',\n"
            "             '--sampler quantum --representation full',\n"
            "             '--sampler quantum --representation subspace --strategy unbounded',\n"
            "             '--sampler quantum --representation subspace',\n"
            "             '--sampler quantum --representation full --strategy unbounded'):\n"
            "    code = cli.run_command(cli.parse_config(\n"
            "        ['simulate', '--n', '256', '--m', '5', '--delta', '0.05', '--trials', '50']\n"
            "        + args.split()))\n"
            "    assert code == 0, args\n"
            "print('numpy.random' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True)
        assert done.stdout.splitlines()[-1] == "False"


def loop_trial_stats(m, fail_at, n, runs_total, queries_total, master_seed):
    """Independent oracle: the per-step rates step by step, in Python floats."""
    rates, errs, reached = [], [], n
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
        n_trials=n, per_step_success_rate=tuple(rates), per_step_stderr=tuple(errs),
        mean_runs=runs_total / n, mean_queries=queries_total / n,
        overall_success_rate=(n - sum(fail_at[1:])) / n, master_seed=master_seed)


class TestTrialStats:
    @settings(max_examples=150, deadline=None)
    @given(failed=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=300),
           later=st.integers(min_value=0, max_value=5),
           runs=st.integers(min_value=0, max_value=2**40))
    @example(failed=[1, 2, 2], later=3, runs=7)
    def test_arrays_equal_the_loop(self, failed, later, runs):
        # each trial's failing step, 0 for a success, and `later` steps past
        # the last failure; the example's trials all fail by step 2 of 5, so
        # steps 3..5 are NaN
        m = max(max(failed) + later, 1)
        fail_at = np.bincount(failed, minlength=m + 1)
        want = loop_trial_stats(m, fail_at.tolist(), len(failed), runs, 3 * runs, -1)
        for counts in (fail_at, fail_at.tolist()):
            got = montecarlo._trial_stats(m, counts, len(failed), runs, 3 * runs, -1)
            assert repr(got) == repr(want)
            assert got == want


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

    @staticmethod
    def pass_peaks(*passes):
        """Peak traced memory of budgeted m = 50 runs of whole passes' worth of
        trials, one run for each count of passes."""
        prob = problem(1024, 50, delta=0.5)
        params = derive_search_params(prob)
        sampler, strategy = IdealSampler(prob, params), Budgeted(build_plan(prob, params))
        rows = []  # each pass's trials; no pass holds more than PASS // 8
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "trial_words", lambda seed, trials, *rest:
                          rows.append(trials.size) or trial_words(seed, trials, *rest))
            run_trials(prob, strategy, sampler, PASS // 8, 1)  # first-call allocations
        peaks = []
        for count in passes:
            tracemalloc.start()
            try:
                run_trials(prob, strategy, sampler, count * rows[0], 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_memory_does_not_grow_with_trials(self):
        # outcomes are folded as they come: 16 passes' worth of trials peak
        # within a few KiB of 2 (kept, each outcome would add a few hundred
        # bytes). Both counts fill whole passes, so that neither peak is a
        # partial pass's.
        peaks = self.pass_peaks(2, 16)
        assert peaks[1] < peaks[0] + 8 * 2**10

    def test_passes_release_their_arrays(self):
        # a pass's per-state arrays (8 bytes a new state, some hundreds of KB
        # at m = 50) are gone before the next pass's kernel, so refilled
        # passes peak as high as the first pass of a run that never refills
        one, many = self.pass_peaks(1, 16)
        assert abs(many - one) < 32 * 2**10

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
