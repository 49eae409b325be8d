import itertools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recallsearch import analytics
from recallsearch.analytics import (
    BLOCK,
    _limb_sums,
    _price_rows,
    compare_models,
    compare_table,
    duality_queries,
    f_of_delta_curve,
    f_of_m_curve,
    step_budget,
    total_runs_closed_form,
)
from test_driver import DELTAS


def direct_run_total(m, delta):
    """Independent oracle: plain left-to-right accumulation of the
    ln(1/delta)/ln(m/k) terms."""
    total = 1.0
    log_inv_delta = math.log(1.0 / delta)
    for k in range(1, m):
        total += log_inv_delta / math.log(m / k)
    return total


class TestTotalRuns:
    def test_single_marked_is_exactly_one(self):
        for delta in (0.5, 0.01, 1e-8):
            assert total_runs_closed_form(1, delta) == 1.0

    def test_m2(self):
        expected = 1.0 + math.log(100) / math.log(2)
        assert total_runs_closed_form(2, 0.01) == pytest.approx(expected, rel=1e-12)
        assert total_runs_closed_form(2, 0.01) == pytest.approx(7.6439, abs=1e-4)

    def test_m3(self):
        expected = 1.0 + math.log(100) / math.log(3) + math.log(100) / math.log(1.5)
        assert total_runs_closed_form(3, 0.01) == pytest.approx(expected, rel=1e-12)
        assert total_runs_closed_form(3, 0.01) == pytest.approx(16.549, abs=1e-3)

    def test_matches_direct_summation(self):
        rnd = random.Random(20240601)
        for _ in range(12):
            m = rnd.randint(2, 10_000)
            delta = rnd.uniform(1e-6, 0.9)
            got = total_runs_closed_form(m, delta)
            want = direct_run_total(m, delta)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_integer_budget_brackets_real_total(self):
        for m, delta in [(2, 0.01), (5, 0.1), (37, 0.001), (200, 0.5)]:
            r_real = total_runs_closed_form(m, delta)
            r_int = sum(step_budget(m, i, delta) for i in range(1, m + 1))
            assert r_int >= r_real - 1e-9
            assert r_int <= r_real + (m - 1) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=2000),
        d1=st.floats(min_value=1e-6, max_value=0.9, allow_nan=False),
        d2=st.floats(min_value=1e-6, max_value=0.9, allow_nan=False),
    )
    def test_affine_in_log_inverse_delta(self, m, d1, d2):
        c = sum(1.0 / math.log(m / k) for k in range(1, m))
        lhs = total_runs_closed_form(m, d1) - total_runs_closed_form(m, d2)
        rhs = (math.log(1 / d1) - math.log(1 / d2)) * c
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_strictly_increasing_in_m(self):
        values = [total_runs_closed_form(m, 0.01) for m in range(1, 301)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_delta(self):
        deltas = [0.001 + 0.02 * i for i in range(40)]
        values = [total_runs_closed_form(50, d) for d in deltas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="delta"):
            total_runs_closed_form(5, 1.5)
        with pytest.raises(ValueError, match="m must"):
            total_runs_closed_form(0, 0.1)


class TestTotalQueries:
    def test_single_marked_n4(self):
        report = compare_models(1, 4, 0.01)
        q_real, q_int = report.q_real, report.q_integer
        assert q_real == 2.0
        assert q_int == 2

    def test_m2_n1024(self):
        report = compare_models(2, 1024, 0.01)
        q_real, q_int = report.q_real, report.q_integer
        assert q_real == pytest.approx(total_runs_closed_form(2, 0.01) * 19, rel=1e-12)
        assert q_real == pytest.approx(145.23, abs=0.01)
        assert q_int == 8 * 19

    def test_all_marked_costs_nothing(self):
        report = compare_models(64, 64, 0.01)
        q_real, q_int = report.q_real, report.q_integer
        assert q_real == 0.0
        assert q_int == 0


class TestCurves:
    def test_f_of_m_first_point_and_monotone(self):
        table = f_of_m_curve(0.01, 1, 200, stride=1)
        assert table[0] == (1, 1.0)
        assert len(table) == 200
        values = [f for _, f in table]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_f_of_m_bitwise_consistency(self):
        table = dict(f_of_m_curve(0.01, 1, 200))
        assert table[200] == total_runs_closed_form(200, 0.01)

    def test_stride_pins_the_endpoint(self):
        table = f_of_m_curve(0.01, 1, 1000, stride=300)
        assert [m for m, _ in table] == [1, 301, 601, 901, 1000]

    def test_f_of_delta_constant_for_single_marked(self):
        table = f_of_delta_curve(1, 0.001, 0.5, 20)
        assert all(f == 1.0 for _, f in table)

    def test_f_of_delta_matches_pointwise_closed_form(self):
        table = f_of_delta_curve(137, 0.001, 0.5, 17)
        for delta, f in table:
            assert f == total_runs_closed_form(137, delta)

    def test_f_of_delta_affine_structure_m1000(self):
        table = dict(f_of_delta_curve(1000, 0.01, 0.5, 2))
        c_from_small = (table[0.01] - 1.0) / math.log(100)
        c_from_large = (table[0.5] - 1.0) / math.log(2)
        assert abs(c_from_small - c_from_large) <= 1e-9 * c_from_small

    def test_f_of_delta_strictly_decreasing(self):
        table = f_of_delta_curve(1000, 1e-5, 0.5, 50, spacing="log")
        deltas = [d for d, _ in table]
        values = [f for _, f in table]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_log_spacing_hits_endpoints(self):
        table = f_of_delta_curve(10, 1e-5, 0.5, 7, spacing="log")
        assert table[0][0] == pytest.approx(1e-5, rel=1e-12)
        assert table[-1][0] == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="m_min"):
            f_of_m_curve(0.01, 5, 4)
        with pytest.raises(ValueError, match="stride"):
            f_of_m_curve(0.01, 1, 10, stride=0)
        with pytest.raises(ValueError, match="delta_min"):
            f_of_delta_curve(10, 0.5, 0.1, 5)
        with pytest.raises(ValueError, match="spacing"):
            f_of_delta_curve(10, 0.1, 0.5, 5, spacing="geometric")


class TestDuality:
    def test_spot_values(self):
        assert duality_queries(1, 2) == 1.0
        assert duality_queries(4, 1024) == 32.0
        assert duality_queries(7, 7) == 0.0
        assert duality_queries(1024, 2**20) == 1024 * 10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            duality_queries(0, 4)
        with pytest.raises(ValueError):
            duality_queries(5, 4)


class TestCompareModels:
    def test_single_marked(self):
        report = compare_models(1, 1024, 0.01)
        assert report.r_real == 1.0
        assert report.r_integer == 1
        assert report.q_integer == report.queries_per_run

    def test_m2_n1024_ratio(self):
        report = compare_models(2, 1024, 0.01)
        assert report.q_duality == 18.0
        assert report.quantum_to_duality_ratio == pytest.approx(
            report.q_real / 18.0, rel=1e-15
        )
        assert report.quantum_to_duality_ratio == pytest.approx(8.07, abs=0.01)

    def test_all_marked_has_no_ratio(self):
        report = compare_models(16, 16, 0.1)
        assert report.q_duality == 0.0
        assert report.quantum_to_duality_ratio is None

    def test_report_invariants(self):
        for m, n, delta in [(1, 64, 0.1), (5, 256, 0.01), (100, 4096, 0.001)]:
            report = compare_models(m, n, delta)
            assert report.r_integer >= report.r_real - 1e-9
            assert report.r_real >= 1.0
            assert (report.r_real == 1.0) == (m == 1)
            assert report.q_integer == report.r_integer * report.queries_per_run

    def test_large_n_scan_shapes(self):
        # N = 2^20: quantum cost is eventually increasing in m, while the
        # per-state deletion cost log2(N/m) always decreases
        n = 2**20
        ms = list(range(1, 1025))
        q_real = []
        per_state_dual = []
        for m in ms:
            report = compare_models(m, n, 0.01)
            q_real.append(report.q_real)
            per_state_dual.append(report.q_duality / m)
        assert all(a > b for a, b in zip(per_state_dual, per_state_dual[1:]))
        rising_from = next(
            i
            for i in range(len(ms))
            if all(a < b for a, b in zip(q_real[i:], q_real[i + 1 :]))
        )
        assert rising_from < len(ms) - 1
        assert q_real[-1] > q_real[0]


def limb_sum(x):
    """_limb_sums of all 1..BLOCK values of x, bounded by its largest and
    smallest value, rounded once (half to even, as fsum rounds)."""
    top = math.frexp(x.max())[1]  # every x < 2**top
    low = max(math.frexp(x.min())[1] - 53, -1074)
    limb, rest = np.empty(len(x)), np.empty(len(x))
    return math.fsum(_limb_sums(x, top, low, [0], limb, rest)[0])


LENGTHS = st.sampled_from([1, 2, BLOCK - 1, BLOCK])
WIDTH = 53 - BLOCK.bit_length()  # bits a limb spans over BLOCK values


class TestExactSum:
    """The k-sum's exact limb loop (_limb_sums) against math.fsum."""

    @settings(max_examples=120, deadline=None)
    @given(values=st.lists(st.floats(min_value=5e-324, max_value=1e300),
                           min_size=1, max_size=40))
    def test_equals_fsum_on_any_positive_values(self, values):
        assert limb_sum(np.array(values, dtype=np.float64)) == math.fsum(values)

    @settings(max_examples=60, deadline=None)
    @given(
        n=LENGTHS,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        low=st.integers(min_value=-1074, max_value=900),
        span=st.integers(min_value=0, max_value=2000),
    )
    def test_equals_fsum_over_a_wide_exponent_range(self, n, seed, low, span):
        # mantissas at full precision, exponents spread over [low, low + span];
        # (1 + r) * 2**-1074 rounds to 1 or 2 units, never to zero
        rng = np.random.default_rng(seed)
        top = min(low + span, 1000)
        x = np.ldexp(1.0 + rng.random(n), rng.integers(low, top + 1, size=n))
        assert limb_sum(x) == math.fsum(x)

    def test_rounds_ties_to_even(self):
        # 1 + 2**-53 is halfway between 1 and its successor: fsum rounds to 1
        ones = np.array([1.0, 2.0**-53])
        assert limb_sum(ones) == math.fsum(ones) == 1.0
        up = np.array([1.0, 2.0**-53, 2.0**-105])
        assert limb_sum(up) == math.fsum(up) == math.nextafter(1.0, 2.0)

    # 4096..16386 sit around smaller block sizes: sums that end mid-block
    @pytest.mark.parametrize(
        "m", [2, 3, 4096, 4097, 4098, 8193, 16_384, 16_385, 16_386,
              BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 54_321]
    )
    def test_k_sum_equals_fsum_of_the_terms(self, m):
        k = np.arange(1, m, dtype=np.float64)
        assert _price_rows([m])[0] == [math.fsum(1.0 / np.log1p((m - k) / k))]

    def test_the_highest_grid_the_limbs_reach(self):
        # top 1008 at BLOCK puts the first grid at 2**970, C at 1.5 * 2**1022;
        # the subnormals make the remainder run down to 2**-1074
        rng = np.random.default_rng(7)
        x = np.ldexp(1.0 + rng.random(BLOCK), 1007)
        x[::3] = np.ldexp(1.0 + rng.random(len(x[::3])), -1060)
        assert limb_sum(x) == math.fsum(x)

    def test_all_subnormal_block(self):
        x = np.ldexp(np.random.default_rng(8).random(BLOCK), -1022)
        x = x[x > 0]
        assert limb_sum(x) == math.fsum(x)
        assert limb_sum(np.full(BLOCK, 5e-324)) == BLOCK * 5e-324

    def test_values_halfway_between_grid_points(self):
        # with top 1 and BLOCK values the first grid is 2**(1 - WIDTH): every
        # other value is an odd multiple of 2**-WIDTH, so each rounding is a tie
        rng = np.random.default_rng(9)
        x = np.ldexp(2.0 * rng.integers(0, 2 ** (WIDTH - 1), size=BLOCK) + 1.0, -WIDTH)
        x[0] = 1.75
        assert limb_sum(x) == math.fsum(x)
        assert limb_sum(np.array([1.5, 3 * 2.0**-51])) == math.fsum([1.5, 3 * 2.0**-51])

    def test_the_first_limb_at_its_bound(self):
        # BLOCK - 1 values below 1 give width w = 53 - (BLOCK - 1).bit_length()
        # and the grid 2**-w: the limb sums nearly 2**53 units of it when
        # BLOCK - 1 >= 2**(bit_length - 1), so one more bit of width would round
        w = 53 - (BLOCK - 1).bit_length()
        for seed in range(4):
            j = np.random.default_rng(seed).integers(1, 2**12, size=BLOCK - 1)
            x = 1.0 - np.ldexp(j.astype(np.float64), -(w + 1))
            assert limb_sum(x) == math.fsum(x)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_last_limb_at_its_bound(self, sign):
        # grid 2**(WIDTH - 51) from the top value 1.5 * 2**(2 WIDTH - 52); every
        # other remainder is 2**(WIDTH - 52) - 2**-52 (sign 1) or its negative,
        # so the last limb sums BLOCK - 1 values of nearly 2**WIDTH units of
        # 2**-52: close to 2**52
        x = np.full(BLOCK, 1.0 + 2.0 ** (WIDTH - 52) - sign * 2.0**-52)
        x[0] = 1.5 * 2.0 ** (2 * WIDTH - 52)
        assert limb_sum(x) == math.fsum(x)

    # each pair straddles a step of the limb width, 53 - n.bit_length()
    @pytest.mark.parametrize("n", [BLOCK // 2 - 1, BLOCK // 2, BLOCK - 1, BLOCK])
    def test_lengths_around_block(self, n):
        rng = np.random.default_rng(n)
        x = np.ldexp(1.0 + rng.random(n), rng.integers(-40, 41, size=n))
        assert limb_sum(x) == math.fsum(x)

    def test_k_sum_buffers_are_made_once_per_process(self, monkeypatch):
        # blocks of one row and blocks of several share one buffer, and
        # pricing them allocates no BLOCK-sized array
        blocks, reader = [], analytics.budget_term_blocks

        def recorded(*args):
            for block in reader(*args):
                blocks.append(block)
                yield block

        monkeypatch.setattr(analytics, "budget_term_blocks", recorded)
        tracemalloc.start()
        try:
            _price_rows([3 * BLOCK + 1])
            _price_rows([BLOCK // 2, 2, BLOCK, 3 * BLOCK // 2], 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < BLOCK * 8 // 4
        assert {len(pieces) > 1 for pieces, _, _ in blocks} == {False, True}
        _, terms, limb = analytics._BUFFERS[0]
        assert all(np.shares_memory(y, terms) for _, y, _ in blocks)
        assert all(np.shares_memory(u, limb) for _, _, u in blocks if u is not None)

    def test_fig1_curve_memory(self):
        tracemalloc.start()
        try:
            curve = f_of_m_curve(0.01, 1, 100_000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curve) == 1001
        assert peak < 2**20

    def test_compare_models_memory_does_not_grow_with_m(self):
        tracemalloc.start()
        try:
            report = compare_models(2_000_000, 2**40, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.r_integer >= report.r_real
        assert peak < 4 * 2**20


def budget_top(u, starts):
    """The bound _price_blocks takes on whole-number budgets u, in segments
    that begin at each index in starts: every u < 2**top, from each
    segment's last entry, its largest."""
    return math.frexp(max(u[e - 1] for e in [*starts[1:], len(u)]))[1]


def budget_sums(u, starts):
    """The segments' exact sums, as _price_blocks takes them: in place in u,
    on the grid 2**0."""
    top = budget_top(u, starts)
    return [sum(map(int, parts)) for parts in _limb_sums(u, top, 0, starts, np.empty(len(u)), u)]


def limb_loop_runs(u, starts):
    """Whether budget_sums(u, starts) cuts u into limbs before its last sum."""
    return budget_top(u, starts) > min(53 - len(u).bit_length(), 51)


class TestBudgetTotal:
    """Budget totals by the k-sum's limb loop (_limb_sums), exact as ints."""

    def test_sums_past_int64(self):
        # four budgets of 2**62 sum to 2**64, past int64
        rising = np.array([1.0, 1.0, 2.0] + [2.0**62] * 4)
        assert limb_loop_runs(rising, [0])
        assert budget_sums(rising.copy(), [0]) == [4 + 2**64]
        assert budget_sums(rising.copy(), [0, 3]) == [4, 2**64]
        assert budget_sums(np.full(BLOCK, 2.0**62), [0]) == [BLOCK * 2**62]
        assert budget_sums(np.full(4, 2.0**61), [0]) == [2**63]

    def test_whole_number_float_blocks(self):
        # BLOCK budgets just under 2**52 / BLOCK sum in one reduceat, with no
        # limb; two budgets of 2**53 - 1 would round to 2**54 in one
        budget = 2**52 // BLOCK - 1
        assert not limb_loop_runs(np.full(BLOCK, float(budget)), [0])
        assert budget_sums(np.full(BLOCK, float(budget)), [0]) == [BLOCK * budget]
        rising = np.array([1.0, 2.0**53 - 1, 2.0**53 - 1])
        assert int(np.add.reduceat(rising, [0])[0]) != 2**54 - 1
        assert limb_loop_runs(rising, [0])
        assert budget_sums(rising, [0]) == [2**54 - 1]
        both = np.array([3.0, 4.0, 2.0**53 - 1, 2.0**53 - 1])
        assert budget_sums(both, [0, 2]) == [7, 2**54 - 2]

    def test_limb_loop_on_large_budgets(self):
        budget = 2**62 // BLOCK - 1
        assert limb_loop_runs(np.full(BLOCK, float(budget)), [0])
        assert budget_sums(np.full(BLOCK, float(budget)), [0]) == [BLOCK * budget]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(min_value=1, max_value=2**53), min_size=1,
                               max_size=40), min_size=1, max_size=6),
        scale=st.integers(min_value=0, max_value=10),
    )
    def test_rising_segments_equal_int_sums(self, rows, scale):
        # whole-number floats to 2**63, each segment rising
        rows = [[v << scale for v in sorted(row)] for row in rows]
        starts = list(itertools.accumulate([0] + [len(row) for row in rows[:-1]]))
        u = np.array([float(v) for row in rows for v in row])
        assert budget_sums(u, starts) == [sum(row) for row in rows]

    def test_compare_models_totals_the_step_budgets(self):
        for m, delta in [(2, 0.01), (BLOCK + 2, 1e-300)]:
            expected = sum(step_budget(m, i, delta) for i in range(1, m + 1))
            assert compare_models(m, 2**40, delta).r_integer == expected


class TestOnePass:
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(min_value=1, max_value=3 * BLOCK + 1), delta=DELTAS)
    @example(m=3 * BLOCK + 1, delta=1e-320)
    @example(m=BLOCK + 2, delta=1 - 2**-53)
    @example(m=2 * BLOCK + 1, delta=5e-324)
    def test_budgets_and_run_total_from_one_pass(self, m, delta):
        # compare_models reads the budgets off the k-sum's own terms
        report = compare_models(m, 2**40, delta)
        assert report.r_integer == sum(step_budget(m, i, delta) for i in range(1, m + 1))
        assert report.r_real == total_runs_closed_form(m, delta)

    def test_no_numpy_power(self, monkeypatch):
        def power(*args, **kwargs):
            raise AssertionError("np.power called")

        monkeypatch.setattr(np, "power", power)
        for delta in (0.01, 1e-320, 1 - 2**-53):
            assert compare_models(BLOCK + 2, 2**40, delta).r_integer == sum(
                step_budget(BLOCK + 2, i, delta) for i in range(1, BLOCK + 3))


class TestConcurrentPricing:
    def test_threads_price_as_one(self):
        # the pricing buffers are shared: a thread's call must not write into
        # another's blocks. Errors are collected, since a thread's exception
        # (or pytest's RuntimeWarning filter there) would not fail the test.
        ms, delta = range(70_000, 150_000, 2_000), 0.01

        def price():
            return [(total_runs_closed_form(m, delta), compare_models(m, 2**40, delta))
                    for m in ms]

        serial = price()
        results, errors = [None, None], []

        def run(t):
            try:
                results[t] = price()
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == [serial, serial]


def row_oracle(m, delta):
    """One row priced on its own: math.fsum of its terms, made with the same
    numpy formula, and the scalar budgets' sum."""
    k = np.arange(1, m, dtype=np.float64)
    return math.fsum(1.0 / np.log1p((m - k) / k)), sum(
        step_budget(m, i, delta) for i in range(1, m + 1))


ROW_LISTS = {
    "ones-and-twos": [1, 2, 1, 2, 2, 1],
    "many-tiny-rows": list(range(1, 200)) + [2] * 50,
    "around-block": [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2],
    "crossing-edges": [3, BLOCK - 1, 5, BLOCK + 2, 1, 2 * BLOCK + 3, 7, 2],
}


class TestPriceRows:
    @pytest.mark.parametrize("delta", [0.01, 1e-300, 1e-320, 1 - 2**-53])
    @pytest.mark.parametrize("ms", ROW_LISTS.values(), ids=ROW_LISTS.keys())
    def test_rows_equal_a_per_row_oracle(self, ms, delta):
        sums, runs = _price_rows(ms, delta)
        expected = [row_oracle(m, delta) for m in ms]
        assert sums == [c for c, _ in expected]
        assert runs == [r for _, r in expected]
        assert _price_rows(ms) == (sums, None)

    @settings(max_examples=25, deadline=None)
    @given(
        ms=st.lists(st.one_of(st.integers(min_value=1, max_value=60),
                              st.integers(min_value=BLOCK - 2, max_value=BLOCK + 2),
                              st.integers(min_value=1, max_value=2 * BLOCK)),
                    min_size=1, max_size=6),
        delta=DELTAS,
    )
    def test_any_row_list_equals_the_oracle(self, ms, delta):
        sums, runs = _price_rows(ms, delta)
        assert list(zip(sums, runs)) == [row_oracle(m, delta) for m in ms]

    def test_table_rows_equal_one_row_reports(self):
        ms = [5, 1, BLOCK + 7, 2, 300, 3 * BLOCK // 2]
        for delta in (0.01, 1e-320):
            assert compare_table(ms, 2**40, delta) == [
                compare_models(m, 2**40, delta) for m in ms]

    def test_curve_points_equal_one_row_totals(self):
        curve = f_of_m_curve(0.01, 1, 3 * BLOCK, 997)
        assert curve == [(m, total_runs_closed_form(m, 0.01)) for m, _ in curve]


@st.composite
def lane_rows(draw):
    """Row lists of at least LANE_TERMS k-sum terms: a few rows, and one
    more, placed anywhere, that makes up the rest."""
    ms = draw(st.lists(st.integers(min_value=1, max_value=2**19), max_size=5))
    short = analytics.LANE_TERMS - sum(m - 1 for m in ms)
    if short > 0:
        ms.insert(draw(st.integers(min_value=0, max_value=len(ms))), short + 1)
    return ms


class TestPricingLanes:
    # 5e-324 sends nearly every step to the scalar step_budget, in both
    # lanes: about 3 s a pricing, so it is one example, not a sampled value
    @settings(max_examples=8, deadline=None)
    @given(ms=lane_rows(), delta=st.sampled_from([None, 0.01, 1e-320, 1 - 2**-53]))
    @example(ms=[2**21], delta=1e-320)
    @example(ms=[analytics.LANE_TERMS + 1], delta=5e-324)
    def test_two_lanes_equal_one(self, ms, delta):
        threads, price_blocks = set(), analytics._price_blocks

        def recording(*args):
            threads.add(threading.current_thread() is threading.main_thread())
            price_blocks(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "_price_blocks", recording)
            patch.setattr(analytics, "_usable_cpus", lambda: 1)
            one = _price_rows(ms, delta)
            assert threads == {True}
            patch.setattr(analytics, "_usable_cpus", lambda: 2)
            two = _price_rows(ms, delta)
            assert threads == {True, False}
        assert [v.hex() for v in two[0]] == [v.hex() for v in one[0]]
        assert two[1] == one[1]

    @pytest.mark.parametrize("delta", [None, 0.01])
    @pytest.mark.parametrize("ms", ROW_LISTS.values(), ids=ROW_LISTS.keys())
    def test_lanes_extend_the_same_rows_in_any_order(self, ms, delta):
        # both lanes extend one list of partials per row; run lane 1 first,
        # so a row's partials land out of block order, and its sums still
        # equal one lane's bit for bit
        order = []

        def reversed_lanes(lanes, run):
            for lane in reversed(lanes):
                order.append(lane)
                run(lane)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "_usable_cpus", lambda: 1)
            one = _price_rows(ms, delta)
            patch.setattr(analytics, "LANE_TERMS", 0)
            patch.setattr(analytics, "_usable_cpus", lambda: 2)
            patch.setattr(analytics, "_run_lanes", reversed_lanes)
            two = _price_rows(ms, delta)
        assert order == [1, 0]
        assert [v.hex() for v in two[0]] == [v.hex() for v in one[0]]
        assert two[1] == one[1]

    def test_lanes_share_rows_while_the_gil_switches_often(self):
        # two threads extend the same rows' lists, handing over the GIL every
        # microsecond: a lost partial would move a row's sum or budget total
        ms = [3 * BLOCK + 5, 7, 5 * BLOCK, 2 * BLOCK + 1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "_usable_cpus", lambda: 1)
            one = _price_rows(ms, 0.01)
            patch.setattr(analytics, "LANE_TERMS", 0)
            patch.setattr(analytics, "_usable_cpus", lambda: 2)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                twos = [_price_rows(ms, 0.01) for _ in range(5)]
            finally:
                sys.setswitchinterval(interval)
        assert all(two == one for two in twos)
