import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recallsearch.analytics import (
    _inverse_log_ratio_sum,
    compare_models,
    duality_queries,
    exact_sum,
    f_of_delta_curve,
    f_of_m_curve,
    total_runs_closed_form,
)
from recallsearch.driver import BLOCK, step_budget


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


def in_blocks(x):
    return (x[i : i + BLOCK] for i in range(0, len(x), BLOCK))


LENGTHS = st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])


class TestExactSum:
    @settings(max_examples=120, deadline=None)
    @given(values=st.lists(st.floats(min_value=5e-324, max_value=1e300), max_size=40))
    def test_equals_fsum_on_any_positive_values(self, values):
        x = np.array(values, dtype=np.float64)
        assert exact_sum([x]) == math.fsum(values)
        assert exact_sum(in_blocks(x)) == math.fsum(values)

    @settings(max_examples=60, deadline=None)
    @given(
        n=LENGTHS,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        low=st.integers(min_value=-1074, max_value=900),
        span=st.integers(min_value=0, max_value=2000),
    )
    def test_equals_fsum_over_a_wide_exponent_range(self, n, seed, low, span):
        # mantissas at full precision, exponents spread over [low, low + span]
        rng = np.random.default_rng(seed)
        top = min(low + span, 1000)
        x = np.ldexp(1.0 + rng.random(n), rng.integers(low, top + 1, size=n))
        x = x[x > 0]  # the deepest subnormals can round to zero
        assert exact_sum(in_blocks(x)) == math.fsum(x)
        assert exact_sum([x]) == math.fsum(x)

    def test_rounds_ties_to_even(self):
        # 1 + 2**-53 is halfway between 1 and its successor: fsum rounds to 1
        ones = np.array([1.0, 2.0**-53])
        assert exact_sum([ones]) == math.fsum(ones) == 1.0
        up = np.array([1.0, 2.0**-53, 2.0**-105])
        assert exact_sum([up]) == math.fsum(up) == math.nextafter(1.0, 2.0)

    def test_empty_is_zero(self):
        assert exact_sum([]) == 0.0
        assert exact_sum([np.empty(0)]) == 0.0

    @pytest.mark.parametrize("m", [2, 3, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 54_321])
    def test_k_sum_equals_fsum_of_the_terms(self, m):
        k = np.arange(1, m, dtype=np.float64)
        assert _inverse_log_ratio_sum(m) == math.fsum(1.0 / np.log1p((m - k) / k))

    def test_compare_models_memory_does_not_grow_with_m(self):
        tracemalloc.start()
        try:
            report = compare_models(2_000_000, 2**40, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.r_integer >= report.r_real
        assert peak < 4 * 2**20
