"""Tests of the benchmark's oracles against slower or exact computations.

    python3 -m pytest bench
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

import oracles
from workloads import GRID_SIZE, analyze_grid


def linear_scan_budget(m, i, delta):
    r = 1
    while ((i - 1) / m) ** r > delta:
        r += 1
    return r


@pytest.mark.parametrize("delta", [0.5, 0.1, 0.01, 1e-3, 1e-6, 1e-9])
def test_step_budgets_match_linear_scan(delta):
    for m in range(1, 41):
        expected = [linear_scan_budget(m, i, delta) for i in range(1, m + 1)]
        assert list(oracles.step_budgets(m, delta)) == expected


def test_step_budgets_meet_the_definition_at_large_m():
    m, delta = 5000, 1e-7
    for i, r in enumerate(oracles.step_budgets(m, delta), start=1):
        p = (i - 1) / m
        assert p**r <= delta
        assert r == 1 or p ** (r - 1) > delta


def test_iterations_known_values():
    assert oracles.iterations(4, 1) == 2  # (pi/2 - pi/6) / (pi/3) is exactly 1
    assert oracles.iterations(64, 16) == 2
    assert oracles.iterations(7, 7) == 0
    assert oracles.iterations(2, 1) == 2  # beta = pi/4: j = ceil(1/2) = 1


def test_iterations_match_float_formula_away_from_ties():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 2**40)
        m = rng.randint(1, min(n - 1, 10**5))
        beta = math.asin(math.sqrt(m / n))
        x = (math.pi / 2 - beta) / (2 * beta)
        if abs(x - round(x)) > 1e-6:
            assert oracles.iterations(n, m) == math.ceil(x) + 1


def test_ksum_small_values():
    assert oracles.ksum(1) == 0
    assert float(oracles.ksum(2)) == pytest.approx(1 / math.log(2), rel=1e-15)
    assert float(oracles.ksum(3)) == pytest.approx(1 / math.log(3) + 1 / math.log(1.5), rel=1e-15)


def test_ksum_matches_float_sum():
    m = 2000
    reference = math.fsum(1.0 / math.log1p((m - k) / k) for k in range(1, m))
    assert float(oracles.ksum(m)) == pytest.approx(reference, rel=1e-13)


def test_runs_closed_form():
    assert oracles.runs_closed_form(1, 0.01) == 1.0
    expected = 1 + math.log(100) / math.log(2)
    assert oracles.runs_closed_form(2, 0.01) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("delta,m", [(0.05, 200), (1e-12, 10), (0.5, 100000), (1e-6, 1000)])
def test_overall_step_delta_meets_joint_target(delta, m):
    step = oracles.overall_step_delta(delta, m)
    with mpmath.workdps(50):
        joint = (1 - mpmath.mpf(step)) ** (m - 1)
        assert abs(float((1 - joint) / delta) - 1) < 1e-13
    assert oracles.overall_step_delta(delta, 1) == delta


def test_unbounded_moments_small_m():
    assert oracles.unbounded_moments(1) == (1.0, 0.0)
    mean, var = oracles.unbounded_moments(2)  # 1 + Geometric(1/2)
    assert mean == pytest.approx(3.0) and var == pytest.approx(2.0)
    m = 50
    mean, var = oracles.unbounded_moments(m)
    assert mean == pytest.approx(sum(m / (m - k) for k in range(m)))
    assert var == pytest.approx(sum((k / m) / (1 - k / m) ** 2 for k in range(m)))


def enumerated_moments(m, budgets):
    """Exact mean and variance of runs per trial by walking every outcome."""
    alive = {0: Fraction(1)}
    final = Counter()
    for i, r in enumerate(budgets, start=1):
        p = Fraction(i - 1, m)
        nxt = Counter()
        for runs, chance in alive.items():
            for k in range(1, r + 1):
                nxt[runs + k] += chance * p ** (k - 1) * (1 - p)
            final[runs + r] += chance * p**r
        alive = nxt
    final.update(alive)
    mean = sum(r * c for r, c in final.items())
    return float(mean), float(sum(r * r * c for r, c in final.items()) - mean * mean)


@pytest.mark.parametrize("m,delta", [(2, 0.3), (3, 0.2), (4, 0.05), (6, 0.1)])
def test_budgeted_moments_match_enumeration(m, delta):
    budgets = list(oracles.step_budgets(m, delta))
    mean, var = oracles.budgeted_moments(m, budgets)
    e_mean, e_var = enumerated_moments(m, budgets)
    assert mean == pytest.approx(e_mean, rel=1e-12)
    assert var == pytest.approx(e_var, rel=1e-10)


def test_budgeted_moments_approach_unbounded_with_large_budgets():
    m = 8
    mean, var = oracles.budgeted_moments(m, [1] + [400] * (m - 1))
    u_mean, u_var = oracles.unbounded_moments(m)
    assert mean == pytest.approx(u_mean, rel=1e-12)
    assert var == pytest.approx(u_var, rel=1e-9)


def test_step_failure_chances():
    assert oracles.step_failure_chances(4, [1, 2, 3, 4]) == [0.0, 0.25**2, 0.5**3, 0.75**4]


@pytest.mark.parametrize("n,q", [(10, 0.3), (25, 0.01), (40, 0.9)])
def test_binomial_tails_match_exact_sums(n, q):
    qf = Fraction(q)
    pmf = [math.comb(n, j) * qf**j * (1 - qf) ** (n - j) for j in range(n + 1)]
    for k in range(n + 1):
        lower, upper = oracles.binomial_tails(k, n, q)
        assert lower == pytest.approx(float(sum(pmf[: k + 1])), rel=1e-9, abs=1e-300)
        assert upper == pytest.approx(float(sum(pmf[k:])), rel=1e-9, abs=1e-300)


def test_within_five_sigma():
    assert oracles.within_five_sigma(50, 100, 0.5)
    assert not oracles.within_five_sigma(90, 100, 0.5)
    assert oracles.within_five_sigma(1, 200, 2.6e-4)  # one rare failure is no anomaly
    assert not oracles.within_five_sigma(1, 200, 0.0)  # an impossible one is
    assert oracles.within_five_sigma(0, 200, 0.0)


def test_analyze_grid_is_seeded_and_stratified():
    assert analyze_grid(3) == analyze_grid(3) != analyze_grid(4)
    grid = analyze_grid(7)
    assert len(grid) == GRID_SIZE >= 100
    ms = sorted(m for _, m, _, _ in grid)
    assert ms[0] == 1 and 50000 < ms[-1] <= 100000
    assert all(2 * m <= n <= 2**40 and n >= 2**10 for n, m, _, _ in grid)
    assert all(1e-12 <= d <= 0.5 for _, _, d, _ in grid)
    assert Counter(mode for *_, mode in grid) == {"per-step": GRID_SIZE // 2, "overall": GRID_SIZE // 2}
    for _, m, d, mode in grid:
        if mode == "overall":
            assert oracles.overall_step_delta(d, m) >= 0.99e-10
