"""Reference values the benchmark checks the program's outputs against.

Each is computed from the definitions in the analysis, not from the
program's code: step budgets by direct search over r, the per-run iteration
count and k-sums in 30-digit arithmetic, the overall-mode tolerance in a
form free of cancellation, coupon-collector moments, and the exact moments
of a budgeted trial.
"""

from __future__ import annotations

import math

import mpmath

DPS = 30

# Two-sided tail mass beyond 5 standard deviations of a normal variate.
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


def step_budgets(m: int, delta: float):
    """Yield min{r >= 1 : ((i-1)/m)**r <= delta} for i = 1..m.

    Direct search over r in float arithmetic, the semantics the program
    documents. p**r falls as r grows and rises with p, so each step's
    minimum is at least the previous one: the search gallops up from there
    and bisects.
    """
    r = 1
    yield r
    for i in range(2, m + 1):
        p = (i - 1) / m
        if p**r > delta:
            lo, step = r, 1  # invariant: p**lo > delta
            while p ** (lo + step) > delta:
                lo += step
                step *= 2
            hi = lo + step  # p**hi <= delta
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if p**mid > delta:
                    lo = mid
                else:
                    hi = mid
            r = hi
        yield r


def iterations(n: int, m: int) -> int:
    """Oracle queries of one exact run: j + 1, where sin(beta) = sqrt(m/N)
    and j = ceil((pi/2 - beta) / (2 beta)); no queries when m == N.

    Where the quotient is an integer (m/N = 1/4 gives exactly 1), the
    30-digit value can land either side of it, so near-integers count as
    integers.
    """
    if m == n:
        return 0
    with mpmath.workdps(DPS):
        beta = mpmath.asin(mpmath.sqrt(mpmath.mpf(m) / n))
        x = (mpmath.pi / 2 - beta) / (2 * beta)
        nearest = mpmath.nint(x)
        if abs(x - nearest) < mpmath.mpf(10) ** (-(DPS - 5)):
            return int(nearest) + 1
        return int(mpmath.ceil(x)) + 1


def ksum(m: int) -> mpmath.mpf:
    """sum_{k=1}^{m-1} 1/ln(m/k) in DPS-digit arithmetic."""
    with mpmath.workdps(DPS):
        log_m = mpmath.log(m)
        # in chunks, so memory stays flat whatever m is
        return mpmath.fsum(
            mpmath.fsum(1 / (log_m - mpmath.log(k)) for k in range(lo, min(lo + 4096, m)))
            for lo in range(1, m, 4096)
        )


def runs_closed_form(m: int, delta: float, k_sum=None) -> float:
    """1 + ln(1/delta) * sum_{k=1}^{m-1} 1/ln(m/k), rounded once to float."""
    if m == 1:
        return 1.0
    s = ksum(m) if k_sum is None else k_sum
    with mpmath.workdps(DPS):
        return float(1 + mpmath.log(1 / mpmath.mpf(delta)) * s)


def overall_step_delta(delta: float, m: int) -> float:
    """Per-step tolerance whose m-1 steps jointly succeed with chance
    1-delta: 1 - (1-delta)^(1/(m-1)), written without cancellation."""
    if m <= 1:
        return delta
    return -math.expm1(math.log1p(-delta) / (m - 1))


def duality_queries(m: int, n: int) -> float:
    """Deletion-model query count m * log2(N/m)."""
    with mpmath.workdps(DPS):
        return float(m * mpmath.log(mpmath.mpf(n) / m, 2))


def unbounded_moments(m: int) -> tuple[float, float]:
    """Mean and variance of draws until all m states are seen:
    m*H_m and m^2 * sum 1/k^2 - m*H_m."""
    h1 = math.fsum(1.0 / k for k in range(1, m + 1))
    h2 = math.fsum(1.0 / (k * k) for k in range(1, m + 1))
    return m * h1, m * m * h2 - m * h1


def step_failure_chances(m: int, budgets) -> list[float]:
    """Chance that step i spends its budget without a new state:
    ((i-1)/m)^{r_i}; the step's exact success rate is one minus it."""
    return [((i - 1) / m) ** r for i, r in enumerate(budgets, start=1)]


def budgeted_moments(m: int, budgets) -> tuple[float, float]:
    """Exact mean and variance of runs per trial under per-step budgets.

    Step i draws until a new state turns up (chance q = 1 - (i-1)/m per
    draw) or its budget r is spent, so it costs D = min(G, r) draws for a
    geometric G, and the trial goes on only if G <= r. With S_i the draws
    from step i on, given step i is reached,
        S_i = D_i + [G_i <= r_i] * S_{i+1},
    summed backwards from S_{m+1} = 0.
    """
    mean_next, square_next = 0.0, 0.0
    for i in range(m, 0, -1):
        r = budgets[i - 1]
        p = (i - 1) / m
        q = 1.0 - p
        # P(G = k) = p^(k-1) q for k = 1..r; P(G > r) = p^r.
        if p == 0.0:
            e_d, e_d2, e_d_won, won = 1.0, 1.0, 1.0, 1.0
        else:
            ks = range(1, r + 1)
            weights = [p ** (k - 1) * q for k in ks]
            tail = p**r
            won = 1.0 - tail
            e_d_won = math.fsum(k * w for k, w in zip(ks, weights))
            e_d = e_d_won + r * tail
            e_d2 = math.fsum(k * k * w for k, w in zip(ks, weights)) + r * r * tail
        mean_i = e_d + won * mean_next
        square_i = e_d2 + 2.0 * e_d_won * mean_next + won * square_next
        mean_next, square_next = mean_i, square_i
    return mean_next, square_next - mean_next * mean_next


def binomial_tails(k: int, n: int, q: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, q)."""
    if q <= 0.0:
        return 1.0, 1.0 if k == 0 else 0.0
    if q >= 1.0:
        return 1.0 if k == n else 0.0, 1.0
    log_q, log_p = math.log(q), math.log1p(-q)
    log_nf = math.lgamma(n + 1)
    pmf = [
        math.exp(log_nf - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_q + (n - j) * log_p)
        for j in range(n + 1)
    ]
    return min(1.0, math.fsum(pmf[: k + 1])), min(1.0, math.fsum(pmf[k:]))


def within_five_sigma(k: int, n: int, q: float) -> bool:
    """Whether k events in n trials at chance q are no rarer than a 5-sigma
    normal deviation, judged by exact binomial tails (a rate near 0 or 1
    over a few hundred trials is far from normal)."""
    lower, upper = binomial_tails(k, n, q)
    return min(lower, upper) > FIVE_SIGMA_TAIL / 2.0
