"""Statistical harness: deterministic batch trials and uniformity testing.

Every trial owns a counter-based stream, Philox4x64-10 keyed by (master_seed
mod 2^64, trial_index mod 2^64), so its outcome depends only on its index.
trial_stream is that stream as a numpy Generator, which the scalar reference
(execute_trial) draws from. run_trials makes the same words for many trials at
once with a numpy Philox kernel (trial_words) and settles the trials as arrays;
it builds no Generator and never imports numpy.random. These rules fix every
draw, and so the output bytes:

- block n (n = 1, 2, ...) of a trial's stream is the four 64-bit words of
  Philox4x64-10 at counter (n, 0, 0, 0), in order;
- an ideal draw, integers(m), reads the next 32-bit half of the words, low half
  then high, and returns (x m) >> 32, unless (x m) mod 2^32 < (2^32 - m) mod m
  (Lemire's rejection), when it reads the next half instead; m = 1 reads none;
- a quantum draw reads the next word w as the uniform (w >> 11) 2^-53, as
  random() does, and measures the final state there (search.measure_at).

Nothing reads a trial's stream after the trial ends, so drawing whole blocks
past its end changes no outcome, but each such word is made for nothing. So a
pass gives a trial a span of draws sized from the m H_m an unbounded trial is
expected to use: the least power of two >= 0.4 m H_m. A trial then takes 2-3
passes on average and leaves under 30% of its draws unread (44% at m = 200
for the span that ends 9 trials in 10 in one pass); smaller spans add passes,
and a pass costs a fixed number of numpy calls.

A pass holds at most PASS = 2^16 draws, PASS // span trials. It is sized
apart from the k-sum's analytics.BLOCK, which fits a term table to the cache:
here the fixed cost of a pass (the kernel alone makes some 280 numpy calls,
whatever its rows) is what to spread, so at m = 200 a 100-trial batch starts
in one pass instead of two and ends in 4-5 passes instead of 7. A larger PASS
adds nothing there and holds more memory (a full pass peaks at about 1.8 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .driver import TrialOutcome, _plan_budgets
from .search import ProblemInstance

PASS = 2**16  # draws in a full run_trials pass


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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11): the round multipliers and the Weyl increments of the two key words.
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhi(a: np.uint64, b: np.ndarray, scratch) -> np.ndarray:
    """The high word of each 128-bit product a * b, from 32-bit halves, written
    over b; scratch is three arrays shaped as b. The middle sum
    (a_lo b_lo >> 32) + (a_hi b_lo mod 2^32) + a_lo b_hi is below 2^64."""
    a_lo, a_hi = a & _LOW, a >> _32
    mid, hi_lo, t = scratch
    np.multiply(np.bitwise_and(b, _LOW, out=mid), a_hi, out=hi_lo)
    b >>= _32
    mid *= a_lo
    mid >>= _32
    mid += np.bitwise_and(hi_lo, _LOW, out=t)
    mid += np.multiply(b, a_lo, out=t)
    b *= a_hi
    b += np.right_shift(hi_lo, _32, out=hi_lo)
    b += np.right_shift(mid, _32, out=mid)
    return b


def trial_words(master_seed: int, trials: np.ndarray, first_block: np.ndarray,
                blocks: int) -> np.ndarray:
    """Stream words of many trials at once: row r holds blocks first_block[r] + 1
    to first_block[r] + blocks of trial trials[r] (both uint64, left as they
    are), 4 * blocks words, as trial_stream's bit_generator.random_raw returns
    them."""
    k0, k1 = master_seed % 2**64, trials[:, None]
    n = first_block[:, None] + np.arange(1, blocks + 1, dtype=np.uint64)
    spare, *scratch = (np.empty_like(n) for _ in range(4))
    # Every counter is (n, 0, 0, 0): round 0 multiplies only n and leaves
    # x0 = k0 and x1 = 0, so round 1's M0 product is one Python int.
    x3 = _M0 * n
    x2 = np.bitwise_xor(_mulhi(_M0, n, scratch), k1, out=n)
    hi0, lo0 = divmod(int(_M0) * k0, 2**64)
    k0, k1 = (k0 + _W0) % 2**64, k1 + np.uint64(_W1)
    x1 = _M1 * x2
    x0 = np.bitwise_xor(_mulhi(_M1, x2, scratch), np.uint64(k0), out=x2)
    x2 = np.bitwise_xor(x3, k1 ^ np.uint64(hi0), out=x3)
    x3 = np.full_like(x2, lo0)
    for _ in range(8):  # rounds 2-9, in place; x1 and x3 are spent in the round
        k0, k1 = (k0 + _W0) % 2**64, k1 + np.uint64(_W1)
        x1 ^= np.uint64(k0)
        x3 ^= k1
        lo0 = np.multiply(x0, _M0, out=spare)
        hi0 = np.bitwise_xor(_mulhi(_M0, x0, scratch), x3, out=x0)
        lo1 = np.multiply(x2, _M1, out=x3)
        hi1 = np.bitwise_xor(_mulhi(_M1, x2, scratch), x1, out=x2)
        x0, x1, x2, x3, spare = hi1, lo1, hi0, lo0, x1
    return np.stack((x0, x1, x2, x3), axis=2).reshape(len(trials), 4 * blocks)


def run_trials(
    problem: ProblemInstance,
    strategy,
    sampler,
    n_trials: int,
    master_seed: int,
) -> TrialStats:
    """Execute n_trials independent trials and aggregate them; equal, trial for
    trial, to execute_trial on trial_stream(master_seed, t) for each t.

    Live trials run in passes of at most PASS draws. A pass gives each live
    trial the same span of whole stream blocks, the least power of two >= 0.4
    m H_m draws, so that a trial reads most words made for it and ends in 2-3
    passes (see the module docstring). It maps them to draws with the
    sampler's draw_block (a marked position, -1 for an unmarked state, -2 for
    no draw), and finds the draws that turn up a new state: the first of each
    position in the trial, not seen in an earlier pass. New states end steps:
    with p_i the draw that ends step i, a budgeted trial fails at the first i
    with p_i - p_{i-1} > r_i, after p_{i-1} + r_i runs, and otherwise ends
    after p_m runs, as an unbounded one does. A trial its pass leaves
    undecided gets the next pass; finished ones make room for new trials.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    budgets = _plan_budgets(problem, sampler, strategy)
    if budgets is not None:
        budgets = np.array(budgets, dtype=np.int64)
    m, cost = problem.n_marked, sampler.queries_per_draw

    # a power of two, so a full pass holds PASS draws; m H_m ~ m (ln m + 0.5772)
    span = 4 * sampler.draws_per_word
    while span < PASS and span < 0.4 * m * (math.log(m) + 0.5772):
        span *= 2
    most, blocks = PASS // span, span // (4 * sampler.draws_per_word)
    # The live trials: index, blocks read, draws made, states found, the draw
    # that found the latest, and which positions they have seen.
    trial = np.zeros(0, np.uint64)
    block = np.zeros(0, np.uint64)
    runs = found = last = np.zeros(0, np.int64)
    seen = np.zeros((0, m), bool)
    first = np.full(most * m + 1, PASS, np.int32)  # a pass's first entry of each key
    started = runs_total = 0
    fail_at = np.zeros(m + 1, np.int64)
    while started < n_trials or trial.size:
        fresh = min(most - trial.size, n_trials - started)
        if fresh > 0:
            fresh_trials = np.arange(fresh, dtype=np.uint64) + np.uint64(started % 2**64)
            trial = np.concatenate((trial, fresh_trials))
            block = np.concatenate((block, np.zeros(fresh, np.uint64)))
            zeros = np.zeros(fresh, np.int64)
            runs, found, last = (np.concatenate((a, zeros)) for a in (runs, found, last))
            seen = np.concatenate((seen, np.zeros((fresh, m), bool)))
            started += fresh
        # the pass's words, draws and new states live only in this statement,
        # so none of them is held through the next pass's kernel
        runs, found, last, spent, failed = _settle(m, budgets, runs, found, last, *_new_states(
            sampler.draw_block(trial_words(master_seed, trial, block, blocks)), seen, first))
        done = (found == m) | (failed > 0)
        ended = np.flatnonzero(done)
        runs_total += int(spent[ended].sum())
        np.add.at(fail_at, failed[ended], 1)
        keep = ~done
        trial, block = trial[keep], block[keep] + np.uint64(blocks)
        runs, found, last, seen = runs[keep], found[keep], last[keep], seen[keep]
    return _trial_stats(m, fail_at, n_trials, runs_total, runs_total * cost, master_seed)


def _settle(m: int, budgets, runs, found, last, row, at, drawn):
    """What one pass's new states (as _new_states returns them) do to its
    trials, given each trial's draws made, states found and the draw that found
    the latest before the pass. Returns those three after the pass, and each
    trial's runs and failing step (0 if none) should it end in the pass."""
    count = np.bincount(row, minlength=runs.size)
    total = found + count
    end = np.cumsum(count)
    made = runs + drawn
    newest = last.copy()  # the draw that found each trial's latest state
    hit = np.flatnonzero(count)
    newest[hit] = runs[hit] + at[end[hit] - 1]
    spent = newest.copy()  # a finished trial's runs
    failed = np.zeros(runs.size, np.int64)  # its failing step, 0 if it succeeded
    if budgets is not None:
        start = end - count
        prev = np.empty_like(at)  # the draw that found the state before, in the pass
        prev[1:] = at[:-1]
        prev[start[hit]] = last[hit] - runs[hit]
        step = found[row] + np.arange(at.size) - start[row] + 1
        over = np.flatnonzero(at - prev > budgets[step - 1])
        # a trial fails at its first step whose gap is over budget
        over = over[np.diff(row[over], prepend=-1) != 0]
        broke = row[over]
        failed[broke] = step[over]
        spent[broke] = runs[broke] + prev[over] + budgets[step[over] - 1]
        # with no gap over budget, the open step fails once its budget is spent
        budget = budgets[np.minimum(total, m - 1)]
        out = (total < m) & (failed == 0) & (made - newest >= budget)
        failed[out] = total[out] + 1
        spent[out] = newest[out] + budget[out]
    return made, total, newest, spent, failed


def _new_states(keys: np.ndarray, seen: np.ndarray, first: np.ndarray):
    """The draws of one pass that find a new state. keys is the sampler's
    draw_block for the live trials, a power of two of entries a row, and is
    overwritten; seen says which positions each trial has seen, and is updated
    in place; first is scratch, at least rows * m + 1 sentinels PASS, left so
    (PASS is above every entry's number, as a pass holds at most PASS
    entries). Returns the new states' rows and draw numbers in the pass, row
    by row in draw order, and each row's draws in the pass."""
    rows, m = seen.shape
    width = keys.shape[1]
    skipped = keys < -1
    drawn = np.cumsum(~skipped, axis=1) if skipped.any() else None  # draws up to each entry
    # An entry finds a new state if it is the first of its key in the pass
    # and the key was not seen before: a marked draw's key is (row,
    # position), every other entry's is `dump`, which counts as seen.
    dump = rows * m
    base = np.arange(0, dump, m)[:, None]
    keys += base
    keys[keys < base] = dump
    keys = keys.ravel()
    order = np.arange(keys.size, dtype=np.int32)
    np.minimum.at(first, keys, order)
    table = first[:dump + 1]
    table[np.append(seen.ravel(), True)] = PASS  # a seen key finds nothing new
    new = np.flatnonzero(first[keys] == order)
    seen |= (table[:dump] < PASS).reshape(rows, m)
    table.fill(PASS)
    shift = width.bit_length() - 1
    row, col = new >> shift, new & (width - 1)
    if drawn is None:
        return row, col + 1, width
    return row, drawn[row, col], drawn[:, -1]


def _aggregate(
    problem: ProblemInstance, outcomes: Iterable[TrialOutcome], master_seed: int
) -> TrialStats:
    """Fold the outcomes, in order, into a TrialStats; each outcome is
    dropped once counted, so memory does not grow with the trial count."""
    m = problem.n_marked
    fail_at = [0] * (m + 1)
    n = runs_total = queries_total = 0
    for o in outcomes:
        n += 1
        runs_total += o.runs_used
        queries_total += o.queries_used
        if not o.success:
            fail_at[o.failed_at_step] += 1
    return _trial_stats(m, fail_at, n, runs_total, queries_total, master_seed)


def _trial_stats(m: int, fail_at, n: int, runs_total: int, queries_total: int,
                 master_seed: int) -> TrialStats:
    """The TrialStats of n trials, fail_at[i] of which failed at step i (a list
    or an int64 array of m + 1 counts). Counts are under 2**53, so they turn
    into floats exactly, and / and sqrt round as Python's do. The steps that
    no trial reached, a tail, have NaN rates."""
    won = n - np.cumsum(np.asarray(fail_at[1:], dtype=np.int64))  # trials past each step
    reached = np.concatenate(([n], won[:-1]))
    live = int(np.count_nonzero(reached))
    p = won[:live] / reached[:live]
    tail = [math.nan] * (m - live)
    return TrialStats(
        n_trials=n,
        per_step_success_rate=tuple(p.tolist() + tail),
        per_step_stderr=tuple(np.sqrt(p * (1.0 - p) / reached[:live]).tolist() + tail),
        mean_runs=runs_total / n,
        mean_queries=queries_total / n,
        overall_success_rate=int(won[-1]) / n,
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

