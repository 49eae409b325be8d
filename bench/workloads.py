"""The benchmark's three workloads.

Each workload is one round of operations, repeated unchanged until the run
ends: a closed loop with a single caller that waits for each command before
it sends the next. Inputs come from the workload seed alone; the program
sees only the generated command lines and library arguments. Every output
of the first round is checked against the oracles; every later output must
match its first-round bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import recallsearch
from recallsearch import cli

import oracles

EXACTNESS = 1e-9  # |1 - p| allowed at an exactness point
REL = 1e-12  # relative tolerance against an oracle value
# Relative error allowed in the overall-mode per-step tolerance. The grid
# keeps that tolerance >= 1e-10, where 1 - (1-delta)^(1/(m-1)) in doubles is
# off by at most ~2e-6 relative; the worst error seen is recorded.
OVERALL_DELTA_REL = 1e-5

# Faults the program has today. An operation that raises one of these is
# counted as failed under this name; anything else is "unexpected".
FAULTS = {
    "subspace-norm-drift": "state is not normalized",
    "overall-mode-underflow": "delta must be in (0, 1), got 0.0",
}


class NonzeroExit(Exception):
    pass


def fault_name(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}"
    for name, marker in FAULTS.items():
        if marker in text:
            return name
    return "unexpected " + text[:160]


def run_cli(argv: list[str]) -> str:
    """One CLI invocation in-process, as `main` would run it; the output
    that would go to stdout is returned."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.run_command(cli.parse_config(argv))
    except SystemExit as exc:
        raise NonzeroExit(f"exit {exc.code}") from None
    if code != 0:
        raise NonzeroExit(f"exit {code}")
    return buffer.getvalue()


@dataclass
class Op:
    name: str  # unique within a round
    kind: str  # groups operations for the per-command figures
    call: Callable[[], str]
    check: Callable[[str], list[str]]
    same_as: str | None = None  # op of the same round whose bytes it must repeat


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup_argv: list[str]  # the first command line, parsed when timing set-up
    # per-command figures from each op's median calibrated time and first output
    figures: Callable[[dict, dict], dict]


def _close(a, b, rel=REL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


class _Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def _csv_rows(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    problems = []
    if not lines or not lines[0].startswith("# recallsearch "):
        problems.append("missing comment line")
    if len(lines) < 2 or lines[1] != header:
        problems.append(f"header is not {header!r}")
    return [line.split(",") for line in lines[2:]], problems


def _sample(rng: random.Random, population, k: int) -> list:
    population = list(population)
    return rng.sample(population, min(k, len(population)))


def _kind_sum(ops, per_op, kind):
    return sum(per_op[op.name] for op in ops if op.kind == kind)


# -- tables -----------------------------------------------------------------

GRID_SIZE = 120


def analyze_grid(seed: int) -> list[tuple[int, int, float, str]]:
    """(N, m, delta, mode) settings, stratified so that every seed spreads
    the same way over log m, log N and log delta: one point per stratum of
    each, the strata paired at random.

    m runs over 1..1e5 and N over [2^10, 2^40] with N >= 2m. delta runs over
    [1e-12, 0.5]; in overall mode its lower end is raised to (m-1)*1e-10 so
    the per-step tolerance stays >= 1e-10 (below that the conversion's
    cancellation grows until it underflows, which the fixed delta=1e-17
    operation exercises)."""
    rng = random.Random(f"tables:{seed}")

    def strata():
        values = [(k + rng.random()) / GRID_SIZE for k in range(GRID_SIZE)]
        rng.shuffle(values)
        return values

    u_m, u_n, u_d = strata(), strata(), strata()
    modes = ["per-step", "overall"] * (GRID_SIZE // 2)
    rng.shuffle(modes)
    grid = []
    for k in range(GRID_SIZE):
        m = max(1, round(10 ** (5 * u_m[k])))
        lo = max(10.0, math.log2(m) + 1)
        n = int(2 ** (lo + u_n[k] * (40 - lo)))
        d_lo = 1e-12 if modes[k] == "per-step" else max(1e-12, (m - 1) * 1e-10)
        delta = 10 ** (math.log10(d_lo) + u_d[k] * (math.log10(0.5) - math.log10(d_lo)))
        grid.append((n, m, delta, modes[k]))
    return grid


def _cost_problems(m, n, delta, r_real, r_int, q_real, q_int, q_dual, exact_ksum) -> list[str]:
    """Checks shared by an analyze report and a compare row: budgets and
    k-sum at the tolerance the program reports, query totals priced at the
    oracle's queries per run, and the deletion-model count."""
    its = oracles.iterations(n, m)
    p = _Problems()
    p.expect(r_int == sum(oracles.step_budgets(m, delta)), f"r_integer {r_int} differs from the brute-force budgets")
    p.expect(q_int == r_int * its and _close(q_real, r_real * its),
             f"query totals are not runs * {its} queries per run")
    p.expect(r_real <= r_int * (1 + REL) and r_int - r_real <= m - 1, "r_real outside [r_int-(m-1), r_int]")
    p.expect(_close(q_dual, oracles.duality_queries(m, n)), f"q_duality {q_dual!r} != m*log2(N/m)")
    if exact_ksum:
        reference = oracles.runs_closed_form(m, delta)
        p.expect(_close(r_real, reference), f"r_real {r_real!r}, k-sum oracle {reference!r}")
    return p


def _check_analyze(n, m, delta, mode, exact_ksum, notes):
    def check(text):
        report = json.loads(text)
        p = _Problems()
        p.expect(report["m"] == m and report["N"] == n, "m or N not echoed")
        step = report["delta"]
        if mode == "overall":
            reference = oracles.overall_step_delta(delta, m)
            error = abs(step - reference) / reference
            notes["overall_delta_max_rel_err"] = max(notes.get("overall_delta_max_rel_err", 0.0), error)
            p.expect(error <= OVERALL_DELTA_REL, f"per-step delta {step!r}, oracle {reference!r}")
        else:
            p.expect(step == delta, f"delta {step!r} != {delta!r}")
        its = oracles.iterations(n, m)
        p.expect(report["queries_per_run"] == its, f"queries_per_run {report['queries_per_run']} != {its}")
        p.extend(_cost_problems(m, n, step, report["r_real"], report["r_integer"], report["q_real"],
                                report["q_integer"], report["q_duality"], exact_ksum))
        p.expect(_close(report["quantum_to_duality_ratio"], report["q_real"] / report["q_duality"]),
                 "ratio != q_real / q_duality")
        return p

    return check


FIG1_POINTS = list(range(1, 100001, 100)) + [100000]


def _check_f_of_m(points, delta, sampled):
    def check(text):
        rows, p = _csv_rows(text, "x,f")
        p = _Problems(p)
        xs = [int(r[0]) for r in rows]
        fs = [float(r[1]) for r in rows]
        p.expect(xs == points, "m column differs from the preset's points")
        p.expect(all(a < b for a, b in zip(fs, fs[1:])), "f does not rise strictly in m")
        for m in sampled:
            reference = oracles.runs_closed_form(m, delta)
            got = fs[points.index(m)]
            p.expect(_close(got, reference), f"f({m}) = {got!r}, oracle {reference!r}")
        return p

    return check


def _check_f_of_delta(m, xs_expected, k_sum):
    def check(text):
        rows, p = _csv_rows(text, "x,f")
        p = _Problems(p)
        xs = [float(r[0]) for r in rows]
        fs = [float(r[1]) for r in rows]
        p.expect(len(xs) == len(xs_expected), "wrong number of points")
        p.expect(all(_close(a, b) for a, b in zip(xs, xs_expected)), "delta column off its spacing")
        # affine in ln(1/delta): one slope through every row, intercept 1
        slopes = [(f - 1.0) / -math.log(x) for x, f in zip(xs, fs)]
        p.expect(all(_close(s, slopes[0], 1e-10) for s in slopes), "f is not affine in ln(1/delta)")
        for x, f in zip(xs, fs):
            reference = oracles.runs_closed_form(m, x, k_sum)
            if not _close(f, reference):
                p.append(f"f({x!r}) = {f!r}, oracle {reference!r}")
                break
        return p

    return check


COMPARE_N, COMPARE_DELTA, COMPARE_M = 1048576, 0.01, 1024


def _check_compare(sampled):
    def check(text):
        rows, p = _csv_rows(text, "m,N,delta,r_real,r_int,q_real,q_int,q_duality")
        p = _Problems(p)
        p.expect([int(r[0]) for r in rows] == list(range(1, COMPARE_M + 1)), "m column is not 1..1024")
        for row in rows:
            m, n, delta = int(row[0]), int(row[1]), float(row[2])
            problems = [] if (n, delta) == (COMPARE_N, COMPARE_DELTA) else ["N or delta not echoed"]
            problems += _cost_problems(m, COMPARE_N, COMPARE_DELTA, float(row[3]), int(row[4]),
                                       float(row[5]), int(row[6]), float(row[7]), m in sampled)
            if problems:
                p.append(f"row m={m}: " + "; ".join(problems))
        return p

    return check


def tables(seed: int) -> Workload:
    rng = random.Random(f"tables-samples:{seed}")
    notes: dict = {}  # facts the checks record for the figures
    ops = []
    for preset, points, delta, n_sampled in (("fig1", FIG1_POINTS, 0.01, 2),
                                              ("fig2", list(range(1, 201)), 0.01, 4)):
        ops.append(Op(f"curves {preset}", "curves",
                      lambda a=["curves", "--preset", preset]: run_cli(a),
                      _check_f_of_m(points, delta, _sample(rng, points, n_sampled))))
    k_sum_1000 = oracles.ksum(1000)
    lo, hi = math.log10(1e-5), math.log10(0.5)
    fig3_x = [10 ** (lo + k * (hi - lo) / 199) for k in range(200)]
    fig4_x = [0.01 + k * (0.5 - 0.01) / 199 for k in range(200)]
    for preset, xs in (("fig3", fig3_x), ("fig4", fig4_x)):
        ops.append(Op(f"curves {preset}", "curves",
                      lambda a=["curves", "--preset", preset]: run_cli(a),
                      _check_f_of_delta(1000, xs, k_sum_1000)))
    compare_argv = ["compare", "--n", str(COMPARE_N), "--delta", str(COMPARE_DELTA),
                    "--m-range", f"1:{COMPARE_M}"]
    ops.append(Op("compare", "compare", lambda: run_cli(compare_argv),
                  _check_compare(set(_sample(rng, range(1, COMPARE_M + 1), 16)))))
    grid = analyze_grid(seed)
    exact = set(_sample(rng, range(len(grid)), 3))
    for k, (n, m, delta, mode) in enumerate(grid):
        argv = ["analyze", "--n", str(n), "--m", str(m), "--delta", repr(delta), "--delta-mode", mode]
        ops.append(Op(f"analyze #{k}", "analyze", lambda a=argv: run_cli(a),
                      _check_analyze(n, m, delta, mode, k in exact, notes)))
    fault_argv = ["analyze", "--n", "1048576", "--m", "1000", "--delta", "1e-17", "--delta-mode", "overall"]
    ops.append(Op("analyze delta=1e-17 overall", "analyze-fault", lambda: run_cli(fault_argv),
                  _check_analyze(1048576, 1000, 1e-17, "overall", False, notes)))

    def figures(per_op, outputs):
        latencies = [per_op[op.name] for op in ops if op.kind == "analyze"]
        return {
            "analyze_p50_s": (statistics.median(latencies), "s"),
            "analyze_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
            "curves_s": (_kind_sum(ops, per_op, "curves"), "s"),
            "compare_s": (_kind_sum(ops, per_op, "compare"), "s"),
            "overall_delta_max_rel_err": (notes.get("overall_delta_max_rel_err", 0.0), "ratio"),
        }

    return Workload("tables", ops, ["curves", "--preset", "fig1"], figures)


# -- simulate (trials-ideal, quantum) -----------------------------------------

def _check_simulate(n, m, delta_step, strategy, trials, seed):
    budgets = list(oracles.step_budgets(m, delta_step))
    its = oracles.iterations(n, m)
    if strategy == "budgeted":
        fail_chance = oracles.step_failure_chances(m, budgets)
        mean, var = oracles.budgeted_moments(m, budgets)
    else:
        fail_chance = [0.0] * m
        mean, var = oracles.unbounded_moments(m)

    def check(text):
        out = json.loads(text)
        p = _Problems()
        p.expect(out["n_trials"] == trials and out["master_seed"] == seed, "n_trials or seed not echoed")
        p.expect(out["queries_per_run"] == its, f"queries_per_run {out['queries_per_run']} != {its}")
        p.expect(out["step_budgets"] == budgets, "step budgets differ from the brute-force budgets")
        reached = trials
        for i, (rate, err, q) in enumerate(zip(out["per_step_success_rate"], out["per_step_stderr"],
                                               fail_chance), start=1):
            if reached == 0:
                p.expect(math.isnan(rate) and math.isnan(err), f"step {i}: rate after every trial failed")
                continue
            won = round(rate * reached)
            p.expect(rate == won / reached, f"step {i}: rate {rate!r} is not a count over {reached}")
            p.expect(_close(err, math.sqrt(rate * (1.0 - rate) / reached)), f"step {i}: stderr")
            if not oracles.within_five_sigma(reached - won, reached, q):
                p.append(f"step {i}: {reached - won} of {reached} failed, exact chance {q!r}")
            reached = won
        p.expect(out["overall_success_rate"] == reached / trials, "overall rate != trials through step m")
        bound = 5.0 * math.sqrt(var / trials)
        p.expect(abs(out["mean_runs"] - mean) <= bound,
                 f"mean_runs {out['mean_runs']!r}, exact {mean!r} +- {bound!r} (5 SE)")
        p.expect(_close(out["mean_queries"], out["mean_runs"] * out["queries_per_run"]),
                 "mean_queries != mean_runs * queries_per_run")
        return p

    return check


def _simulate_op(name, kind, argv, check, same_as=None):
    return Op(name, kind, lambda: run_cli(argv), check, same_as)


def _simulate_figures(ops, per_op, outputs):
    """Trials and runs (mean_runs x n_trials, from the output) per second of
    simulate time."""
    seconds = trials = runs = 0.0
    for op in ops:
        if op.kind == "simulate" and outputs.get(op.name) is not None:
            result = json.loads(outputs[op.name])
            seconds += per_op[op.name]
            trials += result["n_trials"]
            runs += result["mean_runs"] * result["n_trials"]
    if not seconds:
        return {}
    return {"trials_per_s": (trials / seconds, "trials/s"), "runs_per_s": (runs / seconds, "runs/s")}


IDEAL_N, IDEAL_M, IDEAL_TRIALS = 2**20, 200, 100


def trials_ideal(seed: int) -> Workload:
    rng = random.Random(f"trials-ideal:{seed}")
    seed_b, seed_u = rng.getrandbits(63), rng.getrandbits(63)
    base = ["simulate", "--sampler", "ideal", "--n", str(IDEAL_N), "--m", str(IDEAL_M),
            "--trials", str(IDEAL_TRIALS)]
    budgeted = base + ["--strategy", "budgeted", "--delta", "0.05", "--delta-mode", "overall",
                       "--seed", str(seed_b)]
    unbounded = base + ["--strategy", "unbounded", "--delta", "0.05", "--seed", str(seed_u)]
    check_b = _check_simulate(IDEAL_N, IDEAL_M, oracles.overall_step_delta(0.05, IDEAL_M),
                              "budgeted", IDEAL_TRIALS, seed_b)
    check_u = _check_simulate(IDEAL_N, IDEAL_M, 0.05, "unbounded", IDEAL_TRIALS, seed_u)
    ops = [
        _simulate_op("budgeted workers=1", "simulate", budgeted + ["--workers", "1"], check_b),
        _simulate_op("budgeted workers=2", "simulate", budgeted + ["--workers", "2"], check_b,
                     same_as="budgeted workers=1"),
        _simulate_op("unbounded workers=1", "simulate", unbounded + ["--workers", "1"], check_u),
    ]
    return Workload("trials-ideal", ops, budgeted + ["--workers", "1"],
                    lambda per_op, outputs: _simulate_figures(ops, per_op, outputs))


# -- quantum -----------------------------------------------------------------

QC_MAX_N = 131072
SWEEP_EXPONENTS = range(20, 33)
SWEEP_M = (1, 2, 3)
QUANTUM_N, QUANTUM_M, QUANTUM_TRIALS, QUANTUM_DELTA = 2**14, 8, 200, 0.05


def _check_quantum_check(text):
    lines = text.splitlines()
    p = _Problems()
    expected = []
    n = 4
    while n <= QC_MAX_N:
        expected.append(n)
        n *= 2
    body = lines[1:-1]
    p.expect(len(lines) == len(expected) + 2 and lines[0].startswith("# recallsearch "),
             f"expected one line per N ({len(expected)}) between header and summary")
    for n, line in zip(expected, body):
        head, _, value = line.partition(": worst |1 - p_success| = ")
        if head != f"N={n}" or not value:
            p.append(f"line {line!r} is not the N={n} line")
        elif float(value) > EXACTNESS:
            p.append(f"N={n}: deviation {value} above {EXACTNESS}")
    p.expect(bool(lines) and lines[-1].endswith(" ok"), "summary line does not end in ok")
    return p


def _sweep_point(n, m):
    problem = recallsearch.ProblemInstance(n_states=n, marked=tuple(range(m)), delta=0.5)
    params = recallsearch.derive_search_params(problem)
    p = recallsearch.success_probability(problem, params, recallsearch.SUBSPACE)
    return f"{params.iterations} {p!r}"


def _check_sweep_point(n, m):
    def check(text):
        its, p = text.split()
        problems = _Problems()
        problems.expect(int(its) == oracles.iterations(n, m), f"iterations {its}")
        problems.expect(abs(1.0 - float(p)) <= EXACTNESS, f"|1 - p| = {abs(1.0 - float(p))!r}")
        return problems

    return check


def quantum(seed: int) -> Workload:
    rng = random.Random(f"quantum:{seed}")
    seed_full, seed_sub = rng.getrandbits(63), rng.getrandbits(63)
    qc_argv = ["quantum-check", "--max-n", str(QC_MAX_N)]
    ops = [Op("quantum-check", "quantum-check", lambda: run_cli(qc_argv), _check_quantum_check)]
    for e in SWEEP_EXPONENTS:
        for m in SWEEP_M:
            ops.append(Op(f"subspace N=2^{e} m={m}", "subspace",
                          lambda n=2**e, m=m: _sweep_point(n, m), _check_sweep_point(2**e, m)))
    base = ["simulate", "--sampler", "quantum", "--n", str(QUANTUM_N), "--m", str(QUANTUM_M),
            "--delta", str(QUANTUM_DELTA), "--trials", str(QUANTUM_TRIALS)]
    full = base + ["--representation", "full", "--seed", str(seed_full)]
    sub = base + ["--representation", "subspace", "--seed", str(seed_sub)]
    ops += [
        _simulate_op("full workers=1", "simulate", full + ["--workers", "1"],
                     _check_simulate(QUANTUM_N, QUANTUM_M, QUANTUM_DELTA, "budgeted", QUANTUM_TRIALS, seed_full)),
        _simulate_op("full workers=2", "simulate", full + ["--workers", "2"],
                     _check_simulate(QUANTUM_N, QUANTUM_M, QUANTUM_DELTA, "budgeted", QUANTUM_TRIALS, seed_full),
                     same_as="full workers=1"),
        _simulate_op("subspace workers=1", "simulate", sub + ["--workers", "1"],
                     _check_simulate(QUANTUM_N, QUANTUM_M, QUANTUM_DELTA, "budgeted", QUANTUM_TRIALS, seed_sub)),
    ]

    def figures(per_op, outputs):
        figs = {"quantum_check_s": (_kind_sum(ops, per_op, "quantum-check"), "s"),
                "subspace_check_s": (_kind_sum(ops, per_op, "subspace"), "s")}
        figs.update(_simulate_figures(ops, per_op, outputs))
        return figs

    return Workload("quantum", ops, qc_argv, figures)


WORKLOADS = {"tables": tables, "trials-ideal": trials_ideal, "quantum": quantum}
