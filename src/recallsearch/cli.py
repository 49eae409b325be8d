"""Command-line surface: analysis reports, figure tables, simulations, and
the exactness check, with bit-stable CSV/JSON emission.

Every option is declared once, in `_OPTIONS`, and the parser is built from
that table at import. Values resolve in precedence order: command-line flag,
then config file (flat key=value lines, '#' comments, each key a flag name
without "--", cast and bounds-checked exactly like the flag), then
$RECALL_SEED for the seed, then built-in default. Every emitted file is
self-describing: CSV starts with a comment line and JSON carries a "meta"
object, both recording the tool version, the resolved config, and the seed.
Identical configs and seeds produce byte-identical output. Each command
handler returns its text and exit code; `run_command` opens --out before
the handler runs and writes the text after.

Exit codes: 0 success, 1 runtime failure (an OSError), 2 bad flag/config
value or a numerical limit (a ValueError), 3 exactness-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytics import (
    _run_lanes,
    _usable_cpus,
    compare_models,
    compare_table,
    f_of_delta_curve,
    f_of_m_curve,
)
from .driver import (
    OVERALL,
    PER_STEP,
    Budgeted,
    IdealSampler,
    QuantumSampler,
    Unbounded,
    build_plan,
    resolve_step_delta,
)
from .montecarlo import run_trials
from .search import (
    FULL,
    FULL_MAX_N,
    SUBSPACE,
    ProblemInstance,
    derive_search_params,
    success_probability,
)

SEED_ENV_VAR = "RECALL_SEED"
EXACTNESS_THRESHOLD = 1e-9
# simulate holds and prints m budgets and rates: 340 MB, 26 MB of JSON at 2**20
SIMULATE_MAX_M = 2**20

_CURVE_PRESETS = {
    "fig1": {"kind": "m", "delta": 0.01, "m_min": 1, "m_max": 100000, "stride": 100},
    "fig2": {"kind": "m", "delta": 0.01, "m_min": 1, "m_max": 200, "stride": 1},
    "fig3": {
        "kind": "delta",
        "m": 1000,
        "delta_min": 1e-5,
        "delta_max": 0.5,
        "points": 200,
        "spacing": "log",
    },
    "fig4": {
        "kind": "delta",
        "m": 1000,
        "delta_min": 0.01,
        "delta_max": 0.5,
        "points": 200,
        "spacing": "linear",
    },
}


@dataclass
class RunConfig:
    """Fully resolved invocation: command plus every effective setting."""

    command: str
    n_states: int | None = None
    n_marked: int | None = None
    marked: tuple[int, ...] | None = None
    delta: float | None = None
    trials: int = 1000
    master_seed: int = 0
    output_path: str | None = None
    output_format: str = "json"
    strategy: str = "budgeted"
    sampler: str = "ideal"
    representation: str = FULL
    delta_mode: str = PER_STEP
    workers: int = 1
    preset: str | None = None
    stride: int | None = None
    points: int | None = None
    m_range: tuple[int, int] | None = None
    max_n: int = 4096


# Not experiment identity: results do not depend on these, so they stay out
# of emitted headers to keep outputs byte-stable across destinations and the
# accepted but ignored --workers.
_NON_IDENTITY_FIELDS = ("output_path", "workers")
_IDENTITY_FIELDS = sorted(f.name for f in fields(RunConfig) if f.name not in _NON_IDENTITY_FIELDS)


def _resolved_pairs(config: RunConfig) -> list[tuple[str, str]]:
    pairs = []
    for name in _IDENTITY_FIELDS:
        value = getattr(config, name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        pairs.append((name, str(value)))
    return pairs


def _comment_line(config: RunConfig) -> str:
    body = " ".join(f"{k}={v}" for k, v in _resolved_pairs(config))
    return f"# recallsearch {__version__} | {body}"


def _meta(config: RunConfig) -> dict:
    return {
        "tool": "recallsearch",
        "version": __version__,
        "config": dict(_resolved_pairs(config)),
        "seed": config.master_seed,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _report_row(report) -> dict:
    names = (f.name for f in fields(report))
    return {("N" if k == "n_states" else k): getattr(report, k) for k in names}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit_curves(config: RunConfig) -> tuple[str, int]:
    """The preset's (x, f) table as text; CSV schema is `x,f`."""
    preset = _CURVE_PRESETS[config.preset]
    if preset["kind"] == "m":
        stride = config.stride if config.stride is not None else preset["stride"]
        rows = f_of_m_curve(preset["delta"], preset["m_min"], preset["m_max"], stride)
    else:
        points = config.points if config.points is not None else preset["points"]
        rows = f_of_delta_curve(
            preset["m"],
            preset["delta_min"],
            preset["delta_max"],
            points,
            spacing=preset["spacing"],
        )
    if config.output_format == "json":
        payload = {"meta": _meta(config), "columns": ["x", "f"], "rows": [list(r) for r in rows]}
        return _json_text(payload), 0
    lines = [_comment_line(config), "x,f"]
    lines.extend(f"{_fmt(x)},{_fmt(f)}" for x, f in rows)
    return "\n".join(lines) + "\n", 0


def _cmd_analyze(config: RunConfig) -> tuple[str, int]:
    delta_step = resolve_step_delta(config.delta, config.n_marked, config.delta_mode)
    report = compare_models(config.n_marked, config.n_states, delta_step)
    payload = {"meta": _meta(config)}
    payload.update(_report_row(report))
    return _json_text(payload), 0


def _cmd_simulate(config: RunConfig) -> tuple[str, int]:
    delta_step = resolve_step_delta(config.delta, config.n_marked, config.delta_mode)
    marked = config.marked if config.marked is not None else range(config.n_marked)
    problem = ProblemInstance(n_states=config.n_states, marked=marked, delta=delta_step)
    params = derive_search_params(problem)
    plan = build_plan(problem, params)
    if config.sampler == "quantum":
        sampler = QuantumSampler(problem, params, config.representation)
    else:
        sampler = IdealSampler(problem, params)
    strategy = Budgeted(plan) if config.strategy == "budgeted" else Unbounded()
    stats = run_trials(problem, strategy, sampler, config.trials, config.master_seed)
    payload = {
        "meta": _meta(config),
        "n_trials": stats.n_trials,
        "queries_per_run": plan.queries_per_run,
        "step_budgets": list(plan.budgets),
        "per_step_success_rate": list(stats.per_step_success_rate),
        "per_step_stderr": list(stats.per_step_stderr),
        "mean_runs": stats.mean_runs,
        "mean_queries": stats.mean_queries,
        "overall_success_rate": stats.overall_success_rate,
        "master_seed": stats.master_seed,
    }
    return _json_text(payload), 0


def _cmd_compare(config: RunConfig) -> tuple[str, int]:
    lo, hi = config.m_range
    reports = compare_table(range(lo, hi + 1), config.n_states, config.delta)
    if config.output_format == "json":
        payload = {"meta": _meta(config), "rows": [_report_row(r) for r in reports]}
        return _json_text(payload), 0
    columns = ["m", "N", "delta", "r_real", "r_int", "q_real", "q_int", "q_duality"]
    lines = [_comment_line(config), ",".join(columns)]
    for r in reports:
        row = (r.m, r.n_states, r.delta, r.r_real, r.r_integer, r.q_real, r.q_integer,
               r.q_duality)
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n", 0


def _cmd_quantum_check(config: RunConfig) -> tuple[str, int]:
    """Exactness sweep: max |1 - p_success| over the power-of-two grid.

    The FULL evolutions of O(sqrt N) rounds (m <= 3 at N >= 2**15) spend
    their time in numpy calls that release the GIL, so they run first in two
    lanes, balanced by N * iterations: one here, one on a thread, through
    analytics._run_lanes, the helper k-sum pricing also uses. Everything
    else runs after the join, here and in grid order; below 2**15 the
    per-round Python work would contend for the GIL, and the m ~ N jobs hold
    m-element temporaries. With one usable CPU there is one lane and no
    thread. Each job runs the same operations either way, so the output
    does not depend on the lanes.
    """
    jobs = []  # (problem, params, representation), in grid order
    n = 4
    while n <= config.max_n:
        for m in sorted({1, 2, 3, n // 4, n // 2, n}):
            problem = ProblemInstance(n_states=n, marked=range(m), delta=0.5)
            params = derive_search_params(problem)
            jobs += [(problem, params, SUBSPACE), (problem, params, FULL)]
        n *= 2
    deviations = [0.0] * len(jobs)

    def run(lane):
        for i in lane:
            deviations[i] = abs(1.0 - success_probability(*jobs[i]))

    def cost(i):
        return jobs[i][0].n_states * jobs[i][1].iterations

    long = sorted((i for i, (problem, _, rep) in enumerate(jobs)
                   if rep == FULL and problem.n_marked <= 3 and problem.n_states >= 2**15),
                  key=cost, reverse=True)
    lanes = [[] for _ in range(min(2, _usable_cpus()))]
    for i in long:  # greedy: the costliest job left goes to the lightest lane
        min(lanes, key=lambda lane: sum(map(cost, lane))).append(i)
    _run_lanes(lanes, run)
    run([i for i in range(len(jobs)) if i not in long])

    lines = [_comment_line(config)]
    by_n = {}
    for (problem, *_), d in zip(jobs, deviations):
        by_n.setdefault(problem.n_states, []).append(d)
    # np.max, unlike max(), keeps a NaN deviation, which then fails the check
    lines.extend(f"N={n}: worst |1 - p_success| = {np.max(ds):.3e}" for n, ds in by_n.items())
    worst = float(np.max(deviations))
    passed = worst <= EXACTNESS_THRESHOLD
    lines.append(
        f"max deviation over grid: {worst:.3e} "
        f"(threshold {EXACTNESS_THRESHOLD:.1e}) {'ok' if passed else 'FAIL'}"
    )
    return "\n".join(lines) + "\n", 0 if passed else 3


def _parse_marked(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _parse_m_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("expected LOW:HIGH")
    return int(lo), int(hi)


class _Option(NamedTuple):
    attr: str  # RunConfig field, also the argparse dest
    kind: Callable | tuple[str, ...]  # caster, or the allowed values
    commands: tuple[str, ...]
    help: str
    lo: int | None = None  # smallest allowed value
    hi: float | None = None  # largest allowed value


# command -> (handler, help)
_COMMANDS = {
    "analyze": (_cmd_analyze, "closed-form cost report for one setting"),
    "curves": (emit_curves, "emit a figure table as CSV"),
    "simulate": (_cmd_simulate, "Monte Carlo trial batch"),
    "quantum-check": (_cmd_quantum_check, "exactness sweep over a power-of-two grid"),
    "compare": (_cmd_compare, "quantum vs deletion-model query table"),
}
_ALL = tuple(_COMMANDS)
_PROBLEM = ("analyze", "simulate", "compare")

# Every option, keyed by its flag name without "--", which is also its
# config-file key. --n stops at the largest float because N/m is evaluated
# in floating point.
_OPTIONS = {
    "out": _Option("output_path", str, _ALL, "output path (default: stdout)"),
    "seed": _Option("master_seed", int, _ALL,
                    f"master seed (default: ${SEED_ENV_VAR} or 0)", 0, 2**64 - 1),
    "format": _Option("output_format", ("csv", "json"), _ALL, "output format"),
    "n": _Option("n_states", int, _PROBLEM, "number of database states N",
                 1, sys.float_info.max),
    "m": _Option("n_marked", int, _PROBLEM,
                 f"number of marked states (simulate: at most {SIMULATE_MAX_M})"),
    "marked": _Option("marked", _parse_marked, _PROBLEM,
                      "explicit marked indices, comma-separated (overrides --m)"),
    "delta": _Option("delta", float, _PROBLEM, "failure tolerance in (0, 1)"),
    "delta-mode": _Option("delta_mode", (PER_STEP, OVERALL), ("analyze", "simulate"),
                          "interpret --delta per step (default) or as an overall target"),
    "preset": _Option("preset", tuple(sorted(_CURVE_PRESETS)), ("curves",),
                      "built-in figure preset"),
    "stride": _Option("stride", int, ("curves",), "m stride for f(m) presets", 1),
    "points": _Option("points", int, ("curves",), "point count for f(delta) presets", 2),
    "trials": _Option("trials", int, ("simulate",), "number of trials (default: 1000)", 1),
    "strategy": _Option("strategy", ("budgeted", "unbounded"), ("simulate",),
                        "retry strategy (default: budgeted)"),
    "sampler": _Option("sampler", ("ideal", "quantum"), ("simulate",),
                       "draw source (default: ideal)"),
    "representation": _Option("representation", (FULL, SUBSPACE), ("simulate",),
                              "state representation for the quantum sampler"),
    "workers": _Option("workers", int, ("simulate",),
                       "accepted and ignored: trials always run sequentially", 1),
    "max-n": _Option("max_n", int, ("quantum-check",),
                     "largest N (power of two, default: 4096, at most the "
                     "full-representation cap)", 4, FULL_MAX_N),
    "m-range": _Option("m_range", _parse_m_range, ("compare",),
                       "row range LOW:HIGH for m"),
}


def _cast(option: _Option, text: str):
    """Turn one flag, config-file or environment value into its RunConfig
    value, applying the option's choices and bounds."""
    if isinstance(option.kind, tuple):
        if text not in option.kind:
            raise argparse.ArgumentTypeError(
                f"invalid choice {text!r} (choose from {', '.join(option.kind)})")
        return text
    try:
        value = option.kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
    if option.lo is not None and value < option.lo:
        raise argparse.ArgumentTypeError(f"must be >= {option.lo}, got {value}")
    if option.hi is not None and value > option.hi:
        raise argparse.ArgumentTypeError(f"must be <= {option.hi}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recallsearch",
        description="Exact-search simulator and query-cost analytics for "
        "finding every marked state in an unsorted search space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key=value config file")
        for key, option in _OPTIONS.items():
            if command in option.commands:
                choices = isinstance(option.kind, tuple)
                p.add_argument(
                    f"--{key}", dest=option.attr, type=partial(_cast, option),
                    metavar="{%s}" % ",".join(option.kind) if choices
                    else key.upper().replace("-", "_"),
                    help=option.help,
                )
    return parser


_PARSER = build_parser()


def _cast_or_exit(key: str, text: str, source: str):
    try:
        return _cast(_OPTIONS[key], text)
    except argparse.ArgumentTypeError as exc:
        _PARSER.error(f"{source}: {exc}")


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        _PARSER.error(f"--config: cannot read {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            _PARSER.error(f"--config {path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _OPTIONS:
            _PARSER.error(f"--config {path}:{lineno}: unknown key {key!r}")
        if command not in _OPTIONS[key].commands:
            _PARSER.error(f"--config {path}:{lineno}: {command} does not take key {key!r}")
        values[_OPTIONS[key].attr] = _cast_or_exit(
            key, value, f"--config {path}:{lineno}: key '{key}'")
    return values


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve argv (+ optional config file) into a validated RunConfig."""
    flags = {k: v for k, v in vars(_PARSER.parse_args(argv)).items() if v is not None}
    path = flags.pop("config", None)
    values = _load_config_file(path, flags["command"]) if path else {}
    values.update(flags)
    if "master_seed" not in values and SEED_ENV_VAR in os.environ:
        values["master_seed"] = _cast_or_exit("seed", os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
    values.setdefault("output_format",
                      "csv" if values["command"] in ("curves", "compare") else "json")
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    error = _PARSER.error
    cmd = config.command
    if cmd in _PROBLEM:
        if config.n_states is None:
            error(f"{cmd}: --n is required")
        if config.delta is None:
            error(f"{cmd}: --delta is required")
        if not 0.0 < config.delta < 1.0:
            error(f"--delta must be in (0, 1), got {config.delta}")

    if config.marked is not None:  # only the problem commands take --marked
        if not config.marked:
            error("--marked: at least one index is required")
        if len(set(config.marked)) != len(config.marked):
            error("--marked: indices must be distinct")
        if min(config.marked) < 0 or max(config.marked) >= config.n_states:
            error(f"--marked: indices must lie in [0, {config.n_states})")
        config.n_marked = len(config.marked)

    if cmd in ("analyze", "simulate"):
        if config.n_marked is None:
            error(f"{cmd}: --m or --marked is required")
        if not 1 <= config.n_marked <= config.n_states:
            error(f"--m must satisfy 1 <= m <= N, got m={config.n_marked}, N={config.n_states}")
        if cmd == "simulate" and config.n_marked > SIMULATE_MAX_M:
            error(f"--m must be <= {SIMULATE_MAX_M} for simulate, got {config.n_marked}")
        try:
            resolve_step_delta(config.delta, config.n_marked, config.delta_mode)
        except ValueError as exc:
            error(f"--delta: {exc}")

    if cmd == "curves" and config.preset is None:
        error("curves: --preset is required")

    if cmd == "compare":
        if config.m_range is None:
            if config.n_marked is None:
                error("compare: --m-range (or --m) is required")
            config.m_range = (config.n_marked, config.n_marked)
        lo, hi = config.m_range
        if not 1 <= lo <= hi <= config.n_states:
            error(f"--m-range must satisfy 1 <= LOW <= HIGH <= N, got {lo}:{hi}")

    full = config.sampler == "quantum" and config.representation == FULL
    if cmd == "simulate" and full and config.n_states > FULL_MAX_N:
        error(f"--n must be <= {FULL_MAX_N} with --representation full, "
              f"got {config.n_states} (use --representation subspace)")

    if cmd in ("analyze", "simulate") and config.output_format != "json":
        error(f"{cmd}: only json output is supported")


def run_command(config: RunConfig) -> int:
    """Run the command and write its text to --out or stdout.

    --out is opened (created or truncated) before the command runs, so an
    unwritable path fails at once rather than after the work.
    """
    handler = _COMMANDS[config.command][0]
    path = config.output_path
    if path is None:
        text, code = handler(config)
        sys.stdout.write(text)
        return code
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            # handlers do no I/O, so an OSError here is the output file's
            text, code = handler(config)
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return code


def main(argv: list[str] | None = None) -> None:
    """Run the CLI and exit with its code. A ValueError that escapes a
    command (a numerical limit) exits 2 and an OSError exits 1, each with a
    one-line message instead of a traceback."""
    try:
        code = run_command(parse_config(argv))
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: {message}", file=sys.stderr)
        code = 2 if isinstance(exc, ValueError) else 1
    sys.exit(code)


if __name__ == "__main__":
    main()
