"""Command-line surface: analysis reports, figure tables, simulations, and
the exactness check, with bit-stable CSV/JSON emission.

Values resolve in precedence order: command-line flag, then config file
(flat key=value lines, '#' comments), then built-in default. Every emitted
file is self-describing: CSV starts with a comment line and JSON carries a
"meta" object, both recording the tool version, the resolved config, and
the seed. Identical configs and seeds produce byte-identical output at any
worker count.

Exit codes: 0 success, 1 runtime failure, 2 bad flag/config value, 3
exactness-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .analytics import compare_models, f_of_delta_curve, f_of_m_curve
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


def _parse_marked(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _parse_m_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("expected LOW:HIGH")
    return int(lo), int(hi)


# config-file key -> (attribute on RunConfig, caster)
_CONFIG_KEYS = {
    "n": ("n_states", int),
    "m": ("n_marked", int),
    "marked": ("marked", _parse_marked),
    "delta": ("delta", float),
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "out": ("output_path", str),
    "format": ("output_format", str),
    "strategy": ("strategy", str),
    "sampler": ("sampler", str),
    "representation": ("representation", str),
    "delta-mode": ("delta_mode", str),
    "workers": ("workers", int),
    "preset": ("preset", str),
    "stride": ("stride", int),
    "points": ("points", int),
    "m-range": ("m_range", _parse_m_range),
    "max-n": ("max_n", int),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recallsearch",
        description="Exact-search simulator and query-cost analytics for "
        "finding every marked state in an unsorted search space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--format", choices=["csv", "json"], help="output format")

    def problem_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, help="number of database states N")
        p.add_argument("--m", type=int, help="number of marked states")
        p.add_argument("--marked", type=_parse_marked,
                       help="explicit marked indices, comma-separated (overrides --m)")
        p.add_argument("--delta", type=float, help="failure tolerance in (0, 1)")
        p.add_argument("--delta-mode", choices=[PER_STEP, OVERALL],
                       help="interpret --delta per step (default) or as an overall target")

    p = sub.add_parser("analyze", help="closed-form cost report for one setting")
    common(p)
    problem_flags(p)

    p = sub.add_parser("curves", help="emit a figure table as CSV")
    common(p)
    p.add_argument("--preset", choices=sorted(_CURVE_PRESETS),
                   help="built-in figure preset")
    p.add_argument("--stride", type=int, help="m stride for f(m) presets")
    p.add_argument("--points", type=int, help="point count for f(delta) presets")

    p = sub.add_parser("simulate", help="Monte Carlo trial batch")
    common(p)
    problem_flags(p)
    p.add_argument("--trials", type=int, help="number of trials (default: 1000)")
    p.add_argument("--strategy", choices=["budgeted", "unbounded"])
    p.add_argument("--sampler", choices=["ideal", "quantum"])
    p.add_argument("--representation", choices=[FULL, SUBSPACE],
                   help="state representation for the quantum sampler")
    p.add_argument("--workers", type=int, help="worker threads (default: 1)")

    p = sub.add_parser("quantum-check", help="exactness sweep over a power-of-two grid")
    common(p)
    p.add_argument("--max-n", type=int, help="largest N (power of two, default: 4096)")

    p = sub.add_parser("compare", help="quantum vs deletion-model query table")
    common(p)
    problem_flags(p)
    p.add_argument("--m-range", type=_parse_m_range, help="row range LOW:HIGH for m")

    return parser


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        parser.error(f"--config: cannot read {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            parser.error(f"--config {path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            parser.error(f"--config {path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve argv (+ optional config file) into a validated RunConfig."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    file_values = _load_config_file(ns.config, parser) if ns.config else {}

    config = RunConfig(command=ns.command)
    for key, (attr, cast) in _CONFIG_KEYS.items():
        value = getattr(ns, key.replace("-", "_"), None)
        if value is None and key in file_values:
            try:
                value = cast(file_values[key])
            except ValueError as exc:
                parser.error(f"--config key '{key}': {exc}")
        if value is not None:
            setattr(config, attr, value)

    if ns.seed is None and "seed" not in file_values:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                config.master_seed = int(env_seed)
            except ValueError:
                parser.error(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")

    if ns.format is None and "format" not in file_values:
        config.output_format = "csv" if ns.command in ("curves", "compare") else "json"

    _validate(config, parser)
    return config


def _validate(config: RunConfig, parser: argparse.ArgumentParser) -> None:
    cmd = config.command
    if config.marked is not None:
        if len(set(config.marked)) != len(config.marked):
            parser.error("--marked: indices must be distinct")
        config.n_marked = len(config.marked)

    if cmd in ("analyze", "simulate", "compare"):
        if config.n_states is None:
            parser.error(f"{cmd}: --n is required")
        if config.n_states < 1:
            parser.error(f"--n must be >= 1, got {config.n_states}")
        if config.delta is None:
            parser.error(f"{cmd}: --delta is required")
        if not 0.0 < config.delta < 1.0:
            parser.error(f"--delta must be in (0, 1), got {config.delta}")

    if cmd in ("analyze", "simulate"):
        if config.n_marked is None:
            parser.error(f"{cmd}: --m or --marked is required")
        if not 1 <= config.n_marked <= config.n_states:
            parser.error(
                f"--m must satisfy 1 <= m <= N, got m={config.n_marked}, N={config.n_states}"
            )
        if config.marked is not None and any(
            not 0 <= i < config.n_states for i in config.marked
        ):
            parser.error(f"--marked: indices must lie in [0, {config.n_states})")
        try:
            resolve_step_delta(config.delta, config.n_marked, config.delta_mode)
        except ValueError as exc:
            parser.error(f"--delta: {exc}")

    if cmd == "curves":
        if config.preset is None:
            parser.error("curves: --preset is required")
        if config.stride is not None and config.stride < 1:
            parser.error(f"--stride must be >= 1, got {config.stride}")
        if config.points is not None and config.points < 2:
            parser.error(f"--points must be >= 2, got {config.points}")

    if cmd == "compare":
        if config.m_range is None:
            if config.n_marked is None:
                parser.error("compare: --m-range (or --m) is required")
            config.m_range = (config.n_marked, config.n_marked)
        lo, hi = config.m_range
        if not 1 <= lo <= hi <= config.n_states:
            parser.error(f"--m-range must satisfy 1 <= LOW <= HIGH <= N, got {lo}:{hi}")

    if cmd == "simulate":
        if config.trials < 1:
            parser.error(f"--trials must be >= 1, got {config.trials}")
        if config.workers < 1:
            parser.error(f"--workers must be >= 1, got {config.workers}")
        full = config.sampler == "quantum" and config.representation == FULL
        if full and config.n_states > FULL_MAX_N:
            parser.error(f"--n must be <= {FULL_MAX_N} with --representation full, "
                         f"got {config.n_states} (use --representation subspace)")

    if cmd in ("analyze", "simulate") and config.output_format != "json":
        parser.error(f"{cmd}: only json output is supported")

    if cmd == "quantum-check":
        if not 4 <= config.max_n <= FULL_MAX_N:
            parser.error(f"--max-n must be in [4, {FULL_MAX_N}] (the full-representation "
                         f"cap), got {config.max_n}")

    if not 0 <= config.master_seed < 2**64:
        parser.error(f"--seed must be a 64-bit unsigned integer, got {config.master_seed}")


# Execution context, not experiment identity: results do not depend on these,
# so they stay out of emitted headers to keep outputs byte-stable across
# worker counts and destinations.
_NON_IDENTITY_FIELDS = ("output_path", "workers")


def _resolved_pairs(config: RunConfig) -> list[tuple[str, str]]:
    pairs = []
    for field in sorted(fields(RunConfig), key=lambda f: f.name):
        if field.name in _NON_IDENTITY_FIELDS:
            continue
        value = getattr(config, field.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        pairs.append((field.name, str(value)))
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


def _emit(config: RunConfig, text: str) -> int:
    if config.output_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _report_row(report) -> dict:
    return {("N" if k == "n_states" else k): v for k, v in asdict(report).items()}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit_curves(config: RunConfig) -> int:
    """Write the preset's (x, f) table; CSV schema is `x,f`."""
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
        return _emit(config, _json_text(payload))
    lines = [_comment_line(config), "x,f"]
    lines.extend(f"{_fmt(x)},{_fmt(f)}" for x, f in rows)
    return _emit(config, "\n".join(lines) + "\n")


def _cmd_analyze(config: RunConfig) -> int:
    delta_step = resolve_step_delta(config.delta, config.n_marked, config.delta_mode)
    report = compare_models(config.n_marked, config.n_states, delta_step)
    payload = {"meta": _meta(config)}
    payload.update(_report_row(report))
    return _emit(config, _json_text(payload))


def _cmd_simulate(config: RunConfig) -> int:
    delta_step = resolve_step_delta(config.delta, config.n_marked, config.delta_mode)
    marked = config.marked if config.marked is not None else tuple(range(config.n_marked))
    problem = ProblemInstance(n_states=config.n_states, marked=marked, delta=delta_step)
    params = derive_search_params(problem)
    plan = build_plan(problem, params)
    if config.sampler == "quantum":
        sampler = QuantumSampler(problem, params, config.representation)
    else:
        sampler = IdealSampler(problem, params)
    strategy = Budgeted(plan) if config.strategy == "budgeted" else Unbounded()
    stats = run_trials(
        problem, strategy, sampler, config.trials, config.master_seed, config.workers
    )
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
    return _emit(config, _json_text(payload))


def _cmd_compare(config: RunConfig) -> int:
    delta = config.delta
    lo, hi = config.m_range
    reports = [compare_models(m, config.n_states, delta) for m in range(lo, hi + 1)]
    if config.output_format == "json":
        payload = {"meta": _meta(config), "rows": [_report_row(r) for r in reports]}
        return _emit(config, _json_text(payload))
    columns = ["m", "N", "delta", "r_real", "r_int", "q_real", "q_int", "q_duality"]
    lines = [_comment_line(config), ",".join(columns)]
    for r in reports:
        row = (r.m, r.n_states, r.delta, r.r_real, r.r_integer, r.q_real, r.q_integer,
               r.q_duality)
        lines.append(",".join(_fmt(v) for v in row))
    return _emit(config, "\n".join(lines) + "\n")


def _cmd_quantum_check(config: RunConfig) -> int:
    """Exactness sweep: max |1 - p_success| over the power-of-two grid."""
    lines = [_comment_line(config)]
    worst = 0.0
    n = 4
    while n <= config.max_n:
        n_worst = 0.0
        for m in sorted({1, 2, 3, n // 4, n // 2, n}):
            problem = ProblemInstance(n_states=n, marked=tuple(range(m)), delta=0.5)
            params = derive_search_params(problem)
            for representation in (SUBSPACE, FULL):
                p = success_probability(problem, params, representation)
                n_worst = max(n_worst, abs(1.0 - p))
        worst = max(worst, n_worst)
        lines.append(f"N={n}: worst |1 - p_success| = {n_worst:.3e}")
        n *= 2
    status = "ok" if worst <= EXACTNESS_THRESHOLD else "FAIL"
    lines.append(
        f"max deviation over grid: {worst:.3e} "
        f"(threshold {EXACTNESS_THRESHOLD:.1e}) {status}"
    )
    code = _emit(config, "\n".join(lines) + "\n")
    if code != 0:
        return code
    return 0 if worst <= EXACTNESS_THRESHOLD else 3


def run_command(config: RunConfig) -> int:
    handlers = {
        "analyze": _cmd_analyze,
        "curves": emit_curves,
        "simulate": _cmd_simulate,
        "quantum-check": _cmd_quantum_check,
        "compare": _cmd_compare,
    }
    return handlers[config.command](config)


def main(argv: list[str] | None = None) -> None:
    sys.exit(run_command(parse_config(argv)))
