"""Run one benchmark workload against the recallsearch sources in this tree.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Rounds of the workload's operations repeat until --seconds have passed
(at least two rounds, so every output is seen twice). With --trace 0 it
prints the end-to-end metrics; with --trace 1 it wraps the package's
public functions and prints the per-layer metrics instead. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. A result
file with the machine, the versions and every figure goes to bench/out/.
"""

from __future__ import annotations

import os

# One process, no hidden thread pools: simulate's --workers 2 is the only
# concurrency a workload has.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

MIN_ROUNDS = 2
SETUP_SAMPLES = 11

# Timing against a fixed kernel. On a shared 2-vCPU host, other tenants slow
# the whole machine by up to 2x for seconds to minutes at a time, and raw
# times of one command spread 12-30% between runs. Every command is
# therefore timed between two runs of a fixed calibration kernel and
# reported in calibrated seconds: its time times CAL_REF_S over the mean
# kernel time around it. CAL_REF_S is about what the kernel takes on that
# host (Intel Xeon, 2.1 GHz), so calibrated seconds read close to wall
# seconds.
CAL_REF_S = 0.003
_CAL_K = numpy.arange(1, 20000, dtype=numpy.float64)


def calibration() -> float:
    """Seconds the kernel takes now: a Python loop and a numpy log1p/fsum
    pass, the two kinds of work the workloads do."""
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    math.fsum(1.0 / numpy.log1p((20000 - _CAL_K) / _CAL_K))
    return perf_counter() - start

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from recallsearch import cli; cli.parse_config(sys.argv[2:])"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["tables", "trials-ideal", "quantum"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def measure_setup(argv: list[str]) -> tuple[float, float]:
    """Median time of a fresh interpreter that imports recallsearch.cli and
    parses the workload's first command line: (calibrated, raw) seconds.

    The child runs apart from the kernel, so one kernel time next to one
    start is a poor gauge; the median start is calibrated by the median of
    the kernel times taken between starts."""
    starts, kernels = [], [calibration()]
    for _ in range(SETUP_SAMPLES):
        begin = perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        starts.append(perf_counter() - begin)
        kernels.append(calibration())
    raw = statistics.median(starts)
    return raw * CAL_REF_S / statistics.median(kernels), raw


def run_rounds(workload, seconds: float):
    """Repeat the round until time is up. Returns the rounds (lists of
    (op, raw seconds, calibrated seconds, output, error)), their wall times
    and the accounting."""
    from workloads import fault_name

    rounds, walls = [], []
    first: dict[str, tuple[str, list[str]]] = {}
    attempted = failed = 0
    faults: Counter = Counter()
    problems: list[str] = []
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        gc.collect()
        results = []
        round_start = perf_counter()
        cal = calibration()
        for op in workload.ops:
            t = perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # the operation failed; record it and go on
                out, err = None, exc
            elapsed = perf_counter() - t
            cal_after = calibration()
            results.append((op, elapsed, elapsed * CAL_REF_S / ((cal + cal_after) / 2), out, err))
            cal = cal_after
        walls.append(perf_counter() - round_start)

        outputs = {op.name: out for op, _, _, out, _ in results}
        for op, _, _, out, err in results:
            attempted += 1
            if err is not None:
                failed += 1
                faults[fault_name(err)] += 1
                continue
            if op.name not in first:
                try:
                    issues = list(op.check(out))
                except Exception as exc:  # unparseable output is a wrong output
                    issues = [f"check raised {type(exc).__name__}: {exc}"]
                first[op.name] = (out, issues)
            reference, issues = first[op.name]
            issues = list(issues)
            if out != reference:
                issues.append("output differs from the first round's")
            if op.same_as is not None and out != outputs[op.same_as]:
                issues.append(f"output differs from {op.same_as!r}")
            if issues:
                failed += 1
                problems.extend(f"round {len(rounds) + 1}, {op.name}: {i}" for i in issues)
        rounds.append(results)
    return rounds, walls, attempted, failed, faults, problems


def machine() -> dict:
    sha, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recallsearch" / "__init__.py").is_file():
        print(f"error: no recallsearch sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recallsearch

    if Path(recallsearch.__file__).resolve().parent != SRC / "recallsearch":
        print(f"error: imported recallsearch from {recallsearch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_s, setup_raw_s = measure_setup(workload.setup_argv)
    try:
        rounds, walls, attempted, failed, faults, problems = run_rounds(workload, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # each command's median over the rounds; a round's time is their sum
    per_op = {op.name: statistics.median(r[k][2] for r in rounds) for k, op in enumerate(workload.ops)}
    raw = {op.name: statistics.median(r[k][1] for r in rounds) for k, op in enumerate(workload.ops)}
    outputs = {op.name: out for op, _, _, out, _ in rounds[0]}
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(per_op.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "cmd_p50_s": (statistics.median(per_op.values()), "s"),
        }
    else:
        metrics = tracer.metrics(len(rounds))
        metrics["bench.traced_wall_s"] = (sum(per_op.values()), "s")
    figures = workload.figures(per_op, outputs)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.json"
    result = {
        "machine": machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(workload.ops),
        "calibration_ref_s": CAL_REF_S,
        "raw_round_wall_s": walls,
        "raw_wall_s": sum(raw.values()),
        "raw_setup_s": None if tracer else setup_raw_s,
        "attempted": attempted,
        "failed": failed,
        "faults": dict(faults),
        "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }
    if tracer is not None:
        result["missing_metrics"] = tracer.missing_metrics()
        result["spans_file"] = f"{stem}.spans.jsonl"
        tracer.write_spans(OUT / result["spans_file"])
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}  "
          f"ops/round {len(workload.ops)}")
    print(f"attempted {attempted}  failed {failed}")
    for name, count in sorted(faults.items()):
        print(f"  failed: {name} x{count}")
    for line in problems[:20]:
        print(f"  wrong output: {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in figures.items():
        print(f"figure {name} = {value:.6g} {unit}")
    if tracer is not None and tracer.missing_metrics():
        print("missing (name removed or renamed): " + ", ".join(tracer.missing_metrics()))
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
