"""Per-layer instruments attached to recallsearch from outside.

A traced run wraps public functions and methods of the package's modules
at every module attribute that holds them, so calls made through the
package, through another module's import or from inside the same module
are all seen. Calls that run once per command or per trial record a span
(name, start, end, parent); hot calls (draws, measures, operator rounds,
step budgets, k-sums) only add to a per-thread count and summed time, and
that time is charged to the innermost open span on the calling thread so
self times stay right. Spans stay in memory until the run writes them out.

A name that a later change removes or renames is skipped; every metric
that needs it is reported as missing and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from time import perf_counter

PACKAGE = "recallsearch"

SPAN, COUNT = "span", "count"

# (module, qualified name, how it is recorded)
TARGETS = (
    ("search", "derive_search_params", COUNT),
    ("search", "apply_oracle_phase", COUNT),
    ("search", "apply_diffusion_phase", COUNT),
    ("search", "measure", COUNT),
    ("search", "final_state", SPAN),
    ("search", "success_probability", SPAN),
    ("driver", "step_budget", COUNT),
    ("driver", "build_plan", SPAN),
    ("driver", "execute_trial", SPAN),
    ("driver", "IdealSampler.draw", COUNT),
    ("driver", "QuantumSampler.draw", COUNT),
    ("driver", "QuantumSampler.__init__", SPAN),
    ("montecarlo", "run_trials", SPAN),
    ("montecarlo", "trial_stream", SPAN),
    ("analytics", "total_runs_closed_form", COUNT),
    ("analytics", "compare_models", SPAN),
    ("analytics", "f_of_m_curve", SPAN),
    ("analytics", "f_of_delta_curve", SPAN),
    ("cli", "parse_config", SPAN),
    ("cli", "run_command", SPAN),
)

# per-layer metric -> (unit, names it is computed from)
METRICS = {
    "search.evolve_s": ("s", ("final_state", "success_probability")),
    "search.rounds": ("count", ("apply_oracle_phase",)),
    "search.round_us": ("us", ("apply_oracle_phase", "apply_diffusion_phase")),
    "search.measures": ("count", ("measure",)),
    "search.measure_full_us": ("us", ("measure",)),
    "search.measure_subspace_us": ("us", ("measure",)),
    "search.norm_rejects": ("count", ("final_state",)),
    "search.params_us": ("us", ("derive_search_params",)),
    "driver.draws": ("count", ("IdealSampler.draw", "QuantumSampler.draw")),
    "driver.new_per_draw": (
        "ratio", ("IdealSampler.draw", "QuantumSampler.draw", "execute_trial")),
    "driver.unmarked_draws": ("count", ("IdealSampler.draw", "QuantumSampler.draw")),
    "driver.draw_ideal_us": ("us", ("IdealSampler.draw",)),
    "driver.draw_quantum_us": ("us", ("QuantumSampler.draw",)),
    "driver.trial_self_us": ("us", ("execute_trial",)),
    "driver.exhausted": ("count", ("execute_trial",)),
    "driver.sampler_build_s": ("s", ("QuantumSampler.__init__",)),
    "driver.plan_s": ("s", ("build_plan",)),
    "driver.step_budget_calls": ("count", ("step_budget",)),
    "driver.step_budget_us": ("us", ("step_budget",)),
    "montecarlo.trials": ("count", ("execute_trial",)),
    "montecarlo.stream_us": ("us", ("trial_stream",)),
    "montecarlo.run_trials_s": ("s", ("run_trials",)),
    "montecarlo.aggregate_s": ("s", ("run_trials",)),
    "analytics.ksum_terms": ("count", ("total_runs_closed_form",)),
    "analytics.closed_form_us": ("us", ("total_runs_closed_form",)),
    "analytics.closed_form_ns_per_term": ("ns", ("total_runs_closed_form",)),
    "analytics.compare_models_us": ("us", ("compare_models",)),
    "analytics.curve_m_s": ("s", ("f_of_m_curve",)),
    "analytics.curve_delta_s": ("s", ("f_of_delta_curve",)),
    "cli.parse_us": ("us", ("parse_config",)),
    "cli.emit_s": ("s", ("run_command",)),
}

_EVOLVE = ("final_state", "success_probability")


class _ThreadState:
    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[list] = []  # open spans: [id, name, start, end, parent, charged, main]
        self.depth = 0  # nesting of counted calls
        self.tally: dict[str, list] = {}  # name -> [calls, seconds]


class Tracer:
    """Installs the wrappers, records spans and counts, and turns them into
    per-layer metrics. Install and uninstall from the main thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._marked: dict[int, tuple[object, frozenset]] = {}
        self._main_stack: list = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _add(self, state: _ThreadState, name: str, seconds: float = 0.0, calls: int = 1) -> None:
        entry = state.tally.get(name)
        if entry is None:
            state.tally[name] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            # A pool thread has no open span of its own: its work belongs to
            # the span the main thread is waiting in.
            stack = state.stack or tracer._main_stack
            parent = stack[-1][0] if stack else None
            record = [next(tracer._ids), name, perf_counter(), 0.0, parent, 0.0, state.main]
            state.stack.append(record)
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:
                if name == "final_state" and "not normalized" in str(exc):
                    tracer._add(state, "norm_rejects")
                raise
            finally:
                record[3] = perf_counter()
                state.stack.pop()
                tracer.spans.append(tuple(record))
            if name == "execute_trial":
                tracer._add(state, "found", calls=len(result.found_order))
                if not result.success:
                    tracer._add(state, "exhausted")
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            state.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                state.depth -= 1
                if state.depth == 0 and state.stack:
                    state.stack[-1][5] += seconds
            key = name
            if name == "measure":
                key = "measure." + args[0].representation
            elif name.endswith(".draw"):
                sampler = args[0]
                if result not in tracer._marked_set(sampler.problem):
                    tracer._add(state, "unmarked_draws")
            elif name == "total_runs_closed_form":
                m = args[0] if args else kwargs["m"]
                tracer._add(state, "ksum_terms", calls=max(m - 1, 0))
            tracer._add(state, key, seconds)
            return result

        return wrapper

    def _marked_set(self, problem) -> frozenset:
        entry = self._marked.get(id(problem))
        if entry is None or entry[0] is not problem:
            entry = (problem, frozenset(problem.marked))
            self._marked[id(problem)] = entry
        return entry[1]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        self._main_stack = self._state().stack
        for module_name, qualname, mode in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(qualname)
                continue
            short = qualname if path else attr
            make = self._span_wrapper if mode == SPAN else self._count_wrapper
            wrapped = make(short, original)
            if path:  # a method: the class attribute is the one way in
                self._patch(owner, attr, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def tally(self, main_only: bool = False) -> dict[str, list]:
        total: dict[str, list] = {}
        with self._lock:
            states = [s for s in self._states if s.main or not main_only]
        for state in states:
            for name, (calls, seconds) in state.tally.items():
                entry = total.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
        return total

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its child spans' intervals
        and the time of counted calls made directly inside it."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for span_id, _, start, end, _, charged, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[span_id] = (end - start) - covered - charged
        return result

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics. Counts and totals are per round, since every
        round repeats the same commands. Per-call times come from the main
        thread only: a call on a pool thread also waits for the other
        thread to release the interpreter lock. Per-call times of spans are
        medians; those of counted calls are means, as only sums are kept."""
        counts, main = self.tally(), self.tally(main_only=True)
        self_time = self.self_times()
        names = {s[0]: s[1] for s in self.spans}

        def calls(name):
            return counts.get(name, (0, 0.0))[0]

        def per_call_us(name):
            n, seconds = main.get(name, (0, 0.0))
            return seconds / n * 1e6 if n else 0.0

        span_calls: dict[str, int] = {}
        totals: dict[str, float] = {}
        self_totals: dict[str, float] = {}
        main_spans: dict[str, tuple[list, list]] = {}  # name -> (durations, self times)
        evolve = 0.0
        for span_id, name, start, end, parent, _, on_main in self.spans:
            span_calls[name] = span_calls.get(name, 0) + 1
            totals[name] = totals.get(name, 0.0) + (end - start)
            self_totals[name] = self_totals.get(name, 0.0) + self_time[span_id]
            if on_main:
                durations, selfs = main_spans.setdefault(name, ([], []))
                durations.append(end - start)
                selfs.append(self_time[span_id])
            if name in _EVOLVE and names.get(parent) not in _EVOLVE:
                evolve += end - start

        def span_us(name, column=0):
            # median: a collection pause or preemption lands in single spans
            entry = main_spans.get(name)
            return statistics.median(entry[column]) * 1e6 if entry else 0.0

        draws = calls("IdealSampler.draw") + calls("QuantumSampler.draw")
        oracle_calls, oracle_s = main.get("apply_oracle_phase", (0, 0.0))
        diffusion_s = main.get("apply_diffusion_phase", (0, 0.0))[1]
        terms, closed_form_s = main.get("ksum_terms", (0, 0.0))[0], main.get("total_runs_closed_form", (0, 0.0))[1]

        def per_round(value):
            return value / rounds

        values = {
            "search.evolve_s": per_round(evolve),
            "search.rounds": per_round(calls("apply_oracle_phase")),
            "search.round_us": (oracle_s + diffusion_s) / oracle_calls * 1e6 if oracle_calls else 0.0,
            "search.measures": per_round(calls("measure.full") + calls("measure.subspace")),
            "search.measure_full_us": per_call_us("measure.full"),
            "search.measure_subspace_us": per_call_us("measure.subspace"),
            "search.norm_rejects": per_round(calls("norm_rejects")),
            "search.params_us": per_call_us("derive_search_params"),
            "driver.draws": per_round(draws),
            "driver.new_per_draw": calls("found") / draws if draws else 0.0,
            "driver.unmarked_draws": per_round(calls("unmarked_draws")),
            "driver.draw_ideal_us": per_call_us("IdealSampler.draw"),
            "driver.draw_quantum_us": per_call_us("QuantumSampler.draw"),
            "driver.trial_self_us": span_us("execute_trial", column=1),
            "driver.exhausted": per_round(calls("exhausted")),
            "driver.sampler_build_s": per_round(totals.get("QuantumSampler.__init__", 0.0)),
            "driver.plan_s": per_round(totals.get("build_plan", 0.0)),
            "driver.step_budget_calls": per_round(calls("step_budget")),
            "driver.step_budget_us": per_call_us("step_budget"),
            "montecarlo.trials": per_round(span_calls.get("execute_trial", 0)),
            "montecarlo.stream_us": span_us("trial_stream"),
            "montecarlo.run_trials_s": per_round(totals.get("run_trials", 0.0)),
            "montecarlo.aggregate_s": per_round(self_totals.get("run_trials", 0.0)),
            "analytics.ksum_terms": per_round(calls("ksum_terms")),
            "analytics.closed_form_us": per_call_us("total_runs_closed_form"),
            "analytics.closed_form_ns_per_term": closed_form_s / terms * 1e9 if terms else 0.0,
            "analytics.compare_models_us": span_us("compare_models"),
            "analytics.curve_m_s": per_round(totals.get("f_of_m_curve", 0.0)),
            "analytics.curve_delta_s": per_round(totals.get("f_of_delta_curve", 0.0)),
            "cli.parse_us": span_us("parse_config"),
            "cli.emit_s": per_round(self_totals.get("run_command", 0.0)),
        }
        result = {}
        for name, (unit, needs) in METRICS.items():
            if any(n in self.missing for n in needs):
                continue
            value = values[name]
            if unit == "count" and float(value).is_integer():
                value = int(value)
            result[name] = (value, unit)
        return result

    def missing_metrics(self) -> list[str]:
        return [name for name, (_, needs) in METRICS.items() if any(n in self.missing for n in needs)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, _, _ in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
