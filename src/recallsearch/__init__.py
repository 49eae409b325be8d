"""Find every marked state in an unsorted search space.

Per-run exact (phase-matched) search simulation, per-step retry schedules
with an explicit failure tolerance, closed-form run/query totals, a
deletion-model query count for comparison, and a deterministic Monte Carlo
harness that cross-validates all of the above.
"""

__version__ = "0.1.0"

from .analytics import (
    ComplexityReport,
    compare_models,
    duality_queries,
    f_of_delta_curve,
    f_of_m_curve,
    total_runs_closed_form,
)
from .driver import (
    OVERALL,
    PER_STEP,
    Budgeted,
    IdealSampler,
    QuantumSampler,
    StepPlan,
    TrialOutcome,
    Unbounded,
    build_plan,
    execute_trial,
    resolve_step_delta,
    step_budget,
    step_budgets,
)
from .montecarlo import (
    TrialStats,
    chi_square_uniformity,
    run_trials,
    trial_stream,
)
from .search import (
    FULL,
    SUBSPACE,
    ProblemInstance,
    QuantumState,
    SearchParams,
    apply_diffusion_phase,
    apply_oracle_phase,
    derive_search_params,
    final_state,
    marked_mass,
    measure,
    prepare_uniform,
    run_search_once,
    success_probability,
)

__all__ = [
    "Budgeted",
    "ComplexityReport",
    "FULL",
    "IdealSampler",
    "OVERALL",
    "PER_STEP",
    "ProblemInstance",
    "QuantumSampler",
    "QuantumState",
    "SUBSPACE",
    "SearchParams",
    "StepPlan",
    "TrialOutcome",
    "TrialStats",
    "Unbounded",
    "apply_diffusion_phase",
    "apply_oracle_phase",
    "build_plan",
    "chi_square_uniformity",
    "compare_models",
    "derive_search_params",
    "duality_queries",
    "execute_trial",
    "f_of_delta_curve",
    "f_of_m_curve",
    "final_state",
    "marked_mass",
    "measure",
    "prepare_uniform",
    "resolve_step_delta",
    "run_search_once",
    "run_trials",
    "step_budget",
    "step_budgets",
    "success_probability",
    "total_runs_closed_form",
    "trial_stream",
]
