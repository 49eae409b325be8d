"""Exact phase-matched search over an unsorted state space.

One run prepares the uniform superposition, applies ``iterations`` rounds of
[oracle phase, diffusion phase] with a matched rotation angle, and measures.
The matched angle is chosen so the final state lands on the marked subspace
exactly, so a single run returns a marked state with certainty.

Two register representations are supported. SUBSPACE keeps the 2 amplitudes
on the invariant span of the uniform marked and unmarked superpositions and
evaluates the k-th power of the 2x2 round operator in closed form: O(1) time
and memory for any N, unit norm to rounding error. FULL keeps a length-N
statevector and applies every round in place; it is the independent
cross-check, capped at ``FULL_MAX_N`` amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULL = "full"
SUBSPACE = "subspace"
REPRESENTATIONS = (FULL, SUBSPACE)

# tolerated drift of the squared-magnitude sum after operator applications
NORM_TOL = 1e-12

# Largest N the FULL representation will allocate: 2^22 amplitudes are a
# 64 MiB statevector, plus a 32 MiB CDF when it is sampled.
FULL_MAX_N = 2**22


@dataclass(frozen=True)
class ProblemInstance:
    """A search problem: N states, the marked index set, and the per-step
    failure tolerance delta used when planning retries."""

    n_states: int
    marked: tuple[int, ...]
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "marked", tuple(map(int, self.marked)))
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        m = len(self.marked)
        if not 1 <= m <= self.n_states:
            raise ValueError(f"need 1 <= m <= N, got m={m}, N={self.n_states}")
        if len(set(self.marked)) != m:
            raise ValueError("marked indices must be distinct")
        if min(self.marked) < 0 or max(self.marked) >= self.n_states:
            raise ValueError(f"marked indices must lie in [0, {self.n_states})")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def n_marked(self) -> int:
        return len(self.marked)


@dataclass(frozen=True)
class SearchParams:
    """Everything needed for one exact search run.

    ``beta`` is the angle with sin(beta) = sqrt(m/N); ``iterations`` (= j + 1)
    is both the number of operator rounds and the oracle-query cost of the
    run; ``phi`` is the matched rotation used by oracle and diffusion alike.
    """

    beta: float
    j: int
    iterations: int
    phi: float

    def __post_init__(self):
        if not 0.0 < self.beta <= math.pi / 2:
            raise ValueError(f"beta must be in (0, pi/2], got {self.beta}")
        if self.iterations > 0:
            if math.sin(math.pi / (4 * self.j + 6)) > math.sin(self.beta) + 1e-15:
                raise ValueError(
                    "matched phase undefined: need sin(pi/(4j+6)) <= sin(beta)"
                )
            if not 0.0 < self.phi <= math.pi:
                raise ValueError(f"phi must be in (0, pi], got {self.phi}")


@dataclass(frozen=True)
class QuantumState:
    """The simulated register: complex amplitudes in one of two forms.

    Instances are immutable; operators return new states. Construction
    checks normalization, so every operator application re-validates the
    unit-norm invariant.
    """

    representation: str
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation: {self.representation!r}")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm!r}")


def search_params(n: int, m: int) -> SearchParams:
    """Pick the iteration count and matched phase for one exact run with m
    of N states marked.

    The all-marked problem is degenerate: measuring the uniform state already
    returns a marked index, so no iterations (and no queries) are needed.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= N, got m={m}, N={n}")
    beta = math.asin(math.sqrt(m / n))
    if beta == 0.0:
        raise ValueError(f"m/N underflows to 0 in floating point, got m={m}, N={n}")
    if m == n:
        return SearchParams(beta=beta, j=0, iterations=0, phi=0.0)
    j = math.ceil((math.pi / 2 - beta) / (2 * beta))
    phi = 2.0 * math.asin(math.sin(math.pi / (4 * j + 6)) / math.sin(beta))
    return SearchParams(beta=beta, j=j, iterations=j + 1, phi=phi)


def derive_search_params(problem: ProblemInstance) -> SearchParams:
    return search_params(problem.n_states, problem.n_marked)


def prepare_uniform(problem: ProblemInstance, representation: str = FULL) -> QuantumState:
    """Uniform superposition over all N basis states."""
    n, m = problem.n_states, problem.n_marked
    if representation == FULL:
        if n > FULL_MAX_N:
            raise ValueError(f"full representation is capped at N <= {FULL_MAX_N}, got {n}")
        amps = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    elif representation == SUBSPACE:
        amps = np.array(
            [math.sqrt(m / n), math.sqrt((n - m) / n)], dtype=np.complex128
        )
    else:
        raise ValueError(f"unknown representation: {representation!r}")
    return QuantumState(representation, amps)


def apply_oracle_phase(
    state: QuantumState, problem: ProblemInstance, phi: float
) -> QuantumState:
    """One oracle query: rotate every marked amplitude by e^{i phi}."""
    _check_shape(state, problem)
    phase = complex(math.cos(phi), math.sin(phi))
    amps = np.array(state.amplitudes)
    if state.representation == FULL:
        amps[np.fromiter(problem.marked, dtype=np.intp)] *= phase
    else:
        amps[0] *= phase
    return QuantumState(state.representation, amps)


def apply_diffusion_phase(
    state: QuantumState, problem: ProblemInstance, phi: float
) -> QuantumState:
    """Conditional phase rotation about the uniform superposition.

    Implements I - (1 - e^{i phi}) |u><u| with |u> uniform over all N states;
    the textbook operator's overall minus sign is a global phase and is
    dropped, which leaves all measurement statistics unchanged.
    """
    _check_shape(state, problem)
    c = 1.0 - complex(math.cos(phi), math.sin(phi))
    amps = np.array(state.amplitudes)
    if state.representation == FULL:
        amps -= c * amps.mean()
    else:
        n, m = problem.n_states, problem.n_marked
        ua, ub = math.sqrt(m / n), math.sqrt((n - m) / n)
        overlap = ua * amps[0] + ub * amps[1]
        amps[0] -= c * overlap * ua
        amps[1] -= c * overlap * ub
    return QuantumState(state.representation, amps)


def final_state(
    problem: ProblemInstance, params: SearchParams, representation: str = FULL
) -> QuantumState:
    """State after one full run's iterations, just before measurement. The
    unit norm is checked once, on the result."""
    state = prepare_uniform(problem, representation)
    k, phi = params.iterations, params.phi
    if k == 0:
        return state
    if representation == SUBSPACE:
        return QuantumState(SUBSPACE, _subspace_power(problem, phi, k))
    amps = np.array(state.amplitudes)
    marked = np.fromiter(problem.marked, dtype=np.intp)
    phase = complex(math.cos(phi), math.sin(phi))
    c = 1.0 - phase
    # the arithmetic of apply_oracle_phase then apply_diffusion_phase, so the
    # result is bit-identical to applying those operators round by round
    for _ in range(k):
        amps[marked] *= phase
        amps -= c * amps.mean()
    return QuantumState(FULL, amps)


def _subspace_power(problem: ProblemInstance, phi: float, k: int) -> np.ndarray:
    """(marked, unmarked) amplitudes after k rounds from the uniform state.

    On the invariant subspace one round is e^{i phi} S with S in SU(2), as
    in Long's phase-matching analysis (PRA 64, 022307, 2001):

        S = [[cos t + i s^2 sin phi,         2i s c sin(phi/2) e^{-i phi/2}],
             [2i s c sin(phi/2) e^{i phi/2},  cos t - i s^2 sin phi       ]]

    where s = sin(beta), c = cos(beta) and sin(t/2) = s sin(phi/2), which is
    sin(pi/(4j+6)) for the matched phase. Hence S^k = cos(kt) I +
    sin(kt)/sin(t) (S - cos(t) I). Built from these analytic entries the
    result is unit-norm to rounding error for any k, where a product of k
    float rounds drifts by about k machine epsilons.
    """
    n, m = problem.n_states, problem.n_marked
    s, c = math.sqrt(m / n), math.sqrt((n - m) / n)
    half = math.sin(phi / 2)
    t = 2.0 * math.asin(s * half)
    diag = 1j * s * s * math.sin(phi)
    off = 2j * s * c * half
    rot = complex(math.cos(phi / 2), math.sin(phi / 2))
    r = math.sin(k * t) / math.sin(t)
    a = math.cos(k * t) * s + r * (diag * s + off * rot.conjugate() * c)
    b = math.cos(k * t) * c + r * (off * rot * s - diag * c)
    return complex(math.cos(k * phi), math.sin(k * phi)) * np.array([a, b])


def full_cdf(state: QuantumState) -> np.ndarray:
    """Cumulative squared magnitudes of a FULL state, as ``measure`` reads
    them."""
    return np.cumsum(np.abs(state.amplitudes) ** 2)


def measure(
    state: QuantumState, problem: ProblemInstance, rng: np.random.Generator,
    cdf: np.ndarray | None = None,
) -> int:
    """Sample one basis index from the squared-magnitude distribution.

    Inverse-CDF with a single uniform variate per draw, so a stream's
    position depends only on how many draws it has served. A caller that
    measures one FULL state many times passes its ``full_cdf`` once built.
    """
    _check_shape(state, problem)
    u = float(rng.random())
    if state.representation == FULL:
        cdf = full_cdf(state) if cdf is None else cdf
        idx = int(np.searchsorted(cdf, u * float(cdf[-1]), side="right"))
        return min(idx, problem.n_states - 1)
    # Subspace draw: pick the marked/unmarked class first, then the member.
    # Operator symmetry keeps amplitudes equal within each class, so the
    # within-class distribution is uniform.
    m = problem.n_marked
    p_marked = float(abs(state.amplitudes[0]) ** 2)
    if u < p_marked or p_marked >= 1.0:
        k = min(int(u / p_marked * m), m - 1)
        return problem.marked[k]
    v = (u - p_marked) / (1.0 - p_marked)
    k = min(int(v * (problem.n_states - m)), problem.n_states - m - 1)
    return _unmarked_at(problem, k)


def run_search_once(
    problem: ProblemInstance,
    params: SearchParams,
    rng: np.random.Generator,
    representation: str = FULL,
) -> tuple[int, int]:
    """One full search run: evolve from uniform, then measure.

    Returns (measured_index, queries_used). The query count always equals
    ``params.iterations``: one oracle call per round.
    """
    require_matching_params(problem, params)
    state = final_state(problem, params, representation)
    return measure(state, problem, rng), params.iterations


def success_probability(
    problem: ProblemInstance, params: SearchParams, representation: str = SUBSPACE
) -> float:
    """Deterministic squared-magnitude mass on the marked set after a run."""
    require_matching_params(problem, params)
    return marked_mass(final_state(problem, params, representation), problem)


def marked_mass(state: QuantumState, problem: ProblemInstance) -> float:
    """Total probability of measuring a marked index in the given state."""
    _check_shape(state, problem)
    if state.representation == FULL:
        idx = np.fromiter(problem.marked, dtype=np.intp)
        return float(np.sum(np.abs(state.amplitudes[idx]) ** 2))
    return float(abs(state.amplitudes[0]) ** 2)


def require_matching_params(problem: ProblemInstance, params: SearchParams) -> None:
    """Reject params that were not derived from this problem."""
    if params != derive_search_params(problem):
        raise ValueError("params were not derived from this problem")


def _check_shape(state: QuantumState, problem: ProblemInstance) -> None:
    expected = problem.n_states if state.representation == FULL else 2
    if state.amplitudes.shape != (expected,):
        raise ValueError(
            f"state has {state.amplitudes.shape[0]} amplitudes, expected {expected}"
        )


def _unmarked_at(problem: ProblemInstance, k: int) -> int:
    """The k-th (0-based, ascending) basis index outside the marked set."""
    idx = k
    for marked in sorted(problem.marked):
        if marked <= idx:
            idx += 1
        else:
            break
    return idx
