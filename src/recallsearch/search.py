"""Exact phase-matched search over an unsorted state space.

One run prepares the uniform superposition, applies ``iterations`` rounds of
[oracle phase, diffusion phase] with a matched rotation angle, and measures.
The angle, fixed by (N, m) in SearchParams, lands the final state on the marked
subspace exactly, so a single run returns a marked state with certainty. A
measurement looks one uniform variate up (measure_at) in what the state keeps.

Two register representations. SUBSPACE keeps the 2 amplitudes on the invariant
span of the uniform marked and unmarked superpositions and evaluates the k-th
power of the 2x2 round operator in closed form: O(1) time and memory for any N,
unit norm to rounding error. FULL keeps a length-N statevector and applies every
round in place; it is the independent cross-check, capped at ``FULL_MAX_N``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

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
    failure tolerance delta used when planning retries. ``marked`` is kept
    as a unit-step range (checked in O(1)) when it is one or runs upward by
    one, else as a tuple of ints, so equal ordered sets make equal problems."""

    n_states: int
    marked: range | tuple[int, ...]
    delta: float

    def __post_init__(self):
        marked = self.marked
        if not (isinstance(marked, range) and marked.step == 1):
            marked = tuple(map(int, marked))
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")
        # a range's size is stop - start: len() fails from 2**63 on
        m = max(marked.stop - marked.start, 0) if isinstance(marked, range) else len(marked)
        if not 1 <= m <= self.n_states:
            raise ValueError(f"need 1 <= m <= N, got m={m}, N={self.n_states}")
        if isinstance(marked, tuple):
            if len(set(marked)) != m:
                raise ValueError("marked indices must be distinct")
            if marked == tuple(range(marked[0], marked[0] + m)):
                marked = range(marked[0], marked[0] + m)
        object.__setattr__(self, "marked", marked)
        lo, hi = ((marked[0], marked[-1]) if isinstance(marked, range)
                  else (min(marked), max(marked)))
        if lo < 0 or hi >= self.n_states:
            raise ValueError(f"marked indices must lie in [0, {self.n_states})")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def n_marked(self) -> int:
        marked = self.marked
        return marked.stop - marked.start if isinstance(marked, range) else len(marked)

    @cached_property
    def unmarked_below(self) -> list[int]:
        """s - i, the unmarked indices below s, for the i-th smallest marked s."""
        return [s - i for i, s in enumerate(sorted(self.marked))]


@dataclass(frozen=True)
class SearchParams:
    """Everything needed for one exact run with m of N states marked, made from
    (N, m), which it records. sin(beta) = sqrt(m/N); ``iterations`` (= j + 1) is
    both the operator rounds and the oracle-query cost of a run; ``phi`` is the
    matched rotation of oracle and diffusion alike. With all N marked, measuring
    the uniform state already returns a marked index: no iterations, no queries.
    """

    n_states: int
    n_marked: int
    beta: float = field(init=False)
    j: int = field(init=False)
    iterations: int = field(init=False)
    phi: float = field(init=False)

    def __post_init__(self):
        n, m = self.n_states, self.n_marked
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= N, got m={m}, N={n}")
        beta = math.asin(math.sqrt(m / n))
        if beta == 0.0:
            raise ValueError(f"m/N underflows to 0 in floating point, got m={m}, N={n}")
        j, phi = 0, 0.0
        if m != n:
            j = math.ceil((math.pi / 2 - beta) / (2 * beta))
            phi = 2.0 * math.asin(math.sin(math.pi / (4 * j + 6)) / math.sin(beta))
        iterations = j + 1 if m != n else 0
        for name, value in dict(beta=beta, j=j, iterations=iterations, phi=phi).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class QuantumState:
    """The simulated register: complex amplitudes in one of two forms.
    Instances are immutable; operators return new states. Construction
    copies the amplitudes, unless ``_owned`` hands over a complex128 array
    the library just made, and checks normalization."""

    representation: str
    amplitudes: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation: {self.representation!r}")
        amps = self.amplitudes if _owned else np.array(self.amplitudes, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.representation == FULL:
            # the float view's sum of squares, without BLAS: a threaded BLAS dot
            # leaves its pool spinning on the cores that other threads need
            f = amps.reshape(-1).view(np.float64)
            norm = float(np.einsum("i,i->", f, f))
        else:  # two amplitudes: vdot costs less per call, and never threads
            norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN and inf fail too
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm!r}")

    # What draws read, built on first use and kept: CDF and total (FULL), marked mass.
    @cached_property
    def cdf(self) -> np.ndarray:
        return np.cumsum(np.abs(self.amplitudes) ** 2)

    @cached_property
    def cdf_total(self) -> float:
        return float(self.cdf[-1])

    @cached_property
    def p_marked(self) -> float:
        return float(abs(self.amplitudes[0]) ** 2)


def derive_search_params(problem: ProblemInstance) -> SearchParams:
    return SearchParams(problem.n_states, problem.n_marked)


def _uniform_amplitudes(problem: ProblemInstance, representation: str) -> np.ndarray:
    """The uniform superposition over all N basis states, where a run starts."""
    n, m = problem.n_states, problem.n_marked
    if representation == FULL:
        if n > FULL_MAX_N:
            raise ValueError(f"full representation is capped at N <= {FULL_MAX_N}, got {n}")
        return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    if representation == SUBSPACE:
        return np.array([math.sqrt(m / n), math.sqrt((n - m) / n)], dtype=np.complex128)
    raise ValueError(f"unknown representation: {representation!r}")


def apply_oracle_phase(state: QuantumState, problem: ProblemInstance, phi: float) -> QuantumState:
    """One oracle query: rotate every marked amplitude by e^{i phi}."""
    _check_shape(state, problem)
    marked = _marked_selector(problem) if state.representation == FULL else 0  # SUBSPACE: a_0
    amps = np.array(state.amplitudes)
    amps[marked] *= complex(math.cos(phi), math.sin(phi))
    return QuantumState(state.representation, amps, _owned=True)


def apply_diffusion_phase(state: QuantumState, problem: ProblemInstance,
                          phi: float) -> QuantumState:
    """Conditional phase rotation about the uniform superposition.

    Implements I - (1 - e^{i phi}) |u><u| with |u> uniform over all N states;
    the textbook operator's overall minus sign is a global phase and is
    dropped, which leaves all measurement statistics unchanged.
    """
    _check_shape(state, problem)
    c = 1.0 - complex(math.cos(phi), math.sin(phi))
    amps = np.array(state.amplitudes)
    if state.representation == FULL:
        amps -= c * (np.add.reduce(amps) / len(amps))
    else:
        n, m = problem.n_states, problem.n_marked
        ua, ub = math.sqrt(m / n), math.sqrt((n - m) / n)
        overlap = ua * amps[0] + ub * amps[1]
        amps[0] -= c * overlap * ua
        amps[1] -= c * overlap * ub
    return QuantumState(state.representation, amps, _owned=True)


def _marked_selector(problem: ProblemInstance) -> slice | np.ndarray:
    """The marked amplitudes of a FULL state: a slice (a view) for a range."""
    marked = problem.marked
    if isinstance(marked, range):
        return slice(marked.start, marked.stop)
    return np.array(marked, dtype=np.intp)


def final_state(problem: ProblemInstance, params: SearchParams,
                representation: str = FULL) -> QuantumState:
    """State after one full run's iterations, just before measurement. The
    unit norm is checked once, on the result."""
    k, phi = params.iterations, params.phi
    if representation == SUBSPACE and k:
        return QuantumState(SUBSPACE, _subspace_power(problem, phi, k), _owned=True)
    amps = _uniform_amplitudes(problem, representation)
    marked, phase = _marked_selector(problem), complex(math.cos(phi), math.sin(phi))
    c = 1.0 - phase
    for _ in range(k):  # in place, as apply_oracle_phase then apply_diffusion_phase
        amps[marked] *= phase
        amps -= c * (np.add.reduce(amps) / len(amps))
    return QuantumState(representation, amps, _owned=True)


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


def measure(state: QuantumState, problem: ProblemInstance, rng: np.random.Generator) -> int:
    """Sample one basis index from the squared-magnitude distribution.

    Inverse-CDF with a single uniform variate per draw, so a stream's
    position depends only on how many draws it has served. A FULL state's
    CDF is built on its first measurement and reused after.
    """
    _check_shape(state, problem)
    return measure_at(state, problem, rng.random())


def measure_at(state: QuantumState, problem: ProblemInstance, u: float) -> int:
    """The basis index measure draws for the uniform u; the shape is not checked."""
    if state.representation == FULL:
        idx = int(state.cdf.searchsorted(u * state.cdf_total, side="right"))
        return min(idx, problem.n_states - 1)
    # Subspace draw: pick the marked/unmarked class first, then the member.
    # Operator symmetry keeps amplitudes equal within each class, so the
    # within-class distribution is uniform.
    m = problem.n_marked
    p_marked = state.p_marked
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
        mass = np.abs(state.amplitudes[_marked_selector(problem)])
        return float(np.sum(np.square(mass, out=mass)))
    return float(abs(state.amplitudes[0]) ** 2)


def require_matching_params(problem: ProblemInstance, params: SearchParams) -> None:
    """Reject params that were not derived from this problem's (N, m)."""
    if (params.n_states, params.n_marked) != (problem.n_states, problem.n_marked):
        raise ValueError("params were not derived from this problem")


def _check_shape(state: QuantumState, problem: ProblemInstance) -> None:
    expected = problem.n_states if state.representation == FULL else 2
    if state.amplitudes.shape != (expected,):
        raise ValueError(
            f"state has {state.amplitudes.shape[0]} amplitudes, expected {expected}"
        )


def _unmarked_at(problem: ProblemInstance, k: int) -> int:
    """The k-th (0-based, ascending) basis index outside the marked set. The
    i-th smallest marked index s (from i = 0) has s - i unmarked ones below it."""
    marked = problem.marked
    if isinstance(marked, range):
        return k if k < marked.start else k + problem.n_marked
    return k + bisect.bisect_right(problem.unmarked_below, k)
