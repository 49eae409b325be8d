import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recallsearch.search import (
    FULL,
    FULL_MAX_N,
    NORM_TOL,
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
    measure_at,
    require_matching_params,
    run_search_once,
    _uniform_amplitudes,
    _unmarked_at,
    success_probability,
)
from recallsearch.driver import QuantumSampler
from recallsearch.montecarlo import trial_stream


def problem(n, m_or_marked, delta=0.01):
    marked = (
        tuple(m_or_marked)
        if not isinstance(m_or_marked, int)
        else tuple(range(m_or_marked))
    )
    return ProblemInstance(n_states=n, marked=marked, delta=delta)


def uniform_state(prob, rep):
    """The uniform superposition by its plain formula, built apart from the
    library's evolution: 1/sqrt(N) on every state (FULL), or sqrt(m/N) and
    sqrt((N-m)/N) on the marked and unmarked directions (SUBSPACE)."""
    n, m = prob.n_states, prob.n_marked
    if rep == FULL:
        return QuantumState(FULL, np.full(n, 1.0 / math.sqrt(n)))
    return QuantumState(SUBSPACE, np.array([math.sqrt(m / n), math.sqrt((n - m) / n)]))


def project_to_subspace(state, prob):
    """Independent projection of a FULL state onto the 2D invariant basis."""
    marked = np.fromiter(prob.marked, dtype=np.intp)
    unmarked = np.setdiff1d(np.arange(prob.n_states), marked)
    a = state.amplitudes[marked].sum() / math.sqrt(len(marked))
    b = state.amplitudes[unmarked].sum() / math.sqrt(len(unmarked))
    return a, b


class TestDeriveParams:
    def test_all_marked_is_degenerate(self):
        params = derive_search_params(problem(4, 4))
        assert params.iterations == 0
        assert params.j == 0

    def test_n4_m1_matches_hand_evaluation(self):
        params = derive_search_params(problem(4, 1))
        assert params.beta == pytest.approx(math.pi / 6, abs=1e-15)
        assert params.j == 1
        assert params.iterations == 2
        # independent evaluation of the matched-phase formula
        expected_phi = 2 * math.asin(math.sin(math.pi / 10) / 0.5)
        assert params.phi == pytest.approx(expected_phi, abs=1e-15)
        assert params.phi == pytest.approx(1.33248, abs=5e-6)
        # the claim behind the numbers: certainty in one run
        assert success_probability(problem(4, 1), params, FULL) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_n1024_m4(self):
        params = derive_search_params(problem(1024, 4))
        assert params.beta == pytest.approx(math.asin(1 / 16), abs=1e-15)
        assert params.j == 13
        assert params.iterations == 14
        assert abs(params.iterations - (math.pi / 4) * math.sqrt(1024 / 4)) <= 2
        assert success_probability(problem(1024, 4), params) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_phase_is_well_defined_across_shapes(self):
        for n, m in [(8, 1), (8, 5), (1024, 511), (1000, 3), (6, 5)]:
            params = derive_search_params(problem(n, m))
            if params.iterations:
                assert math.sin(math.pi / (4 * params.j + 6)) <= math.sin(
                    params.beta
                ) + 1e-15
                assert 0.0 < params.phi <= math.pi

    def test_search_params_from_counts(self):
        for n, m in [(4, 1), (1024, 4), (1000, 3), (6, 6)]:
            assert SearchParams(n, m) == derive_search_params(problem(n, m))
        with pytest.raises(ValueError, match="1 <= m <= N"):
            SearchParams(4, 5)
        with pytest.raises(ValueError, match="underflows"):
            SearchParams(2**1100, 2)


def formula_params(n, m):
    """(beta, j, iterations, phi) by the formula in use before SearchParams
    was built from (N, m)."""
    beta = math.asin(math.sqrt(m / n))
    if m == n:
        return beta, 0, 0, 0.0
    j = math.ceil((math.pi / 2 - beta) / (2 * beta))
    return beta, j, j + 1, 2.0 * math.asin(math.sin(math.pi / (4 * j + 6)) / math.sin(beta))


class TestParamsProvenance:
    @staticmethod
    def assert_formula(n, m):
        params = SearchParams(n, m)
        assert (params.n_states, params.n_marked) == (n, m)
        assert (params.beta, params.j, params.iterations, params.phi) == formula_params(n, m)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 31, 61, 62])
    def test_fields_equal_the_formula_on_a_grid(self, k):
        n = 2**k
        for m in {m for m in (1, 2, n // 3, n - 1, n) if 1 <= m <= n}:
            self.assert_formula(n, m)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=1, max_value=2**62), data=st.data())
    def test_fields_equal_the_formula(self, n, data):
        self.assert_formula(n, data.draw(st.integers(min_value=1, max_value=n)))

    def test_rejects_like_before(self):
        with pytest.raises(ValueError, match=r"^need 1 <= m <= N, got m=5, N=4$"):
            SearchParams(4, 5)
        with pytest.raises(ValueError, match=r"^need 1 <= m <= N, got m=0, N=4$"):
            SearchParams(4, 0)
        with pytest.raises(ValueError, match=r"^m/N underflows to 0 in floating point, got m=2, "
                                             r"N=" + str(2**1100) + "$"):
            SearchParams(2**1100, 2)

    def test_matching_compares_counts(self):
        params = derive_search_params(problem(64, (1, 5, 9)))
        for marked in ((1, 5, 9), (0, 1, 2), (63, 2, 40), range(10, 13)):
            require_matching_params(ProblemInstance(n_states=64, marked=marked, delta=0.5), params)
        for n, m in ((64, 2), (64, 4), (65, 3), (63, 3), (128, 6)):
            with pytest.raises(ValueError, match="derived"):
                require_matching_params(problem(n, m), params)

    def test_equal_angles_from_other_counts_do_not_match(self):
        # (4, 1) and (8, 2) share m/N and so every angle, but not (N, m)
        a, b = SearchParams(4, 1), SearchParams(8, 2)
        assert (a.beta, a.j, a.iterations, a.phi) == (b.beta, b.j, b.iterations, b.phi)
        with pytest.raises(ValueError, match="derived"):
            require_matching_params(problem(8, 2), a)


class TestPrepareUniform:
    def test_full_n4(self):
        assert np.allclose(_uniform_amplitudes(problem(4, 1), FULL), 0.5)

    def test_subspace_n4_m1(self):
        amps = _uniform_amplitudes(problem(4, 1), SUBSPACE)
        assert amps[0] == pytest.approx(0.5, abs=1e-15)
        assert amps[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_subspace_n1024_m4(self):
        amps = _uniform_amplitudes(problem(1024, 4), SUBSPACE)
        assert amps[0] == pytest.approx(1 / 16, abs=1e-15)

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError, match="representation"):
            _uniform_amplitudes(problem(4, 1), "dense")


class TestOperators:
    def test_oracle_phi_zero_is_identity(self):
        prob = problem(8, 3)
        state = uniform_state(prob, FULL)
        after = apply_oracle_phase(state, prob, 0.0)
        assert np.allclose(after.amplitudes, state.amplitudes, atol=1e-15)

    def test_oracle_phi_pi_negates_marked(self):
        prob = problem(8, (2, 5))
        state = uniform_state(prob, FULL)
        after = apply_oracle_phase(state, prob, math.pi)
        expected = np.array(state.amplitudes)
        expected[[2, 5]] *= -1
        assert np.allclose(after.amplitudes, expected, atol=1e-12)

    def test_diffusion_phi_pi_is_inversion_about_mean(self):
        prob = problem(8, 2)
        state = uniform_state(prob, FULL)
        state = apply_oracle_phase(state, prob, math.pi)
        after = apply_diffusion_phase(state, prob, math.pi)
        # dropped global phase: result is -(2*mean - s) = s - 2*mean
        expected = state.amplitudes - 2 * state.amplitudes.mean()
        assert np.allclose(after.amplitudes, expected, atol=1e-12)

    def test_diffusion_phi_zero_keeps_distribution(self):
        prob = problem(8, 2)
        state = uniform_state(prob, FULL)
        after = apply_diffusion_phase(state, prob, 0.0)
        assert np.allclose(
            np.abs(after.amplitudes) ** 2, np.abs(state.amplitudes) ** 2, atol=1e-12
        )

    @pytest.mark.parametrize("op", ["oracle", "diffusion"])
    def test_full_and_subspace_agree(self, op):
        prob = problem(16, 2)
        full = uniform_state(prob, FULL)
        sub = uniform_state(prob, SUBSPACE)
        if op == "oracle":
            full = apply_oracle_phase(full, prob, 1.0)
            sub = apply_oracle_phase(sub, prob, 1.0)
        else:
            full = apply_diffusion_phase(full, prob, 1.0)
            sub = apply_diffusion_phase(sub, prob, 1.0)
        a, b = project_to_subspace(full, prob)
        assert abs(a - sub.amplitudes[0]) <= 1e-12
        assert abs(b - sub.amplitudes[1]) <= 1e-12


class TestRunOnce:
    def test_all_marked_costs_nothing(self):
        from recallsearch.montecarlo import chi_square_uniformity

        prob = problem(4, 4)
        params = derive_search_params(prob)
        rng = trial_stream(7, 0)
        counts = [0, 0, 0, 0]
        for _ in range(2000):
            index, queries = run_search_once(prob, params, rng)
            assert queries == 0
            counts[index] += 1
        _, _, uniform = chi_square_uniformity(counts)
        assert uniform

    def test_single_marked_found_with_certainty(self):
        prob = problem(4, (3,))
        params = derive_search_params(prob)
        assert marked_mass(final_state(prob, params, FULL), prob) >= 1 - 1e-9
        rng = trial_stream(123, 0)
        for _ in range(50):
            index, queries = run_search_once(prob, params, rng)
            assert index == 3
            assert queries == params.iterations

    def test_rejects_foreign_params(self):
        prob = problem(64, 4)
        foreign = derive_search_params(problem(64, 5))
        with pytest.raises(ValueError, match="derived"):
            run_search_once(prob, foreign, trial_stream(0, 0))

    def test_query_count_equals_iterations(self):
        for n, m in [(16, 1), (64, 3), (256, 7)]:
            prob = problem(n, m)
            params = derive_search_params(prob)
            _, queries = run_search_once(prob, params, trial_stream(1, 0), SUBSPACE)
            assert queries == params.iterations

    def test_reports_one_query_per_round(self):
        # one oracle call per round: the query count is the iteration count
        for rep in (FULL, SUBSPACE):
            for n, m in [(8, 2), (64, 1), (100, 7), (32, 32)]:
                prob = problem(n, m)
                params = derive_search_params(prob)
                _, queries = run_search_once(prob, params, trial_stream(4, n), rep)
                assert queries == params.iterations


class TestSuccessProbability:
    def test_all_marked(self):
        prob = problem(4, 4)
        assert success_probability(prob, derive_search_params(prob)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_subspace_and_full_cross_check(self):
        prob = problem(2**10, 3)
        params = derive_search_params(prob)
        p_sub = success_probability(prob, params, SUBSPACE)
        p_full = success_probability(prob, params, FULL)
        assert p_sub == pytest.approx(1.0, abs=1e-9)
        assert abs(p_sub - p_full) <= 1e-9

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_exactness_small_grid(self, n):
        for m in sorted({1, 2, 3, n // 4, n // 2, n}):
            prob = problem(n, m)
            params = derive_search_params(prob)
            for rep in (FULL, SUBSPACE):
                assert success_probability(prob, params, rep) == pytest.approx(
                    1.0, abs=1e-9
                )

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(min_value=2, max_value=62), data=st.data())
    def test_subspace_exact_up_to_2_62(self, k, data):
        n = 2**k
        m = data.draw(st.integers(min_value=1, max_value=min(n, 64)))
        prob = problem(n, m)
        params = derive_search_params(prob)
        # QuantumState construction rejects a norm drift above NORM_TOL
        state = final_state(prob, params, SUBSPACE)
        assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) <= NORM_TOL
        assert abs(1.0 - marked_mass(state, prob)) <= 1e-9

    def test_full_rounds_agree_with_closed_form_subspace(self):
        worst = 0.0
        for k in range(2, 17):
            n = 2**k
            for m in sorted({1, 2, 3, n // 4, n // 2, n}):
                prob = problem(n, m)
                params = derive_search_params(prob)
                full = final_state(prob, params, FULL)
                sub = final_state(prob, params, SUBSPACE).amplitudes
                if m == n:
                    a, b = full.amplitudes.sum() / math.sqrt(n), 0.0
                else:
                    a, b = project_to_subspace(full, prob)
                worst = max(worst, abs(a - sub[0]), abs(b - sub[1]))
        assert worst <= 1e-12

    def test_closed_form_matches_per_round_operators(self):
        for n, m in [(4, 1), (64, 3), (1000, 7), (2**14, 8), (2**20, 1)]:
            prob = problem(n, m)
            params = derive_search_params(prob)
            state = uniform_state(prob, SUBSPACE)
            for _ in range(params.iterations):
                state = apply_oracle_phase(state, prob, params.phi)
                state = apply_diffusion_phase(state, prob, params.phi)
            closed = final_state(prob, params, SUBSPACE).amplitudes
            assert np.abs(closed - state.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("n,marked", [(4, (2,)), (64, 3), (1000, (7, 500, 999)), (2**12, 1)])
    def test_full_final_state_equals_per_round_operators(self, n, marked):
        # final_state's FULL loop shares no code with the operators: the same
        # ufuncs in the same order give the same bits
        prob = problem(n, marked)
        params = derive_search_params(prob)
        state = uniform_state(prob, FULL)
        for _ in range(params.iterations):
            state = apply_oracle_phase(state, prob, params.phi)
            state = apply_diffusion_phase(state, prob, params.phi)
        assert np.array_equal(final_state(prob, params, FULL).amplitudes, state.amplitudes)

    def test_full_is_capped(self):
        prob = ProblemInstance(n_states=FULL_MAX_N + 1, marked=(0,), delta=0.1)
        params = derive_search_params(prob)
        with pytest.raises(ValueError, match="capped"):
            final_state(prob, params, FULL)
        # the cap guards FULL only: the subspace form has no N limit
        assert final_state(prob, params, SUBSPACE).amplitudes.shape == (2,)

    def test_standard_grover_anchor(self):
        # phi = pi, N = 4, m = 1: one plain Grover iteration is already exact
        prob = problem(4, (2,))
        state = uniform_state(prob, FULL)
        state = apply_oracle_phase(state, prob, math.pi)
        state = apply_diffusion_phase(state, prob, math.pi)
        assert marked_mass(state, prob) == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    def test_marked_symmetry_through_iterations(self):
        prob = problem(64, (5, 17, 40, 63))
        params = derive_search_params(prob)
        state = uniform_state(prob, FULL)
        idx = np.fromiter(prob.marked, dtype=np.intp)
        for _ in range(params.iterations):
            state = apply_oracle_phase(state, prob, params.phi)
            state = apply_diffusion_phase(state, prob, params.phi)
            amps = state.amplitudes[idx]
            spread = np.abs(amps[:, None] - amps[None, :]).max()
            assert spread <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=128),
        data=st.data(),
    )
    def test_normalization_preserved_by_any_phase_sequence(self, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        phis = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2 * math.pi),
                min_size=1,
                max_size=6,
            )
        )
        prob = problem(n, m)
        for rep in (FULL, SUBSPACE):
            state = uniform_state(prob, rep)
            for phi in phis:
                # construction re-validates the unit norm at 1e-12
                state = apply_oracle_phase(state, prob, phi)
                state = apply_diffusion_phase(state, prob, phi)
            total = float(np.sum(np.abs(state.amplitudes) ** 2))
            assert abs(total - 1.0) <= 1e-12


class TestStateAndMeasure:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            QuantumState(FULL, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("representation", [FULL, SUBSPACE])
    def test_rejects_non_finite_amplitudes(self, bad, representation):
        # NaN compares False with everything, so the check must not be "drift > tol"
        with pytest.raises(ValueError, match="state is not normalized"):
            QuantumState(representation, np.array([bad, 0.0], dtype=complex))

    def test_full_norm_check_makes_no_blas_call(self, monkeypatch):
        # a threaded BLAS dot leaves its pool spinning on the quantum-check lanes' cores
        def refuse(*args):
            raise AssertionError("np.vdot called on a full state")

        monkeypatch.setattr(np, "vdot", refuse)
        prob = problem(2**12, 3)
        state = final_state(prob, derive_search_params(prob), FULL)
        assert marked_mass(state, prob) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError, match="representation"):
            QuantumState("sparse", np.array([1.0], dtype=complex))

    def test_state_is_frozen(self):
        state = uniform_state(problem(4, 1), FULL)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_measure_uniform_covers_both_classes(self):
        prob = problem(8, (1, 6))
        rng = trial_stream(99, 0)
        state = uniform_state(prob, SUBSPACE)
        seen_marked, seen_unmarked = 0, 0
        for _ in range(400):
            idx = measure(state, prob, rng)
            assert 0 <= idx < 8
            if idx in prob.marked:
                seen_marked += 1
            else:
                assert idx in (0, 2, 3, 4, 5, 7)
                seen_unmarked += 1
        assert seen_marked > 0 and seen_unmarked > 0

    def test_measure_unmarked_only_state(self):
        prob = problem(8, (0, 1))
        state = QuantumState(SUBSPACE, np.array([0.0, 1.0], dtype=complex))
        rng = trial_stream(5, 0)
        for _ in range(100):
            assert measure(state, prob, rng) in (2, 3, 4, 5, 6, 7)

    def test_measure_full_matches_subspace_classes(self):
        prob = problem(16, 4)
        state = uniform_state(prob, FULL)
        rng = trial_stream(11, 0)
        hits = sum(measure(state, prob, rng) in prob.marked for _ in range(2000))
        # uniform state: marked probability 1/4; 3-sigma band
        assert abs(hits / 2000 - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 2000)


def formula_index(state, prob, u):
    """The index measure returned for the uniform u before the draw lookup
    was shared: searchsorted on a fresh CDF, or the class split from
    |a_0|^2 and a linear scan for the unmarked member."""
    amps = state.amplitudes
    if state.representation == FULL:
        cdf = np.cumsum(np.abs(amps) ** 2)
        return min(int(np.searchsorted(cdf, u * float(cdf[-1]), side="right")), prob.n_states - 1)
    m = prob.n_marked
    p_marked = float(abs(amps[0]) ** 2)
    if u < p_marked or p_marked >= 1.0:
        return prob.marked[min(int(u / p_marked * m), m - 1)]
    unmarked = [i for i in range(prob.n_states) if i not in set(prob.marked)]
    v = (u - p_marked) / (1.0 - p_marked)
    return unmarked[min(int(v * len(unmarked)), len(unmarked) - 1)]


class FixedUniform:
    """A stand-in stream whose random() returns one value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


U_EDGES = (0.0, 1.0 - 2.0**-53)


class TestDrawLookup:
    SHAPES = ((8, (1, 6)), (16, 16), (64, (0, 1, 2)), (100, (99, 3, 50, 7)), (1, 1))

    @pytest.mark.parametrize("n,marked", SHAPES)
    @pytest.mark.parametrize("rep", [FULL, SUBSPACE])
    def test_edges_equal_the_formula(self, n, marked, rep):
        prob = problem(n, marked)
        params = derive_search_params(prob)
        sampler, final = QuantumSampler(prob, params, rep), final_state(prob, params, rep)
        for state in (uniform_state(prob, rep), final):
            for u in U_EDGES:
                expected = formula_index(state, prob, u)
                assert measure_at(state, prob, u) == expected
                assert measure(state, prob, FixedUniform(u)) == expected
        for u in U_EDGES:
            assert sampler.draw(FixedUniform(u)) == formula_index(final, prob, u)

    @pytest.mark.parametrize("rep", [FULL, SUBSPACE])
    def test_unmarked_only_state(self, rep):
        prob = problem(8, (0, 5))
        amps = [0.0, 1.0] if rep == SUBSPACE else [0, 0.5, 0.5, 0.5, 0.5, 0, 0, 0]
        state = QuantumState(rep, np.array(amps, dtype=complex))
        for u in U_EDGES + (0.5, 0.9):
            assert measure_at(state, prob, u) == formula_index(state, prob, u)
            assert measure_at(state, prob, u) not in prob.marked

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300), data=st.data())
    def test_stream_draws_equal_the_formula(self, n, data):
        marked = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        prob = problem(n, marked)
        params = derive_search_params(prob)
        for rep in (FULL, SUBSPACE):
            sampler = QuantumSampler(prob, params, rep)
            final = final_state(prob, params, rep)
            uniform = uniform_state(prob, rep)
            rng_a, rng_b, rng_c = (trial_stream(n, len(marked)) for _ in range(3))
            for _ in range(30):
                u = rng_c.random()
                assert sampler.draw(rng_a) == formula_index(final, prob, u)
                assert measure(uniform, prob, rng_b) == formula_index(uniform, prob, u)


class TestRangeMarked:
    def test_size_past_len(self):
        # len(range(2**63)) raises OverflowError; a range's size is stop - start
        problem = ProblemInstance(n_states=2**64, marked=range(2**63), delta=0.1)
        assert problem.n_marked == 2**63
        assert derive_search_params(problem).n_marked == 2**63
        assert _unmarked_at(problem, 1) == 2**63 + 1
        shifted = ProblemInstance(n_states=2**65, marked=range(3, 2**64 + 3), delta=0.1)
        assert shifted.n_marked == 2**64 and _unmarked_at(shifted, 4) == 2**64 + 4

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=1, max_value=12), data=st.data())
    def test_range_and_tuple_give_equal_runs(self, k, data):
        n = 2**k
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=n))
        as_range = ProblemInstance(n_states=n, marked=range(a, b), delta=0.1)
        as_tuple = ProblemInstance(n_states=n, marked=tuple(range(a, b)), delta=0.1)
        assert as_range == as_tuple and hash(as_range) == hash(as_tuple)
        params = derive_search_params(as_range)
        for rep in (FULL, SUBSPACE):
            x = final_state(as_range, params, rep)
            y = final_state(as_tuple, params, rep)
            assert np.array_equal(x.amplitudes, y.amplitudes)
            assert success_probability(as_range, params, rep) == success_probability(
                as_tuple, params, rep)
            rng_x, rng_y = trial_stream(k, b), trial_stream(k, b)
            assert [measure(x, as_range, rng_x) for _ in range(20)] == [
                measure(y, as_tuple, rng_y) for _ in range(20)]

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=1, max_value=12), data=st.data())
    def test_slice_rounds_equal_index_array_rounds(self, k, data):
        # the reference indexes the marked amplitudes with an index array,
        # as every FULL round did before a range became a slice
        n = 2**k
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=n))
        prob = ProblemInstance(n_states=n, marked=range(a, b), delta=0.1)
        params = derive_search_params(prob)
        idx = np.arange(a, b, dtype=np.intp)
        amps = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
        phase = complex(math.cos(params.phi), math.sin(params.phi))
        for _ in range(params.iterations):
            amps[idx] *= phase
            amps -= (1.0 - phase) * amps.mean()
        state = final_state(prob, params, FULL)
        assert np.array_equal(state.amplitudes, amps)
        assert marked_mass(state, prob) == float(np.sum(np.abs(amps[idx]) ** 2))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=3, max_value=20000), data=st.data())
    def test_rounds_equal_mean_method_rounds(self, n, data):
        # the reference takes each round's mean with ndarray.mean, as FULL
        # rounds did before they summed with np.add.reduce
        m = data.draw(st.integers(min_value=1, max_value=n // 3))
        start = data.draw(st.integers(min_value=0, max_value=n - m))
        marked = data.draw(st.one_of(
            st.just(range(start, start + m)),
            st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)))
        prob = ProblemInstance(n_states=n, marked=marked, delta=0.1)
        params = derive_search_params(prob)
        idx = np.array(list(marked), dtype=np.intp)
        amps = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
        phase = complex(math.cos(params.phi), math.sin(params.phi))
        for _ in range(params.iterations):
            amps[idx] *= phase
            amps -= (1.0 - phase) * amps.mean()
        assert np.array_equal(final_state(prob, params, FULL).amplitudes, amps)
        state = uniform_state(prob, FULL)
        amps = np.array(state.amplitudes)
        for _ in range(min(params.iterations, 3)):
            state = apply_diffusion_phase(apply_oracle_phase(state, prob, params.phi),
                                          prob, params.phi)
            amps[idx] *= phase
            amps -= (1.0 - phase) * amps.mean()
        assert np.array_equal(state.amplitudes, amps)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_unmarked_index_matches_a_linear_scan(self, data):
        n = data.draw(st.integers(min_value=2, max_value=64))
        marked = data.draw(st.one_of(
            st.builds(lambda a, m: range(a, min(a + m, n)),
                      st.integers(0, n - 2), st.integers(1, n - 1)),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)))
        prob = ProblemInstance(n_states=n, marked=marked, delta=0.1)
        unmarked = [i for i in range(n) if i not in set(prob.marked)]
        assert [_unmarked_at(prob, k) for k in range(len(unmarked))] == unmarked

    def test_unmarked_ranks_are_built_once_per_problem(self, monkeypatch):
        from recallsearch import search

        calls = []
        monkeypatch.setattr(search, "sorted", lambda xs: calls.append(1) or sorted(xs),
                            raising=False)
        prob = ProblemInstance(n_states=64, marked=(40, 2, 17), delta=0.1)
        assert [_unmarked_at(prob, k) for k in range(61)] == [
            i for i in range(64) if i not in (2, 17, 40)]
        assert len(calls) == 1
        assert prob.unmarked_below == [2, 16, 38]

    def test_unit_step_range_is_kept(self):
        marked = range(2**40, 2**41)
        prob = ProblemInstance(n_states=2**42, marked=marked, delta=0.1)
        assert prob.marked is marked and prob.n_marked == 2**40
        assert _unmarked_at(prob, 2**40 - 1) == 2**40 - 1
        assert _unmarked_at(prob, 2**40) == 2**41

    def test_consecutive_ascending_tuple_becomes_range(self):
        assert ProblemInstance(n_states=8, marked=(3, 4, 5), delta=0.1).marked == range(3, 6)
        for other in ((3, 5, 4), (5, 4, 3), (3, 5)):
            prob = ProblemInstance(n_states=8, marked=other, delta=0.1)
            assert prob.marked == other
            assert prob != ProblemInstance(n_states=8, marked=range(3, 6), delta=0.1)

    def test_other_steps_take_the_tuple_path(self):
        for marked in (range(0, 10, 2), range(5, 0, -1), range(3, 4, 5)):
            prob = ProblemInstance(n_states=16, marked=marked, delta=0.1)
            assert prob == ProblemInstance(n_states=16, marked=tuple(marked), delta=0.1)
        assert ProblemInstance(n_states=16, marked=range(0, 10, 2), delta=0.1).marked == (
            0, 2, 4, 6, 8)

    @pytest.mark.parametrize("marked,match", [
        (range(0), "1 <= m"),
        (range(3, 3), "1 <= m"),
        (range(0, 5), "1 <= m"),
        (range(-1, 2), "lie in"),
        (range(2, 5), "lie in"),
        (range(0, 6, 2), "lie in"),
    ])
    def test_rejects_like_the_tuple(self, marked, match):
        for form in (marked, tuple(marked)):
            with pytest.raises(ValueError, match=match):
                ProblemInstance(n_states=4, marked=form, delta=0.1)


class TestProblemValidation:
    def test_rejects_duplicate_marked(self):
        with pytest.raises(ValueError, match="distinct"):
            ProblemInstance(n_states=4, marked=(1, 1), delta=0.1)

    def test_rejects_out_of_range_marked(self):
        for bad in ((4,), (-1, 2), (0, 1, 4)):
            with pytest.raises(ValueError, match="lie in"):
                ProblemInstance(n_states=4, marked=bad, delta=0.1)

    def test_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="delta"):
                ProblemInstance(n_states=4, marked=(0,), delta=bad)

    def test_rejects_empty_marked(self):
        with pytest.raises(ValueError, match="1 <= m"):
            ProblemInstance(n_states=4, marked=(), delta=0.1)
