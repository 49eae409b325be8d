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
    apply_diffusion_phase,
    apply_oracle_phase,
    derive_search_params,
    final_state,
    marked_mass,
    measure,
    prepare_uniform,
    run_search_once,
    search_params,
    success_probability,
)
from recallsearch.montecarlo import trial_stream


def problem(n, m_or_marked, delta=0.01):
    marked = (
        tuple(m_or_marked)
        if not isinstance(m_or_marked, int)
        else tuple(range(m_or_marked))
    )
    return ProblemInstance(n_states=n, marked=marked, delta=delta)


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
            assert search_params(n, m) == derive_search_params(problem(n, m))
        with pytest.raises(ValueError, match="1 <= m <= N"):
            search_params(4, 5)
        with pytest.raises(ValueError, match="underflows"):
            search_params(2**1100, 2)


class TestPrepareUniform:
    def test_full_n4(self):
        state = prepare_uniform(problem(4, 1), FULL)
        assert np.allclose(state.amplitudes, 0.5)

    def test_subspace_n4_m1(self):
        state = prepare_uniform(problem(4, 1), SUBSPACE)
        assert state.amplitudes[0] == pytest.approx(0.5, abs=1e-15)
        assert state.amplitudes[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_subspace_n1024_m4(self):
        state = prepare_uniform(problem(1024, 4), SUBSPACE)
        assert state.amplitudes[0] == pytest.approx(1 / 16, abs=1e-15)

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError, match="representation"):
            prepare_uniform(problem(4, 1), "dense")


class TestOperators:
    def test_oracle_phi_zero_is_identity(self):
        prob = problem(8, 3)
        state = prepare_uniform(prob, FULL)
        after = apply_oracle_phase(state, prob, 0.0)
        assert np.allclose(after.amplitudes, state.amplitudes, atol=1e-15)

    def test_oracle_phi_pi_negates_marked(self):
        prob = problem(8, (2, 5))
        state = prepare_uniform(prob, FULL)
        after = apply_oracle_phase(state, prob, math.pi)
        expected = np.array(state.amplitudes)
        expected[[2, 5]] *= -1
        assert np.allclose(after.amplitudes, expected, atol=1e-12)

    def test_diffusion_phi_pi_is_inversion_about_mean(self):
        prob = problem(8, 2)
        state = prepare_uniform(prob, FULL)
        state = apply_oracle_phase(state, prob, math.pi)
        after = apply_diffusion_phase(state, prob, math.pi)
        # dropped global phase: result is -(2*mean - s) = s - 2*mean
        expected = state.amplitudes - 2 * state.amplitudes.mean()
        assert np.allclose(after.amplitudes, expected, atol=1e-12)

    def test_diffusion_phi_zero_keeps_distribution(self):
        prob = problem(8, 2)
        state = prepare_uniform(prob, FULL)
        after = apply_diffusion_phase(state, prob, 0.0)
        assert np.allclose(
            np.abs(after.amplitudes) ** 2, np.abs(state.amplitudes) ** 2, atol=1e-12
        )

    @pytest.mark.parametrize("op", ["oracle", "diffusion"])
    def test_full_and_subspace_agree(self, op):
        prob = problem(16, 2)
        full = prepare_uniform(prob, FULL)
        sub = prepare_uniform(prob, SUBSPACE)
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
            state = prepare_uniform(prob, SUBSPACE)
            for _ in range(params.iterations):
                state = apply_oracle_phase(state, prob, params.phi)
                state = apply_diffusion_phase(state, prob, params.phi)
            closed = final_state(prob, params, SUBSPACE).amplitudes
            assert np.abs(closed - state.amplitudes).max() <= 1e-12

    def test_full_is_capped(self):
        prob = ProblemInstance(n_states=FULL_MAX_N + 1, marked=(0,), delta=0.1)
        with pytest.raises(ValueError, match="capped"):
            prepare_uniform(prob, FULL)
        # the cap guards FULL only: the subspace form has no N limit
        assert prepare_uniform(prob, SUBSPACE).amplitudes.shape == (2,)

    def test_standard_grover_anchor(self):
        # phi = pi, N = 4, m = 1: one plain Grover iteration is already exact
        prob = problem(4, (2,))
        state = prepare_uniform(prob, FULL)
        state = apply_oracle_phase(state, prob, math.pi)
        state = apply_diffusion_phase(state, prob, math.pi)
        assert marked_mass(state, prob) == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    def test_marked_symmetry_through_iterations(self):
        prob = problem(64, (5, 17, 40, 63))
        params = derive_search_params(prob)
        state = prepare_uniform(prob, FULL)
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
            state = prepare_uniform(prob, rep)
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

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError, match="representation"):
            QuantumState("sparse", np.array([1.0], dtype=complex))

    def test_state_is_frozen(self):
        state = prepare_uniform(problem(4, 1), FULL)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_measure_uniform_covers_both_classes(self):
        prob = problem(8, (1, 6))
        rng = trial_stream(99, 0)
        state = prepare_uniform(prob, SUBSPACE)
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
        state = prepare_uniform(prob, FULL)
        rng = trial_stream(11, 0)
        hits = sum(measure(state, prob, rng) in prob.marked for _ in range(2000))
        # uniform state: marked probability 1/4; 3-sigma band
        assert abs(hits / 2000 - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 2000)


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
