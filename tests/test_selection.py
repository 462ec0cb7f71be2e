import numpy as np
import pytest

from coherentlab import (
    BlockingVector,
    CoherentPoint,
    ModeBasis,
    SuperposedState,
    UrgencySchedule,
    amplitude,
    blocked_select,
    find_local_maxima,
    is_blocked,
    next_event_time,
    offset_spawn,
    overlap,
    run_sequence,
    sample_phi,
    seeded_spawn,
    select_and_collapse,
    single_mode,
    theta_from_norms,
    v_value,
)
from coherentlab.landscape import v_at, v_gradient, v_value_grad_hess

from oracles import fd_gradient, grid_argmax, random_separated_state


def _pt(q, p):
    return CoherentPoint(q=np.atleast_1d(q), p=np.atleast_1d(p))


def _two_component(c_a, c_b, sep=14.0):
    basis = single_mode()
    a, b = _pt(0.0, 0.0), _pt(sep, 0.0)
    return SuperposedState([c_a, c_b], [a, b], basis), a, b


class TestEventTiming:
    def test_unit_energy(self):
        assert next_event_time(0.0, 1.0) == pytest.approx(1.0)

    def test_arithmetic(self):
        assert next_event_time(2.0, 4.0) == pytest.approx(2.25)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_nonpositive_energy_rejected(self, bad):
        with pytest.raises(ValueError):
            next_event_time(0.0, bad)

    def test_schedule_list(self):
        sched = UrgencySchedule([1.0, 2.0, 4.0])
        assert sched.energy_for(2) == 2.0
        with pytest.raises(ValueError):
            sched.energy_for(4)

    def test_schedule_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UrgencySchedule([1.0, 0.0])


class TestFindLocalMaxima:
    def test_single_component(self):
        basis = single_mode()
        a = _pt(0.5, -1.5)
        result = find_local_maxima(SuperposedState.single(a, basis))
        assert len(result) == 1
        assert result.maxima[0].v == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(result.maxima[0].point.as_vector(), a.as_vector(), atol=1e-9)

    def test_equal_superposition_two_maxima(self):
        state, a, b = _two_component(2 ** -0.5, 2 ** -0.5, sep=12.0)
        result = find_local_maxima(state)
        assert len(result) == 2
        for cand, center in zip(result.maxima, [a, b] if result.maxima[0].point.q[0] < 6 else [b, a]):
            assert cand.v == pytest.approx(0.5, abs=1e-9)
        located = sorted(c.point.q[0] for c in result.maxima)
        assert located[0] == pytest.approx(0.0, abs=1e-6)
        assert located[1] == pytest.approx(12.0, abs=1e-6)

    def test_unequal_superposition_values_match_grid_oracle(self):
        state, a, b = _two_component(0.8, 0.6, sep=12.0)
        result = find_local_maxima(state)
        assert len(result) == 2
        assert result.maxima[0].v == pytest.approx(0.64, abs=1e-9)
        assert result.maxima[1].v == pytest.approx(0.36, abs=1e-9)
        x_oracle, v_oracle = grid_argmax(state, zoom_levels=5)
        assert np.linalg.norm(result.maxima[0].point.as_vector() - x_oracle) < 1e-4
        assert result.maxima[0].v == pytest.approx(v_oracle, abs=1e-6)

    def test_maxima_sorted_descending(self):
        rng = np.random.default_rng(21)
        state = random_separated_state(rng, 2, 4, CoherentPoint, SuperposedState, ModeBasis)
        result = find_local_maxima(state)
        vs = [c.v for c in result.maxima]
        assert vs == sorted(vs, reverse=True)

    def test_second_order_probes(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            state = random_separated_state(rng, 1, 3, CoherentPoint, SuperposedState, ModeBasis)
            for cand in find_local_maxima(state).maxima:
                x = cand.point.as_vector()
                for d in range(x.size):
                    for sign in (-1.0, 1.0):
                        probe = x.copy()
                        probe[d] += sign * 1e-3
                        assert v_at(state, probe) < cand.v


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            state = random_separated_state(rng, n, int(rng.integers(2, 5)),
                                           CoherentPoint, SuperposedState, ModeBasis)
            x = np.concatenate([state.q[0], state.p[0]]) + rng.normal(0, 0.5, 2 * n)
            g = v_gradient(state, x)
            g_fd = fd_gradient(lambda y: v_at(state, y), x, h=1e-5)
            denom = max(np.linalg.norm(g_fd), 1e-12)
            assert np.linalg.norm(g - g_fd) / denom < 1e-5


class TestLandscapeUnderflow:
    """The landscape flushes far components to zero exactly as ``overlap`` does."""

    def _state(self):
        basis = ModeBasis(omegas=[1.0, 0.5], weights=[1.0, 1.7])
        near = _pt([0.5, -0.3], [0.2, 0.4])
        far = _pt([1e3, 0.0], [0.0, 1e3])
        assert overlap(near, far, basis) == 0.0
        return SuperposedState([0.8, 0.6j], [near, far], basis), near, far

    def test_far_from_every_component_is_exactly_zero(self):
        state, _, _ = self._state()
        x = np.array([500.0, 0.0, 0.0, 500.0])
        assert v_at(state, x) == 0.0
        v, grad, hess = v_value_grad_hess(state, x)
        assert v == 0.0
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))

    @pytest.mark.parametrize("component", [0, 1])
    def test_near_a_component_matches_v_value(self, component):
        state, near, far = self._state()
        pt = (near, far)[component]
        probe = _pt(pt.q + [0.3, -0.2], pt.p + [-0.1, 0.25])
        x = probe.as_vector()
        expected = v_value(state, probe)
        assert 0.0 < expected < 1.0
        assert v_at(state, x) == expected
        assert v_value_grad_hess(state, x)[0] == expected


class TestSelectAndCollapse:
    def test_fixed_point(self):
        basis = single_mode()
        a = _pt(1.0, 2.0)
        out = select_and_collapse(SuperposedState.single(a, basis), t=0.0)
        assert out.record.v_at_choice == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.record.chosen.as_vector(), a.as_vector(), atol=1e-9)

    def test_picks_heavier_component(self):
        state, a, b = _two_component(0.8, 0.6)
        out = select_and_collapse(state, t=1.0)
        assert out.record.v_at_choice == pytest.approx(0.64, abs=1e-9)
        assert out.record.chosen.q[0] == pytest.approx(0.0, abs=1e-6)
        assert out.state_next.n_components == 1

    def test_idempotence(self):
        state, _, _ = _two_component(0.8, 0.6)
        first = select_and_collapse(state, t=0.0)
        second = select_and_collapse(first.state_next, t=1.0)
        assert second.record.v_at_choice == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(
            second.record.chosen.as_vector(), first.record.chosen.as_vector(), atol=1e-9
        )

    def test_tie_resolved_lexicographically(self):
        state, a, b = _two_component(2 ** -0.5, 2 ** -0.5)
        out = select_and_collapse(state, t=0.0)
        assert out.record.tie is True
        # lexicographically smaller (q, p) wins: the component at the origin
        assert out.record.chosen.q[0] == pytest.approx(0.0, abs=1e-6)

    def test_scalar_invariance(self):
        state, a, _ = _two_component(0.8, 0.6)
        scaled = state.scaled(1.7 - 2.3j)
        out1 = select_and_collapse(state, t=0.0)
        out2 = select_and_collapse(scaled, t=0.0)
        assert np.allclose(
            out1.record.chosen.as_vector(), out2.record.chosen.as_vector(), atol=1e-10
        )
        assert out1.record.v_at_choice == pytest.approx(out2.record.v_at_choice, abs=1e-12)

    def test_choice_equals_best_candidate(self):
        rng = np.random.default_rng(24)
        state = random_separated_state(rng, 1, 4, CoherentPoint, SuperposedState, ModeBasis)
        out = select_and_collapse(state, t=0.0)
        best = max(c.v for c in out.record.candidates)
        assert out.record.v_at_choice == best  # exact: same object


class TestRunSequence:
    def test_single_event_reactualizes(self):
        basis = single_mode(omega=0.0)
        a = _pt(2.0, -1.0)
        records = run_sequence(
            SuperposedState.single(a, basis), UrgencySchedule(1.0), None, n_events=1
        )
        assert len(records) == 1
        assert np.allclose(records[0].chosen.as_vector(), a.as_vector(), atol=1e-9)
        assert records[0].time == pytest.approx(1.0)

    def test_rotating_center_followed(self):
        basis = single_mode(omega=1.0)
        a = _pt(1.0, 0.0)
        records = run_sequence(
            SuperposedState.single(a, basis), UrgencySchedule(2.0 / np.pi), None, n_events=1
        )
        # after dt = pi/2 the center has rotated to (0, -1)
        assert records[0].chosen.q[0] == pytest.approx(0.0, abs=1e-9)
        assert records[0].chosen.p[0] == pytest.approx(-1.0, abs=1e-9)

    def test_offset_drift_keeps_choosing_center(self):
        basis = single_mode(omega=0.0)
        a = _pt(0.0, 0.0)
        drift = offset_spawn(0.1, dq=[14.0], dp=[0.0])
        records = run_sequence(
            SuperposedState.single(a, basis), UrgencySchedule(1.0), drift, n_events=3
        )
        assert len(records) == 3
        for rec in records:
            assert rec.chosen.q[0] == pytest.approx(0.0, abs=1e-6)
            assert rec.v_at_choice == pytest.approx(1.0 / 1.01, abs=1e-6)

    def test_doubling_schedule_times(self):
        basis = single_mode(omega=0.0)
        records = run_sequence(
            SuperposedState.single(_pt(0.0, 0.0), basis),
            UrgencySchedule([1.0, 2.0, 4.0]),
            None,
            n_events=3,
        )
        assert [r.time for r in records] == pytest.approx([1.0, 1.5, 1.75])

    def test_failing_hook_aborts_with_partial_log(self):
        basis = single_mode(omega=0.0)

        def bad_hook(state, step):
            if step == 3:
                return SuperposedState([0.0], state.points()[:1], basis)
            return state

        with pytest.warns(RuntimeWarning):
            records = run_sequence(
                SuperposedState.single(_pt(0.0, 0.0), basis),
                UrgencySchedule(1.0),
                bad_hook,
                n_events=5,
            )
        assert len(records) == 2

    def test_seeded_drift_deterministic(self):
        basis = single_mode(omega=0.3)
        init = SuperposedState.single(_pt(0.0, 0.0), basis)
        r1 = run_sequence(init, UrgencySchedule(1.0), seeded_spawn(99, 2), n_events=4)
        r2 = run_sequence(init, UrgencySchedule(1.0), seeded_spawn(99, 2), n_events=4)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.chosen.as_vector(), b.chosen.as_vector())
            assert a.v_at_choice == b.v_at_choice

    def test_zero_events_rejected(self):
        basis = single_mode()
        with pytest.raises(ValueError):
            run_sequence(SuperposedState.single(_pt(0.0, 0.0), basis),
                         UrgencySchedule(1.0), None, n_events=0)


class TestBlockedSelect:
    def test_full_weight_always_accepted(self):
        basis = single_mode()
        state = SuperposedState.single(_pt(0.0, 0.0), basis)
        for alpha in (0.0, 0.3, np.pi / 2, np.pi):
            out = blocked_select(state, 0.0, BlockingVector(alpha=alpha, chi=0.0))
            assert out.accepted
            assert out.record.blocked is False

    def test_half_weight_blocked_by_small_alpha(self):
        state, a, _ = _two_component(2 ** -0.5, 2 ** -0.5)
        # v = 0.5 -> theta = pi/4; alpha = pi/4 gives alpha/2 = pi/8 <= pi/4
        out = blocked_select(state, 0.0, BlockingVector(alpha=np.pi / 4, chi=0.0))
        assert out.record.blocked is True
        assert out.state_next is state  # left unchanged until the next event

    def test_half_weight_accepted_by_large_alpha(self):
        state, a, _ = _two_component(2 ** -0.5, 2 ** -0.5)
        out = blocked_select(state, 0.0, BlockingVector(alpha=0.9 * np.pi, chi=0.0))
        assert out.accepted
        assert out.state_next.n_components == 1

    def test_acceptance_threshold_at_two_theta(self):
        state, _, _ = _two_component(0.8, 0.6)
        v = 0.64
        theta = np.arccos(np.sqrt(v))
        eps = 1e-9
        blocked = blocked_select(state, 0.0, BlockingVector(alpha=2 * theta - eps, chi=0.0))
        accepted = blocked_select(state, 0.0, BlockingVector(alpha=2 * theta + 1e-6, chi=0.0))
        assert blocked.record.blocked is True
        assert accepted.record.blocked is False

    def test_v_at_choice_matches_landscape(self):
        rng = np.random.default_rng(25)
        state = random_separated_state(rng, 1, 3, CoherentPoint, SuperposedState, ModeBasis)
        out = blocked_select(state, 0.0, BlockingVector(alpha=np.pi, chi=0.0))
        assert out.record.v_at_choice == pytest.approx(
            v_value(state, out.record.chosen), abs=1e-12
        )


# (modes, components) of the states the veto regression runs on
VETO_SHAPES = [(1, 2), (1, 4), (1, 8), (3, 3)]


def _veto_state(n_modes, n_comp):
    rng = np.random.default_rng([n_modes, n_comp])
    return random_separated_state(rng, n_modes, n_comp, CoherentPoint, SuperposedState, ModeBasis)


class TestVetoPath:
    @pytest.mark.parametrize("shape", VETO_SHAPES, ids=str)
    def test_decisions_match_amplitude_reference(self, shape):
        state = _veto_state(*shape)
        chosen = select_and_collapse(state, 0.0).record.chosen
        geom = theta_from_norms(state.norm_sq, abs(amplitude(state, chosen)) ** 2)
        rng = np.random.default_rng([7, *shape])
        n = 10**4
        blocked = 0
        for _ in range(n):
            phi = sample_phi(rng)
            out = blocked_select(state, 0.0, phi)
            assert out.record.blocked == is_blocked(geom, phi)
            blocked += out.record.blocked
        assert 0 < blocked < n  # both decisions were exercised

    @pytest.mark.parametrize("shape", VETO_SHAPES, ids=str)
    def test_accepted_state_is_single_at_argmax(self, shape):
        state = _veto_state(*shape)
        for _ in range(2):  # the second call is served from the cached target
            out = blocked_select(state, 0.0, BlockingVector(alpha=np.pi, chi=0.0))
            assert out.accepted
            ref = SuperposedState.single(out.record.chosen, state.basis)
            np.testing.assert_array_equal(out.state_next.coeffs, ref.coeffs)
            np.testing.assert_array_equal(out.state_next.q, ref.q)
            np.testing.assert_array_equal(out.state_next.p, ref.p)
            np.testing.assert_array_equal(out.state_next.gram(), ref.gram())
            assert out.state_next.norm_sq == ref.norm_sq
