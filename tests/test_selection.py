import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coherentlab import (
    BlockingVector,
    CoherentPoint,
    ModeBasis,
    SuperposedState,
    TransitionGeometry,
    UrgencySchedule,
    amplitude,
    blocked_select,
    find_local_maxima,
    is_blocked,
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
import coherentlab.landscape
import coherentlab.selection
import coherentlab.states
from coherentlab.landscape import ascend, ascent_starts, v_at, v_gradient, v_value_grad_hess

import oracles
from oracles import (
    ascend_reevaluating,
    ascent_starts_loop,
    fd_gradient,
    grid_argmax,
    random_separated_state,
    value_grad_hess_indexed,
)


def _pt(q, p):
    return CoherentPoint(q=np.atleast_1d(q), p=np.atleast_1d(p))


def _two_component(c_a, c_b, sep=14.0):
    basis = single_mode()
    a, b = _pt(0.0, 0.0), _pt(sep, 0.0)
    return SuperposedState([c_a, c_b], [a, b], basis), a, b


class TestEventTiming:
    def test_schedule_list(self):
        sched = UrgencySchedule([1.0, 2.0, 4.0])
        assert sched.energy_for(2) == 2.0
        with pytest.raises(ValueError):
            sched.energy_for(4)

    @pytest.mark.parametrize("energies", [1.0, [1.0, 2.0]])
    def test_events_are_numbered_from_one(self, energies):
        with pytest.raises(ValueError, match="n_events must be >= 1, got 0"):
            UrgencySchedule(energies).energy_for(0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_schedule_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            UrgencySchedule([1.0, bad])


class TestFindLocalMaxima:
    def test_single_component(self):
        basis = single_mode()
        a = _pt(0.5, -1.5)
        result = find_local_maxima(SuperposedState.single(a, basis))
        assert len(result.maxima) == 1
        assert result.maxima[0].v == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(result.maxima[0].point.as_vector(), a.as_vector(), atol=1e-9)

    def test_equal_superposition_two_maxima(self):
        state, a, b = _two_component(2 ** -0.5, 2 ** -0.5, sep=12.0)
        result = find_local_maxima(state)
        assert len(result.maxima) == 2
        for cand, center in zip(result.maxima, [a, b] if result.maxima[0].point.q[0] < 6 else [b, a]):
            assert cand.v == pytest.approx(0.5, abs=1e-9)
        located = sorted(c.point.q[0] for c in result.maxima)
        assert located[0] == pytest.approx(0.0, abs=1e-6)
        assert located[1] == pytest.approx(12.0, abs=1e-6)

    def test_unequal_superposition_values_match_grid_oracle(self):
        state, a, b = _two_component(0.8, 0.6, sep=12.0)
        result = find_local_maxima(state)
        assert len(result.maxima) == 2
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


class TestHessian:
    def _cases(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            state = random_separated_state(rng, n, int(rng.integers(2, 5)),
                                           CoherentPoint, SuperposedState, ModeBasis)
            yield state, np.concatenate([state.q[0], state.p[0]]) + rng.normal(0, 0.5, 2 * n)

    def test_matches_finite_differences_of_the_gradient(self):
        h = 1e-5
        for state, x in self._cases():
            hess = v_value_grad_hess(state, x)[2]
            cols = []
            for e in np.eye(x.size) * h:
                cols.append((v_gradient(state, x + e) - v_gradient(state, x - e)) / (2.0 * h))
            hess_fd = np.column_stack(cols)
            denom = max(np.linalg.norm(hess_fd), 1e-12)
            assert np.linalg.norm(hess - hess_fd) / denom < 1e-5

    def test_symmetric_to_roundoff(self):
        for state, x in self._cases():
            hess = v_value_grad_hess(state, x)[2]
            # entries are differences of larger terms, so the asymmetry is
            # roundoff of those terms: up to ~3e-14 of max |hess| here
            assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()

    def test_same_bytes_as_curvature_added_by_index(self):
        # at random points and at the starts, where the centers' zero
        # log-derivative rows make signed zeros
        rng = np.random.default_rng(30)
        for _ in range(150):
            state = _overlapping_state(rng)
            for x in ascent_starts(state) + [rng.normal(0.0, 3.0, 2 * state.n_modes)]:
                v, grad, hess = v_value_grad_hess(state, x)
                v_ref, grad_ref, hess_ref = value_grad_hess_indexed(state, x)
                assert v == v_ref
                assert grad.tobytes() == grad_ref.tobytes()
                assert hess.tobytes() == hess_ref.tobytes()


def _overlapping_state(rng, n_comp=None):
    """1-3 modes, 1-8 components close enough for their bumps to interact."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 9)) if n_comp is None else n_comp
    basis = ModeBasis(omegas=rng.uniform(0.0, 2.0, n), weights=rng.uniform(0.3, 3.0, n))
    points = [_pt(rng.normal(0.0, 2.5, n), rng.normal(0.0, 2.5, n)) for _ in range(m)]
    return SuperposedState(rng.normal(size=m) + 1j * rng.normal(size=m), points, basis)


class TestAscentStarts:
    def test_same_starts_as_the_pair_loop(self):
        rng = np.random.default_rng(31)
        midpoints = 0
        for m in range(1, 41):
            state = _overlapping_state(rng, n_comp=m)
            got, want = ascent_starts(state), ascent_starts_loop(state)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            midpoints += len(got) - m
        assert midpoints > 100

    def test_pair_at_exactly_the_near_distance_is_excluded(self):
        basis = ModeBasis(omegas=[1.0], weights=[1.0])
        points = [_pt(0.0, 0.0), _pt(6.0, 0.0), _pt(0.0, 5.5)]
        state = SuperposedState([1.0, 1.0, 1.0], points, basis)
        starts = ascent_starts(state)
        # (0, 1) sit exactly 6 apart; only (0, 2) at 5.5 is near
        assert [s.tolist() for s in starts[3:]] == [[0.0, 2.75]]
        assert len(ascent_starts_loop(state, near_distance=6.0)) == 4


class TestAscentReuse:
    """The accepted trial's evaluation is reused, with the same result."""

    def test_same_results_as_reevaluating_every_point(self, monkeypatch):
        rng = np.random.default_rng(32)
        counts = {}
        for trial in range(60):
            state = _overlapping_state(rng)
            starts = ascent_starts(state) + [rng.normal(0.0, 3.0, 2 * state.n_modes)]
            for start in starts:
                for max_iter in (200, 3):
                    monkeypatch.setattr(coherentlab.landscape, "ASCENT_MAX_ITER", max_iter)
                    x, v, ok = ascend(state, start)
                    run = counts if max_iter == 200 else {}
                    x_ref, v_ref, ok_ref = ascend_reevaluating(
                        state, start, max_iter=max_iter, counts=run)
                    assert x.tobytes() == x_ref.tobytes()
                    assert v == v_ref and ok == ok_ref
        # the sample exercises every branch of the line search
        assert counts["backtracks"] >= 1
        assert counts["gradient_steps"] >= 1
        assert counts["failed"] >= 1

    def test_no_point_is_evaluated_twice_in_a_row(self, monkeypatch):
        # every line-search trial is a full evaluation that the accepted step
        # reuses: the first start never backtracks, the second backtracks
        # twice, and a shortened step is not evaluated again either
        state = _overlapping_state(np.random.default_rng(36), n_comp=4)
        starts = ascent_starts(state)
        cases = [
            (starts[0] + 0.7, {"backtracks": 0, "gradient_steps": 1, "failed": 0}),
            (starts[1], {"backtracks": 2, "gradient_steps": 0, "failed": 0}),
        ]

        def evaluated_points(run, start):
            points = []
            component_terms = coherentlab.states._component_terms

            def recording(state, x):
                points.append(np.array(x).tobytes())
                return component_terms(state, x)

            with monkeypatch.context() as patch:
                for module in (coherentlab.states, coherentlab.landscape, oracles):
                    patch.setattr(module, "_component_terms", recording)
                result = run(state, start)
            return points, result

        for start, expected in cases:
            counts = {}
            ascend_reevaluating(state, start, counts=counts)
            assert counts == expected
            points, result = evaluated_points(ascend, start)
            ref_points, ref_result = evaluated_points(ascend_reevaluating, start)
            assert result[0].tobytes() == ref_result[0].tobytes()
            assert len(points) < len(ref_points)
            assert any(a == b for a, b in zip(ref_points, ref_points[1:]))
            assert all(a != b for a, b in zip(points, points[1:]))


class TestExhaustedLineSearch:
    """A direction along which no trial step gains ends the ascent as not converged."""

    @staticmethod
    def _summits_at(monkeypatch, starts):
        # the real gradient and Hessian, but v = -(distance to the nearest
        # start): each start is a summit, and every Armijo trial falls below it
        evaluate = coherentlab.landscape.v_value_grad_hess
        calls = []

        def lowered(state, x):
            calls.append(np.array(x))
            _, grad, hess = evaluate(state, x)
            return -min(float(np.linalg.norm(x - s)) for s in starts), grad, hess

        monkeypatch.setattr(coherentlab.landscape, "v_value_grad_hess", lowered)
        return calls

    def _state(self):
        # unequal overlapping bumps: no start is a stationary point
        return SuperposedState([0.8, 0.6], [_pt(0.0, 0.0), _pt(1.5, 0.5)], single_mode())

    def test_ascend_returns_the_start_after_sixty_halvings(self, monkeypatch):
        state = self._state()
        start = ascent_starts(state)[0]
        calls = self._summits_at(monkeypatch, [start])
        x, v, ok = ascend(state, start)
        assert x.tobytes() == start.tobytes() and v == 0.0 and ok is False
        assert len(calls) == 1 + 60
        assert all(np.any(c != start) for c in calls[1:])

    def test_find_local_maxima_counts_every_such_start_as_failed(self, monkeypatch):
        state = self._state()
        starts = ascent_starts(state)
        self._summits_at(monkeypatch, starts)
        result = find_local_maxima(state)
        assert len(starts) == 3
        assert result.failed_starts == len(starts) and result.maxima == []


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
        assert records.abort is None

    def test_failing_hook_aborts_with_partial_log(self):
        basis = single_mode(omega=0.0)

        def bad_hook(state, step):
            if step == 3:
                return SuperposedState([0.0], state.points()[:1], basis)
            return state

        records = run_sequence(
            SuperposedState.single(_pt(0.0, 0.0), basis),
            UrgencySchedule(1.0),
            bad_hook,
            n_events=5,
        )
        assert len(records) == 2
        assert records.abort.startswith("drift hook failed at event 3 of 5: ")
        assert "squared norm 0" in records.abort

    def test_seeded_drift_deterministic(self):
        basis = single_mode(omega=0.3)
        init = SuperposedState.single(_pt(0.0, 0.0), basis)
        r1 = run_sequence(init, UrgencySchedule(1.0), seeded_spawn(99, 2), n_events=4)
        r2 = run_sequence(init, UrgencySchedule(1.0), seeded_spawn(99, 2), n_events=4)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.chosen.as_vector(), b.chosen.as_vector())
            assert a.v_at_choice == b.v_at_choice

    @pytest.mark.parametrize("kwargs, message", [
        ({"count": 0}, "count must be >= 1, got 0"),
        ({"spread": 0.0}, "spread must be > 0, got 0.0"),
        ({"spread": float("nan")}, "spread must be > 0, got nan"),
    ])
    def test_seeded_spawn_checks_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            seeded_spawn(1, **kwargs)

    def test_short_schedule_rejected_before_the_first_event(self, monkeypatch):
        monkeypatch.setattr(coherentlab.selection, "find_local_maxima", None)
        with pytest.raises(ValueError, match="schedule has 2 entries, asked for 3"):
            run_sequence(SuperposedState.single(_pt(0.0, 0.0), single_mode()),
                         UrgencySchedule([1.0, 2.0]), None, n_events=3)

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

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(eps=st.floats(0.0, 1e-3), phase=st.floats(0.0, 2.0 * math.pi),
           dq=st.floats(-20.0, 20.0), dp=st.floats(-20.0, 20.0), alpha=st.floats(0.0, math.pi))
    def test_veto_as_theta_goes_to_zero_property(self, eps, phase, dq, dp, alpha):
        # one bump plus an admixture of weight eps: 1 - v <= eps^2 (1 + 3 eps)
        # at the argmax, so sin(theta) <= ~eps, and theta is exactly 0 at eps = 0
        state = SuperposedState([1.0, eps * np.exp(1j * phase)], [_pt(0.0, 0.0), _pt(dq, dp)],
                                single_mode())
        phi = BlockingVector(alpha=alpha, chi=0.0)
        out = blocked_select(state, 0.0, phi)
        theta = theta_from_norms(1.0, out.record.v_at_choice).theta
        assert 0.0 <= theta <= 1.01 * eps + 1e-7
        assert out.record.blocked is is_blocked(TransitionGeometry(theta), phi)
        assert out.record.blocked is (theta > 0.0 and alpha / 2.0 <= theta)
        assert (out.state_next is state) is out.record.blocked
        if eps == 0.0:
            assert theta == 0.0 and not out.record.blocked

    def test_v_at_choice_matches_landscape(self):
        rng = np.random.default_rng(25)
        state = random_separated_state(rng, 1, 3, CoherentPoint, SuperposedState, ModeBasis)
        out = blocked_select(state, 0.0, BlockingVector(alpha=np.pi, chi=0.0))
        assert out.record.v_at_choice == pytest.approx(
            v_value(state, out.record.chosen), abs=1e-12
        )


class TestNearCancellingSuperposition:
    """c (|x> - (1 - eta) e^{i psi} |x + delta>), with the phase of <x|x + delta>
    undone: the norm is orders of magnitude below sum |c_j|^2, and the event
    still selects a landscape value in (0, 1] that the veto takes an angle from."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(1, 2), data=st.data())
    def test_selects_a_value_in_the_unit_interval_property(self, n, data):
        vec = st.lists(st.floats(-4.0, 4.0), min_size=2 * n, max_size=2 * n).map(np.array)
        basis = ModeBasis(omegas=[1.0] * n,
                          weights=data.draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
        x = data.draw(vec)
        y = x.copy()
        y[data.draw(st.integers(0, 2 * n - 1))] += data.draw(st.floats(1e-6, 0.1))
        c = data.draw(st.floats(0.2, 2.0)) * np.exp(1j * data.draw(st.floats(0.0, 2.0 * math.pi)))
        eta = data.draw(st.floats(0.0, 1e-3))
        psi = data.draw(st.floats(-1e-3, 1e-3))
        points = [CoherentPoint.from_vector(x), CoherentPoint.from_vector(y)]
        # the second coefficient also undoes the phase of <x|x + delta>
        k = overlap(*points, basis)
        coeffs = [c, -c * (1.0 - eta) * np.exp(1j * psi) * np.conj(k) / abs(k)]
        try:
            state = SuperposedState(coeffs, points, basis)
        except ValueError:  # at or below the roundoff floor
            assume(False)
        assert state.norm_sq < 0.1 * (abs(coeffs[0]) ** 2 + abs(coeffs[1]) ** 2)
        out = blocked_select(state, 0.0, BlockingVector(alpha=math.pi, chi=0.0))
        v = out.record.v_at_choice
        assert 0.0 < v <= 1.0
        assert not out.record.blocked
        for centre in (x, y, 0.5 * (x + y)):
            assert v >= v_value(state, CoherentPoint.from_vector(centre)) - 1e-12


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
        for _ in range(2):  # the second call is served from the cached search result
            out = blocked_select(state, 0.0, BlockingVector(alpha=np.pi, chi=0.0))
            assert out.accepted
            ref = SuperposedState.single(out.record.chosen, state.basis)
            np.testing.assert_array_equal(out.state_next.coeffs, ref.coeffs)
            np.testing.assert_array_equal(out.state_next.q, ref.q)
            np.testing.assert_array_equal(out.state_next.p, ref.p)
            np.testing.assert_array_equal(out.state_next.gram(), ref.gram())
            assert out.state_next.norm_sq == ref.norm_sq


    def test_decisions_and_draws_pinned(self):
        # 4000 veto calls on a 1-mode and a 3-mode state from one seeded stream;
        # the digest of (alpha, chi, blocked) per call was recorded when phi was
        # drawn with one rng.random(2) call and the records were dataclasses.
        states = [_veto_state(1, 4), _veto_state(3, 3)]
        rng = np.random.default_rng(2718)
        digest = hashlib.sha256()
        blocked = [0, 0]
        for _ in range(2000):
            for j, state in enumerate(states):
                phi = sample_phi(rng)
                out = blocked_select(state, 0.0, phi)
                blocked[j] += out.record.blocked
                digest.update(struct.pack("<dd?", phi.alpha, phi.chi, out.record.blocked))
        assert blocked == [979, 624]
        assert digest.hexdigest() == (
            "ac563a8ac0f0e9e1b2472963bfc57840fc4afad779289ad49cc701607832f40c"
        )


class TestRecords:
    """Event records and outcomes are immutable named tuples."""

    def test_fields_cannot_be_assigned(self):
        state = _veto_state(1, 2)
        out = blocked_select(state, 2.5, BlockingVector(alpha=0.0, chi=0.0), index=3)
        for record in (out, out.record):
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)

    def test_fields_hold_the_event(self):
        state = _veto_state(1, 2)
        result = find_local_maxima(state)
        out = blocked_select(state, 2.5, BlockingVector(alpha=0.0, chi=0.0), index=3)
        record = out.record
        assert (record.index, record.time, record.blocked) == (3, 2.5, True)
        assert record.chosen is result.argmax[0].point
        assert record.v_at_choice == result.argmax[0].v
        assert record.candidates is result.maxima
        assert (record.tie, record.failed_starts) == (False, 0)
        assert out.state_next is state

    @pytest.mark.parametrize("alpha", [0.0, np.pi])
    def test_accepted_is_not_blocked(self, alpha):
        out = blocked_select(_veto_state(1, 2), 0.0, BlockingVector(alpha=alpha, chi=0.0))
        assert out.accepted == (not out.record.blocked)
        assert out.accepted is (alpha == np.pi)


class TestOneSearchPerState:
    """A state's search result is built once and serves every event on it."""

    def test_ascent_runs_only_in_the_first_search(self, monkeypatch):
        calls = []

        def counting(state, start):
            calls.append(1)
            return ascend(state, start)

        monkeypatch.setattr(coherentlab.selection, "ascend", counting)
        state = _veto_state(1, 4)
        first = find_local_maxima(state)
        n_ascents = len(calls)
        assert n_ascents == len(ascent_starts(state))
        for _ in range(3):
            assert find_local_maxima(state) is first
        assert len(calls) == n_ascents

    def test_veto_angle_computed_once(self, monkeypatch):
        calls = []

        def counting(norm_sq_psi, norm_sq_p_psi):
            calls.append(1)
            return theta_from_norms(norm_sq_psi, norm_sq_p_psi)

        monkeypatch.setattr(coherentlab.selection, "theta_from_norms", counting)
        state = _veto_state(1, 2)
        rng = np.random.default_rng(41)
        for _ in range(50):
            blocked_select(state, 0.0, sample_phi(rng))
        assert len(calls) == 1

    def test_every_accepted_event_returns_the_same_state(self):
        state = _veto_state(3, 3)
        accept = BlockingVector(alpha=np.pi, chi=0.0)
        collapsed = select_and_collapse(state, 0.0).state_next
        for _ in range(3):
            assert blocked_select(state, 0.0, accept).state_next is collapsed
        assert select_and_collapse(state, 1.0).state_next is collapsed

    def test_no_drift_hook_equals_identity_hook(self):
        init = _veto_state(1, 4)
        schedule = UrgencySchedule([1.0, 2.0, 4.0])
        plain = run_sequence(init, schedule, None, n_events=3)
        identity = run_sequence(init, schedule, lambda state, step: state, n_events=3)
        as_dicts = coherentlab.selection.record_as_dict
        assert [as_dicts(r) for r in plain] == [as_dicts(r) for r in identity]
