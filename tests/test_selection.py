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
from coherentlab.landscape import (
    ascend, ascent_starts, lockstep_ascent, v_at, v_gradient, v_value_grad_hess,
)

import oracles
from oracles import (
    ascend_reevaluating,
    ascent_starts_loop,
    fd_gradient,
    find_local_maxima_reference,
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
        # event 2 is 1/E_2 = 1/2 after event 1
        assert sched.event_times(2) == [1.0, 1.5]
        with pytest.raises(ValueError):
            sched.event_times(4)

    @pytest.mark.parametrize("energies", [1.0, [1.0, 2.0]])
    def test_events_are_numbered_from_one(self, energies):
        with pytest.raises(ValueError, match="n_events must be >= 1, got 0"):
            UrgencySchedule(energies).event_times(0)

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


class TestTranslationCovariance:
    """v, gradient and Hessian are unchanged when state and probe move together.

    Moving every component by t = (a, b) multiplies each kernel value by a
    phase exp(i (phi(x_j) - phi(x))), phi(z) = sum_k w_k a_k z_pk, so the
    translated state carries c_j exp(-i phi(x_j)).  Coordinates on a 2^-20
    grid and integer translations make every translated input exact; the
    phases are then of order |t|, and so is their roundoff.
    """

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), log2_t=st.integers(0, 30))
    def test_covariant_under_a_common_translation_property(self, seed, log2_t):
        rng = np.random.default_rng(seed)
        state = _overlapping_state(rng)
        n, w = state.n_modes, state.basis.weights
        grid = 2.0**20
        q, p = np.round(state.q * grid) / grid, np.round(state.p * grid) / grid
        x = np.round((np.concatenate([q[0], p[0]]) + rng.normal(0.0, 1.0, 2 * n)) * grid) / grid
        size = 2.0**log2_t
        a, b = rng.integers(-size, size, (2, n), endpoint=True).astype(float)
        state = SuperposedState(state.coeffs, [_pt(qj, pj) for qj, pj in zip(q, p)], state.basis)
        moved = SuperposedState(state.coeffs * np.exp(-1j * (p @ (w * a))),
                                [_pt(qj + a, pj + b) for qj, pj in zip(q, p)], state.basis)
        v, grad, hess = v_value_grad_hess(state, x)
        v_t, grad_t, hess_t = v_value_grad_hess(moved, x + np.concatenate([a, b]))
        # about a quarter of this was the largest seen over 2000 states with |t|
        # up to 2^30; the Hessian in a frame at the origin exceeds it up to 2e8-fold
        tol = 2.0 * np.finfo(float).eps * (1.0 + size) * w.sum()
        assert abs(v - v_t) <= tol
        assert np.abs(grad - grad_t).max() <= tol * max(1.0, np.abs(grad).max())
        assert np.abs(hess - hess_t).max() <= tol * max(1.0, np.abs(hess).max())


def _assert_stages_compose(state, points):
    """The value stage and then the derivative stage give v_value_grad_hess's bits.

    At each point alone and on the stack of all of them; the value stage's v
    is also ``v_at``'s.
    """
    for x in [*points, np.array(points)]:
        v, stage = coherentlab.landscape._value_stage(state, x)
        composed = (v, *coherentlab.landscape._derivative_stage(state, stage))
        for got, want in zip(composed, v_value_grad_hess(state, x)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(v_at(state, x)).tobytes() == np.asarray(v).tobytes()


class TestEvaluationStages:
    """``v_value_grad_hess`` is the value stage composed with the derivative stage."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stages_composed_keep_the_bits_property(self, seed):
        rng = np.random.default_rng(seed)
        state = _overlapping_state(rng)
        _assert_stages_compose(state, ascent_starts(state) + [rng.normal(0.0, 3.0, 2 * state.n_modes)])

    def test_flushed_kernel_and_overflowing_hessian(self):
        state, near, far = TestLandscapeUnderflow._state()
        probes = [np.array([500.0, 0.0, 0.0, 500.0]), near.as_vector() + 0.3, far.as_vector() - 0.2]
        _assert_stages_compose(state, probes)
        heavy = TestLandscapeUnderflow._heavy_state()
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_stages_compose(heavy, [np.concatenate([heavy.q[1], heavy.p[1]]), np.zeros(6)])


def _first(state, start):
    """``ascend``'s ``first`` for one start: its row of a lockstep ascent of that start alone."""
    return lockstep_ascent(state, np.array([start]))[0]


def _overlapping_state(rng, n_comp=None, max_modes=10):
    """1 to ``max_modes`` modes, 1-8 components close enough for their bumps to interact."""
    n = int(rng.integers(1, max_modes + 1))
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


def _backtracking_state():
    """Four bumps in up to three modes: its second start backtracks twice on its first step."""
    return _overlapping_state(np.random.default_rng(36), n_comp=4, max_modes=3)


def _one_summit_state():
    """Three overlapping bumps with one summit, which all six starts reach."""
    return SuperposedState([1.0, 0.8, 0.6], [_pt(0.0, 0.0), _pt(0.8, 0.3), _pt(-0.5, 0.6)],
                           single_mode())


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
                    x, v, ok = ascend(state, start, _first(state, start), [])
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
        # the accepted step reuses its line-search trial's evaluation, whose
        # value stage keeps what the derivatives need: the first start never
        # backtracks, the second backtracks twice, and a shortened step is not
        # evaluated again either
        state = _backtracking_state()
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

        def ascend_alone(state, start):
            return ascend(state, start, _first(state, start), [])

        for start, expected in cases:
            counts = {}
            ascend_reevaluating(state, start, counts=counts)
            assert counts == expected
            points, result = evaluated_points(ascend_alone, start)
            ref_points, ref_result = evaluated_points(ascend_reevaluating, start)
            assert result[0].tobytes() == ref_result[0].tobytes()
            assert len(points) < len(ref_points)
            assert any(a == b for a, b in zip(ref_points, ref_points[1:]))
            assert all(a != b for a, b in zip(points, points[1:]))


class TestSearchAgainstReference:
    """Sharing work across a search's starts finds what running each start to convergence finds.

    The reference keeps the higher v among endpoints within the dedup
    radius, the search keeps the maximum found first, so the kept points
    differ by up to the ascent tolerance.
    """

    @staticmethod
    def _assert_matches_reference(state):
        result = find_local_maxima(state)
        found, failed, argmax, tie = find_local_maxima_reference(state)
        assert result.failed_starts == failed
        assert len(result.maxima) == len(found)
        for c in result.maxima:
            x = c.point.as_vector()
            x_ref, v_ref = min(found, key=lambda item: np.linalg.norm(item[0] - x))
            assert np.linalg.norm(x - x_ref) <= 1e-8
            assert abs(c.v - v_ref) <= 1e-12
        if found:
            chosen, tied = result.argmax
            assert np.linalg.norm(chosen.point.as_vector() - argmax) <= 1e-8
            assert tied == tie

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_same_maxima_as_every_start_run_to_convergence_property(self, seed):
        self._assert_matches_reference(_overlapping_state(np.random.default_rng(seed)))

    def test_two_maxima_closer_than_a_hundredth(self):
        # two equal bumps just past the separation 2 sqrt(2) at which their sum
        # splits into two maxima: these lie 5.9e-3 apart, on either side of the
        # midpoint start, which is a saddle and fails
        h = math.sqrt(2.0) + 1e-6
        state = SuperposedState([1.0, 1.0], [_pt(0.0, 0.0), _pt(2.0 * h, 0.0)], single_mode())
        self._assert_matches_reference(state)
        result = find_local_maxima(state)
        assert len(result.maxima) == 2 and result.failed_starts == 1
        gap = result.maxima[0].point.as_vector() - result.maxima[1].point.as_vector()
        assert 1e-3 < np.linalg.norm(gap) < 1e-2

    def test_starts_that_share_one_summit_stop_there(self, monkeypatch):
        # three overlapping bumps with one summit: every start after the first
        # returns the first start's maximum itself.  The search ascends its starts
        # in lockstep, each as far as it goes alone, so it evaluates no more points
        # than the ascents alone, in fewer stage calls, and fewer than the
        # reference search, which runs every start to convergence
        state = _one_summit_state()
        starts = ascent_starts(state)
        evaluated = []
        component_terms = coherentlab.states._component_terms

        def counting(state, x):
            evaluated.append(np.asarray(x).size // 2)
            return component_terms(state, x)

        for module in (coherentlab.states, coherentlab.landscape, oracles):
            monkeypatch.setattr(module, "_component_terms", counting)

        def points_evaluated(run):
            evaluated.clear()
            out = run()
            return sum(evaluated), len(evaluated), out

        n_search, calls_search, result = points_evaluated(lambda: find_local_maxima(state))
        n_reference, _, _ = points_evaluated(lambda: find_local_maxima_reference(state))
        alone = [points_evaluated(lambda: ascend(state, s, _first(state, s), []))
                 for s in starts]
        assert len(starts) == 6 and len(result.maxima) == 1 and result.failed_starts == 0
        x, v, ok = alone[0][2]
        assert ok and result.maxima[0].point.as_vector().tobytes() == x.tobytes()
        found = [(x, v)]
        for start in starts[1:]:
            merged = ascend(state, start, _first(state, start), found)
            assert merged[0] is x and merged[1] == v and merged[2] is True
        assert n_search <= sum(n for n, _, _ in alone) < n_reference
        assert calls_search < sum(calls for _, calls, _ in alone)
        self._assert_matches_reference(state)


class TestDerivativesOnlyWhereKept:
    """The ascent builds derivatives only at the iterates it keeps.

    A rejected line-search trial gets the value stage alone; an accepted
    trial gets the derivative stage, built from what its own value stage
    kept.  ``ascend`` runs no stage: a start's stages do not depend on the
    maxima it may be absorbed into.
    """

    @staticmethod
    def _stages(monkeypatch, state, start, maxima):
        """The stages the ascent from ``start`` alone runs, as "value" and "derivatives" in order.

        They begin with the value stage of the first step's trial, which
        the lockstep evaluates after the start's own two stages.
        """
        value_stage = coherentlab.landscape._value_stage
        derivative_stage = coherentlab.landscape._derivative_stage
        log = []

        def value(state, x):
            v, stage = value_stage(state, x)
            log.append(("value", stage))
            return v, stage

        def derivatives(state, stage):
            # built from the stage of the trial just evaluated, not an earlier one
            assert log[-1][0] == "value"
            assert all(got.tobytes() == kept.tobytes() for got, kept in zip(stage, log[-1][1], strict=True))
            log.append(("derivatives", stage))
            return derivative_stage(state, stage)

        with monkeypatch.context() as patch:
            patch.setattr(coherentlab.landscape, "_value_stage", value)
            patch.setattr(coherentlab.landscape, "_derivative_stage", derivatives)
            first = _first(state, start)
            result = ascend(state, start, first, maxima)
        # the start's own evaluation, which the search makes for every start
        assert [kind for kind, _ in log[:2]] == ["value", "derivatives"]
        return [kind for kind, _ in log[2:]], result

    def _assert_kept_only(self, monkeypatch, state, start):
        """Alone, every accepted trial gets derivatives and no rejected one does."""
        counts = {}
        ascend_reevaluating(state, start, counts=counts)
        kinds, _ = self._stages(monkeypatch, state, start, [])
        assert kinds.count("derivatives") == kinds.count("value") - counts["backtracks"]
        return kinds, counts

    def test_no_derivatives_for_a_rejected_trial(self, monkeypatch):
        state = _backtracking_state()
        kinds, counts = self._assert_kept_only(monkeypatch, state, ascent_starts(state)[1])
        assert counts["backtracks"] == 2
        assert kinds[:4] == ["value", "value", "value", "derivatives"]

    def test_an_absorbed_start_runs_its_stages_alone(self, monkeypatch):
        state = _one_summit_state()
        starts = ascent_starts(state)
        x, v, ok = ascend(state, starts[0], _first(state, starts[0]), [])
        absorbed_after_a_step = 0
        for start in starts[1:]:
            alone, _ = self._assert_kept_only(monkeypatch, state, start)
            merged, result = self._stages(monkeypatch, state, start, [(x, v)])
            assert result[0] is x
            # the lockstep steps a start until it stops, whatever maximum ascend
            # then finds its iterates reach, so the stages are those it runs alone
            assert merged == alone
            xs = _first(state, start)[0]
            radius = coherentlab.landscape.DEDUP_RADIUS
            near = [d @ d < radius * radius for d in xs - x]
            absorbed_after_a_step += near.index(True) > 0
        assert absorbed_after_a_step == len(starts) - 1


class TestExhaustedLineSearch:
    """A direction along which no trial step gains ends the ascent as not converged."""

    @staticmethod
    def _summits_at(monkeypatch, starts):
        # the real gradient and Hessian, but v = -(distance to the nearest
        # start): each start is a summit, and every Armijo trial falls below it.
        # The value stage is lowered: the line search evaluates its trials with it
        # alone, and v_value_grad_hess, which evaluates a start or the stack of a
        # search's starts that find_local_maxima evaluates in one call, runs it first
        value_stage = coherentlab.landscape._value_stage
        calls = []

        def lowered(state, x):
            calls.append(np.array(x))
            distances = np.linalg.norm(np.asarray(x)[..., None, :] - np.array(starts), axis=-1)
            return -distances.min(axis=-1), value_stage(state, x)[1]

        monkeypatch.setattr(coherentlab.landscape, "_value_stage", lowered)
        return calls

    def _state(self):
        # unequal overlapping bumps: no start is a stationary point
        return SuperposedState([0.8, 0.6], [_pt(0.0, 0.0), _pt(1.5, 0.5)], single_mode())

    def test_ascend_returns_the_start_after_sixty_halvings(self, monkeypatch):
        state = self._state()
        start = ascent_starts(state)[0]
        calls = self._summits_at(monkeypatch, [start])
        x, v, ok = ascend(state, start, _first(state, start), [])
        assert x.tobytes() == start.tobytes() and v == 0.0 and ok is False
        assert len(calls) == 1 + 60
        assert all(np.any(c != start) for c in calls[1:])

    def test_find_local_maxima_counts_every_such_start_as_failed(self, monkeypatch):
        state = self._state()
        starts = ascent_starts(state)
        calls = self._summits_at(monkeypatch, starts)
        result = find_local_maxima(state)
        assert len(starts) == 3
        assert result.failed_starts == len(starts) and result.maxima == []
        # the stacked first evaluation went through the lowered landscape too.
        # Counted in rows, 1 + 60 evaluations per start: its row of the stacked
        # evaluation of the starts, then of each of the 60 stacked trials, since
        # every start backtracks in every round
        assert all(c.shape == (len(starts), 2) for c in calls)
        rows = [len(np.atleast_2d(c)) for c in calls]
        assert rows == [len(starts)] * (1 + 60)
        assert sum(rows) == (1 + 60) * len(starts)


class TestLandscapeUnderflow:
    """The landscape flushes far components to zero exactly as ``overlap`` does."""

    @staticmethod
    def _state():
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

    @staticmethod
    def _heavy_state():
        # at the heavier centre, the second, the gradient vanishes, but the curvature
        # |a|^2 w / 2 overflows the Hessian to -inf, with NaN where inf meets
        # the zero off-diagonal, and eigvalsh does not converge; the lighter
        # centre's curvature stays finite.  At w = 1e308 the two bumps do not overlap
        basis = ModeBasis(omegas=[1.0] * 3, weights=[1e308] * 3)
        near, far = _pt([0.0] * 3, [0.0] * 3), _pt([1.0] * 3, [1.0] * 3)
        return SuperposedState([0.9, 3.0], [near, far], basis)

    def test_hessian_eigvalsh_cannot_read_is_a_failed_start(self):
        state = self._heavy_state()
        x = np.concatenate([state.q[1], state.p[1]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(v_value_grad_hess(state, x)[2])
            assert ascend(state, x, _first(state, x), [])[2] is False
        result = find_local_maxima(state)
        assert result.failed_starts == 1
        assert [c.point.as_vector().tolist() for c in result.maxima] == [[0.0] * 6]


def _assert_same_row(got, want):
    """Two rows of ``lockstep_ascent`` with the same iterates, values, convergence and Hessian bits."""
    (xs, vs, converged, hess), (xs_alone, vs_alone, converged_alone, hess_alone) = got, want
    assert converged is converged_alone
    for a, b in zip((xs, vs, hess), (xs_alone, vs_alone, hess_alone)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _search_alone(state):
    """``find_local_maxima``'s loop with each start ascended alone."""
    found, failed = [], 0
    for start in ascent_starts(state):
        x, v, ok = ascend(state, start, _first(state, start), found)
        if not ok:
            failed += 1
        elif all(x is not xk for xk, _ in found):
            found.append((x, v))
    found.sort(key=lambda item: (-item[1], tuple(item[0])))
    return found, failed


def _mixed_starts(rng):
    """A state, and a stack of starts whose rows take Newton and gradient steps, backtrack and halve 60 times.

    The search's starts and a random point take the first three kinds;
    a NaN start reads v = 0 and a NaN gradient, so all 60 of its trials fail.
    """
    state = _overlapping_state(rng)
    n2 = 2 * state.n_modes
    return state, ascent_starts(state) + [rng.normal(0.0, 3.0, n2), np.full(n2, np.nan)]


class TestStackedFirstStep:
    """Every start's steps, the first included, taken in lockstep, are the steps it takes alone."""

    @staticmethod
    def _assert_rows_alone(state, points):
        stacked = lockstep_ascent(state, np.array(points))
        assert len(stacked) == len(points)
        for start, row in zip(points, stacked):
            _assert_same_row(row, _first(state, start))
        result = find_local_maxima(state)
        found, failed = _search_alone(state)
        assert result.failed_starts == failed
        assert [(c.point.as_vector().tobytes(), c.v) for c in result.maxima] == [
            (x.tobytes(), min(v, 1.0)) for x, v in found]
        return stacked

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_row_is_the_step_taken_alone_property(self, seed):
        rng = np.random.default_rng(seed)
        state = _overlapping_state(rng)
        self._assert_rows_alone(state, ascent_starts(state) + [rng.normal(0.0, 3.0, 2 * state.n_modes)])

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_row_is_the_reevaluating_ascent_alone_property(self, seed):
        state, starts = _mixed_starts(np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
            for max_iter in (3, 200):
                patch.setattr(coherentlab.landscape, "ASCENT_MAX_ITER", max_iter)
                for start, row in zip(starts, lockstep_ascent(state, np.array(starts))):
                    x, v, ok = ascend(state, start, row, [])
                    x_ref, v_ref, ok_ref = ascend_reevaluating(state, start, max_iter=max_iter)
                    assert x.tobytes() == x_ref.tobytes() and v == v_ref and ok is ok_ref

    def test_flushed_kernel_and_overflowing_hessian(self):
        state, near, far = TestLandscapeUnderflow._state()
        with np.errstate(over="ignore", invalid="ignore"):
            self._assert_rows_alone(state, ascent_starts(state) + [
                np.array([500.0, 0.0, 0.0, 500.0]), near.as_vector() + 0.3, far.as_vector() - 0.2])
            heavy = TestLandscapeUnderflow._heavy_state()
            self._assert_rows_alone(heavy, ascent_starts(heavy) + [np.zeros(6)])

    def test_the_sample_takes_newton_and_gradient_steps(self):
        # the stacks of the reevaluating property: rows counted by the kinds of step
        # their ascents take, and stacks that hold all four kinds
        rng = np.random.default_rng(40)
        kinds = {"newton": 0, "gradient": 0, "backtracking": 0, "sixty halvings": 0}
        mixed = 0
        for _ in range(30):
            state, starts = _mixed_starts(rng)
            with np.errstate(invalid="ignore"):
                rows = lockstep_ascent(state, np.array(starts))
                in_stack = set()
                for start, (xs, _, converged, _) in zip(starts, rows):
                    counts = {}
                    ascend_reevaluating(state, start, counts=counts)
                    # a row that stops unconverged before the cap has run out of trials
                    exhausted = not converged and len(xs) - 1 < coherentlab.landscape.ASCENT_MAX_ITER
                    row = {"newton": len(xs) - 1 + exhausted > counts["gradient_steps"],
                           "gradient": counts["gradient_steps"] > 0,
                           "backtracking": counts["backtracks"] > 60 * exhausted,
                           "sixty halvings": exhausted}
                    in_stack |= {kind for kind, took in row.items() if took}
                    for kind, took in row.items():
                        kinds[kind] += took
            mixed += len(in_stack) == len(kinds)
        assert kinds["newton"] >= 50 and kinds["gradient"] >= 40 and kinds["backtracking"] >= 15
        assert kinds["sixty halvings"] == 30 and mixed >= 3

    def test_a_row_eigvalsh_cannot_read_takes_the_gradient_alone(self):
        state = _backtracking_state()
        starts = np.array(ascent_starts(state))
        _, grad, hess = v_value_grad_hess(state, starts)
        gnorm = np.sqrt([g @ g for g in grad])
        hess = hess.copy()
        hess[1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(hess)
        stacked = coherentlab.landscape._newton_steps(grad, hess)
        assert np.isnan(stacked[1]).all()
        directions, slopes = coherentlab.landscape._direction(grad, gnorm, stacked)
        unit = grad[1] / gnorm[1]
        assert directions[1].tobytes() == unit.tobytes() and slopes[1] == float(grad[1] @ unit)
        newton = 0
        for i in range(len(starts)):
            if i != 1:
                alone = slice(i, i + 1)
                direction, slope = coherentlab.landscape._direction(
                    grad[alone], gnorm[alone], coherentlab.landscape._newton_steps(grad[alone], hess[alone]))
                assert directions[i].tobytes() == direction[0].tobytes() and slopes[i] == slope[0]
                newton += direction.tobytes() != (grad[i] / gnorm[i]).tobytes()
        assert newton >= 2

    def test_a_row_solve_cannot_take_gives_no_newton_step_alone(self):
        # -u u^T is singular, so solve raises for the whole stack; the first draw whose
        # zero eigenvalues all round below 0 (about 1 in 75) is read as negative definite
        rng = np.random.default_rng(41)
        a = rng.normal(size=(3, 4, 4))
        hess = -(a @ a.transpose(0, 2, 1)) - np.eye(4)
        grad = rng.normal(size=(3, 4))
        for _ in range(2000):
            u = rng.normal(size=4)
            hess[1] = -np.outer(u, u)
            if np.linalg.eigvalsh(hess[1]).max() < 0.0:
                try:
                    np.linalg.solve(hess[1], -grad[1])
                except np.linalg.LinAlgError:
                    break
        else:
            pytest.fail("no singular Hessian read as negative definite")
        assert (np.linalg.eigvalsh(hess).max(axis=-1) < 0.0).all()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hess, -grad[:, :, None])
        newton_steps = coherentlab.landscape._newton_steps
        steps = newton_steps(grad, hess)
        assert np.isnan(steps[1]).all()
        assert np.isnan(newton_steps(grad[1:2], hess[1:2])).all()
        for i in (0, 2):
            assert steps[i].tobytes() == np.linalg.solve(hess[i], -grad[i]).tobytes()
            assert steps[i].tobytes() == newton_steps(grad[i:i + 1], hess[i:i + 1]).tobytes()

    def test_a_row_eigvalsh_cannot_read_leaves_the_others_their_first_steps(self):
        # the heavier centre's Hessian stops eigvalsh for the whole stack, so every row
        # is stepped alone: that row by its zero gradient, the others by Newton steps
        state = TestLandscapeUnderflow._heavy_state()
        rng = np.random.default_rng(42)
        with np.errstate(over="ignore", invalid="ignore"):
            points = ascent_starts(state) + [rng.normal(0.0, 1e-155, 6) for _ in range(3)]
            v, grad, hess = v_value_grad_hess(state, np.array(points))
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(hess)
            stacked = self._assert_rows_alone(state, points)
            directions, slopes = coherentlab.landscape._direction(
                grad, np.sqrt([g @ g for g in grad]), coherentlab.landscape._newton_steps(grad, hess))
        for row in stacked[:2]:  # the two centres, where the gradient is zero: no step
            assert len(row[0]) == 1 and row[2] is True
        assert not grad[:2].any()
        for g, direction, slope, row in zip(grad[2:], directions[2:], slopes[2:], stacked[2:]):
            assert slope > 0.0 and direction.tobytes() != (g / math.sqrt(g @ g)).tobytes()
            assert len(row[0]) > 1

    def test_a_row_eigvalsh_cannot_read_later_leaves_the_others_their_bits(self, monkeypatch):
        # the Hessian at the second start's first iterate is made unreadable wherever
        # it is built, so at the stack's second iteration eigvalsh raises for the whole
        # stack; that row then takes the gradient, and every other row keeps its bits
        state = _backtracking_state()
        starts = ascent_starts(state)
        alone = _first(state, starts[1])
        assert len(alone[0]) > 2
        n = state.n_modes
        poisoned_dq = (alone[0][1][:n] - state.q).tobytes()
        derivative_stage = coherentlab.landscape._derivative_stage
        poisoned = []

        def unreadable(state, stage):
            grad, hess = derivative_stage(state, stage)
            rows = [dq.tobytes() == poisoned_dq for dq in stage[1]]
            hess[rows] = np.inf
            poisoned.append(sum(rows))
            return grad, hess

        monkeypatch.setattr(coherentlab.landscape, "_derivative_stage", unreadable)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(np.full((2 * n, 2 * n), np.inf))
        stacked = lockstep_ascent(state, np.array(starts))
        assert poisoned[1] == 1
        for i, (start, row) in enumerate(zip(starts, stacked)):
            _assert_same_row(row, _first(state, start))
            if i != 1:
                x, v, ok = ascend(state, start, row, [])
                x_ref, v_ref, ok_ref = ascend_reevaluating(state, start)
                assert x.tobytes() == x_ref.tobytes() and v == v_ref and ok is ok_ref
        # the poisoned row reached the poisoned iterate as it does alone, and went on another way
        assert stacked[1][0][1].tobytes() == alone[0][1].tobytes()
        assert stacked[1][0][2:].tobytes() != alone[0][2:].tobytes()

    def test_a_converged_start_is_a_maximum_whose_step_is_not_read(self, monkeypatch):
        # a lone component's centre has a zero gradient: the lockstep stops it before a
        # trial, alone and beside a far pair whose starts move, so the only value stage
        # its point appears in is the starts' own evaluation
        value_stage = coherentlab.landscape._value_stage
        evaluated = []

        def recording(state, x):
            evaluated.append(np.array(x))
            return value_stage(state, x)

        monkeypatch.setattr(coherentlab.landscape, "_value_stage", recording)
        basis = single_mode()
        for coord in (0.0, 1e7, -1e154):
            state = SuperposedState.single(_pt(coord, coord), basis)
            (start,) = ascent_starts(state)
            evaluated.clear()
            first = _first(state, start)
            assert len(evaluated) == 1 and evaluated[0].tobytes() == start.tobytes()
            assert len(first[0]) == 1 and first[2] is True
            x, v, ok = ascend(state, start, first, [])
            assert ok is True and v == first[1][0] and x.tobytes() == start.tobytes()
            assert find_local_maxima(state).failed_starts == 0
        for coord in (0.0, 1e7):
            lone = _pt(coord, coord)
            state = SuperposedState([1.0, 0.7, 0.5], [lone, _pt(coord + 1e3, coord),
                                                      _pt(coord + 1e3 + 0.8, coord + 0.3)], basis)
            evaluated.clear()
            rows = lockstep_ascent(state, np.array(ascent_starts(state)))
            trials = [row.tobytes() for x in evaluated[1:] for row in x]
            assert len(trials) > len(rows) and lone.as_vector().tobytes() not in trials
            assert len(rows[0][0]) == 1 and rows[0][2] is True
            assert all(len(xs) > 1 for xs, *_ in rows[1:])

    def test_a_start_on_a_maximum_found_returns_it_before_stepping(self):
        # the start is the first iterate ascend reads, so it returns the maximum there,
        # whatever the steps that the lockstep took from it
        state = _backtracking_state()
        for start in ascent_starts(state):
            first = _first(state, start)
            assert len(first[0]) > 1
            found = [(start + 1e-7, 0.25)]
            x, v, ok = ascend(state, start, first, found)
            assert x is found[0][0] and v == 0.25 and ok is True

    def test_stage_rows_per_search_are_unchanged(self, monkeypatch):
        # a chain of four-component states, as the select_chain benchmark runs: rows
        # and calls counted through each stage.  A lockstep row runs until it stops,
        # also where ascend finds it absorbed into an earlier start's maximum, so it
        # evaluates more rows (2640 value and 2084 derivative rows with each start
        # ascended on its own, stopped once absorbed) in far fewer calls (1974 and
        # 1751 then)
        value_stage = coherentlab.landscape._value_stage
        derivative_stage = coherentlab.landscape._derivative_stage
        rows = {"value": 0, "derivatives": 0, "value calls": 0, "derivative calls": 0}

        def value(state, x):
            rows["value"] += np.asarray(x).size // (2 * state.n_modes)
            rows["value calls"] += 1
            return value_stage(state, x)

        def derivatives(state, stage):
            rows["derivatives"] += np.size(stage[3])
            rows["derivative calls"] += 1
            return derivative_stage(state, stage)

        monkeypatch.setattr(coherentlab.landscape, "_value_stage", value)
        monkeypatch.setattr(coherentlab.landscape, "_derivative_stage", derivatives)
        rng = np.random.default_rng(7)
        basis = ModeBasis(omegas=[0.7, 1.1, 1.6], weights=[0.8, 1.0, 1.3])
        initial = SuperposedState([0.9, 0.6j, 0.5],
                                  [_pt(rng.normal(0, 1.5, 3), rng.normal(0, 1.5, 3)) for _ in range(3)],
                                  basis)
        log = run_sequence(initial, UrgencySchedule(2.0), seeded_spawn(11, count=3, spread=1.5),
                           n_events=40)
        assert len(log) == 40 and sum(r.failed_starts for r in log) == 0
        assert rows == {"value": 2809, "derivatives": 2545, "value calls": 626, "derivative calls": 412}


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

    def test_seeded_spawn_draws_q_then_p_then_weight(self):
        basis = ModeBasis(omegas=np.array([1.0, 2.0]), weights=np.ones(2))
        lead = CoherentPoint(q=np.array([1.0, -2.0]), p=np.array([0.5, 3.0]))
        origin = CoherentPoint(q=np.zeros(2), p=np.zeros(2))
        state = SuperposedState([0.2, 0.9], [origin, lead], basis)
        grown = seeded_spawn(7, count=2, spread=3.0, coeff=0.4)(state, 5)
        rng = np.random.default_rng([7, 5])
        for j in (2, 3):
            dq, dp = rng.normal(0.0, 3.0, size=2), rng.normal(0.0, 3.0, size=2)
            assert grown.q[j].tobytes() == (lead.q + dq).tobytes()
            assert grown.p[j].tobytes() == (lead.p + dp).tobytes()
            assert grown.coeffs[j] == 0.4 * rng.uniform(0.5, 1.0)

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

        def counting(state, start, first, maxima):
            calls.append(1)
            return ascend(state, start, first, maxima)

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
