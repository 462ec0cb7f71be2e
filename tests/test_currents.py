import math

import numpy as np
import pytest
from scipy.integrate import quad

from coherentlab import (
    FieldMode,
    FourVector,
    SuperposedState,
    Trajectory,
    current_divergence,
    current_j,
    displacement_from_current,
    lorentz_dot,
    mode_basis_for,
    polarization_vectors,
    radiated_quanta,
    trajectories_from_csv,
    vacuum_persistence,
)

from coherentlab.currents import _transverse_amplitudes
from oracles import polarization_cross_reference


def quad_current(traj: Trajectory, k: np.ndarray) -> np.ndarray:
    """Adaptive-quadrature oracle for the defining current integral."""

    def x_of_t(t):
        i = np.searchsorted(traj.times, t, side="right") - 1
        i = min(max(i, 0), traj.times.size - 2)
        f = (t - traj.times[i]) / (traj.times[i + 1] - traj.times[i])
        return traj.positions[i] + f * (traj.positions[i + 1] - traj.positions[i])

    def v_of_t(t):
        i = np.searchsorted(traj.times, t, side="right") - 1
        i = min(max(i, 0), traj.times.size - 2)
        return (traj.positions[i + 1] - traj.positions[i]) / (
            traj.times[i + 1] - traj.times[i]
        )

    out = np.zeros(4, dtype=complex)
    for mu in range(4):
        def integrand(t, part):
            v4 = 1.0 if mu == 0 else v_of_t(t)[mu - 1]
            phase = np.exp(1j * (k[0] * t - k[1:] @ x_of_t(t)))
            val = -1j * traj.charge * v4 * phase
            return val.real if part == 0 else val.imag

        for a, b in zip(traj.times[:-1], traj.times[1:]):
            re = quad(integrand, a, b, args=(0,), limit=200)[0]
            im = quad(integrand, a, b, args=(1,), limit=200)[0]
            out[mu] += re + 1j * im
    return out


def on_shell(kvec) -> np.ndarray:
    kvec = np.asarray(kvec, dtype=float)
    return np.concatenate([[np.linalg.norm(kvec)], kvec])


def random_trajectory(rng, charge=None, n_segments=None, span=(0.0, 3.0)):
    n_segments = n_segments or int(rng.integers(1, 5))
    times = np.linspace(span[0], span[1], n_segments + 1)
    positions = [rng.normal(0, 0.5, 3)]
    for dt in np.diff(times):
        speed = rng.uniform(0.0, 0.85)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        positions.append(positions[-1] + speed * dt * direction)
    return Trajectory(
        charge=charge if charge is not None else rng.uniform(-2, 2),
        times=times,
        positions=np.array(positions),
    )


class TestTrajectory:
    def test_superluminal_rejected(self):
        with pytest.raises(ValueError, match="superluminal"):
            Trajectory(charge=1.0, times=np.array([0.0, 1.0]),
                       positions=np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]))

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(charge=1.0, times=np.array([0.0, 0.0]),
                       positions=np.zeros((2, 3)))

    def test_from_breakpoints(self):
        traj = Trajectory.from_breakpoints(1.0, [(0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)])
        assert traj.span == (0.0, 1.0)

    def test_long_slow_segment_is_subluminal(self):
        # |step|^2 = 1e400 overflows; the speed 0.1 does not
        traj = Trajectory.from_breakpoints(1.0, [(0.0, 0.0, 0.0, 0.0), (1e201, 1e200, 0.0, 0.0)])
        assert traj.span == (0.0, 1e201)


class TestCurrentJ:
    def test_zero_charges_give_zero(self):
        rng = np.random.default_rng(50)
        trajs = [random_trajectory(rng, charge=0.0) for _ in range(3)]
        j = current_j(trajs, on_shell([1.0, 0.0, 0.0]))
        assert np.allclose(j.components, 0.0)
        # a neutral trajectory adds exact zeros, never a -0.0, to a stack;
        # the static charge's spatial components are zeros themselves
        static = Trajectory(charge=-0.4, times=np.array([0.0, 3.0]),
                            positions=np.array([[0.1, 0.2, -0.3]] * 2))
        charged = [random_trajectory(rng, charge=1.0), static]
        ks = np.stack([on_shell(v) for v in ([1.0, 0.0, 0.0], [0.0, -0.7, 0.3], [0.2, 0.0, 0.0])])
        assert current_j(charged + trajs, ks).tobytes() == current_j(charged, ks).tobytes()

    def test_static_charge_time_component_only(self):
        traj = Trajectory(charge=1.3, times=np.array([0.0, 2.0]),
                          positions=np.array([[0.2, -0.1, 0.4]] * 2))
        k = on_shell([0.0, 0.7, 0.0])
        j = current_j([traj], k)
        assert np.allclose(j.components[1:], 0.0)
        oracle = quad_current(traj, k)
        assert np.max(np.abs(j.components - oracle)) < 1e-10

    def test_opposite_charges_cancel(self):
        rng = np.random.default_rng(51)
        traj = random_trajectory(rng, charge=1.7)
        anti = Trajectory(charge=-1.7, times=traj.times, positions=traj.positions)
        j = current_j([traj, anti], on_shell([0.4, 0.8, -0.2]))
        assert np.max(np.abs(j.components)) < 1e-14

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            traj = random_trajectory(rng)
            k = on_shell(rng.normal(0, 1.2, 3))
            got = current_j([traj], k).components
            want = quad_current(traj, k)
            assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("dt", [2e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_short_segment_is_exact_to_rounding(self, dt):
        # a charge at rest with k = (1, 1, 0, 0) has phi = 1, so its one
        # segment gives J0 = -i e dt sum_n (i dt)^n / (n + 1)!
        traj = Trajectory(charge=1.0, times=np.array([0.0, dt]), positions=np.zeros((2, 3)))
        got = current_j([traj], np.array([1.0, 1.0, 0.0, 0.0])).components[0]
        want = -1j * dt * sum((1j * dt) ** n / math.factorial(n + 1) for n in range(8))
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_additive_over_trajectories(self):
        rng = np.random.default_rng(53)
        t1 = random_trajectory(rng, n_segments=3)
        t2 = random_trajectory(rng, n_segments=3)
        k = on_shell([0.3, -0.5, 0.9])
        joint = current_j([t1, t2], k).components
        split = current_j([t1], k).components + current_j([t2], k).components
        assert np.max(np.abs(joint - split)) < 1e-14

    def test_homogeneous_in_charge(self):
        rng = np.random.default_rng(54)
        traj = random_trajectory(rng, charge=1.0)
        doubled = Trajectory(charge=2.0, times=traj.times, positions=traj.positions)
        k = on_shell([1.0, 0.2, 0.1])
        assert np.allclose(
            current_j([doubled], k).components,
            2.0 * current_j([traj], k).components,
        )

    def test_off_shell_rejected(self):
        traj = Trajectory(charge=1.0, times=np.array([0.0, 1.0]),
                          positions=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="mass shell"):
            current_j([traj], np.array([1.0, 0.0, 0.0, 0.5]))

    def test_mismatched_spans_rejected(self):
        a = Trajectory(charge=1.0, times=np.array([0.0, 1.0]), positions=np.zeros((2, 3)))
        b = Trajectory(charge=1.0, times=np.array([0.0, 2.0]), positions=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="share"):
            current_j([a, b], on_shell([1.0, 0.0, 0.0]))

    def test_divergence_reported(self):
        rng = np.random.default_rng(55)
        traj = random_trajectory(rng)
        k = on_shell([0.9, -0.3, 0.4])
        div = current_divergence([traj], k)
        j = current_j([traj], k)
        manual = lorentz_dot(np.asarray(k, dtype=complex), j)
        assert div == pytest.approx(manual)
        assert np.isfinite(div.real) and np.isfinite(div.imag)


class TestStackedCurrent:
    """A (K, 4) stack of wave vectors gives the per-k currents as rows.

    A row does not depend on the other rows of the stack, so it equals
    the one-vector call exactly.
    """

    def test_rows_equal_per_k_calls(self):
        for seed in range(40):
            rng = np.random.default_rng([70, seed])
            trajs = [random_trajectory(rng, n_segments=int(rng.integers(1, 9)))
                     for _ in range(int(rng.integers(1, 4)))]
            k = np.array([on_shell(rng.normal(0, 1.2, 3)) for _ in range(int(rng.integers(2, 9)))])
            stacked = current_j(trajs, k)
            assert stacked.shape == (k.shape[0], 4) and stacked.dtype == complex
            for row, kk in zip(stacked, k):
                assert np.array_equal(row, current_j(trajs, kk).components)

    def test_vanishing_k_row_mixes_with_other_rows(self):
        rng = np.random.default_rng(71)
        traj = random_trajectory(rng, n_segments=3)
        k = np.array([on_shell([0.3, -0.5, 0.9]), on_shell([1e-10, 0.0, 0.0]),
                      on_shell([-1.1, 0.2, 0.4])])
        stacked = current_j([traj], k)
        for row, kk in zip(stacked, k):
            assert np.array_equal(row, current_j([traj], kk).components)
        # at |k| -> 0 the current is -i e times the displacement 4-vector
        span = np.concatenate([[traj.times[-1] - traj.times[0]],
                               traj.positions[-1] - traj.positions[0]])
        assert np.max(np.abs(stacked[1] + 1j * traj.charge * span)) < 1e-8

    @pytest.mark.parametrize("bad_row", [[1.0, 0.0, 0.0, 0.5], [np.nan, 0.0, 0.0, 1.0]])
    def test_off_shell_row_rejects_the_stack(self, bad_row):
        traj = Trajectory(charge=1.0, times=np.array([0.0, 1.0]), positions=np.zeros((2, 3)))
        k = np.array([on_shell([1.0, 0.0, 0.0]), bad_row, on_shell([0.0, 2.0, 0.0])])
        with pytest.raises(ValueError, match="mass shell"):
            current_j([traj], k)

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (2, 2, 4)])
    def test_wrong_shape_rejected(self, shape):
        traj = Trajectory(charge=1.0, times=np.array([0.0, 1.0]), positions=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="4 components"):
            current_j([traj], np.ones(shape))

    def test_divergence_rows_equal_per_k_calls(self):
        rng = np.random.default_rng(72)
        traj = random_trajectory(rng, n_segments=4)
        k = np.array([on_shell(rng.normal(0, 1.0, 3)) for _ in range(5)])
        div = current_divergence([traj], k)
        assert div.shape == (5,)
        assert np.array_equal(div, [current_divergence([traj], kk) for kk in k])


class TestBracket:
    """The Minkowski bracket X.Y = X0 Y0 - X.Y that `lorentz_dot` computes."""

    def test_zero_side_gives_zero(self):
        x = FourVector(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
        assert lorentz_dot(x, np.zeros(4, dtype=complex)) == 0.0

    def test_time_component_positive(self):
        x = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        assert lorentz_dot(x, x) == pytest.approx(1.0)

    def test_space_component_negative(self):
        for axis in (1, 2, 3):
            x = np.zeros(4, dtype=complex)
            x[axis] = 1.0
            assert lorentz_dot(x, x) == pytest.approx(-1.0)


class TestLorentzDot:
    def test_contracts_the_last_axis(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        assert np.array_equal(lorentz_dot(x, y), [lorentz_dot(a, b) for a, b in zip(x, y)])


class TestVacuumPersistence:
    def _modes(self, rng, n=3):
        return [
            FieldMode(k_vec=rng.normal(0, 1.0, 3), weight=rng.uniform(0.2, 1.5),
                      polarization=int(rng.integers(0, 2)))
            for _ in range(n)
        ]

    def test_zero_charge_unity(self):
        rng = np.random.default_rng(57)
        traj = random_trajectory(rng, charge=0.0)
        assert vacuum_persistence([traj], self._modes(rng)) == 1.0

    def test_cancelling_charges_unity(self):
        rng = np.random.default_rng(58)
        traj = random_trajectory(rng, charge=0.9)
        anti = Trajectory(charge=-0.9, times=traj.times, positions=traj.positions)
        assert vacuum_persistence([traj, anti], self._modes(rng)) == pytest.approx(1.0)

    def test_radiating_current_below_unity(self):
        rng = np.random.default_rng(59)
        traj = random_trajectory(rng, charge=1.5)
        val = vacuum_persistence([traj], self._modes(rng))
        assert 0.0 < val < 1.0

    def test_static_charge_radiates_nothing(self):
        rng = np.random.default_rng(66)
        traj = Trajectory(charge=2.0, times=np.array([0.0, 3.0]),
                          positions=np.array([[0.3, 0.1, -0.2]] * 2))
        assert radiated_quanta([traj], self._modes(rng)) == 0.0
        assert vacuum_persistence([traj], self._modes(rng)) == 1.0

    def test_exponent_matches_explicit_polarization_sum(self):
        rng = np.random.default_rng(67)
        traj = random_trajectory(rng, charge=1.1)
        modes = self._modes(rng)
        explicit = 0.0
        for mode in modes:
            j = current_j([traj], mode.k4).components[1:]
            e1, e2 = polarization_vectors(mode.k_vec)
            explicit += mode.weight * (abs(np.sum(e1 * j)) ** 2 + abs(np.sum(e2 * j)) ** 2)
        assert radiated_quanta([traj], modes) == pytest.approx(explicit, rel=1e-12)

    def test_charge_moving_along_k_radiates_nothing(self):
        # J_vec is parallel to k, so it has no transverse content to rounding
        rng = np.random.default_rng(68)
        for _ in range(200):
            k_hat = rng.normal(size=3)
            k_hat /= np.linalg.norm(k_hat)
            traj = Trajectory(charge=1.0, times=np.array([0.0, 2.0]),
                              positions=np.array([[0.0] * 3, 1.2 * k_hat]))
            mode = FieldMode(k_vec=rng.uniform(0.5, 2.0) * k_hat)
            j_sq = np.sum(np.abs(current_j([traj], mode.k4).components[1:]) ** 2)
            assert radiated_quanta([traj], [mode]) < 1e-30 * j_sq

    def test_charge_doubling_quadruples_exponent(self):
        rng = np.random.default_rng(60)
        traj = random_trajectory(rng, charge=1.0)
        doubled = Trajectory(charge=2.0, times=traj.times, positions=traj.positions)
        modes = self._modes(rng)
        e1 = -np.log(vacuum_persistence([traj], modes))
        e2 = -np.log(vacuum_persistence([doubled], modes))
        assert e2 == pytest.approx(4.0 * e1, rel=1e-10)


class TestDisplacement:
    def test_zero_current_origin(self):
        rng = np.random.default_rng(61)
        traj = random_trajectory(rng, charge=0.0)
        point = displacement_from_current([traj], self._modes(rng))
        assert np.allclose(point.q, 0.0) and np.allclose(point.p, 0.0)

    def _modes(self, rng, n=2):
        return [
            FieldMode(k_vec=rng.normal(0, 1.0, 3), weight=1.0, polarization=p)
            for p in (0, 1)
            for _ in range(n // 2 or 1)
        ][:n]

    def test_linear_in_charge_scaling(self):
        rng = np.random.default_rng(62)
        traj = random_trajectory(rng, charge=1.0)
        scaled = Trajectory(charge=3.0, times=traj.times, positions=traj.positions)
        modes = self._modes(rng)
        p1 = displacement_from_current([traj], modes)
        p3 = displacement_from_current([scaled], modes)
        assert np.allclose(p3.q, 3.0 * p1.q, atol=1e-14)
        assert np.allclose(p3.p, 3.0 * p1.p, atol=1e-14)

    def test_reference_trajectory_against_quadrature(self):
        # fixed single-segment reference: unit charge sweeping along x
        traj = Trajectory(charge=1.0, times=np.array([0.0, 2.0]),
                          positions=np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]]))
        mode = FieldMode(k_vec=np.array([0.6, 0.3, 1.1]), weight=1.0, polarization=0)
        point = displacement_from_current([traj], [mode])
        j_oracle = quad_current(traj, mode.k4)
        e1, _ = polarization_vectors(mode.k_vec)
        amp = np.sum(e1 * j_oracle[1:])
        assert point.q[0] == pytest.approx(np.sqrt(2.0) * amp.real, abs=1e-8)
        assert point.p[0] == pytest.approx(np.sqrt(2.0) * amp.imag, abs=1e-8)

    def test_feeds_states_layer(self):
        rng = np.random.default_rng(63)
        traj = random_trajectory(rng, charge=1.0)
        modes = self._modes(rng)
        point = displacement_from_current([traj], modes)
        state = SuperposedState.single(point, mode_basis_for(modes))
        assert state.norm_sq == pytest.approx(1.0)
        assert state.basis.n_modes == 2


class TestPolarization:
    def test_orthonormal_transverse(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            k = rng.normal(size=3)
            e1, e2 = polarization_vectors(k)
            assert np.dot(e1, e2) == pytest.approx(0.0, abs=1e-14)
            assert np.linalg.norm(e1) == pytest.approx(1.0)
            assert np.linalg.norm(e2) == pytest.approx(1.0)
            assert np.dot(e1, k) == pytest.approx(0.0, abs=1e-12)
            assert np.dot(e2, k) == pytest.approx(0.0, abs=1e-12)

    def test_near_axis_fallback(self):
        e1, e2 = polarization_vectors([0.0, 0.0, 2.0])
        assert np.linalg.norm(e1) == pytest.approx(1.0)
        assert abs(np.dot(e1, [0.0, 0.0, 1.0])) < 1e-14

    def test_stack_equals_per_row_calls(self):
        rng = np.random.default_rng(65)
        k = np.concatenate([rng.normal(size=(6, 3)), [[1e-8, 1e-8, -3.0]]])
        e1, e2 = polarization_vectors(k)
        assert e1.shape == e2.shape == (7, 3)
        for row, a, b in zip(k, e1, e2):
            r1, r2 = polarization_vectors(row)
            assert np.array_equal(a, r1) and np.array_equal(b, r2)
        # the last row lies within 1e-6 of the z axis, so e1 = normalize(x x k),
        # not normalize(z x k) ~ (-1, 1, 0) / sqrt(2)
        assert np.allclose(e1[-1], [0.0, 1.0, 0.0], rtol=0.0, atol=1e-8)

    def test_same_bytes_as_np_cross(self):
        # e1 and e2 are written out by component; every bit, signed zeros
        # included, must be what np.cross gives, for single vectors and stacks,
        # on rows near and exactly on the z axis
        rng = np.random.default_rng(66)
        fallback_rows = 0
        for trial in range(2000):
            rows = int(rng.integers(0, 5))
            k = rng.normal(size=(rows, 3) if rows else 3)
            if trial % 3 == 0:
                k[..., :2] *= rng.choice([0.0, -0.0, 1e-7, 1e-12])
            if trial % 7 == 0:
                k[..., int(rng.integers(0, 3))] = rng.choice([0.0, -0.0])
            if np.any(np.vecdot(k, k) == 0.0):
                continue
            got, want = polarization_vectors(k), polarization_cross_reference(k)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)
                assert a.tobytes() == b.tobytes()
            fallback_rows += np.sum(np.hypot(k[..., 0], k[..., 1]) < 1e-6 * np.abs(k[..., 2]))
        assert fallback_rows > 100
        on_axis = np.array([[0.3, -1.2, 0.4], [0.0, 0.0, -2.0]])
        for a, b in zip(polarization_vectors(on_axis), polarization_cross_reference(on_axis)):
            assert a.tobytes() == b.tobytes()

    def test_wave_vector_built_once_per_mode(self):
        mode = FieldMode(k_vec=np.array([0.6, -0.3, 1.1]), weight=1.0)
        assert mode.k4 is mode.k4
        assert not mode.k4.flags.writeable
        assert mode.k4.tobytes() == np.concatenate([[mode.omega], mode.k_vec]).tobytes()


    def test_polarization_pair_built_once_per_mode(self):
        mode = FieldMode(k_vec=np.array([1e-8, 1e-8, -3.0]))
        assert mode.polarization_pair is mode.polarization_pair
        assert not mode.polarization_pair.flags.writeable
        assert mode.polarization_pair.tobytes() == np.stack(polarization_vectors(mode.k_vec)).tobytes()

    def test_transverse_amplitudes_keep_the_bytes_of_the_stacked_pairs(self):
        # each mode's cached (e1, e2) against the pairs of one polarization_vectors
        # call over the stack of wave vectors, near the z axis too
        rng = np.random.default_rng(67)
        for trial in range(200):
            k = rng.normal(size=(int(rng.integers(1, 7)), 3))
            if trial % 4 == 0:
                k[0, :2] *= 1e-8
            modes = [FieldMode(k_vec=row, weight=rng.uniform(0.2, 1.5)) for row in k]
            trajs = [random_trajectory(rng) for _ in range(int(rng.integers(1, 3)))]
            k4 = np.array([m.k4 for m in modes])
            j = current_j(trajs, k4)[:, 1:]
            want = np.sum(np.stack(polarization_vectors(k4[:, 1:]), axis=1) * j[:, None, :], axis=2)
            assert _transverse_amplitudes(trajs, modes).tobytes() == want.tobytes()

class TestCsvIngest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(
            "particle,charge,t,x,y,z\n"
            "a,1.0,0.0,0.0,0.0,0.0\n"
            "a,1.0,1.0,0.5,0.0,0.0\n"
            "b,-1.0,0.0,1.0,0.0,0.0\n"
            "b,-1.0,1.0,1.0,0.3,0.0\n"
        )
        trajs = trajectories_from_csv(path)
        assert len(trajs) == 2
        assert trajs[0].charge == 1.0
        assert trajs[1].positions[1, 1] == 0.3

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("particle,charge,t,x\n")
        with pytest.raises(ValueError, match="columns"):
            trajectories_from_csv(path)

    def test_inconsistent_charge_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "particle,charge,t,x,y,z\n"
            "a,1.0,0.0,0.0,0.0,0.0\n"
            "a,2.0,1.0,0.0,0.0,0.0\n"
        )
        with pytest.raises(ValueError, match="inconsistent"):
            trajectories_from_csv(path)
