import numpy as np
import pytest

from coherentlab import (
    Absorber,
    ClassicalEnsemble,
    RingState,
    classical_survival,
    dt_bound,
    fourier_mode_state,
    loss_rate,
    step,
    survival_curve,
    uniform_ensemble,
    uniform_state,
    von_mises_state,
)


class TestRingState:
    def test_norm_of_uniform(self):
        assert uniform_state(128).norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [32, 100, 63])
    def test_bad_grid_sizes_rejected(self, n):
        with pytest.raises(ValueError):
            RingState(psi=np.ones(n, dtype=complex))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            RingState(psi=np.ones(64, dtype=complex), mass=0.0)

    def test_profiles_normalized(self):
        assert von_mises_state(128, 0.5, 30.0).norm() == pytest.approx(1.0)
        assert fourier_mode_state(128, 3).norm() == pytest.approx(1.0)


class TestAbsorber:
    def test_delta_profile_single_cell(self):
        absorber = Absorber(kind="delta", center=0.25, strength=0.5)
        f = absorber.profile(128)
        assert np.count_nonzero(f) == 1
        assert f[32] == 128.0
        # integrated strength: (1/N) sum W = b
        assert np.mean(absorber.weight(128)) == pytest.approx(0.5)

    def test_plateau_profile_shape(self):
        absorber = Absorber(kind="plateau", center=0.5, strength=1.0, width=0.1, sigma=0.02)
        f = absorber.profile(512)
        assert f.max() == pytest.approx(1.0)
        assert np.all((0.0 <= f) & (f <= 1.0))
        x = np.arange(512) / 512
        inside = np.abs(x - 0.5) < 0.05
        assert np.all(f[inside] == 1.0)

    def test_plateau_requires_width_and_sigma(self):
        with pytest.raises(ValueError):
            Absorber(kind="plateau", strength=1.0, width=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Absorber(kind="gaussian", strength=1.0)


class TestStep:
    def test_zero_absorber_conserves_norm_many_steps(self):
        absorber = Absorber(kind="delta", strength=0.0)
        curve = survival_curve(von_mises_state(64, 0.3, 20.0, boost=2), absorber,
                               dt=5e-3, steps=10000, record_every=1000)
        assert np.max(np.abs(curve.survival - curve.survival[0])) <= 1e-10

    def test_dt_above_bound_rejected_with_bound(self):
        state = uniform_state(256)
        bad_dt = dt_bound(256, 1.0) * 1.5
        with pytest.raises(ValueError, match="accuracy bound"):
            step(state, Absorber(kind="delta", strength=0.1), bad_dt)

    def test_nonpositive_dt_rejected(self):
        state = uniform_state(256)
        with pytest.raises(ValueError):
            step(state, Absorber(kind="delta", strength=0.1), 0.0)

    def test_norm_never_increases(self):
        rng = np.random.default_rng(31)
        state = von_mises_state(128, 0.6, 10.0, boost=3)
        absorber = Absorber(kind="plateau", center=0.1, strength=0.8, width=0.05, sigma=0.02)
        prev = state.norm()
        for _ in range(200):
            state = step(state, absorber, 1e-3)
            cur = state.norm()
            assert cur <= prev + 1e-14
            prev = cur

    def test_time_advances(self):
        state = uniform_state(64)
        out = step(state, Absorber(kind="delta", strength=0.0), 1e-3)
        assert out.time == pytest.approx(1e-3)


class TestLossLaw:
    @pytest.mark.parametrize("b", [0.005, 0.01, 0.02])
    def test_uniform_delta_rate_matches_2b(self, b):
        # finite-difference the simulated norm over a short window
        state = uniform_state(256)
        absorber = Absorber(kind="delta", strength=b)
        dt = 1e-4
        curve = survival_curve(state, absorber, dt=dt, steps=20)
        rate = (curve.survival[0] - curve.survival[-1]) / (curve.t[-1] - curve.t[0])
        assert rate == pytest.approx(2.0 * b, rel=0.01)

    def test_packet_far_from_absorber_sees_tail_only(self):
        state = von_mises_state(256, center=0.5, concentration=30.0)
        absorber = Absorber(kind="delta", center=0.0, strength=2.0)
        expected = loss_rate(state, absorber)  # 2 b |psi(x0)|^2
        # analytic tail of the periodic packet at circular distance 1/2
        kappa = 30.0
        peak = np.max(np.abs(state.psi) ** 2)
        analytic = 2.0 * absorber.strength * peak * np.exp(4.0 * kappa * (np.cos(np.pi) - 1.0) / 2.0)
        assert expected < 1e-8
        assert expected == pytest.approx(analytic, rel=0.05)
        dt = 1e-4
        curve = survival_curve(state, absorber, dt=dt, steps=10)
        rate = (curve.survival[0] - curve.survival[-1]) / (curve.t[-1] - curve.t[0])
        assert rate == pytest.approx(expected, rel=0.05, abs=1e-12)

    def test_rate_order_in_dt_for_plateau(self):
        # error of N(T) against a fine-dt reference shrinks at least first order
        state = von_mises_state(128, center=0.3, concentration=15.0)
        absorber = Absorber(kind="plateau", center=0.0, strength=1.0, width=0.08, sigma=0.03)
        T = 0.08
        ref = survival_curve(state, absorber, dt=T / 2048, steps=2048).survival[-1]
        errs = []
        for divisions in (64, 128, 256):
            val = survival_curve(state, absorber, dt=T / divisions, steps=divisions).survival[-1]
            errs.append(abs(val - ref))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.0
        assert errs[2] < errs[1] < errs[0]

    def test_rate_order_in_grid_for_plateau(self):
        # instantaneous rate converges to 2 <W> at least second order in spacing
        absorber = Absorber(kind="plateau", center=0.0, strength=1.0, width=0.08, sigma=0.015)
        errs = []
        for n in (128, 256, 512):
            state = von_mises_state(n, center=0.3, concentration=15.0)
            dt = 5e-5
            curve = survival_curve(state, absorber, dt=dt, steps=8)
            rate = (curve.survival[0] - curve.survival[-1]) / (curve.t[-1] - curve.t[0])
            # reference: grid-exact expectation at t=0 on the same grid refined 8x
            fine = von_mises_state(4096, center=0.3, concentration=15.0)
            target = loss_rate(fine, absorber)
            errs.append(abs(rate - target))
        order = np.log2(errs[0] / errs[1])
        assert order >= 2.0 or errs[1] < 1e-10


class TestSurvival:
    def test_constant_for_zero_strength(self):
        curve = survival_curve(uniform_state(64), Absorber(kind="delta", strength=0.0),
                               dt=5e-3, steps=100)
        assert np.all(curve.survival == curve.survival[0])

    def test_uniform_delta_drains_below_percent(self):
        curve = survival_curve(uniform_state(256), Absorber(kind="delta", strength=0.5),
                               dt=2.5e-4, steps=32000, record_every=40)
        assert curve.survival[-1] < 0.01
        crossing = curve.t[np.argmax(curve.survival < 0.01)]
        assert 0.0 < crossing < 8.0
        assert np.all(np.diff(curve.survival) <= 1e-14)

    def test_grid_refinement_consistency(self):
        dt = 1.25e-4
        steps = int(3.0 / dt)
        a = survival_curve(uniform_state(256), Absorber(kind="delta", strength=0.5),
                           dt=dt, steps=steps, record_every=100)
        b = survival_curve(uniform_state(512), Absorber(kind="delta", strength=0.5),
                           dt=dt, steps=steps, record_every=100)
        assert np.max(np.abs(a.survival - b.survival)) < 0.01

    def test_wall_sharpness_changes_flow(self):
        # paired runs differing only in wall sharpness; record the difference
        state = uniform_state(256)
        common = dict(center=0.0, strength=1.0, width=0.06)
        soft = Absorber(kind="plateau", sigma=0.03, **common)
        sharp = Absorber(kind="plateau", sigma=0.003, **common)
        dt, steps = 2.5e-4, 8000
        cs = survival_curve(state, soft, dt=dt, steps=steps, record_every=200)
        ch = survival_curve(state, sharp, dt=dt, steps=steps, record_every=200)
        gap = cs.survival[-1] - ch.survival[-1]
        # measurable effect; sign and size are data, not assumptions
        assert abs(gap) > 1e-4
        print(f"wall-sharpness effect: soft minus sharp final survival = {gap:+.4f}")

    @pytest.mark.parametrize(
        "absorber",
        [
            Absorber(kind="delta", center=0.25, strength=0.5),
            Absorber(kind="plateau", center=0.1, strength=0.8, width=0.05, sigma=0.02),
        ],
    )
    def test_curve_equals_repeated_steps(self, absorber):
        state = von_mises_state(128, 0.3, 20.0, boost=2)
        dt, steps = 1e-3, 40
        curve = survival_curve(state, absorber, dt=dt, steps=steps)
        norms = [state.norm()]
        for _ in range(steps):
            state = step(state, absorber, dt)
            norms.append(state.norm())
        assert np.all(curve.survival == np.asarray(norms))


class TestClassicalEnsemble:
    def test_angles_validated(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble(angles=np.array([0.5, 1.2]))

    def test_zero_region_survives_forever(self):
        ens = uniform_ensemble(1000, seed=2)
        curve = classical_survival(ens, 0.0, 0.0, times=np.linspace(0, 10, 11))
        assert np.all(curve.survival == 1.0)

    def test_full_region_kills_all(self):
        ens = uniform_ensemble(1000, seed=3)
        curve = classical_survival(ens, 0.0, 1.0, times=[0.0, 5.0])
        assert np.all(curve.survival == 0.0)

    def test_fraction_and_constancy(self):
        members = 100000
        ens = uniform_ensemble(members, seed=4)
        curve = classical_survival(ens, 0.25, 0.1, times=np.linspace(0, 100, 50))
        sigma = np.sqrt(0.1 * 0.9 / members)
        assert curve.survival[0] == pytest.approx(0.9, abs=4 * sigma)
        assert np.all(curve.survival == curve.survival[0])

    def test_alive_count_non_increasing(self):
        ens = uniform_ensemble(1000, seed=5)
        first = np.count_nonzero(ens.alive)
        classical_survival(ens, 0.0, 0.2, times=[0.0])
        second = np.count_nonzero(ens.alive)
        classical_survival(ens, 0.5, 0.2, times=[0.0])
        third = np.count_nonzero(ens.alive)
        assert first >= second >= third
