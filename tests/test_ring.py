import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ring_exact_survival

from coherentlab import (
    Absorber,
    ClassicalEnsemble,
    RingState,
    classical_survival,
    dt_bound,
    fourier_mode_state,
    loss_rate,
    ring,
    step,
    survival_curve,
    uniform_ensemble,
    uniform_state,
    von_mises_state,
)
from coherentlab.config import resolve_config

RING_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ring.json"


def _drawn_absorber(data):
    """A delta or plateau absorber of strength 0-5 anywhere on the ring."""
    strength = data.draw(st.floats(0.0, 5.0))
    center = data.draw(st.floats(0.0, 0.999))
    if data.draw(st.booleans()):
        return Absorber(kind="delta", center=center, strength=strength)
    return Absorber(kind="plateau", center=center, strength=strength,
                    width=data.draw(st.floats(0.01, 0.5)),
                    sigma=data.draw(st.floats(0.005, 0.1)))


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

    @pytest.mark.parametrize("value", [0.5, 2.7, -1.5, float("nan"), float("inf")])
    def test_fractional_boost_or_mode_rejected(self, value):
        with pytest.raises(ValueError, match="boost must be an integer"):
            von_mises_state(64, boost=value)
        with pytest.raises(ValueError, match="mode must be an integer"):
            fourier_mode_state(64, value)

    @pytest.mark.parametrize("value", [0.0, -2.0, float("nan")])
    def test_nonpositive_concentration_rejected(self, value):
        with pytest.raises(ValueError, match="concentration must be > 0"):
            von_mises_state(64, concentration=value)

    @pytest.mark.parametrize("center", [0.0, 0.25, 0.5])
    def test_packet_center_is_taken_mod_1(self, center):
        packet = von_mises_state(64, center).psi.tobytes()
        for k in (1, -1, 7, -2**20, 2**40):
            assert von_mises_state(64, center + k).psi.tobytes() == packet

    @pytest.mark.parametrize("center", [1e16, -1e16, 1e308, -1e308])
    def test_packet_far_from_the_circle_equals_the_packet_at_0(self, center):
        assert von_mises_state(64, center).psi.tobytes() == von_mises_state(64, 0.0).psi.tobytes()

    def test_integral_float_boost_or_mode_accepted(self):
        assert np.all(von_mises_state(64, boost=2.0).psi == von_mises_state(64, boost=2).psi)
        assert np.all(fourier_mode_state(64, -3.0).psi == fourier_mode_state(64, -3).psi)


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

    @pytest.mark.parametrize("sigma", [5e-324, 1e-308, 1e-170, 2e154, 1e308])
    def test_plateau_sigma_at_either_extreme(self, sigma):
        # a huge sigma flattens the tail to 1, a tiny one makes a hard wall; no warning
        absorber = Absorber(kind="plateau", center=0.0, strength=1.0, width=0.125, sigma=sigma)
        f = absorber.profile(64)
        assert np.all((0.0 <= f) & (f <= 1.0))
        assert f[4] == 1.0  # d = width / 2 exactly

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

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(n_grid=st.sampled_from([64, 128, 256]), data=st.data())
    def test_recorded_survival_never_rises(self, n_grid, data):
        # N = 64 with record_every >= 2 over enough steps takes the stride path
        absorber = _drawn_absorber(data)
        if data.draw(st.booleans()):
            state = uniform_state(n_grid)
        else:
            state = von_mises_state(n_grid, data.draw(st.floats(0.0, 1.0)),
                                    data.draw(st.floats(1.0, 40.0)), data.draw(st.integers(-3, 3)))
        dt = data.draw(st.floats(0.01, 1.0)) * dt_bound(n_grid, state.mass)
        curve = survival_curve(state, absorber, dt, data.draw(st.integers(1, 60)),
                               data.draw(st.integers(1, 6)))
        assert np.all(np.diff(curve.survival) <= 1e-14)

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


ABSORBERS = [
    Absorber(kind="delta", center=0.25, strength=0.5),
    Absorber(kind="plateau", center=0.1, strength=0.8, width=0.05, sigma=0.02),
]


@pytest.mark.parametrize("absorber", ABSORBERS)
class TestInPlaceStep:
    def test_inputs_left_untouched(self, absorber):
        state = von_mises_state(128, 0.3, 20.0, boost=2)
        before = state.psi.tobytes()
        survival_curve(state, absorber, dt=1e-3, steps=20)
        assert state.psi.tobytes() == before
        step(state, absorber, 1e-3)
        assert state.psi.tobytes() == before

    def test_step_returns_a_new_array(self, absorber):
        state = von_mises_state(128, 0.3, 20.0, boost=2)
        out = step(state, absorber, 1e-3)
        assert not np.shares_memory(out.psi, state.psi)

    def test_equals_out_of_place_reference(self, absorber):
        # the out-of-place formula with a real decay factor, as the stepper
        # was first written; the in-place stepper must give the same bits
        state = von_mises_state(128, 0.3, 20.0, boost=2, mass=1.5)
        dt, steps = 1e-3, 200
        decay_half = np.exp(-absorber.weight(128) * dt / 2.0)
        k = 2.0 * np.pi * np.fft.fftfreq(128, d=1.0 / 128)
        kinetic = np.exp(-1j * k * k * dt / (2.0 * state.mass))
        psi = state.psi
        norms = [np.mean(np.abs(psi) ** 2)]
        for _ in range(steps):
            psi = decay_half * np.fft.ifft(kinetic * np.fft.fft(decay_half * psi))
            norms.append(np.mean(np.abs(psi) ** 2))
        curve = survival_curve(state, absorber, dt=dt, steps=steps)
        assert np.all(curve.survival == np.asarray(norms))
        for _ in range(steps):
            state = step(state, absorber, dt)
        assert np.all(state.psi == psi)


class TestTextbookBits:
    @pytest.mark.parametrize("n_grid", [64, 128, 256, 512, 1024])
    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_every_supported_n_gives_the_textbook_bits(self, n_grid, data):
        # the stepper runs an unnormalised inverse FFT with 1/N folded into the
        # kinetic factor; for every power-of-two N that must give the bits of
        # the textbook formula with numpy's default normalisation, on both paths
        absorber = _drawn_absorber(data)
        mass = data.draw(st.floats(0.5, 2.0))
        profile = data.draw(st.sampled_from(["uniform", "von_mises", "fourier_mode"]))
        if profile == "uniform":
            state = uniform_state(n_grid, mass)
        elif profile == "von_mises":
            state = von_mises_state(n_grid, data.draw(st.floats(0.0, 1.0)),
                                    data.draw(st.floats(1.0, 60.0)),
                                    data.draw(st.integers(-3, 3)), mass)
        else:
            state = fourier_mode_state(n_grid, data.draw(st.integers(-n_grid // 2, n_grid // 2)),
                                       mass)
        dt = data.draw(st.floats(0.01, 1.0)) * dt_bound(n_grid, mass)
        steps = data.draw(st.integers(1, 30))
        record_every = data.draw(st.integers(2, 6))
        decay_half = np.exp(-absorber.weight(n_grid) * dt / 2.0)
        k = 2.0 * np.pi * np.fft.fftfreq(n_grid, d=1.0 / n_grid)
        kinetic = np.exp(-1j * k * k * dt / (2.0 * mass))

        def textbook(psi):
            return decay_half * np.fft.ifft(kinetic * np.fft.fft(decay_half * psi))

        def norm(psi):
            return np.mean(np.abs(psi) ** 2)

        psi, norms, stepped = state.psi, [norm(state.psi)], state
        for _ in range(steps):
            psi = textbook(psi)
            norms.append(norm(psi))
            stepped = step(stepped, absorber, dt)
        assert np.all(stepped.psi == psi)
        assert np.all(survival_curve(state, absorber, dt, steps).survival == np.asarray(norms))

        rows = np.eye(n_grid, dtype=complex)
        for _ in range(record_every):
            rows = textbook(rows)
        strides, left = divmod(steps, record_every)
        psi, norms = state.psi, [norm(state.psi)]
        for _ in range(strides):
            psi = psi @ rows
            norms.append(norm(psi))
        for _ in range(left):
            psi = textbook(psi)
        if left:
            norms.append(norm(psi))
        with pytest.MonkeyPatch.context() as mp:
            strided = _forced(mp, "stride", state, absorber, dt, steps, record_every)
        assert np.all(strided.survival == np.asarray(norms))


def _forced(monkeypatch, path, *args):
    """``survival_curve(*args)`` with the cost model's choice fixed to ``path``."""
    monkeypatch.setattr(ring, "_stride_is_cheaper", lambda *_: path == "stride")
    return survival_curve(*args)


def _strang_calls(monkeypatch):
    """Record the shape of every ``psi`` that ``survival_curve`` steps."""
    shapes = []
    stepper = ring._strang

    def recorder(psi, *rest):
        shapes.append(psi.shape)
        stepper(psi, *rest)

    monkeypatch.setattr(ring, "_strang", recorder)
    return shapes


STRIDE_ABSORBERS = ABSORBERS + [Absorber(kind="delta", center=0.5, strength=0.0)]

#: The ``_strang`` shapes of one of the r stacked steps of the N = 256 stride build.
BLOCK_256 = [(ring.STRIDE_BLOCK_ROWS, 256)] * (256 // ring.STRIDE_BLOCK_ROWS)


class TestStridePropagator:
    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("absorber", ABSORBERS)
    def test_stacked_rows_equal_one_vector_steps(self, n, absorber):
        state = von_mises_state(n, 0.3, 20.0, boost=2)
        decay_half, kinetic = ring._step_factors(state, absorber, 0.25 * dt_bound(n, 1.0))
        rng = np.random.default_rng(n)
        # five rows, and one block of the stride build
        for height in (5, ring.STRIDE_BLOCK_ROWS):
            stack = rng.standard_normal((height, n)) + 1j * rng.standard_normal((height, n))
            stack[0] = state.psi
            rows = stack.copy()
            ring._strang(rows, np.empty_like(rows), decay_half, kinetic)
            for psi, row in zip(stack, rows):
                psi = psi.copy()
                ring._strang(psi, np.empty_like(psi), decay_half, kinetic)
                assert np.all(row == psi)

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("record_every", [2, 5, 40])
    @pytest.mark.parametrize("absorber", STRIDE_ABSORBERS)
    @pytest.mark.parametrize("mass", [1.0, 1.5])
    def test_stride_agrees_with_stepping(self, monkeypatch, n, record_every, absorber, mass):
        state = von_mises_state(n, 0.3, 20.0, boost=2, mass=mass)
        dt = 0.25 * dt_bound(n, mass)
        for steps in (200, 203):
            args = (state, absorber, dt, steps, record_every)
            stepped = _forced(monkeypatch, "step", *args)
            strided = _forced(monkeypatch, "stride", *args)
            assert strided.t.tobytes() == stepped.t.tobytes()
            assert np.max(np.abs(strided.survival - stepped.survival)) <= 2e-14

    def test_ring_config_never_gains_norm_on_the_stride_path(self, monkeypatch):
        config, inputs = resolve_config(json.loads(RING_CONFIG.read_text()))
        p = config["parameters"]
        shapes = _strang_calls(monkeypatch)
        curve = survival_curve(inputs["state"], inputs["absorber"], p["dt"], p["steps"],
                               p["record_every"])
        assert shapes == BLOCK_256 * p["record_every"]
        assert curve.survival.size == p["steps"] // p["record_every"] + 1
        assert np.all(np.diff(curve.survival) <= 1e-14)
        assert curve.survival[-1] == pytest.approx(3.5e-4, rel=0.05)

    def test_stride_run_holds_a_and_one_block(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; A alone is N^2 * 16 bytes
        n = 512
        args = (uniform_state(n), Absorber(kind="delta", strength=0.5),
                0.25 * dt_bound(n, 1.0), 20, 5)
        tracemalloc.start()
        try:
            _forced(monkeypatch, "stride", *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 16

    @pytest.mark.parametrize(
        "n, record_every, steps, calls",
        [
            (256, 5, 4000, BLOCK_256 * 5),
            (256, 5, 4003, BLOCK_256 * 5 + [(256,)] * 3),
            (256, 5, 100, [(256,)] * 100),
            (512, 5, 4000, [(512,)] * 4000),
            (64, 1, 100, [(64,)] * 100),
            (1024, 16, 32, [(1024,)] * 32),
        ],
    )
    def test_cost_model_picks_the_path(self, monkeypatch, n, record_every, steps, calls):
        shapes = _strang_calls(monkeypatch)
        curve = survival_curve(uniform_state(n), Absorber(kind="delta", strength=0.5),
                               0.25 * dt_bound(n, 1.0), steps, record_every)
        assert shapes == calls
        assert curve.t.size == -(-steps // record_every) + 1


class TestExactReference:
    """Both paths against psi(t) = exp(-i H t) psi_0 on N = 128, T = 0.4,
    20 records; the error is the largest over the records."""

    def _errors(self, monkeypatch, state, absorber):
        """Error of each path (columns: stepping, stride) at 1600, 3200, 6400 steps."""
        T, errors = 0.4, []
        exact = ring_exact_survival(state, absorber, np.arange(21) * (T / 20))
        for steps in (1600, 3200, 6400):
            args = (state, absorber, T / steps, steps, steps // 20)
            curves = [_forced(monkeypatch, path, *args) for path in ("step", "stride")]
            assert curves[1].t.tobytes() == curves[0].t.tobytes()
            assert np.max(np.abs(curves[1].survival - curves[0].survival)) <= 2e-14
            errors.append([np.max(np.abs(c.survival - exact)) for c in curves])
        return np.array(errors)

    def test_plateau_converges_at_second_order(self, monkeypatch):
        # measured: 4.0e-7, 1.0e-7, 2.5e-8
        absorber = Absorber(kind="plateau", center=0.0, strength=1.0, width=0.06, sigma=0.02)
        errors = self._errors(monkeypatch, von_mises_state(128, 0.3, 15.0, boost=2), absorber)
        assert np.all(errors[0] < 5e-7)
        assert np.all(errors[:-1] / errors[1:] > 3.8)

    def test_delta_within_measured_bound(self, monkeypatch):
        # measured: 5.9e-5, 5.3e-5, 3.0e-5; not yet second order at these dt
        absorber = Absorber(kind="delta", center=0.0, strength=0.5)
        errors = self._errors(monkeypatch, uniform_state(128), absorber)
        assert np.all(errors < 7e-5)


class TestClassicalEnsemble:
    def test_angles_validated(self):
        with pytest.raises(ValueError):
            ClassicalEnsemble(angles=np.array([0.5, 1.2]))

    @pytest.mark.parametrize("members", [0, -1])
    def test_needs_a_member(self, members):
        with pytest.raises(ValueError, match=f"members must be >= 1, got {members}"):
            uniform_ensemble(members, seed=1)

    @pytest.mark.parametrize("width", [-0.1, 1.5, float("nan")])
    def test_region_width_is_a_fraction_of_the_circle(self, width):
        with pytest.raises(ValueError, match="region_width"):
            classical_survival(uniform_ensemble(10, seed=1), 0.0, width, times=[0.0])

    @pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
    def test_region_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="region_center must be finite"):
            classical_survival(uniform_ensemble(10, seed=1), center, 0.1, times=[0.0])

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

    def test_region_center_is_taken_mod_1(self):
        ens = uniform_ensemble(100000, seed=1)
        at_zero = classical_survival(ens, 0.0, 0.05, times=[0.0]).survival[0]
        for center in (1e15, 1e16):
            assert classical_survival(ens, center, 0.05, times=[0.0]).survival[0] == at_zero

    def test_survival_leaves_ensemble_unchanged(self):
        ens = uniform_ensemble(1000, seed=5)
        angles = ens.angles.copy()
        first = classical_survival(ens, 0.0, 0.2, times=[0.0, 1.0])
        second = classical_survival(ens, 0.0, 0.2, times=[0.0, 1.0])
        assert ens.angles.tobytes() == angles.tobytes()
        assert first.survival.tobytes() == second.survival.tobytes()
        assert first.survival[0] < 1.0
