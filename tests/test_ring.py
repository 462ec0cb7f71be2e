import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ring_exact_survival, ring_long_double_survival

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
RING_FINE_CONFIG = RING_CONFIG.with_name("ring_fine.json")


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
        # the path is the cost model's pick (None) or forced; "fourier" only
        # where the decay drains at most one cell
        absorber = _drawn_absorber(data)
        if data.draw(st.booleans()):
            state = uniform_state(n_grid)
        else:
            state = von_mises_state(n_grid, data.draw(st.floats(0.0, 1.0)),
                                    data.draw(st.floats(1.0, 40.0)), data.draw(st.integers(-3, 3)))
        dt = data.draw(st.floats(0.01, 1.0)) * dt_bound(n_grid, state.mass)
        args = (state, absorber, dt, data.draw(st.integers(1, 60)), data.draw(st.integers(1, 6)))
        decay_half, _ = ring._step_factors(state, absorber, dt)
        paths = [None, "step", "stride"]
        if np.count_nonzero(decay_half != 1.0) <= 1:
            paths.append("fourier")
        path = data.draw(st.sampled_from(paths))
        with pytest.MonkeyPatch.context() as mp:
            curve = survival_curve(*args) if path is None else _forced(mp, path, *args)
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
    def test_curve_equals_repeated_steps(self, monkeypatch, absorber):
        # r = 1 steps by itself; at r = 5 the step path is forced, since no
        # sample config or demo pins its bits at r >= 2
        state = von_mises_state(128, 0.3, 20.0, boost=2)
        dt, stepped, norms = 1e-3, state, [state.norm()]
        for _ in range(43):
            stepped = step(stepped, absorber, dt)
            norms.append(stepped.norm())
        norms = np.asarray(norms)
        assert np.all(survival_curve(state, absorber, dt=dt, steps=40).survival == norms[:41])
        for steps in (40, 43):
            curve = _forced(monkeypatch, "step", state, absorber, dt, steps, 5)
            assert np.all(curve.survival == norms[[*range(0, steps, 5), steps]])


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
    """``survival_curve(*args)`` with the cost model's choice fixed to ``path``:
    "step", "stride" or "fourier" (the last only for a one-cell drain)."""
    monkeypatch.setattr(ring, "_cheapest_path", lambda *_: path)
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


def _config_run(path):
    """The ``survival_curve`` arguments of a sample ring config, and its parameters."""
    config, inputs = resolve_config(json.loads(path.read_text()))
    p = config["parameters"]
    return (inputs["state"], inputs["absorber"], p["dt"], p["steps"], p["record_every"]), p


def _one_cell_plateau_run():
    """``survival_curve`` arguments with a plateau so narrow that it drains
    only the grid cell at its centre."""
    absorber = Absorber(kind="plateau", center=0.25, strength=40.0, width=1e-6, sigma=1e-6)
    return (von_mises_state(128, 0.3, 2.0, boost=3), absorber, 0.25 * dt_bound(128, 1.0), 400, 5)


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
        for steps in (record_every - 1, record_every, 200, 203):
            args = (state, absorber, dt, steps, record_every)
            stepped = _forced(monkeypatch, "step", *args)
            strided = _forced(monkeypatch, "stride", *args)
            assert strided.t.tobytes() == stepped.t.tobytes()
            assert np.max(np.abs(strided.survival - stepped.survival)) <= 2e-14

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("record_every", [2, 5, 40])
    def test_a_run_shorter_than_a_stride_builds_no_a(self, monkeypatch, n, record_every):
        # A is built on the first whole stride, and r - 1 steps have none
        shapes = _strang_calls(monkeypatch)
        _forced(monkeypatch, "stride", von_mises_state(n, 0.3, 20.0, boost=2), ABSORBERS[1],
                0.25 * dt_bound(n, 1.0), record_every - 1, record_every)
        assert shapes == [(n,)] * (record_every - 1)

    def test_ring_config_never_gains_norm_on_the_stride_path(self, monkeypatch):
        args, p = _config_run(RING_CONFIG)
        shapes = _strang_calls(monkeypatch)
        curve = _forced(monkeypatch, "stride", *args)
        assert shapes == BLOCK_256 * p["record_every"]
        assert curve.survival.size == p["steps"] // p["record_every"] + 1
        assert np.all(np.diff(curve.survival) <= 1e-14)
        assert curve.survival[-1] == pytest.approx(3.5e-4, rel=0.05)

    def test_ring_config_takes_the_fourier_path(self, monkeypatch):
        # the cost model's pick for N = 256, r = 40: one cell is drained;
        # measured 3.6e-15 from the stride curve over the 32000 steps
        args, _ = _config_run(RING_CONFIG)
        shapes = _strang_calls(monkeypatch)
        curve = survival_curve(*args)
        assert shapes == []
        assert np.all(np.diff(curve.survival) <= 1e-14)
        assert curve.survival[-1] == pytest.approx(3.5e-4, rel=0.05)
        strided = _forced(monkeypatch, "stride", *args)
        assert curve.t.tobytes() == strided.t.tobytes()
        assert np.max(np.abs(curve.survival - strided.survival)) <= 1e-14

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
        "n, record_every, steps, calls, delta_calls",
        [
            # the delta absorber drains one cell: at r >= 2 the Fourier path
            # is the cheapest in every row, and it makes no _strang call
            (256, 5, 4000, BLOCK_256 * 5, []),
            (256, 5, 4003, BLOCK_256 * 5 + [(256,)] * 3, []),
            (256, 5, 100, [(256,)] * 100, []),
            (512, 5, 4000, [(512,)] * 4000, []),
            (64, 1, 100, [(64,)] * 100, [(64,)] * 100),
            (1024, 16, 32, [(1024,)] * 32, []),
        ],
    )
    @pytest.mark.parametrize("absorber", ABSORBERS, ids=["delta", "plateau"])
    def test_cost_model_picks_the_path(self, monkeypatch, n, record_every, steps, calls,
                                       delta_calls, absorber):
        shapes = _strang_calls(monkeypatch)
        curve = survival_curve(uniform_state(n), absorber, 0.25 * dt_bound(n, 1.0), steps,
                               record_every)
        assert shapes == (delta_calls if absorber.kind == "delta" else calls)
        assert curve.t.size == -(-steps // record_every) + 1


class TestFourierPath:
    """A drain of one cell stepped in the Fourier basis, against stepping."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    @pytest.mark.parametrize("record_every", [2, 5, 40])
    @pytest.mark.parametrize("strength", [0.0, 0.5])
    @pytest.mark.parametrize("mass", [1.0, 1.5])
    def test_fourier_agrees_with_stepping(self, monkeypatch, n, record_every, strength, mass):
        # measured: at most 1.4e-14 over these cases, natively and under the
        # pinned dispatch of tests/test_config_hashes.py
        state = von_mises_state(n, 0.3, 2.0, boost=3, mass=mass)
        dt = 0.25 * dt_bound(n, mass)
        for cell in (0, n // 2, n - 1):
            absorber = Absorber(kind="delta", center=cell / n, strength=strength)
            for steps in (record_every - 1, record_every, 200, 203):
                args = (state, absorber, dt, steps, record_every)
                stepped = _forced(monkeypatch, "step", *args)
                fourier = _forced(monkeypatch, "fourier", *args)
                assert fourier.t.tobytes() == stepped.t.tobytes()
                assert np.max(np.abs(fourier.survival - stepped.survival)) <= 2e-14

    def test_fourier_agrees_with_stepping_at_the_fine_config(self, monkeypatch):
        # configs/ring_fine.json's N, r, dt and state over its 4000 steps: the
        # roundoff of both paths grows with the step count; measured at most
        # 1.0e-13 over these cells, natively and under the pinned dispatch
        n = 512
        state = von_mises_state(n, 0.5, 10.0, boost=3)
        for cell in (0, n // 2, n - 1):
            absorber = Absorber(kind="delta", center=cell / n, strength=0.5)
            args = (state, absorber, 1e-4, 4000, 5)
            stepped = _forced(monkeypatch, "step", *args)
            fourier = _forced(monkeypatch, "fourier", *args)
            assert fourier.t.tobytes() == stepped.t.tobytes()
            assert np.max(np.abs(fourier.survival - stepped.survival)) <= 2e-13

    def test_one_cell_plateau_takes_the_fourier_path(self, monkeypatch):
        # the drained cell is read from the decay itself, whatever the kind
        args = _one_cell_plateau_run()
        assert np.count_nonzero(args[1].profile(args[0].n_grid)) == 1
        stepped = _forced(monkeypatch, "step", *args)
        monkeypatch.undo()
        shapes = _strang_calls(monkeypatch)
        curve = survival_curve(*args)
        assert shapes == []
        assert np.max(np.abs(curve.survival - stepped.survival)) <= 2e-14

    def test_fourier_run_holds_no_n_squared_buffer(self, monkeypatch):
        # measured peak: 237 kB, of which V, W and P^r (in long double) take
        # 115 kB; A alone is N^2 * 16 bytes
        n = 512
        args = (uniform_state(n), Absorber(kind="delta", strength=0.5),
                0.25 * dt_bound(n, 1.0), 4000, 5)
        tracemalloc.start()
        try:
            _forced(monkeypatch, "fourier", *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n * 16

    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize("record_every", [5, ring.GAP_CHUNK_STEPS, 70, 150])
    @pytest.mark.parametrize("strength", [0.0, 0.5, 1e6])
    def test_chunked_gaps_and_edge_drains_agree_with_stepping(self, monkeypatch, n,
                                                               record_every, strength):
        # gaps of 70 and 150 steps run as chunks of at most the cap, and 203
        # steps leave a short last gap; strength 1e6 drains its cell's
        # half-step decay to exactly 0; measured at most 1.1e-14
        state = von_mises_state(n, 0.3, 2.0, boost=3)
        dt = 0.25 * dt_bound(n, 1.0)
        for cell in (0, n // 2, n - 1):
            absorber = Absorber(kind="delta", center=cell / n, strength=strength)
            decay_half, _ = ring._step_factors(state, absorber, dt)
            assert (decay_half[cell] == 0.0) == (strength == 1e6)
            for steps in (200, 203):
                args = (state, absorber, dt, steps, record_every)
                stepped = _forced(monkeypatch, "step", *args)
                fourier = _forced(monkeypatch, "fourier", *args)
                assert fourier.t.tobytes() == stepped.t.tobytes()
                assert np.max(np.abs(fourier.survival - stepped.survival)) <= 2e-14
                assert np.all(np.diff(fourier.survival) <= 1e-14)

    @pytest.mark.parametrize(
        "record_every, steps, built",
        [
            # with the cap of 64 steps: a gap of 70 is chunks of 64 and 6, one
            # of 150 chunks of 64, 64 and 22, and the last gap adds its remainder
            (5, 200, [5]), (5, 203, [5, 3]),
            (64, 200, [64, 8]), (64, 203, [64, 11]),
            (70, 200, [64, 6, 60]), (70, 203, [64, 6, 63]),
            (150, 200, [64, 22, 50]), (150, 203, [64, 22, 53]),
        ],
    )
    def test_each_gap_operator_is_built_once(self, monkeypatch, record_every, steps, built):
        lengths = []
        builder = ring._gap_operator

        def recorder(*args):
            lengths.append(args[-1])
            return builder(*args)

        monkeypatch.setattr(ring, "_gap_operator", recorder)
        n = 128
        _forced(monkeypatch, "fourier", von_mises_state(n, 0.3, 2.0, boost=3),
                Absorber(kind="delta", center=0.5, strength=0.5), 0.25 * dt_bound(n, 1.0),
                steps, record_every)
        assert lengths == built

    def test_gap_operators_stay_thin_at_the_cap(self, monkeypatch):
        # one operator of a cap-long gap holds V and W, (cap + 1) x N each,
        # and P^r: measured peak 2.34 cap N 16 bytes, against N^2 16 = 16 MiB
        # for the stride path's A
        n, cap = 1024, ring.GAP_CHUNK_STEPS
        args = (uniform_state(n), Absorber(kind="delta", strength=0.5),
                0.25 * dt_bound(n, 1.0), 4 * cap, cap)
        tracemalloc.start()
        try:
            _forced(monkeypatch, "fourier", *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * cap * n * 16

    @pytest.mark.parametrize("wide", [True, False], ids=["long-double", "dekker"])
    def test_phase_powers_are_rounded_once(self, monkeypatch, wide):
        # each power against the exact rational product of the rounded phase,
        # rounded once; long double may miss that rounding by one unit
        if wide and np.finfo(np.longdouble).eps == np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        monkeypatch.setattr(ring, "_WIDE_LONG_DOUBLE", wide)
        n, count = 64, 40
        _, kinetic = ring._step_factors(uniform_state(n), Absorber(kind="delta"),
                                        0.25 * dt_bound(n, 1.0))
        phase = kinetic * n
        powers, last = ring._phase_powers(phase, count)
        assert np.all(last.astype(complex) == powers[count])
        for k in range(0, n, 7):
            a, b = Fraction(phase[k].real), Fraction(phase[k].imag)
            re, im = Fraction(1), Fraction(0)
            for row in powers:
                exact = complex(float(re), float(im))
                if wide:
                    assert abs(row[k].real - exact.real) <= np.spacing(abs(exact.real))
                    assert abs(row[k].imag - exact.imag) <= np.spacing(abs(exact.imag))
                else:
                    assert row[k] == exact
                re, im = re * a - im * b, re * b + im * a

    def test_dekker_powers_agree_with_stepping(self, monkeypatch):
        # the powers of a host whose long double is no wider than double
        args = _one_cell_plateau_run()
        stepped = _forced(monkeypatch, "step", *args)
        monkeypatch.setattr(ring, "_WIDE_LONG_DOUBLE", False)
        fourier = _forced(monkeypatch, "fourier", *args)
        assert np.max(np.abs(fourier.survival - stepped.survival)) <= 2e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is no wider than double here")
class TestLongDoubleOracle:
    """The Fourier path against the same Strang map stepped in long double.

    Stepping is 1.93e-14 off this oracle in the plateau case below, and
    9.9e-14 over the fine config's 4000 steps: the 2e-14 and 2e-13 bounds
    on agreement with stepping are stepping's own roundoff."""

    def test_one_cell_plateau(self, monkeypatch):
        # measured 8.9e-16
        args = _one_cell_plateau_run()
        fourier = _forced(monkeypatch, "fourier", *args)
        assert np.max(np.abs(fourier.survival - ring_long_double_survival(*args))) <= 2e-15

    def test_fine_config(self, monkeypatch):
        # measured 1.0e-15 over the 4000 steps; with P^r rounded to double at
        # each record, 8.7e-15
        args, _ = _config_run(RING_FINE_CONFIG)
        fourier = _forced(monkeypatch, "fourier", *args)
        assert np.max(np.abs(fourier.survival - ring_long_double_survival(*args))) <= 2e-15


class TestExactReference:
    """Each path against psi(t) = exp(-i H t) psi_0 on N = 128, T = 0.4,
    20 records; the error is the largest over the records."""

    def _errors(self, monkeypatch, state, absorber, paths=("step", "stride")):
        """Error of each path (one column per path, stepping first) at 1600,
        3200 and 6400 steps; every path agrees with stepping to 2e-14."""
        T, errors = 0.4, []
        exact = ring_exact_survival(state, absorber, np.arange(21) * (T / 20))
        for steps in (1600, 3200, 6400):
            args = (state, absorber, T / steps, steps, steps // 20)
            curves = [_forced(monkeypatch, path, *args) for path in paths]
            for curve in curves[1:]:
                assert curve.t.tobytes() == curves[0].t.tobytes()
                assert np.max(np.abs(curve.survival - curves[0].survival)) <= 2e-14
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
        # on all three paths: one cell is drained, so it may step in the Fourier basis
        absorber = Absorber(kind="delta", center=0.0, strength=0.5)
        errors = self._errors(monkeypatch, uniform_state(128), absorber,
                              ("step", "stride", "fourier"))
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
