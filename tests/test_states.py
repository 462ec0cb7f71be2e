import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coherentlab import (
    CoherentPoint,
    ModeBasis,
    QuadratureGrid,
    SuperposedState,
    SupportTruncationError,
    amplitude,
    evolve_free,
    identity_check,
    overlap,
    single_mode,
    v_value,
)
from coherentlab.landscape import v_at, v_value_grad_hess
from coherentlab.states import UNDERFLOW_EXPONENT, _component_terms, _kernel_rows

E_MINUS_1 = 0.36787944117144233  # exp(-(4+0+0)/4) for a 2-quadrature-unit offset


def _pt(q, p):
    return CoherentPoint(q=np.atleast_1d(q), p=np.atleast_1d(p))


def _random_point(rng, n, scale=4.0):
    return CoherentPoint(q=rng.normal(0, scale, n), p=rng.normal(0, scale, n))


class TestOverlap:
    def test_identity_case_exact(self):
        basis = ModeBasis(omegas=[1.0, 0.5], weights=[1.0, 2.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = _random_point(rng, 2)
            b = CoherentPoint(q=a.q.copy(), p=a.p.copy())
            assert overlap(a, b, basis) == 1.0 + 0.0j

    def test_q_offset_magnitude(self):
        basis = single_mode()
        val = overlap(_pt(0.0, 0.0), _pt(2.0, 0.0), basis)
        assert abs(val) == pytest.approx(E_MINUS_1, abs=1e-15)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_p_offset_magnitude_and_vanishing_cross_term(self):
        basis = single_mode()
        val = overlap(_pt(0.0, 0.0), _pt(0.0, 2.0), basis)
        assert abs(val) == pytest.approx(E_MINUS_1, abs=1e-15)
        # cross term 2i<p-p'.q+q'> vanishes because q + q' = 0
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        basis = single_mode()
        with pytest.raises(ValueError):
            overlap(_pt([0.0, 0.0], [0.0, 0.0]), _pt(0.0, 0.0), basis)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(1)
        basis = ModeBasis(omegas=[1.0, 2.0, 0.3], weights=[0.7, 1.0, 1.9])
        for _ in range(50):
            a, b = _random_point(rng, 3), _random_point(rng, 3)
            assert abs(overlap(a, b, basis) - np.conj(overlap(b, a, basis))) < 1e-14

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(2)
        basis = ModeBasis(omegas=[0.0, 1.0], weights=[1.3, 0.4])
        for _ in range(50):
            a, b = _random_point(rng, 2, scale=8.0), _random_point(rng, 2, scale=8.0)
            assert abs(overlap(a, b, basis)) <= 1.0 + 1e-15

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_hermitian_with_magnitude_at_most_one_property(self, data):
        # pairs up to 400 apart: near ones overlap, far ones flush to 0
        n = data.draw(st.integers(1, 3))
        basis = ModeBasis(omegas=data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)),
                          weights=data.draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
        coords = st.lists(st.floats(-200.0, 200.0), min_size=n, max_size=n)
        a, b = (CoherentPoint(q=data.draw(coords), p=data.draw(coords)) for _ in range(2))
        ab = overlap(a, b, basis)
        assert ab == np.conj(overlap(b, a, basis))
        assert abs(ab) <= 1.0

    def test_far_separated_flushed_to_zero(self):
        basis = single_mode()
        assert overlap(_pt(0.0, 0.0), _pt(1e6, 0.0), basis) == 0.0

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_components_past_the_flush_threshold_are_orthonormal_property(self, data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 5))
        weights = data.draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
        basis = ModeBasis(omegas=np.ones(n), weights=weights)
        q = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m * n,
                                        max_size=m * n))).reshape(m, n)
        p = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m * n,
                                        max_size=m * n))).reshape(m, n)
        # consecutive components at least 1.01 reach apart along one coordinate,
        # so every pair's exponent is below -1.02 UNDERFLOW_EXPONENT
        k = data.draw(st.integers(0, n - 1))
        reach = math.sqrt(4.0 * UNDERFLOW_EXPONENT / weights[k])
        gaps = data.draw(st.lists(st.floats(1.01, 100.0), min_size=m - 1, max_size=m - 1))
        axis = q if data.draw(st.booleans()) else p
        axis[:, k] = data.draw(st.floats(-1e3, 1e3)) + reach * np.concatenate([[0.0],
                                                                              np.cumsum(gaps)])
        coeffs = [data.draw(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
                  for _ in range(m)]
        points = [CoherentPoint(q=q[j], p=p[j]) for j in range(m)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = SuperposedState(coeffs, points, basis)
            assert all(overlap(a, b, basis) == 0.0 for a in points for b in points if a is not b)
        assert np.array_equal(state.gram(), np.eye(m))
        assert state.norm_sq == pytest.approx(sum(abs(c) ** 2 for c in coeffs), rel=1e-15)


class TestGram:
    def test_positive_semidefinite_random_clouds(self):
        rng = np.random.default_rng(3)
        basis = ModeBasis(omegas=[1.0, 0.5], weights=[1.0, 2.5])
        worst = np.inf
        for _ in range(200):
            m = int(rng.integers(2, 7))
            pts = [_random_point(rng, 2, scale=rng.uniform(0.2, 5.0)) for _ in range(m)]
            state = SuperposedState(np.ones(m), pts, basis)
            worst = min(worst, float(np.linalg.eigvalsh(state.gram()).min()))
        assert worst >= -1e-10

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 6), data=st.data())
    def test_gram_is_a_bounded_hermitian_psd_matrix(self, n, m, data):
        # coordinates up to 200 apart make far pairs underflow to exact 0
        weights = np.array(data.draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
        coords = st.lists(st.floats(-200.0, 200.0), min_size=m * n, max_size=m * n)
        q = np.array(data.draw(coords)).reshape(m, n)
        p = np.array(data.draw(coords)).reshape(m, n)
        g = _kernel_rows(np.concatenate([q, p], axis=1), q, p, weights)[0]
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.abs(g) <= 1.0)
        eig = np.linalg.eigvalsh(g)
        assert eig.min() >= -m * 1e-15 * max(1.0, eig.max())


class TestSuperposedState:
    def test_zero_coefficients_rejected(self):
        basis = single_mode()
        with pytest.raises(ValueError):
            SuperposedState([0.0, 0.0], [_pt(0.0, 0.0), _pt(3.0, 0.0)], basis)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SuperposedState([], [], single_mode())

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SuperposedState([1.0], [_pt([0.0, 0.0], [0.0, 0.0])], single_mode())

    @pytest.mark.parametrize("q", [0.0, 1.5e-8])
    def test_roundoff_norm_rejected(self, q):
        # exact norm_sq = 2 (1 - exp(-q^2 / 4)) is at most 1.1e-16; c* G c cannot resolve it
        with pytest.raises(ValueError, match="roundoff"):
            SuperposedState([1.0, -1.0], [_pt(0.0, 0.0), _pt(q, 0.0)], single_mode())

    def test_resolved_cancellation_accepted(self):
        state = SuperposedState([1.0, -1.0], [_pt(0.0, 0.0), _pt(1e-4, 0.0)], single_mode())
        assert state.norm_sq == pytest.approx(-2.0 * np.expm1(-0.25e-8), rel=1e-6)

    def test_norm_of_orthogonal_like_superposition(self):
        basis = single_mode()
        state = SuperposedState([0.6, 0.8], [_pt(0.0, 0.0), _pt(14.0, 0.0)], basis)
        assert state.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_components_round_trip(self):
        basis = single_mode()
        state = SuperposedState([0.5j, 1.0], [_pt(1.0, 2.0), _pt(-3.0, 0.5)], basis)
        assert state.coeffs[0] == 0.5j
        assert np.array_equal(state.points()[1].q, [-3.0])


class TestAmplitude:
    def test_single_component_at_center(self):
        basis = single_mode()
        a = _pt(0.0, 0.0)
        state = SuperposedState.single(a, basis)
        assert amplitude(state, a) == pytest.approx(1.0)

    def test_two_far_components(self):
        basis = single_mode()
        a, b = _pt(0.0, 0.0), _pt(14.0, 0.0)
        state = SuperposedState([0.6, 0.8], [a, b], basis)
        # cross term bounded by 0.8 exp(-49)
        assert amplitude(state, a) == pytest.approx(0.6, abs=1e-12)
        assert amplitude(state, b) == pytest.approx(0.8, abs=1e-12)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(4)
        basis = ModeBasis(omegas=[1.0, 1.0], weights=[1.0, 0.8])
        pts = [_random_point(rng, 2) for _ in range(3)]
        probe = _random_point(rng, 2)
        c1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        c2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        s1 = SuperposedState(c1, pts, basis)
        s2 = SuperposedState(c2, pts, basis)
        s12 = SuperposedState(c1 + 2j * c2, pts, basis)
        lhs = amplitude(s12, probe)
        rhs = amplitude(s1, probe) + 2j * amplitude(s2, probe)
        assert lhs == pytest.approx(rhs, abs=1e-13)


class TestLandscapeValue:
    def test_peak_value_one(self):
        basis = single_mode()
        a = _pt(0.7, -0.3)
        assert v_value(SuperposedState.single(a, basis), a) == pytest.approx(1.0)

    def test_q_offset_two(self):
        basis = single_mode()
        state = SuperposedState.single(_pt(0.0, 0.0), basis)
        assert v_value(state, _pt(2.0, 0.0)) == pytest.approx(np.exp(-2.0), abs=1e-14)

    def test_equal_superposition_half(self):
        basis = single_mode()
        a, b = _pt(0.0, 0.0), _pt(14.0, 0.0)
        state = SuperposedState([2 ** -0.5, 2 ** -0.5], [a, b], basis)
        assert v_value(state, a) == pytest.approx(0.5, abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(6)
        basis = ModeBasis(omegas=[1.0, 2.0], weights=[1.5, 0.5])
        for _ in range(100):
            m = int(rng.integers(1, 5))
            pts = [_random_point(rng, 2) for _ in range(m)]
            coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
            try:
                state = SuperposedState(coeffs, pts, basis)
            except ValueError:
                continue
            v = v_value(state, _random_point(rng, 2))
            assert 0.0 <= v <= 1.0


_COORD = st.floats(-6.0, 6.0)


@st.composite
def _states_with_probes(draw, max_components=6):
    """1-3 modes, 1 to ``max_components`` components, and probe points near and far from them.

    Optionally the last component sits 1e3 away in q_1, so its kernel
    underflows to zero at every other component, and the first two form a
    near-cancelling pair c (|x> - (1 - eps) |x + delta>) whose squared norm
    is orders of magnitude below sum |c_j|^2 yet above the roundoff floor.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, max_components))
    vec = st.lists(_COORD, min_size=2 * n, max_size=2 * n).map(np.array)
    basis = ModeBasis(omegas=draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)),
                      weights=draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
    centers = [draw(vec) for _ in range(m)]
    coeffs = [draw(st.floats(0.2, 2.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
              for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        centers[1] = centers[0].copy()
        centers[1][draw(st.integers(0, 2 * n - 1))] += draw(st.floats(1e-3, 0.1))
        coeffs[1] = -coeffs[0] * (1.0 - draw(st.floats(0.0, 1e-3)))
    if draw(st.booleans()):
        centers[-1] = centers[-1].copy()
        centers[-1][0] += 1e3
    points = [CoherentPoint.from_vector(c) for c in centers]
    try:
        state = SuperposedState(coeffs, points, basis)
    except ValueError:  # exact cancellation, e.g. coincident centers
        assume(False)
    probes = [c + draw(vec) / 3.0 for c in centers] + [draw(vec) * 2.0]
    return state, probes


class TestOneLandscapeEvaluator:
    """Every entry point to the landscape gives the same value, bit for bit."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(case=_states_with_probes())
    def test_evaluators_agree(self, case):
        state, probes = case
        for x in probes:
            pt = CoherentPoint.from_vector(x)
            v = v_value(state, pt)
            assert 0.0 <= v <= 1.0
            assert min(v_at(state, x), 1.0) == v
            assert min(v_value_grad_hess(state, x)[0], 1.0) == v
            a = amplitude(state, pt)
            assert min((a.real * a.real + a.imag * a.imag) / state.norm_sq, 1.0) == v
            # |a|^2 through abs() rounds twice (hypot, then the square), so it
            # may differ from re^2 + im^2 in the last bits
            assert min(abs(a) ** 2 / state.norm_sq, 1.0) == pytest.approx(v, rel=1e-15, abs=0.0)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_overlap_of_coincident_points_is_exactly_one(self, n, data):
        coord = st.floats(-200.0, 200.0)
        x = np.array(data.draw(st.lists(coord, min_size=2 * n, max_size=2 * n)))
        basis = ModeBasis(omegas=[1.0] * n,
                          weights=data.draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
        a = CoherentPoint.from_vector(x)
        got = overlap(a, a, basis)
        assert got == 1.0 + 0.0j and got.imag == 0.0
        assert overlap(a, CoherentPoint.from_vector(x.copy()), basis) == 1.0 + 0.0j
        # a one-component state takes its Gram matrix from the same kernel
        single = SuperposedState.single(a, basis)
        assert np.array_equal(single.gram(), [[1.0]]) and single.norm_sq == 1.0
        part = st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3)
        c = np.array([complex(data.draw(part), data.draw(part))])
        unit_gram = float(np.real(np.conj(c) @ np.ones((1, 1), complex) @ c))
        assert SuperposedState(c, [a], basis).norm_sq == unit_gram


class TestBatchedEvaluator:
    """A stack of points evaluates each row with the bits of its one-point call."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=_states_with_probes(max_components=8))
    def test_stacked_rows_equal_one_point_calls(self, case):
        state, probes = case
        stack = np.array(probes)
        terms = _component_terms(state, stack)[0]
        values = v_at(state, stack)
        v, grad, hess = v_value_grad_hess(state, stack)
        # a stack of stacks takes the same path through the ... axes
        v3, grad3, hess3 = v_value_grad_hess(state, stack[None])
        assert terms.shape == (len(probes), state.n_components) and hess.shape[1:] == (
            2 * state.n_modes, 2 * state.n_modes)
        for i, x in enumerate(probes):
            assert terms[i].tobytes() == _component_terms(state, x)[0].tobytes()
            assert values[i] == v_at(state, x)
            one = v_value_grad_hess(state, x)
            assert v[i] == one[0] and v3[0, i] == one[0]
            assert grad[i].tobytes() == one[1].tobytes() == grad3[0, i].tobytes()
            assert hess[i].tobytes() == one[2].tobytes() == hess3[0, i].tobytes()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=_states_with_probes(max_components=8))
    def test_gram_equals_the_pairwise_kernel(self, case):
        state, _ = case
        # reference: the kernel of every row pair, broadcast pairwise by hand
        q, p = state.q[:, None, :], state.p[:, None, :]
        dq, dp, sq = q - state.q[None], p - state.p[None], q + state.q[None]
        expo = -0.25 * np.sum(state.basis.weights * (dq * dq + dp * dp + 2j * dp * sq), axis=-1)
        out = np.exp(np.where(expo.real < -UNDERFLOW_EXPONENT, -np.inf, expo))
        pairwise = np.where(np.isfinite(out), out, 0.0)
        assert state.gram().tobytes() == pairwise.tobytes()
        c = state.coeffs
        assert state.norm_sq == float(np.real(np.conj(c) @ pairwise @ c))


class TestFreeEvolution:
    def test_zero_dt_identity(self):
        basis = ModeBasis(omegas=[1.0, 0.5], weights=[1.0, 1.0])
        rng = np.random.default_rng(7)
        state = SuperposedState([1.0, 0.5j], [_random_point(rng, 2), _random_point(rng, 2)], basis)
        out = evolve_free(state, 0.0)
        assert np.allclose(out.q, state.q)
        assert np.allclose(out.p, state.p)
        assert np.allclose(out.coeffs, state.coeffs)

    def test_full_rotation_returns(self):
        basis = single_mode(omega=1.0)
        rng = np.random.default_rng(8)
        pts = [_random_point(rng, 1) for _ in range(3)]
        state = SuperposedState([1.0, 0.3, -0.2j], pts, basis)
        out = evolve_free(state, 2 * np.pi)
        g0, g1 = state.gram(), out.gram()
        assert np.max(np.abs(g0 - g1)) < 1e-12
        assert np.max(np.abs(out.q - state.q)) < 1e-12

    def test_quarter_turn_point(self):
        basis = single_mode(omega=1.0)
        state = SuperposedState.single(_pt(1.0, 0.0), basis)
        out = evolve_free(state, np.pi / 2)
        assert out.q[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out.p[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        basis = ModeBasis(omegas=[1.3, 0.4, 2.0], weights=[1.0, 0.6, 1.8])
        for _ in range(20):
            m = int(rng.integers(1, 5))
            pts = [_random_point(rng, 3) for _ in range(m)]
            state = SuperposedState(rng.normal(size=m) + 1j * rng.normal(size=m), pts, basis)
            out = evolve_free(state, rng.uniform(-5, 5))
            assert abs(out.norm_sq - state.norm_sq) < 1e-12

    def test_coevolved_overlaps_invariant(self):
        rng = np.random.default_rng(10)
        basis = ModeBasis(omegas=[1.0, 0.7], weights=[1.2, 0.9])
        for _ in range(20):
            a, b = _random_point(rng, 2), _random_point(rng, 2)
            ca = complex(rng.normal(), rng.normal())
            cb = complex(rng.normal(), rng.normal())
            sa = SuperposedState([ca], [a], basis)
            sb = SuperposedState([cb], [b], basis)
            dt = rng.uniform(-4, 4)
            ea, eb = evolve_free(sa, dt), evolve_free(sb, dt)
            before = np.conj(ca) * cb * overlap(a, b, basis)
            after = np.conj(ea.coeffs[0]) * eb.coeffs[0] * overlap(
                ea.points()[0], eb.points()[0], basis
            )
            assert abs(before - after) < 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_coevolved_overlaps_invariant_property(self, data):
        m = data.draw(st.integers(1, 3))
        basis = ModeBasis(omegas=data.draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m)),
                          weights=data.draw(st.lists(st.floats(0.1, 4.0), min_size=m, max_size=m)))
        coords = st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)
        a, b = (CoherentPoint(q=data.draw(coords), p=data.draw(coords)) for _ in range(2))
        ca, cb = (data.draw(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
                  for _ in range(2))
        dt = data.draw(st.floats(-50.0, 50.0))
        ea = evolve_free(SuperposedState([ca], [a], basis), dt)
        eb = evolve_free(SuperposedState([cb], [b], basis), dt)
        before = np.conj(ca) * cb * overlap(a, b, basis)
        after = np.conj(ea.coeffs[0]) * eb.coeffs[0] * overlap(
            ea.points()[0], eb.points()[0], basis
        )
        # The kernel's exponent and both phases are sums of w_k times products
        # of two coordinates, each at most S = sum_k w_k (|qa|+|pa|+|qb|+|pb|)^2
        # in size; the rotation gives every coordinate a relative error of a
        # few eps and each product a few more roundings, so the exponent moves
        # by a few eps (1 + S) and the value by that times its size.  The worst
        # of 25000 random examples used 1.6 eps (1 + S).  A kernel sitting at
        # the flush threshold may be flushed on one side only, which moves the
        # value by at most |ca cb| exp(-UNDERFLOW_EXPONENT).
        scale = float(np.sum(basis.weights * (np.abs(a.q) + np.abs(a.p)
                                              + np.abs(b.q) + np.abs(b.p)) ** 2))
        bound = (8 * np.finfo(float).eps * (1 + scale) * max(abs(before), abs(after))
                 + abs(ca * cb) * math.exp(-UNDERFLOW_EXPONENT))
        assert abs(before - after) <= bound


class TestIdentityCheck:
    def test_single_component_converges(self):
        state = SuperposedState.single(_pt(0.3, -0.8), single_mode())
        val = identity_check(state, QuadratureGrid(spacing=0.25, margin=8.0))
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_two_far_components(self):
        basis = single_mode()
        state = SuperposedState(
            [2 ** -0.5, 2 ** -0.5], [_pt(0.0, 0.0), _pt(14.0, 0.0)], basis
        )
        val = identity_check(state, QuadratureGrid(spacing=0.25, margin=8.0))
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_non_unit_weight(self):
        basis = ModeBasis(omegas=[1.0], weights=[2.7])
        state = SuperposedState.single(_pt(1.0, 1.0), basis)
        val = identity_check(state, QuadratureGrid(spacing=0.2, margin=7.0))
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_two_mode_state(self):
        basis = ModeBasis(omegas=[1.0, 0.5], weights=[1.0, 1.5])
        state = SuperposedState.single(
            CoherentPoint(q=[0.5, -0.5], p=[0.0, 1.0]), basis
        )
        val = identity_check(state, QuadratureGrid(spacing=0.5, margin=8.0))
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_clipped_grid_raises(self):
        state = SuperposedState.single(_pt(0.0, 0.0), single_mode())
        with pytest.raises(SupportTruncationError):
            identity_check(state, QuadratureGrid(spacing=0.25, margin=1.0))

    @pytest.mark.parametrize(
        "weights, margin",
        # clipped on every axis, and only on the second mode's axes, which
        # the boundary faces of the inner first-q slices must catch
        [([1.0, 1.0], 1.0), ([10.0, 0.1], 3.0)],
    )
    def test_clipped_two_mode_grid_raises(self, weights, margin):
        basis = ModeBasis(omegas=[1.0, 0.5], weights=weights)
        state = SuperposedState.single(CoherentPoint(q=[0.0, 0.0], p=[0.0, 0.0]), basis)
        with pytest.raises(SupportTruncationError):
            identity_check(state, QuadratureGrid(spacing=0.5, margin=margin))

    def test_three_modes_rejected(self):
        basis = ModeBasis(omegas=[1.0, 1.0, 1.0], weights=[1.0, 1.0, 1.0])
        state = SuperposedState.single(
            CoherentPoint(q=[0.0, 0.0, 0.0], p=[0.0, 0.0, 0.0]), basis
        )
        with pytest.raises(ValueError):
            identity_check(state)

    def test_trapezoid_refinement_faster_than_algebraic(self):
        state = SuperposedState.single(_pt(0.0, 0.0), single_mode())
        err_coarse = abs(identity_check(state, QuadratureGrid(spacing=1.5, margin=9.0)) - 1.0)
        err_fine = abs(identity_check(state, QuadratureGrid(spacing=0.75, margin=9.0)) - 1.0)
        assert err_coarse > 1e-6
        assert err_fine < err_coarse / 100.0


class TestRayOperations:
    def test_scaled_keeps_normalized_landscape(self):
        basis = single_mode()
        a, b = _pt(0.0, 0.0), _pt(14.0, 0.0)
        state = SuperposedState([0.8, 0.6], [a, b], basis)
        scaled = state.scaled(2.0 - 3.0j)
        assert v_value(scaled, a) == pytest.approx(v_value(state, a), abs=1e-14)

    def test_scale_by_zero_rejected(self):
        state = SuperposedState.single(_pt(0.0, 0.0), single_mode())
        with pytest.raises(ValueError):
            state.scaled(0.0)


class TestSingleComponentGram:
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_equals_kernel_bit_for_bit(self, scale, n_modes):
        rng = np.random.default_rng([n_modes, int(scale)])
        basis = ModeBasis(omegas=rng.uniform(0.0, 2.0, n_modes), weights=rng.uniform(0.5, 2.0, n_modes))
        for _ in range(200):
            point = CoherentPoint(
                q=rng.uniform(-scale, scale, n_modes), p=rng.uniform(-scale, scale, n_modes)
            )
            coeff = complex(rng.normal(), rng.normal())
            state = SuperposedState([coeff], [point], basis)
            centres = np.concatenate([state.q, state.p], axis=1)
            kernel = _kernel_rows(centres, state.q, state.p, basis.weights)[0]
            assert state.gram().tobytes() == kernel.tobytes()
            c = state.coeffs
            assert state.norm_sq == float(np.real(np.conj(c) @ kernel @ c))
