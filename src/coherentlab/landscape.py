"""Analytic derivatives of the phase-space landscape and the ascent kernel.

The landscape of a superposition is a smooth mixture of Gaussian bumps
(one per component, cross terms included), so its gradient and Hessian
are closed-form.  Maxima are found by Newton ascent with a gradient
fallback and Armijo backtracking, started from every component center
plus midpoints of nearby pairs.

An evaluation runs in two stages.  The value stage takes the landscape
from the one evaluator in ``states`` and keeps the terms and differences
it came from; the derivative stage builds the gradient and Hessian from
what it kept.  ``v_at`` is the value stage alone, ``v_value_grad_hess``
the two composed, and the ascent runs the derivative stage only at the
trials it accepts.  Every evaluator here takes points of shape (..., 2n),
one point or a stack.

A search ascends all its starts to their ends in lockstep
(``lockstep_ascent``), each row with the bits of its start ascended alone;
``ascend`` then dedups the ends one start at a time, in start order: an end
near a maximum found before it takes that maximum.
"""

from __future__ import annotations

import numpy as np

from .states import SuperposedState, _component_terms, _landscape_value

#: Component pairs closer than this, in the weight-scaled metric, add a midpoint start.
NEAR_DISTANCE = 6.0

#: The ascent has converged once ||grad|| < ASCENT_TOL * max(1, v).
ASCENT_TOL = 1e-10

#: A start that has not converged after this many ascent steps fails.
ASCENT_MAX_ITER = 200

#: Maxima closer than this (flattened Euclidean) are one; an ascent ending this close to one found takes it.
DEDUP_RADIUS = 1e-6

#: Eight units of roundoff: a predicted gain below this times v is below v's resolution.
_ULP_GAIN = 8.0 * float(np.finfo(float).eps)


def v_at(state: SuperposedState, x: np.ndarray) -> float | np.ndarray:
    """Landscape value at phase-space points x = [q..., p...] of shape (..., 2n)."""
    return _value_stage(state, x)[0]


def v_gradient(state: SuperposedState, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of the landscape with respect to [q..., p...]."""
    return _derivative_stage(state, _value_stage(state, x)[1])[0]


def _derivative_constants(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-w/2 and +w/2 per mode, and the constant part of every log-kernel Hessian.

    That part is (2n, 2n) complex, blocks [[-w/2, -iw/2], [-iw/2, -w/2]]
    (diagonal in the modes).  All three are built once per basis and cached
    on it, since bases are immutable.
    """
    constants = basis.__dict__.get("_derivative_constants")
    if constants is None:
        n = basis.n_modes
        ww = np.concatenate([basis.weights, basis.weights])
        k = np.arange(2 * n)
        curvature = np.zeros((2 * n, 2 * n), complex)
        curvature[k, k] = -0.5 * ww
        # off-diagonal blocks: the negative columns k - n of the first n rows wrap to n + k
        curvature[k, k - n] = -0.5j * ww
        constants = (-0.5 * basis.weights, 0.5 * basis.weights, curvature)
        for c in constants:
            c.setflags(write=False)
        basis.__dict__["_derivative_constants"] = constants
    return constants


def _value_stage(state: SuperposedState, x: np.ndarray):
    """The landscape value at points x of shape (..., 2n), and what its derivatives need.

    Returns v and the kept stage (terms, dq, dp, a), from which
    ``_derivative_stage`` builds the gradient and Hessian at the same points.
    """
    terms, dq, dp = _component_terms(state, x)
    a = terms.sum(axis=-1)
    return _landscape_value(a, state.norm_sq), (terms, dq, dp, a)


def _derivative_stage(state: SuperposedState, stage):
    """Gradient and Hessian from a ``_value_stage`` kept stage."""
    terms, dq, dp, a = stage
    # log-derivative rows of every term in the frame translated to the probe, which
    # puts one phase linear in p on every term and so changes neither |a|^2 nor the
    # curvature: -w/2 (dq + i dp) in the q columns, -w/2 (dp - i dq) in the p columns.
    # Rows stay of the order of the distance to their component, not of its
    # coordinates, whose squares would cancel in the Hessian.  A zero part may carry
    # the other sign than complex arithmetic gives, and the value, gradient and
    # Hessian keep their bytes (tests/test_selection.py::TestHessian)
    n = dq.shape[-1]
    minus_half_w, half_w, curvature = _derivative_constants(state.basis)
    d = np.empty(dq.shape[:-1] + (2 * n,), complex)
    re, im = d.real, d.imag
    np.multiply(minus_half_w, dq, out=re[..., :n])
    np.multiply(minus_half_w, dp, out=im[..., :n])
    np.multiply(minus_half_w, dp, out=re[..., n:])
    np.multiply(half_w, dq, out=im[..., n:])
    ca = np.conj(a)[..., None]
    # each row keeps the bits of terms @ d and "j,ja,jb->ab"; an einsum for da is 1e-14 off
    da = np.matmul(terms[..., None, :], d)[..., 0, :]
    # Hessian of the amplitude: sum_j t_j (d_j d_j^T + const curvature blocks).
    ha = np.einsum("...j,...ja,...jb->...ab", terms, d, d)
    ha += a[..., None, None] * curvature
    grad = 2.0 * (ca * da).real
    grad /= state.norm_sq
    hess = 2.0 * (np.conj(da)[..., :, None] * da[..., None, :] + ca[..., None] * ha).real
    hess /= state.norm_sq
    return grad, hess


def v_value_grad_hess(state: SuperposedState, x: np.ndarray):
    """Landscape value, gradient, and Hessian: the value stage, then the derivative stage.

    At points x of shape (..., 2n) they have shapes (...), (..., 2n) and
    (..., 2n, 2n), and each row of a stack has the bits of its one-point call.
    """
    v, stage = _value_stage(state, x)
    return v, *_derivative_stage(state, stage)


def _negative_definite(hess: np.ndarray) -> bool:
    """Whether one Hessian is strictly negative definite; one ``eigvalsh`` cannot read is not."""
    try:
        return bool(np.linalg.eigvalsh(hess).max() < 0.0)
    except np.linalg.LinAlgError:
        return False


def _newton_steps(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The Newton steps -hess^-1 grad at a stack of points, gradients (m, 2n).

    NaN at a point whose Hessian is not negative definite, and at one that
    ``eigvalsh`` or ``solve`` cannot take; the other points are unaffected.
    A stack takes one ``eigvalsh`` and one ``solve`` call, and each of its
    points has the bits of its one-point call.  numpy raises for a whole
    stack if one point fails either call, so then each is stepped alone.
    """
    try:
        newton = np.linalg.eigvalsh(hess).max(axis=-1) < 0.0
        if newton.all():
            return np.linalg.solve(hess, -grad[..., None])[..., 0]
        steps = np.full_like(grad, np.nan)
        if newton.any():
            steps[newton] = np.linalg.solve(hess[newton], -grad[newton, :, None])[..., 0]
        return steps
    except np.linalg.LinAlgError:
        if len(hess) == 1:
            return np.full_like(grad, np.nan)
        return np.concatenate([_newton_steps(grad[i:i + 1], hess[i:i + 1]) for i in range(len(hess))])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row a . b of stacks (..., k), each with the bits of the 1-D ``a @ b``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _direction(grad: np.ndarray, gnorm: np.ndarray, newton: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascent directions at a stack of points, (m, 2n), and their slopes grad . direction.

    A point's Newton step, its row of ``newton`` (overwritten), where that is
    an ascent direction, and its unit gradient otherwise: NaN has no slope > 0.
    """
    slope = _dots(newton, grad)
    gradient = ~(slope > 0.0)
    if gradient.any():
        unit = grad[gradient] / np.maximum(gnorm[gradient], 1e-300)[:, None]
        newton[gradient] = unit
        slope[gradient] = _dots(grad[gradient], unit)
    return newton, slope


def lockstep_ascent(state: SuperposedState, starts: np.ndarray) -> list[tuple]:
    """Ascend from every row of ``starts``, shape (S, 2n), all rows in the same calls.

    Each iteration takes the rows still moving.  A row stops before its
    trial once ||grad|| < ASCENT_TOL * max(1, v), or after ASCENT_MAX_ITER
    steps.  Each step is the Newton step where the Hessian is negative
    definite and the step is an ascent direction, and the unit gradient
    otherwise (``_direction``), with Armijo backtracking from alpha = 1 on
    each row: a row whose 60th trial still fails stops, not converged.
    Trials are evaluated with ``_value_stage`` only, since the Armijo test
    reads v alone, and ``_derivative_stage`` builds the gradient and Hessian
    of the accepted trials from what their value stage kept.

    Returns what ``ascend`` takes as ``end`` for each start: the point where
    it stopped, its value, whether it converged, and its Hessian, each with
    the bits of the start ascended alone.
    """
    x = np.array(starts, dtype=float)
    v, grad, hess = v_value_grad_hess(state, x)
    rows = np.arange(len(x))
    # each row's end, overwritten at every step it takes
    end_x, end_v, converged, end_hess = x, v, np.zeros(len(x), bool), hess
    for it in range(ASCENT_MAX_ITER + 1):
        gnorm = np.sqrt(_dots(grad, grad))
        moving = ~(gnorm < ASCENT_TOL * np.fmax(1.0, v))
        if not moving.all():
            converged[rows[~moving]] = True
            rows, x, v, grad, hess, gnorm = (a[moving] for a in (rows, x, v, grad, hess, gnorm))
        if it == ASCENT_MAX_ITER or not rows.size:
            break
        direction, slope = _direction(grad, gnorm, _newton_steps(grad, hess))
        trial = x + direction
        v_trial, stage = _value_stage(state, trial)
        # near the summit the predicted gain drops below the float resolution
        # of v itself; accept the nudge untested there so the final Newton
        # refinement is not blocked by a flat line search
        ulp_gain = _ULP_GAIN * np.maximum(v, 1e-300)
        back = np.flatnonzero(~((slope <= ulp_gain) | (v_trial > v + 1e-4 * slope)))
        for k in range(1, 60):
            if not back.size:
                break
            alpha = 0.5**k
            trial[back] = x[back] + alpha * direction[back]
            v_trial[back], part = _value_stage(state, trial[back])
            for full, new in zip(stage, part):
                full[back] = new
            gain = alpha * slope[back]
            back = back[~((gain <= ulp_gain[back]) | (v_trial[back] > v[back] + 1e-4 * alpha * slope[back]))]
        if back.size:  # no ascent step along the direction: these rows stop, not converged
            ok = np.ones(len(rows), bool)
            ok[back] = False
            rows, trial, v_trial, *stage = (a[ok] for a in (rows, trial, v_trial, *stage))
        x, v = trial, v_trial
        grad, hess = _derivative_stage(state, stage)
        end_x[rows], end_v[rows], end_hess[rows] = x, v, hess
    return list(zip(end_x, end_v.tolist(), converged.tolist(), end_hess))


def ascend(end: tuple, maxima: list[tuple[np.ndarray, float]]) -> tuple[np.ndarray, float, bool]:
    """Where one start's ascent ends, given the maxima found so far; returns (x, v, is_max).

    ``end`` is the start's row of ``lockstep_ascent``, and ``maxima`` the
    (x, v) maxima found so far, walked in the order found with one 1-D
    ``d @ d`` each (a row's bits in ``_dots``): the first within DEDUP_RADIUS
    returns its own x and v, with is_max True.  Otherwise the end is
    returned, and a converged end only counts as a maximum if its Hessian
    is strictly negative definite: flat saddles also pass the gradient test.
    """
    x, v, converged, hess = end
    for xk, vk in maxima:
        d = x - xk
        if d @ d < DEDUP_RADIUS * DEDUP_RADIUS:
            return xk, vk, True
    # a copy: a maximum kept on a cached state must not hold the search's whole end array
    return x.copy(), v, converged and _negative_definite(hess)


def ascent_starts(state: SuperposedState) -> list[np.ndarray]:
    """Component centers plus midpoints of pairs closer than ``NEAR_DISTANCE``.

    Distances are measured in the weight-scaled metric in which every
    component bump has unit width, so "near" means "overlapping enough to
    possibly merge or shift a maximum".
    """
    centers = np.concatenate([state.q, state.p], axis=1)
    # the pairs i < j in row-major order, as np.triu_indices(m, 1) lists them
    # but without its fixed cost, which exceeds the whole search at m <= 5
    m = np.arange(state.n_components)
    i, j = np.nonzero(m[:, None] < m)
    dq = state.q[i] - state.q[j]
    dp = state.p[i] - state.p[j]
    dist = np.sqrt((state.basis.weights * (dq * dq + dp * dp)).sum(axis=1))
    near = dist < NEAR_DISTANCE
    return list(centers) + list(0.5 * (centers[i[near]] + centers[j[near]]))
