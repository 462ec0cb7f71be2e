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
iterates it keeps.  Every evaluator here takes points of shape (..., 2n),
one point or a stack.

A search takes the first step of all its starts at once: one stacked
evaluation, one ``eigvalsh`` and one ``solve`` over the starts, and one
value stage over their trials at alpha = 1 (``first_steps``), converged
starts included.  Each ``ascend`` goes on from its start's row, one point
at a time; every step, the first included, chooses between the Newton
step and the gradient by the one rule of ``_newton_steps`` and ``_direction``.
"""

from __future__ import annotations

import math

import numpy as np

from .states import SuperposedState, _component_terms, _landscape_value

#: Component pairs closer than this, in the weight-scaled metric, add a midpoint start.
NEAR_DISTANCE = 6.0

#: The ascent has converged once ||grad|| < ASCENT_TOL * max(1, v).
ASCENT_TOL = 1e-10

#: A start that has not converged after this many ascent steps fails.
ASCENT_MAX_ITER = 200

#: Maxima closer than this (flattened Euclidean) are one; an ascent stops this close to one found.
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
    """The Newton step -hess^-1 grad at one point or a stack of them, gradients (..., 2n).

    NaN at a point whose Hessian is not negative definite, and at one that
    ``eigvalsh`` or ``solve`` cannot take; the other points of a stack are
    unaffected.  A stack takes one ``eigvalsh`` and one ``solve`` call, and
    each of its points has the bits of its one-point call.  numpy raises for
    a whole stack if one point fails either call, so then each is stepped alone.
    """
    try:
        newton = np.linalg.eigvalsh(hess).max(axis=-1) < 0.0
        # one point: no rows to pick, and no numpy bool's all(), which costs about 2 us
        if newton.ndim == 0:
            if not newton:
                return np.full_like(grad, np.nan)
        elif not newton.all():
            steps = np.full_like(grad, np.nan)
            if newton.any():
                steps[newton] = np.linalg.solve(hess[newton], -grad[newton, :, None])[..., 0]
            return steps
        return np.linalg.solve(hess, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if hess.ndim == 2:
            return np.full_like(grad, np.nan)
        return np.array([_newton_steps(g, h) for g, h in zip(grad, hess)])


def _direction(grad: np.ndarray, gnorm: float, newton: np.ndarray) -> tuple[np.ndarray, float]:
    """The ascent direction from one point and its slope grad . direction.

    The point's Newton step (from ``_newton_steps``) where it is an ascent
    direction, and the unit gradient otherwise: a NaN step has no slope > 0.
    """
    slope = float(newton @ grad)
    if slope > 0.0:
        return newton, slope
    direction = grad / max(gnorm, 1e-300)
    return direction, float(grad @ direction)


def first_steps(state: SuperposedState, starts: np.ndarray) -> list[tuple]:
    """What ``ascend`` takes as ``first`` from each row of ``starts``, shape (S, 2n).

    One stacked ``v_value_grad_hess`` call evaluates every start, one
    ``_newton_steps`` call gives every start its first direction, and one
    value stage evaluates every trial at alpha = 1.  Each row is (v, grad,
    hess, step), where step is (direction, slope, v_trial, stage) with the
    trial's value and kept stage; each has the bits of the start evaluated
    and stepped alone.  A start that has already converged gets a step too,
    which ``ascend`` does not read.
    """
    v, grad, hess = v_value_grad_hess(state, starts)
    # each row with the bits of ascend's 1-D grad @ grad
    gnorm = np.sqrt(np.matmul(grad[:, None, :], grad[:, :, None])[:, 0, 0])
    directions = [_direction(*row) for row in zip(grad, gnorm.tolist(), _newton_steps(grad, hess))]
    v_trial, stage = _value_stage(state, starts + np.array([d for d, _ in directions]))
    steps = [(*step, vt, kept) for step, vt, kept in zip(directions, v_trial.tolist(), zip(*stage))]
    return list(zip(v.tolist(), grad, hess, steps))


def ascend(state: SuperposedState, start: np.ndarray, first: tuple,
           maxima: list[tuple[np.ndarray, float]]) -> tuple[np.ndarray, float, bool]:
    """Ascend the landscape from ``start``; returns (x, v, is_max).

    ``first`` is the start's row of ``first_steps``: its (v, grad, hess)
    and its first step with the trial at alpha = 1, taken with every other
    start of the search in stacked calls.  A start that has converged, or
    lies on a maximum found, returns before its step is read.  Each step
    is the Newton step whenever the Hessian is negative definite and the
    step is an ascent direction, and the unit gradient otherwise
    (``_direction``), with Armijo backtracking from alpha = 1.  Convergence is
    ||grad|| < ASCENT_TOL * max(1, v) within ASCENT_MAX_ITER steps, and a
    converged point only qualifies as a maximum if its Hessian is strictly
    negative definite.

    ``maxima`` holds the (x, v) maxima the search has found so far.  Once an
    iterate, the start included, lies within DEDUP_RADIUS of one of them,
    the ascent returns that maximum's own x and v, with is_max True.

    Every line-search trial, whatever its step length, is evaluated with
    ``_value_stage`` only, since the Armijo test reads v alone.  Once a trial
    is accepted and not absorbed into a maximum found, ``_derivative_stage``
    builds its gradient and Hessian from the trial's kept stage, so no point
    is evaluated twice and no derivatives are built that are not read.
    """
    x = np.asarray(start, dtype=float).copy()
    v, grad, hess, step = first
    v = float(v)
    for it in range(ASCENT_MAX_ITER + 1):
        for found in maxima:
            d = x - found[0]
            if d @ d < DEDUP_RADIUS * DEDUP_RADIUS:
                return *found, True
        if it:
            # the accepted trial's derivatives, once it is not absorbed; the start's came with first
            grad, hess = _derivative_stage(state, stage)
        gnorm = math.sqrt(grad @ grad)
        converged = gnorm < ASCENT_TOL * max(1.0, v)
        if converged or it == ASCENT_MAX_ITER:
            break
        if it:
            direction, slope = _direction(grad, gnorm, _newton_steps(grad, hess))
        else:
            direction, slope, v_trial, stage = step
        alpha = 1.0
        ulp_gain = _ULP_GAIN * max(v, 1e-300)
        for k in range(60):
            trial = x + alpha * direction
            if k or it:  # the first step's trial at alpha = 1 came with first
                v_trial, stage = _value_stage(state, trial)
            # near the summit the predicted gain drops below the float
            # resolution of v itself; accept the nudge untested there so the
            # final Newton refinement is not blocked by a flat line search
            if alpha * slope <= ulp_gain or v_trial > v + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # no ascent step along the direction: not converged
        x = trial
        v = float(v_trial)
    # a stationary point only counts as a maximum if the curvature is
    # strictly negative; flat saddles between far bumps also pass the
    # gradient test and must be dropped, as must a Hessian eigvalsh cannot read
    return x, v, converged and _negative_definite(hess)


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
    dist = np.sqrt(np.sum(state.basis.weights * (dq * dq + dp * dp), axis=1))
    near = dist < NEAR_DISTANCE
    return list(centers) + list(0.5 * (centers[i[near]] + centers[j[near]]))
