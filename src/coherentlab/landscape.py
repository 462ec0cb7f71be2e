"""Analytic derivatives of the phase-space landscape and the ascent kernel.

The landscape of a superposition is a smooth mixture of Gaussian bumps
(one per component, cross terms included), so its gradient and Hessian
are closed-form.  Maxima are found by Newton ascent with a gradient
fallback and Armijo backtracking, started from every component center
plus midpoints of nearby pairs.

Values come from the one landscape evaluator in ``states``; the
derivative rows are built from the differences it returns.  Every
evaluator here takes points of shape (..., 2n), one point or a stack.
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


def v_at(state: SuperposedState, x: np.ndarray) -> float | np.ndarray:
    """Landscape value at phase-space points x = [q..., p...] of shape (..., 2n)."""
    return _landscape_value(_component_terms(state, x)[0].sum(axis=-1), state.norm_sq)


def v_gradient(state: SuperposedState, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of the landscape with respect to [q..., p...]."""
    return v_value_grad_hess(state, x)[1]


def _curvature(basis) -> np.ndarray:
    """Constant part of every component's log-kernel Hessian, (2n, 2n) complex.

    Blocks [[-w/2, -iw/2], [-iw/2, -w/2]] (diagonal in the modes); built
    once per basis and cached on it, since bases are immutable.
    """
    c = basis.__dict__.get("_curvature")
    if c is None:
        n = basis.n_modes
        ww = np.concatenate([basis.weights, basis.weights])
        k = np.arange(2 * n)
        c = np.zeros((2 * n, 2 * n), complex)
        c[k, k] = -0.5 * ww
        # off-diagonal blocks: the negative columns k - n of the first n rows wrap to n + k
        c[k, k - n] = -0.5j * ww
        c.setflags(write=False)
        basis.__dict__["_curvature"] = c
    return c


def v_value_grad_hess(state: SuperposedState, x: np.ndarray):
    """Landscape value, gradient, and Hessian in one pass.

    At points x of shape (..., 2n) they have shapes (...), (..., 2n) and
    (..., 2n, 2n), and each row of a stack has the bits of its one-point call.
    """
    terms, dq, dp, sq = _component_terms(state, x)
    # log-derivative rows of every term with respect to [q..., p...]
    half_w = -0.5 * state.basis.weights
    d = np.concatenate([half_w * (dq + 1j * dp), half_w * (dp + 1j * sq)], axis=-1)
    a = terms.sum(axis=-1)
    ca = np.conj(a)[..., None]
    # each row keeps the bits of terms @ d and "j,ja,jb->ab"; an einsum for da is 1e-14 off
    da = np.matmul(terms[..., None, :], d)[..., 0, :]
    # Hessian of the amplitude: sum_j t_j (d_j d_j^T + const curvature blocks).
    ha = np.einsum("...j,...ja,...jb->...ab", terms, d, d)
    ha += a[..., None, None] * _curvature(state.basis)
    grad = 2.0 * np.real(ca * da) / state.norm_sq
    hess = 2.0 * np.real(np.conj(da)[..., :, None] * da[..., None, :] + ca[..., None] * ha)
    return _landscape_value(a, state.norm_sq), grad, hess / state.norm_sq


def ascend(state: SuperposedState, start: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Ascend the landscape from ``start``; returns (x, v, is_max).

    Newton steps are taken whenever the Hessian is negative definite and
    the step is an ascent direction; otherwise plain gradient steps with
    Armijo backtracking.  Convergence is ||grad|| < ASCENT_TOL * max(1, v)
    within ASCENT_MAX_ITER steps, and a converged point only qualifies as
    a maximum if its Hessian is strictly negative definite.

    Every line-search trial, whatever its step length, is evaluated with
    ``v_value_grad_hess``, and the accepted trial's value, gradient and
    Hessian serve the next iteration, so no point is evaluated twice.
    """
    x = np.asarray(start, dtype=float).copy()
    v, grad, hess = v_value_grad_hess(state, x)
    for it in range(ASCENT_MAX_ITER + 1):
        gnorm = math.sqrt(grad @ grad)
        converged = gnorm < ASCENT_TOL * max(1.0, v)
        if converged or it == ASCENT_MAX_ITER:
            break
        direction = None
        try:
            if np.linalg.eigvalsh(hess).max() < 0.0:
                cand = np.linalg.solve(hess, -grad)
                if float(cand @ grad) > 0.0:
                    direction = cand
        except np.linalg.LinAlgError:
            direction = None
        if direction is None:
            direction = grad / max(gnorm, 1e-300)
        slope = float(grad @ direction)
        alpha = 1.0
        ulp_gain = 8.0 * np.finfo(float).eps * max(v, 1e-300)
        for _ in range(60):
            trial = x + alpha * direction
            evaluation = v_value_grad_hess(state, trial)
            # near the summit the predicted gain drops below the float
            # resolution of v itself; accept the nudge untested there so the
            # final Newton refinement is not blocked by a flat line search
            if alpha * slope <= ulp_gain or evaluation[0] > v + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # no ascent step along the direction: not converged
        x = trial
        v, grad, hess = evaluation
    # a stationary point only counts as a maximum if the curvature is
    # strictly negative; flat saddles between far bumps also pass the
    # gradient test and must be dropped
    return x, v, converged and bool(np.linalg.eigvalsh(hess).max() < 0.0)


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
