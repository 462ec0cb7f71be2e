"""Analytic derivatives of the phase-space landscape and the ascent kernel.

The landscape of a superposition is a smooth mixture of Gaussian bumps
(one per component, cross terms included), so its gradient and Hessian
are closed-form.  Maxima are found by Newton ascent with a gradient
fallback and Armijo backtracking, started from every component center
plus midpoints of nearby pairs.
"""

from __future__ import annotations

import numpy as np

from .states import SuperposedState, _kernel


def _amp_terms(state: SuperposedState, x: np.ndarray):
    """Per-component kernel values and log-derivative rows at phase point x."""
    n = state.n_modes
    q, p = x[:n], x[n:]
    w = state.basis.weights
    dq = q - state.q
    dp = p - state.p
    sq = q + state.q
    terms = state.coeffs * _kernel(dq, dp, sq, w)
    dgq = -0.5 * w * (dq + 1j * dp)
    dgp = -0.5 * w * (dp + 1j * sq)
    return terms, np.concatenate([dgq, dgp], axis=1)


def v_at(state: SuperposedState, x: np.ndarray) -> float:
    """Landscape value at a flattened phase-space vector [q..., p...]."""
    terms, _ = _amp_terms(state, np.asarray(x, dtype=float))
    a = terms.sum()
    return float((a.real * a.real + a.imag * a.imag) / state.norm_sq)


def v_gradient(state: SuperposedState, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of the landscape with respect to [q..., p...]."""
    return v_value_grad_hess(state, x)[1]


def v_value_grad_hess(state: SuperposedState, x: np.ndarray):
    """Landscape value, gradient, and Hessian in one pass."""
    x = np.asarray(x, dtype=float)
    n = state.n_modes
    w = state.basis.weights
    terms, d = _amp_terms(state, x)
    a = terms.sum()
    da = terms @ d
    # Hessian of the amplitude: sum_j t_j (d_j d_j^T + const curvature blocks).
    ha = np.einsum("j,ja,jb->ab", terms, d, d)
    ww = np.concatenate([w, w])
    k = np.arange(2 * n)
    ha[k, k] += a * (-0.5 * ww)
    # off-diagonal blocks: the negative columns k - n of the first n rows wrap to n + k
    ha[k, k - n] += a * (-0.5j * ww)
    v = float((a.real * a.real + a.imag * a.imag) / state.norm_sq)
    grad = 2.0 * np.real(np.conj(a) * da) / state.norm_sq
    hess = 2.0 * np.real(np.outer(np.conj(da), da) + np.conj(a) * ha) / state.norm_sq
    return v, grad, hess


def ascend(
    state: SuperposedState,
    start: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[np.ndarray, float, bool]:
    """Ascend the landscape from ``start``; returns (x, v, is_max).

    Newton steps are taken whenever the Hessian is negative definite and
    the step is an ascent direction; otherwise plain gradient steps with
    Armijo backtracking.  Convergence is ||grad|| < tol * max(1, v), and
    a converged point only qualifies as a maximum if its Hessian is
    strictly negative definite.
    """
    x = np.asarray(start, dtype=float).copy()
    for _ in range(max_iter):
        v, grad, hess = v_value_grad_hess(state, x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol * max(1.0, v):
            # a stationary point only counts as a maximum if the curvature
            # is strictly negative; flat saddles between far bumps also pass
            # the gradient test and must be dropped
            is_max = bool(np.linalg.eigvalsh(hess).max() < 0.0)
            return x, v, is_max
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
            # near the summit the predicted gain drops below the float
            # resolution of v itself; accept the nudge untested there so the
            # final Newton refinement is not blocked by a flat line search
            if alpha * slope <= ulp_gain:
                break
            if v_at(state, x + alpha * direction) > v + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            return x, v, False
        x = x + alpha * direction
    v, grad, hess = v_value_grad_hess(state, x)
    ok = float(np.linalg.norm(grad)) < tol * max(1.0, v)
    return x, v, ok and bool(np.linalg.eigvalsh(hess).max() < 0.0)


def ascent_starts(state: SuperposedState, near_distance: float = 6.0) -> list[np.ndarray]:
    """Component centers plus midpoints of pairs closer than ``near_distance``.

    Distances are measured in the weight-scaled metric in which every
    component bump has unit width, so "near" means "overlapping enough to
    possibly merge or shift a maximum".
    """
    centers = [np.concatenate([state.q[j], state.p[j]]) for j in range(state.n_components)]
    starts = list(centers)
    w = state.basis.weights
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            dq = state.q[i] - state.q[j]
            dp = state.p[i] - state.p[j]
            dist = np.sqrt(np.sum(w * (dq * dq + dp * dp)))
            if dist < near_distance:
                starts.append(0.5 * (centers[i] + centers[j]))
    return starts
