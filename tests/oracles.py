"""Independent oracles used by the test suite.

Each oracle re-derives its answer by a method unrelated to the library
code path it checks: the landscape is evaluated from the overlap formula
directly (separable per-mode factors), the argmax is located by a
zooming dense-grid scan with no derivative information, and gradients
are checked against centered finite differences.
"""

from __future__ import annotations

import numpy as np


def landscape_value(coeffs, q_centers, p_centers, weights, norm_sq, x):
    """Direct evaluation of |sum_j c_j K(x, pt_j)|^2 / norm_sq."""
    n = q_centers.shape[1]
    q, p = x[:n], x[n:]
    dq = q - q_centers
    dp = p - p_centers
    sq = q + q_centers
    expo = -0.25 * np.sum(weights * (dq * dq + dp * dp + 2j * dp * sq), axis=1)
    a = np.sum(coeffs * np.exp(expo))
    return float(abs(a) ** 2) / norm_sq


def _grid_eval(coeffs, q_centers, p_centers, weights, norm_sq, axes):
    """Landscape on a tensor grid via separable per-mode factors.

    ``axes`` lists the grid per dimension in the order q1, p1, q2, p2, ...
    Returns (V array, axes) with V indexed in the same dimension order.
    """
    n = q_centers.shape[1]
    factors = []
    for k in range(n):
        qg = axes[2 * k][:, None, None]
        pg = axes[2 * k + 1][None, :, None]
        dq = qg - q_centers[:, k][None, None, :]
        dp = pg - p_centers[:, k][None, None, :]
        sq = qg + q_centers[:, k][None, None, :]
        factors.append(np.exp(-0.25 * weights[k] * (dq * dq + dp * dp + 2j * dp * sq)))
    if n == 1:
        amp = np.einsum("j,abj->ab", coeffs, factors[0], optimize=True)
    elif n == 2:
        amp = np.einsum("j,abj,cdj->abcd", coeffs, factors[0], factors[1], optimize=True)
    elif n == 3:
        amp = np.einsum(
            "j,abj,cdj,efj->abcdef", coeffs, factors[0], factors[1], factors[2], optimize=True
        )
    else:
        raise ValueError("grid oracle supports up to 3 modes")
    return (amp.real**2 + amp.imag**2) / norm_sq


def grid_argmax(state, coarse_half=1.5, coarse_spacing=0.25, zoom_levels=7):
    """Zooming dense-grid argmax of a state's landscape (derivative-free).

    A coarse scan runs around every component center; successive levels
    re-grid a shrinking window around the best point, dividing the
    spacing by 4 each time.  The final spacing is coarse_spacing / 4^7
    ~ 1.5e-5, comfortably below the 1e-4 location tolerance.
    """
    coeffs = np.asarray(state.coeffs)
    qc, pc = np.asarray(state.q), np.asarray(state.p)
    w = np.asarray(state.basis.weights)
    n = qc.shape[1]
    n2 = state.norm_sq

    def scan(center, half, spacing):
        axes = []
        for k in range(n):
            axes.append(center[k] + np.arange(-half, half + spacing / 2, spacing))
            axes.append(center[n + k] + np.arange(-half, half + spacing / 2, spacing))
        v = _grid_eval(coeffs, qc, pc, w, n2, axes)
        idx = np.unravel_index(np.argmax(v), v.shape)
        x = np.empty(2 * n)
        for k in range(n):
            x[k] = axes[2 * k][idx[2 * k]]
            x[n + k] = axes[2 * k + 1][idx[2 * k + 1]]
        return x, float(v[idx])

    best = None
    for j in range(len(coeffs)):
        center = np.concatenate([qc[j], pc[j]])
        x, v = scan(center, coarse_half, coarse_spacing)
        if best is None or v > best[1]:
            best = (x, v)
    x, v = best
    spacing = coarse_spacing
    for _ in range(zoom_levels):
        x, v = scan(x, 1.5 * spacing, spacing / 4.0)
        spacing /= 4.0
    return x, v


def fd_gradient(fn, x, h=1e-5):
    """Centered finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def random_separated_state(rng, n_modes, n_comp, cls_point, cls_state, cls_basis,
                           min_sep=12.0, weights=None):
    """Random superposition with pairwise scaled separation >= min_sep."""
    if weights is None:
        weights = rng.uniform(0.5, 2.0, size=n_modes)
    basis = cls_basis(omegas=rng.uniform(0.0, 2.0, size=n_modes), weights=weights)
    scale = 1.0 / np.sqrt(weights)
    centers = []
    while len(centers) < n_comp:
        cand = np.concatenate([
            rng.uniform(-20, 20, size=n_modes) * scale,
            rng.uniform(-20, 20, size=n_modes) * scale,
        ])
        ok = True
        for other in centers:
            d = cand - other
            dist = np.sqrt(np.sum(np.concatenate([weights, weights]) * d * d))
            if dist < min_sep:
                ok = False
                break
        if ok:
            centers.append(cand)
    coeffs = rng.normal(size=n_comp) + 1j * rng.normal(size=n_comp)
    coeffs += np.sign(coeffs.real) * 0.3  # keep components comparably weighted
    points = [cls_point(q=c[:n_modes], p=c[n_modes:]) for c in centers]
    return cls_state(coeffs, points, basis)
