"""Independent oracles used by the test suite.

Each oracle re-derives its answer by a method unrelated to the library
code path it checks: the landscape is evaluated from the overlap formula
directly (separable per-mode factors), the argmax is located by a
zooming dense-grid scan with no derivative information, gradients are
checked against centered finite differences, and the ring's norm is
propagated by a dense matrix exponential instead of a split step, or
stepped with the library's own rounded factors in long double through a
radix-2 transform of its own.  Loop
references keep the straightforward form of code that the library
restructured for speed (the pairwise start search, the ascent that
re-evaluates every accepted point, the search that runs every start to
convergence, the csv module's writer and the plot
that scales one point at a time), so the fast path can be required to
give the same bytes.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from coherentlab import ring
from coherentlab.reporting import _PALETTE, _nice_ticks, _scale, _tick_labels, _widened
from coherentlab.landscape import v_at
from coherentlab.states import _component_terms


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
    # outer product of the leading modes' factors with the coefficients,
    # then one matrix product against the last mode's factor sums over j
    lead = coeffs
    for f in factors[:-1]:
        lead = lead[..., None, None, :] * f
    last = factors[-1]
    amp = lead.reshape(-1, len(coeffs)) @ last.reshape(-1, len(coeffs)).T
    amp = amp.reshape(lead.shape[:-1] + last.shape[:2])
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


def ascent_starts_loop(state, near_distance=6.0):
    """Component centers plus midpoints of near pairs, one pair at a time."""
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


def value_grad_hess_indexed(state, x):
    """Landscape value, gradient and Hessian with the curvature added by index.

    The derivative rows d_j = d log(c_j K(x, x_j)) / dx are formed here from
    the kernel's differences, not taken from the library's ascent.
    """
    x = np.asarray(x, dtype=float)
    n = state.n_modes
    w = state.basis.weights
    terms, dq, dp = _component_terms(state, x)
    # the p columns in the frame translated to the probe, as in the library
    d = np.concatenate([-0.5 * w * (dq + 1j * dp), -0.5 * w * (dp - 1j * dq)], axis=1)
    a = terms.sum()
    da = terms @ d
    ha = np.einsum("j,ja,jb->ab", terms, d, d)
    ww = np.concatenate([w, w])
    k = np.arange(2 * n)
    ha[k, k] += a * (-0.5 * ww)
    ha[k, k - n] += a * (-0.5j * ww)
    v = float((a.real * a.real + a.imag * a.imag) / state.norm_sq)
    grad = 2.0 * np.real(np.conj(a) * da) / state.norm_sq
    hess = 2.0 * np.real(np.outer(np.conj(da), da) + np.conj(a) * ha) / state.norm_sq
    return v, grad, hess


def ascend_reevaluating(state, start, tol=1e-10, max_iter=200, counts=None):
    """Newton/gradient ascent with Armijo backtracking that evaluates afresh.

    Each iteration evaluates value, gradient and Hessian at its own point,
    also when the line search just evaluated v there.  ``counts``, if given,
    accumulates "backtracks", "gradient_steps" and "failed" for the run.
    """
    counts = {} if counts is None else counts
    for key in ("backtracks", "gradient_steps", "failed"):
        counts.setdefault(key, 0)
    x = np.asarray(start, dtype=float).copy()
    for _ in range(max_iter):
        v, grad, hess = value_grad_hess_indexed(state, x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol * max(1.0, v):
            is_max = bool(np.linalg.eigvalsh(hess).max() < 0.0)
            counts["failed"] += not is_max
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
            counts["gradient_steps"] += 1
            direction = grad / max(gnorm, 1e-300)
        slope = float(grad @ direction)
        alpha = 1.0
        ulp_gain = 8.0 * np.finfo(float).eps * max(v, 1e-300)
        for _ in range(60):
            if alpha * slope <= ulp_gain:
                break
            if v_at(state, x + alpha * direction) > v + 1e-4 * alpha * slope:
                break
            counts["backtracks"] += 1
            alpha *= 0.5
        else:
            counts["failed"] += 1
            return x, v, False
        x = x + alpha * direction
    v, grad, hess = value_grad_hess_indexed(state, x)
    ok = float(np.linalg.norm(grad)) < tol * max(1.0, v)
    is_max = ok and bool(np.linalg.eigvalsh(hess).max() < 0.0)
    counts["failed"] += not is_max
    return x, v, is_max


def find_local_maxima_reference(state, dedup_radius=1e-6, tie_tolerance=1e-12):
    """Multi-start search in which every start ascends to convergence on its own.

    Each start of the pair loop runs through ``ascend_reevaluating``; a
    converged endpoint within ``dedup_radius`` of one kept already replaces
    it if its v is higher.  Returns the maxima as (x, v) pairs sorted by
    descending v, values above 1 taken as 1, the failed-start count, the
    argmax with lexicographic tie-breaking, and the tie flag.
    """
    found = []
    failed = 0
    for start in ascent_starts_loop(state):
        x, v, ok = ascend_reevaluating(state, start)
        if not ok:
            failed += 1
            continue
        for k, (xk, vk) in enumerate(found):
            if np.linalg.norm(x - xk) < dedup_radius:
                if v > vk:
                    found[k] = (x, v)
                break
        else:
            found.append((x, v))
    found = sorted(((x, min(v, 1.0)) for x, v in found),
                   key=lambda item: (-item[1], tuple(item[0])))
    if not found:
        return found, failed, None, False
    tied = [x for x, v in found if abs(v - found[0][1]) < tie_tolerance]
    return found, failed, min(tied, key=tuple), len(tied) > 1


def polarization_cross_reference(k_vec):
    """(e1, e2) for a direction or (K, 3) stack, every product taken by np.cross."""
    k = np.asarray(k_vec, dtype=float)
    k_hat = k / np.sqrt(np.vecdot(k, k))[..., None]
    e1 = np.cross([0.0, 0.0, 1.0], k_hat)
    near_z = np.sqrt(np.vecdot(e1, e1)) < 1e-6
    e1 = np.where(near_z[..., None], np.cross([1.0, 0.0, 0.0], k_hat), e1)
    e1 = e1 / np.sqrt(np.vecdot(e1, e1))[..., None]
    return e1, np.cross(k_hat, e1)


def ring_exact_survival(state, absorber, times):
    """Norm of psi(t) = exp(-i H t) psi_0 at each t, with H = K - i W.

    K is the kinetic operator k^2 / 2m made dense from the DFT matrix and
    W the absorber's decay rate on the grid, so the only difference from a
    split-step curve on the same grid is the splitting error.  Each t gets
    its own ``expm``: no error accumulates over a chain of propagators.
    """
    n = state.n_grid
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    dft = np.fft.fft(np.eye(n), axis=0)
    kinetic = np.fft.ifft((k * k / (2.0 * state.mass))[:, None] * dft, axis=0)
    h = kinetic - 1j * np.diag(absorber.weight(n))
    return np.array(
        [np.mean(np.abs(expm(-1j * h * t) @ state.psi) ** 2) for t in times]
    )


def _long_double_dft(n):
    """The unnormalised transforms sum_j x_j exp(-+2 pi i jk / N), forward and
    inverse, in long double: radix-2 decimation in time over the
    bit-reversed input, with twiddles from a long-double pi."""
    index = np.arange(n)
    reversed_index = np.zeros(n, dtype=int)
    bits = n.bit_length() - 1
    for b in range(bits):
        reversed_index |= ((index >> b) & 1) << (bits - 1 - b)
    pi = np.arccos(np.longdouble(-1.0))
    angles = [pi * np.arange(2**level, dtype=np.longdouble) / 2**level for level in range(bits)]

    def transform(x, twiddles):
        x = x[reversed_index]
        for w in twiddles:
            pairs = x.reshape(-1, 2, w.size)
            odd = pairs[:, 1] * w
            x = np.concatenate([pairs[:, 0] + odd, pairs[:, 0] - odd], axis=1).reshape(n)
        return x

    forward = [np.cos(a) - 1j * np.sin(a) for a in angles]
    inverse = [np.cos(a) + 1j * np.sin(a) for a in angles]
    return (lambda x: transform(x, forward)), (lambda x: transform(x, inverse))


def ring_long_double_survival(state, absorber, dt, steps, record_every):
    """The recorded norms of ``survival_curve``'s Strang map, stepped in long double.

    The factors are the library's rounded ``decay_half`` and ``kinetic``
    (which carries the inverse transform's 1/N), so this differs from the
    map that every path of ``survival_curve`` computes only by the
    roundoff of double arithmetic.  Records fall where the library's do.
    """
    decay_half, kinetic = ring._step_factors(state, absorber, dt)
    decay = decay_half.astype(np.clongdouble)
    phase = kinetic.astype(np.clongdouble)
    forward, inverse = _long_double_dft(state.n_grid)
    psi = state.psi.astype(np.clongdouble)
    marks = [*range(0, steps, record_every), steps]
    norms = [np.mean(np.abs(psi) ** 2)]
    for start, end in zip(marks, marks[1:]):
        for _ in range(start, end):
            psi = decay * inverse(phase * forward(decay * psi))
        norms.append(np.mean(np.abs(psi) ** 2))
    return np.array(norms, dtype=float)


def write_csv_reference(path, header, rows) -> None:
    """Rows written through ``csv.writer``, one field at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def svg_line_plot_reference(
    path,
    series,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """The SVG line chart, with each point converted, scaled and formatted on its own."""
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 36, 52
    pw, ph = width - ml - mr, height - mt - mb
    xs = [float(v) for x, _, _ in series for v in x]
    ys = [float(v) for _, y, _ in series for v in y]
    if not xs or not ys:
        raise ValueError("cannot plot empty series")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("cannot plot non-finite values")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    (x0, x1), (y0, y1) = _widened(x0, x1), _widened(y0, y1)
    s = _scale(y0, y1)
    pad = 0.05 * (y1 * s - y0 * s) / s
    y0, y1 = max(y0 - pad, -sys.float_info.max), min(y1 + pad, sys.float_info.max)

    sx, sy = _scale(x0, x1), _scale(y0, y1)
    ax, wx = x0 * sx, x1 * sx - x0 * sx
    ay, wy = y0 * sy, y1 * sy - y0 * sy

    def px(x: float) -> float:
        return ml + (x * sx - ax) / wx * pw

    def py(y: float) -> float:
        return mt + ph - (y * sy - ay) / wy * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444444" stroke-width="1"/>',
    ]
    parts.append(
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )
    xticks = _nice_ticks(x0, x1)
    for tx, label in zip(xticks, _tick_labels(xticks)):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" '
            f'y2="{mt + ph + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    yticks = _nice_ticks(y0, y1)
    for ty, label in zip(yticks, _tick_labels(yticks)):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" '
            f'y2="{py(ty):.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (x, y, label) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = mt + 16 + 16 * i
        parts.append(
            f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 120}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 114}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
