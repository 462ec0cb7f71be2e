"""Coherent-state algebra over a finite mode basis.

States are finite superpositions of coherent states |q,p>, one (q_k, p_k)
pair per mode.  The overlap kernel in the basis bracket <.> is

    <q,p|q',p'> = exp -( <q-q'.q-q'> + <p-p'.p-p'> + 2i <p-p'.q+q'> ) / 4

Writing alpha_k = sqrt(w_k/2) (q_k + i p_k), this kernel equals the
standard Glauber overlap times the separable phase
exp(i sum_k w_k (q'_k p'_k - q_k p_k) / 2), so every Gram matrix built
from it is positive semidefinite and |overlap| <= 1 with equality only
at coincident points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import ModeBasis

# Kernel magnitudes below exp(-UNDERFLOW_EXPONENT) are flushed to exact zero
# so that far-separated components cannot poison phases with inf/nan.
UNDERFLOW_EXPONENT = 690.0


class SupportTruncationError(ValueError):
    """Raised when a quadrature grid clips non-negligible landscape support."""


@dataclass(frozen=True)
class CoherentPoint:
    """A point (q_1..q_n, p_1..p_n) in the 2n-dimensional phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1-d and of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("coherent-point coordinates must be finite")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n_modes(self) -> int:
        return self.q.size

    def as_vector(self) -> np.ndarray:
        """Flattened [q_1..q_n, p_1..p_n] coordinates."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vector(cls, x) -> "CoherentPoint":
        x = np.asarray(x, dtype=float)
        n = x.size // 2
        return cls(q=x[:n], p=x[n:])


def _check_point(point: CoherentPoint, basis: ModeBasis):
    if point.n_modes != basis.n_modes:
        raise ValueError(
            f"point has {point.n_modes} modes but basis has {basis.n_modes}"
        )


def _kernel(dq, dp, sq, weights):
    """The one kernel implementation: differences dq, dp and sums sq, modes last.

    Underflowing and non-finite values are flushed to exact zero.
    """
    expo = -0.25 * np.sum(weights * (dq * dq + dp * dp + 2j * dp * sq), axis=-1)
    out = np.exp(np.where(expo.real < -UNDERFLOW_EXPONENT, -np.inf, expo))
    return np.where(np.isfinite(out), out, 0.0)


def _overlap_matrix(qa, pa, qb, pb, weights):
    """Pairwise kernel between rows of (qa, pa) and rows of (qb, pb)."""
    qa, pa = qa[:, None, :], pa[:, None, :]
    return _kernel(qa - qb[None], pa - pb[None], qa + qb[None], weights)


def overlap(a: CoherentPoint, b: CoherentPoint, basis: ModeBasis) -> complex:
    """Overlap <a|b> of two coherent states over the given basis.

    Satisfies overlap(a, a) == 1 exactly, |overlap| <= 1, and Hermitian
    symmetry overlap(a, b) == conj(overlap(b, a)).
    """
    _check_point(a, basis)
    _check_point(b, basis)
    if a is b or (np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)):
        return 1.0 + 0.0j
    m = _overlap_matrix(a.q[None, :], a.p[None, :], b.q[None, :], b.p[None, :], basis.weights)
    return complex(m[0, 0])


class SuperposedState:
    """Finite superposition sum_j c_j |q_j, p_j> over one mode basis.

    Construction computes the Gram matrix of the component points and the
    squared norm c* G c; a state whose squared norm is not strictly
    positive is rejected.
    """

    def __init__(self, coeffs, points, basis: ModeBasis):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("a state needs at least one component")
        points = list(points)
        if len(points) != coeffs.size:
            raise ValueError("coefficient and point counts differ")
        for pt in points:
            _check_point(pt, basis)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.basis = basis
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)
        self.q = np.stack([pt.q for pt in points])
        self.p = np.stack([pt.p for pt in points])
        self.q.setflags(write=False)
        self.p.setflags(write=False)
        if coeffs.size == 1:
            # the kernel of a point with itself is exactly 1 + 0j
            gram = np.ones((1, 1), complex)
        else:
            gram = _overlap_matrix(self.q, self.p, self.q, self.p, basis.weights)
        norm_sq = float(np.real(np.conj(coeffs) @ gram @ coeffs))
        if not np.isfinite(norm_sq) or norm_sq <= 0.0:
            raise ValueError(f"state has non-positive squared norm ({norm_sq})")
        self._gram = gram
        self._norm_sq = norm_sq

    @classmethod
    def single(cls, point: CoherentPoint, basis: ModeBasis) -> "SuperposedState":
        return cls([1.0], [point], basis)

    @property
    def n_components(self) -> int:
        return self.coeffs.size

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def norm_sq(self) -> float:
        """Squared norm <Psi|Psi>, cached at construction."""
        return self._norm_sq

    def gram(self) -> np.ndarray:
        """Pairwise overlap matrix of the component points (Hermitian, PSD)."""
        return self._gram.copy()

    def points(self) -> list[CoherentPoint]:
        return [CoherentPoint(q=self.q[j], p=self.p[j]) for j in range(self.n_components)]

    def components(self) -> list[tuple[complex, CoherentPoint]]:
        return list(zip([complex(c) for c in self.coeffs], self.points()))

    def scaled(self, factor: complex) -> "SuperposedState":
        """Same ray, all coefficients multiplied by a nonzero scalar."""
        if factor == 0:
            raise ValueError("scaling factor must be nonzero")
        return SuperposedState(self.coeffs * factor, self.points(), self.basis)

    def with_component(self, coeff: complex, point: CoherentPoint) -> "SuperposedState":
        return SuperposedState(
            np.concatenate([self.coeffs, [coeff]]),
            self.points() + [point],
            self.basis,
        )


def amplitude(state: SuperposedState, point: CoherentPoint) -> complex:
    """The coherent-state amplitude <point|Psi> = sum_j c_j <point|pt_j>."""
    _check_point(point, state.basis)
    row = _overlap_matrix(
        point.q[None, :], point.p[None, :], state.q, state.p, state.basis.weights
    )[0]
    return complex(np.sum(state.coeffs * row))


def v_value(state: SuperposedState, point: CoherentPoint) -> float:
    """Normalized phase-space landscape |<point|Psi>|^2 / <Psi|Psi>, in [0, 1].

    The explicit division keeps the landscape meaningful for states that
    have not been renormalized after a projection.
    """
    a = amplitude(state, point)
    v = (a.real * a.real + a.imag * a.imag) / state.norm_sq
    return float(min(v, 1.0)) if v > 1.0 else float(v)


def evolve_free(state: SuperposedState, dt: float) -> SuperposedState:
    """Free evolution by dt: clockwise rotation in every (q_k, p_k) plane.

        q_k <- q_k cos(w_k dt) + p_k sin(w_k dt)
        p_k <- p_k cos(w_k dt) - q_k sin(w_k dt)

    Each coefficient picks up the per-mode phase
    exp(i sum_k w_k (q_k p_k - q'_k p'_k) / 2), the unique compensating
    choice (up to a point-independent constant) under which overlaps
    between co-evolved states are exactly invariant.
    """
    dt = float(dt)
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    c = np.cos(state.basis.omegas * dt)
    s = np.sin(state.basis.omegas * dt)
    q_new = state.q * c + state.p * s
    p_new = state.p * c - state.q * s
    phases = 0.5 * np.sum(
        state.basis.weights * (state.q * state.p - q_new * p_new), axis=1
    )
    coeffs = state.coeffs * np.exp(1j * phases)
    points = [CoherentPoint(q=q_new[j], p=p_new[j]) for j in range(state.n_components)]
    return SuperposedState(coeffs, points, state.basis)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform tensor-product grid spec for the identity quadrature.

    The grid covers, in every q and p direction, the interval
    [min component center - margin, max component center + margin]
    with the given spacing.
    """

    spacing: float = 0.25
    margin: float = 8.0

    def __post_init__(self):
        if not (self.spacing > 0 and np.isfinite(self.spacing)):
            raise ValueError("grid spacing must be positive and finite")
        if not (self.margin > 0 and np.isfinite(self.margin)):
            raise ValueError("grid margin must be positive and finite")


def _axis(lo: float, hi: float, h: float) -> np.ndarray:
    n = max(int(np.ceil((hi - lo) / h)), 1)
    return lo + np.arange(n + 1) * h


def _trap_weights(m: int) -> np.ndarray:
    w = np.ones(m)
    w[0] = w[-1] = 0.5
    return w


def identity_check(
    state: SuperposedState,
    grid: QuadratureGrid = QuadratureGrid(),
    boundary_tol: float = 1e-12,
) -> float:
    """Quadrature estimate of the landscape integral against the coherent measure.

    The measure is prod_k w_k dq_k dp_k / (2 pi); with it the integral of
    the normalized landscape converges to 1 as the grid refines.  Only 1-
    and 2-mode states are supported (cost grows as grid^(2n)).  A grid
    whose boundary still carries landscape values above ``boundary_tol``
    raises SupportTruncationError.
    """
    n = state.n_modes
    if n not in (1, 2):
        raise ValueError("identity_check supports 1- or 2-mode states only")
    h = grid.spacing
    axes = []
    for k in range(n):
        axes.append(_axis(state.q[:, k].min() - grid.margin, state.q[:, k].max() + grid.margin, h))
        axes.append(_axis(state.p[:, k].min() - grid.margin, state.p[:, k].max() + grid.margin, h))

    w = state.basis.weights
    # Per-mode separable factors: factors[k] has shape (len(q-axis), len(p-axis), M).
    factors = []
    for k in range(n):
        qg = axes[2 * k][:, None, None, None]
        pg = axes[2 * k + 1][None, :, None, None]
        qk, pk = state.q[:, k:k + 1], state.p[:, k:k + 1]
        factors.append(_kernel(qg - qk, pg - pk, qg + qk, w[k:k + 1]))

    trap = [_trap_weights(len(ax)) for ax in axes]
    boundary_max = 0.0
    if n == 1:
        amp = np.einsum("j,abj->ab", state.coeffs, factors[0])
        v = (amp.real**2 + amp.imag**2) / state.norm_sq
        boundary_max = max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max())
        total = float(np.einsum("a,b,ab->", trap[0], trap[1], v))
    else:
        # Chunk along the first q axis to bound memory at O(grid^3).
        total = 0.0
        tw_rest = np.einsum("b,c,d->bcd", trap[1], trap[2], trap[3])
        m0 = len(axes[0])
        for i in range(m0):
            amp = np.einsum("j,bj,cdj->bcd", state.coeffs, factors[0][i], factors[1])
            v = (amp.real**2 + amp.imag**2) / state.norm_sq
            if i == 0 or i == m0 - 1:
                boundary_max = max(boundary_max, v.max())
            else:
                boundary_max = max(
                    boundary_max,
                    v[0].max(), v[-1].max(),
                    v[:, 0].max(), v[:, -1].max(),
                    v[:, :, 0].max(), v[:, :, -1].max(),
                )
            total += trap[0][i] * float(np.sum(tw_rest * v))
    if boundary_max > boundary_tol:
        raise SupportTruncationError(
            f"grid boundary carries landscape value {boundary_max:.3e} "
            f"(> {boundary_tol:.1e}); enlarge the margin"
        )
    cell = h ** (2 * n) * float(np.prod(w))
    return total * cell / (2.0 * np.pi) ** n
