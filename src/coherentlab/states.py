"""Coherent-state algebra over a finite mode basis.

States are finite superpositions of coherent states |q,p>, one (q_k, p_k)
pair per mode.  The overlap kernel in the basis bracket <.> is

    <q,p|q',p'> = exp -( <q-q'.q-q'> + <p-p'.p-p'> + 2i <p-p'.q+q'> ) / 4

Writing alpha_k = sqrt(w_k/2) (q_k + i p_k), this kernel equals the
standard Glauber overlap times the separable phase
exp(i sum_k w_k (q'_k p'_k - q_k p_k) / 2), so every Gram matrix built
from it is positive semidefinite and |overlap| <= 1 with equality only
at coincident points.

The kernel is implemented once, in ``_kernel_rows``, which takes points
of shape (..., 2n) against component rows; the Gram matrix, ``overlap``
and the identity quadrature call it.  The landscape
|<x|Psi>|^2 / <Psi|Psi> has one evaluator, owned here:
``_component_terms`` forms the terms c_j <x|x_j> at any stack of points,
``_landscape_value`` takes the landscape from their sum, and ``amplitude``,
``v_value`` and the ascent in ``landscape`` are all built on these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .modes import ModeBasis

# Kernel magnitudes below exp(-UNDERFLOW_EXPONENT) are flushed to exact zero
# so that far-separated components cannot poison phases with inf/nan.
UNDERFLOW_EXPONENT = 690.0

# A state is rejected when its squared norm is at most NORM_RTOL * sum_j |c_j|^2.
# Each computed Gram entry is within a few units of roundoff u = 2^-53 of the
# exact |G_jk| <= 1, and the double sum c* G c adds about M u |c_j| |c_k| per
# term, so for M components the computed norm is off by up to about
# M u (sum_j |c_j|)^2 <= M^2 u sum_j |c_j|^2.  At 1e-12 (~ 9000 u) that error
# stays below ~1% of the threshold for up to ten components; a nearly
# cancelling superposition below it has a norm made of roundoff.
NORM_RTOL = 1e-12


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


def _kernel_rows(x, q, p, weights):
    """The one kernel implementation: points x = [q..., p...] against component rows.

    x has shape (..., 2n) and the rows q, p have shape (M, n).  Returns the
    (..., M) kernel <x|q_j, p_j>, with underflowing and non-finite values
    flushed to exact zero, and the (..., M, n) dq, dp and sq it came from.
    """
    n = q.shape[-1]
    xq, xp = x[..., None, :n], x[..., None, n:]
    dq, dp, sq = xq - q, xp - p, xq + q
    expo = -0.25 * np.sum(weights * (dq * dq + dp * dp + 2j * dp * sq), axis=-1)
    out = np.exp(np.where(expo.real < -UNDERFLOW_EXPONENT, -np.inf, expo))
    return np.where(np.isfinite(out), out, 0.0), dq, dp, sq


def overlap(a: CoherentPoint, b: CoherentPoint, basis: ModeBasis) -> complex:
    """Overlap <a|b> of two coherent states over the given basis.

    Satisfies overlap(a, a) == 1 exactly, |overlap| <= 1, and Hermitian
    symmetry overlap(a, b) == conj(overlap(b, a)).
    """
    _check_point(a, basis)
    _check_point(b, basis)
    return complex(_kernel_rows(a.as_vector(), b.q[None], b.p[None], basis.weights)[0][0])


class SuperposedState:
    """Finite superposition sum_j c_j |q_j, p_j> over one mode basis.

    Construction computes the Gram matrix of the component points and the
    squared norm c* G c; a state whose squared norm is not above the
    roundoff floor NORM_RTOL * sum_j |c_j|^2 is rejected.
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
        # far-apart centres overflow the kernel exponent, which flushes to 0, and
        # huge coefficients overflow the norm; the rule below rejects an inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _kernel_rows(np.concatenate((self.q, self.p), 1), self.q, self.p,
                                basis.weights)[0]
            norm_sq = float(np.real(np.conj(coeffs) @ gram @ coeffs))
            floor = NORM_RTOL * float(np.sum(coeffs.real**2 + coeffs.imag**2))
        if not np.isfinite(norm_sq) or norm_sq <= floor:
            raise ValueError(
                f"state has squared norm {norm_sq:g}, not above the roundoff floor {floor:g}"
            )
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


def _component_terms(state: SuperposedState, x):
    """The terms c_j <x|x_j> at points x of shape (..., 2n), and the dq, dp, sq they came from."""
    kernel, dq, dp, sq = _kernel_rows(np.asarray(x, float), state.q, state.p, state.basis.weights)
    return state.coeffs * kernel, dq, dp, sq


def _landscape_value(a, norm_sq):
    """The landscape |a|^2 / <Psi|Psi> at the amplitude a = <x|Psi>."""
    return (a.real * a.real + a.imag * a.imag) / norm_sq


def amplitude(state: SuperposedState, point: CoherentPoint) -> complex:
    """The coherent-state amplitude <point|Psi> = sum_j c_j <point|pt_j>."""
    _check_point(point, state.basis)
    return complex(_component_terms(state, point.as_vector())[0].sum())


def v_value(state: SuperposedState, point: CoherentPoint) -> float:
    """Normalized phase-space landscape |<point|Psi>|^2 / <Psi|Psi>, in [0, 1].

    The explicit division keeps the landscape meaningful for states that
    have not been renormalized after a projection.
    """
    return min(_landscape_value(amplitude(state, point), state.norm_sq), 1.0)


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


# identity_check rejects a grid whose boundary carries a landscape value above this.
BOUNDARY_TOL = 1e-12


def identity_check(state: SuperposedState, grid: QuadratureGrid = QuadratureGrid()) -> float:
    """Quadrature estimate of the landscape integral against the coherent measure.

    The measure is prod_k w_k dq_k dp_k / (2 pi); with it the integral of
    the normalized landscape converges to 1 as the grid refines.  Only 1-
    and 2-mode states are supported (cost grows as grid^(2n)).  A grid
    whose boundary still carries landscape values above ``BOUNDARY_TOL``
    raises SupportTruncationError.
    """
    n = state.n_modes
    if n not in (1, 2):
        raise ValueError("identity_check supports 1- or 2-mode states only")
    h = grid.spacing
    # the q axis and the p axis of each mode in turn
    axes = [_axis(c.min() - grid.margin, c.max() + grid.margin, h)
            for k in range(n) for c in (state.q[:, k], state.p[:, k])]

    w = state.basis.weights
    # Per-mode separable factors: factors[k] has shape (len(q-axis), len(p-axis), M).
    factors = []
    for k in range(n):
        plane = np.stack(np.meshgrid(axes[2 * k], axes[2 * k + 1], indexing="ij"), axis=-1)
        factors.append(_kernel_rows(plane, state.q[:, k:k + 1], state.p[:, k:k + 1], w[k:k + 1])[0])

    # trapezoid weights: 1/2 at both ends of each axis
    trap = [np.pad(np.ones(len(ax) - 2), 1, constant_values=0.5) for ax in axes]
    # One slice of the first q axis at a time bounds memory at O(grid^(2n-1)).
    spec = "j,bj->b" if n == 1 else "j,bj,cdj->bcd"
    tw_rest = reduce(np.multiply.outer, trap[1:])
    m0 = len(axes[0])
    total = 0.0
    boundary_max = 0.0
    for i in range(m0):
        amp = np.einsum(spec, state.coeffs, factors[0][i], *factors[1:])
        v = _landscape_value(amp, state.norm_sq)
        # the first and last slices are boundary in full, inner ones on their faces
        faces = [v] if i in (0, m0 - 1) else [np.take(v, [0, -1], axis=a) for a in range(v.ndim)]
        boundary_max = max(boundary_max, *(f.max() for f in faces))
        total += trap[0][i] * float(np.sum(tw_rest * v))
    if boundary_max > BOUNDARY_TOL:
        raise SupportTruncationError(
            f"grid boundary carries landscape value {boundary_max:.3e} "
            f"(> {BOUNDARY_TOL:.1e}); enlarge the margin"
        )
    cell = h ** (2 * n) * float(np.prod(w))
    return float(total * cell / (2.0 * np.pi) ** n)
