"""Classical-current source terms for the field modes.

A charged particle on a piecewise-linear trajectory x(t) sources, for an
on-shell wave 4-vector k (k0 = |k|, metric signature (+,-,-,-), so
k.x = k0 t - k_vec . x_vec), the current

    J_mu(k) = sum_particles -i e * integral dt (dx_mu/dt) exp(i k.x)

which is closed-form per linear segment: a segment entered at event
x(t_a) with constant 4-velocity v = (1, v_vec) over duration dt
contributes -i e * v_mu * exp(i k.x(t_a)) * dt exp(i phi dt/2) sinc(phi dt/2)
with phi = k.v and sinc(x) = sin(x)/x: (exp(i phi dt) - 1)/(i phi) without
its cancellation, exact to rounding at every phase, so no small-phase branch.

Every function that works per mode evaluates all modes in one stacked
current_j call over a (K, 4) array of wave vectors.  The Lorentz
contraction is X.Y = X0 Y0 - X1 Y1 - X2 Y2 - X3 Y3 (bilinear, no
conjugation; callers conjugate one side where needed).  Note that for
finite open segments k.J does not vanish (the endpoints source charge);
use current_divergence to inspect it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .modes import ModeBasis
from .states import CoherentPoint

ON_SHELL_TOL = 1e-9

#: metric tensor diag(+1, -1, -1, -1) as contraction signs
_METRIC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class FourVector:
    """Complex 4-vector with metric signature (+,-,-,-)."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        if c.shape != (4,):
            raise ValueError("a four-vector has exactly 4 components")
        if not np.all(np.isfinite(c)):
            raise ValueError("four-vector components must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "components", c)


def lorentz_dot(x, y):
    """Contraction X.Y = X0 Y0 - X.Y (spatial), bilinear, no conjugation.

    Contracts over the last axis: a complex number for two 4-vectors, an
    array for stacks of them.
    """
    xc = x.components if isinstance(x, FourVector) else np.asarray(x, dtype=complex)
    yc = y.components if isinstance(y, FourVector) else np.asarray(y, dtype=complex)
    dot = np.sum(_METRIC_SIGNS * xc * yc, axis=-1)
    return complex(dot) if dot.ndim == 0 else dot


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear charged-particle worldline.

    Breakpoints are (t, x, y, z) events with strictly increasing t; every
    segment must be subluminal (|v| < 1, natural units c = 1).  The checks'
    one difference of the breakpoints also gives the segment table.
    """

    charge: float
    times: np.ndarray
    positions: np.ndarray
    #: what ``current_j`` reads: entry events (S, 4), durations (S,), 4-velocities (S, 4)
    segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a trajectory needs at least two breakpoints")
        if positions.shape != (times.size, 3):
            raise ValueError("positions must have shape (n_breakpoints, 3)")
        events = np.column_stack([times, positions])
        if not np.isfinite(events).all():
            raise ValueError("breakpoints must be finite")
        # a difference of two finite breakpoints may overflow to inf: an
        # infinite interval is refused, an infinite step or velocity is superluminal
        with np.errstate(over="ignore"):
            steps = np.diff(events, axis=0)
            dts = steps[:, 0]
            if not (dts.min() > 0 and dts.max() < np.inf):
                raise ValueError("breakpoint times must strictly increase by finite intervals")
            v4 = steps / dts[:, None]  # time component dt / dt = 1 exactly
            # |v| from the velocity: |step|^2 overflows for a slow step past 1e154
            speeds = np.linalg.norm(v4[:, 1:], axis=1)
        if (speeds >= 1.0).any():
            raise ValueError(f"superluminal segment (max |v| = {speeds.max():g})")
        if not np.isfinite(self.charge):
            raise ValueError("charge must be finite")
        for rows in (times, positions, events, dts, v4):
            rows.setflags(write=False)
        self.__dict__.update(times=times, positions=positions, segments=(events[:-1], dts, v4))

    @classmethod
    def from_breakpoints(cls, charge: float, breakpoints) -> "Trajectory":
        """Build from an iterable of (t, x, y, z) rows."""
        ts, xs = [], []
        for t, *xyz in breakpoints:
            ts.append(float(t))
            xs.append([float(v) for v in xyz])
        return cls(charge=charge, times=np.array(ts), positions=np.array(xs))

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def _check_on_shell(k) -> np.ndarray:
    """One wave vector or a stack of them as a (K, 4) array, every row on shell."""
    k = np.asarray(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != 4:
        raise ValueError("the wave vector must have 4 components (k0, kx, ky, kz)")
    ks = np.atleast_2d(k)
    # |k| with the dot of _unit and FieldMode's norm; an overflowed |k| is off shell
    norms = np.sqrt(np.vecdot(ks[:, 1:], ks[:, 1:]))
    off = ~((np.abs(ks[:, 0] - norms) <= ON_SHELL_TOL * np.fmax(1.0, norms)) & (norms < np.inf))
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"wave vector off the mass shell: k0 = {ks[i, 0]:g}, |k| = {norms[i]:g}")
    return ks


def _check_common_span(trajectories) -> None:
    spans = {traj.span for traj in trajectories}
    if len(spans) > 1:
        raise ValueError(f"trajectories must share one time interval, got {sorted(spans)}")


def current_j(trajectories, k):
    """Total current J_mu(k) of a trajectory set at on-shell wave vectors.

    ``k`` is one wave vector of shape (4,), which gives a FourVector, or
    a stack of shape (K, 4), which gives a (K, 4) complex array whose
    rows are the currents at the rows of ``k``, each on the mass shell.
    Each trajectory's ``segments`` table is read, not derived again.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    ks = _check_on_shell(k)
    _check_common_span(trajectories)
    total = np.zeros((ks.shape[0], 4), dtype=complex)
    # the lowered k contracts with events and 4-velocities, one vector-matrix
    # product per row of k, so a row is the same whatever else the stack holds
    k_low = (ks * _METRIC_SIGNS)[:, None, :]
    for traj in trajectories:
        entries, dts, v4 = traj.segments
        # k.x at entry events and phase phi dt, shape (K, S); np.sinc(x) is sin(pi x)/(pi x)
        kx_a = (k_low @ entries.T)[:, 0]
        phase = (k_low @ v4.T)[:, 0] * dts
        seg = dts * np.exp(0.5j * phase) * np.sinc(phase / (2.0 * np.pi)) * np.exp(1j * kx_a)
        total += -1j * traj.charge * (seg[:, None, :] @ v4)[:, 0]
    return FourVector(components=total[0]) if np.ndim(k) == 1 else total


def current_divergence(trajectories, k):
    """k.J, which vanishes only for conserved currents (reported, not asserted).

    A complex number for one wave vector, a (K,) array for a (K, 4) stack.
    """
    return lorentz_dot(k, current_j(trajectories, k))


@dataclass(frozen=True)
class FieldMode:
    """One discretized mode: spatial wave vector, quadrature weight, polarization."""

    k_vec: np.ndarray
    weight: float = 1.0
    polarization: int = 0
    k4: np.ndarray = field(init=False, repr=False, compare=False)
    #: (e1, e2) of ``polarization_vectors(k_vec)`` as the rows of a (2, 3) array
    polarization_pair: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.asarray(self.k_vec, dtype=float)
        if k.shape != (3,):
            raise ValueError("k_vec must be a spatial 3-vector")
        with np.errstate(over="ignore"):
            length = np.linalg.norm(k)
        if not 0.0 < length < np.inf:
            raise ValueError("k_vec must be nonzero with a finite length")
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValueError("mode weight must be positive")
        if self.polarization not in (0, 1):
            raise ValueError("polarization index must be 0 or 1")
        k.setflags(write=False)
        object.__setattr__(self, "k_vec", k)
        k4 = np.concatenate([[length], k])
        k4.setflags(write=False)
        object.__setattr__(self, "k4", k4)
        pair = np.stack(polarization_vectors(k))
        pair.setflags(write=False)
        object.__setattr__(self, "polarization_pair", pair)

    @property
    def omega(self) -> float:
        return float(self.k4[0])


def mode_basis_for(modes) -> ModeBasis:
    """ModeBasis whose frequencies are the |k| of the listed field modes."""
    modes = list(modes)
    return ModeBasis(
        omegas=np.array([m.omega for m in modes]),
        weights=np.array([m.weight for m in modes]),
    )


def _wave_vectors(modes) -> np.ndarray:
    """(K, 4) stack of the on-shell wave vectors of the listed modes."""
    return np.reshape([m.k4 for m in modes], (-1, 4))


def _unit(v: np.ndarray) -> np.ndarray:
    # sqrt(v.v) per row, the same dot as np.linalg.norm of one vector
    return v / np.sqrt(np.vecdot(v, v))[..., None]


def _cross(a, b) -> np.ndarray:
    """a x b over the last axis, term for term in the order np.cross uses."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


_X_AXIS = np.array([1.0, 0.0, 0.0])
_Z_AXIS = np.array([0.0, 0.0, 1.0])


def polarization_vectors(k_vec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal transverse pair (e1, e2) for a direction.

    e1 = normalize(z x k), falling back to normalize(x x k) within 1e-6 of
    the z axis; e2 = k_hat x e1.  ``k_vec`` is one direction of shape (3,)
    or a stack of shape (K, 3); e1 and e2 have the same shape.
    """
    k_hat = _unit(np.asarray(k_vec, dtype=float))
    e1 = _cross(_Z_AXIS, k_hat)
    near_z = np.sqrt(np.vecdot(e1, e1)) < 1e-6
    if near_z.any():
        e1 = np.where(near_z[..., None], _cross(_X_AXIS, k_hat), e1)
    e1 = _unit(e1)
    return e1, _cross(k_hat, e1)


def _transverse_amplitudes(trajectories, modes) -> np.ndarray:
    """(e1 . J_vec(k), e2 . J_vec(k)) for each field mode, shape (K, 2)."""
    j = current_j(trajectories, _wave_vectors(modes))[:, 1:]
    # each mode's pair has the bits of its row of polarization_vectors over the stack
    pairs = np.reshape([m.polarization_pair for m in modes], (-1, 2, 3))
    return (pairs * j[:, None, :]).sum(axis=2)


def radiated_quanta(trajectories, modes) -> float:
    """Expected number of emitted quanta over the listed k-quadrature.

    Per mode this is the transverse current content summed over both
    polarizations, weight_k * (|e1 . J_vec|^2 + |e2 . J_vec|^2), over the
    (e1, e2) of the displacement; the timelike and longitudinal pieces
    source no physical quanta.  The sum of squares is non-negative for
    every current (a static charge radiates nothing) and quadratic in
    every charge.
    """
    modes = list(modes)
    # a huge charge overflows the square to inf, whose persistence is exactly 0
    with np.errstate(over="ignore"):
        content = np.sum(np.abs(_transverse_amplitudes(trajectories, modes)) ** 2, axis=1)
    return float(np.sum(np.array([m.weight for m in modes]) * content))


def vacuum_persistence(trajectories, modes) -> float:
    """Probability that the current leaves the field unexcited.

    exp(-E) with E the coherent-norm content of the sourced state,
    i.e. the weighted mode sum of squared transverse current amplitudes
    over both polarizations (see radiated_quanta).  Always in (0, 1]:
    the raw Lorentz contraction conj(J).J is indefinite for open
    trajectory segments and would not yield a probability, so only the
    physical transverse modes enter.  Doubling a lone charge quadruples
    the exponent exactly.
    """
    return float(np.exp(-radiated_quanta(trajectories, modes)))


def displacement_from_current(trajectories, modes) -> CoherentPoint:
    """Coherent displacement sourced by the current: one (q, p) per mode.

    Convention: q_k = sqrt(2) Re(alpha_k), p_k = sqrt(2) Im(alpha_k) with
    alpha_k the transverse amplitude of the mode's polarization; timelike
    and longitudinal pieces are excluded.
    """
    modes = list(modes)
    polarization = [m.polarization for m in modes]
    amps = _transverse_amplitudes(trajectories, modes)[np.arange(len(modes)), polarization]
    return CoherentPoint(q=np.sqrt(2.0) * amps.real, p=np.sqrt(2.0) * amps.imag)


def trajectories_from_csv(path) -> list[Trajectory]:
    """Load trajectories from CSV columns: particle, charge, t, x, y, z.

    Rows are grouped by particle id; each particle's charge must be
    consistent across its rows; rows may appear in any order.  A row
    with more or fewer fields than the header raises ``ValueError``.
    """
    groups: dict[str, dict] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"particle", "charge", "t", "x", "y", "z"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(f"trajectory CSV needs columns {sorted(required)}")
        for row in reader:
            # DictReader fills a short row with None and keys a long row's rest by None
            if None in row or None in row.values():
                raise ValueError(f"trajectory CSV line {reader.line_num} does not have "
                                 f"the header's {len(reader.fieldnames)} fields")
            pid, charge = row["particle"], float(row["charge"])
            entry = groups.setdefault(pid, {"charge": charge, "rows": []})
            # NaN equals nothing, itself included; Trajectory rejects it as not finite
            if entry["charge"] != charge and not np.isnan([entry["charge"], charge]).all():
                raise ValueError(f"particle {pid} has inconsistent charges")
            entry["rows"].append(
                (float(row["t"]), float(row["x"]), float(row["y"]), float(row["z"]))
            )
    if not groups:
        raise ValueError("trajectory CSV has no rows")
    out = []
    for pid in sorted(groups):
        rows = sorted(groups[pid]["rows"])
        out.append(Trajectory.from_breakpoints(groups[pid]["charge"], rows))
    return out
