"""Wavepacket on a circle with a localized non-Hermitian drain.

The wavefunction lives on the uniform periodic grid x_j = j/N over
x in [0, 1).  Time stepping is Strang splitting: a half-step of local
decay exp(-W dt / 2), an exact spectral kinetic step exp(-i k^2 dt / 2m),
and another half-step of decay.  With zero absorber strength the step is
norm-preserving to roundoff; with any non-negative absorber the norm
never increases.  The instantaneous norm-loss rate is
2 * integral(W |psi|^2), which for the single-cell delta realization
reduces to 2 b |psi(x0)|^2.

A stationary classical ensemble on the same circle provides the
contrast case: members inside the drained region die immediately and the
survivors persist forever.  ``spread_estimate`` gives the free spreading
of a packet squeezed through a slit, in SI units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Multiplier on the conservative phase-resolution bound 0.1 * m / (pi N)^2,
#: which alone resolves the phase of the fastest representable grid mode and
#: is far stricter than needed for smooth states; the multiplier targets
#: sub-percent accuracy of the loss law at desk scale (validated by the
#: refinement test-suite).
#: Against the exact expm reference (N = 128, T = 0.4, 20 records) the
#: delta absorber's survival error is 5.9e-5, 5.3e-5 and 3.0e-5 at
#: dt/bound 0.10, 0.05 and 0.025, not yet second order: its one-cell
#: depth b N is a stiffness this kinetic-only bound leaves out.  The
#: plateau absorber's error is 4e-7 at 0.10.
DT_SAFETY_DEFAULT = 4000.0

#: Rows of the stride propagator A = M^r stepped at a time: a stride run
#: holds A and one block of this height, which tiles every power-of-two
#: N >= 64.
STRIDE_BLOCK_ROWS = 64

#: CODATA value of the reduced Planck constant, J s.
HBAR_SI = 1.054571817e-34


def dt_bound(n_grid: int, mass: float) -> float:
    """Largest accepted time step 0.1 m / (pi N)^2 * DT_SAFETY_DEFAULT."""
    return 0.1 * mass / (np.pi * n_grid) ** 2 * DT_SAFETY_DEFAULT


@dataclass
class RingState:
    """Complex wavefunction samples on the periodic unit circle."""

    psi: np.ndarray
    mass: float = 1.0
    time: float = 0.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        n = psi.size
        if psi.ndim != 1 or n < 64 or (n & (n - 1)) != 0:
            raise ValueError("psi must be 1-d with a power-of-two length >= 64")
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi must be finite")
        if not (self.mass > 0 and np.isfinite(self.mass)):
            raise ValueError("mass must be positive")
        self.psi = psi

    @property
    def n_grid(self) -> int:
        return self.psi.size

    def norm(self) -> float:
        """Squared norm (1/N) sum |psi_j|^2."""
        return _norm(self.psi)


def _norm(psi: np.ndarray) -> float:
    # the pairwise sum and the division np.mean does, without its wrapper
    return float(np.add.reduce(np.abs(psi) ** 2, axis=None)) / psi.size


def _whole(name: str, value) -> int:
    """``value`` as an int; a fractional or non-finite value is rejected, not truncated."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def uniform_state(n_grid: int = 256, mass: float = 1.0) -> RingState:
    """The filled ring: |psi|^2 = 1 everywhere."""
    return RingState(psi=np.ones(n_grid, dtype=complex), mass=mass)


def von_mises_state(
    n_grid: int = 256,
    center: float = 0.5,
    concentration: float = 40.0,
    boost: int = 0,
    mass: float = 1.0,
) -> RingState:
    """Periodic analog of a Gaussian packet, optionally momentum-boosted.

    amplitude ~ exp(kappa (cos(2 pi (x - center)) - 1)) * exp(2 pi i boost x),
    normalized to unit squared norm.  ``center`` is taken mod 1, exactly,
    so a centre far from [0, 1) is the same point of the circle.
    ``concentration`` must be positive, and ``boost`` an integer to keep
    the state periodic.
    """
    boost = _whole("boost", boost)
    if not concentration > 0:
        raise ValueError(f"concentration must be > 0, got {concentration}")
    center = float(center) % 1.0
    x = np.arange(n_grid) / n_grid
    # kappa (cos - 1) may overflow to -inf, whose exp is the right limit 0
    with np.errstate(over="ignore"):
        env = np.exp(concentration * (np.cos(2 * np.pi * (x - center)) - 1.0))
    # check the grid before normalising: an empty grid has no mean
    state = RingState(psi=env * np.exp(2j * np.pi * boost * x), mass=mass)
    norm = state.norm()
    if norm == 0.0:
        raise ValueError("the von Mises packet underflows to zero on this grid")
    return RingState(psi=state.psi / np.sqrt(norm), mass=mass)


def fourier_mode_state(n_grid: int = 256, mode: int = 1, mass: float = 1.0) -> RingState:
    """Single momentum eigenmode exp(2 pi i mode x); ``mode`` must be an integer."""
    mode = _whole("mode", mode)
    x = np.arange(n_grid) / n_grid
    return RingState(psi=np.exp(2j * np.pi * mode * x), mass=mass)


@dataclass(frozen=True)
class Absorber:
    """Localized drain W(x) = strength * profile(x).

    kind "delta": one grid cell of depth strength * N (integrated strength
    equals ``strength``, the realization the loss law depends on at
    leading order).  kind "plateau": profile 1 on a flat center of the
    given width, falling off outside as exp(-(d - width/2)^2 / (2 sigma^2))
    in the circular distance d.
    """

    kind: str
    center: float = 0.0
    strength: float = 0.0
    width: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "plateau"):
            raise ValueError(f"unknown absorber kind {self.kind!r}")
        if not (0.0 <= self.center < 1.0):
            raise ValueError("absorber center must lie in [0, 1)")
        if self.strength < 0 or not np.isfinite(self.strength):
            raise ValueError("absorber strength must be >= 0")
        for name in ("width", "sigma"):
            value = getattr(self, name)
            if value is None:
                if self.kind == "plateau":
                    raise ValueError(f"plateau absorber needs {name} > 0")
            elif not (value > 0 and np.isfinite(value)):
                raise ValueError(f"absorber {name} must be positive and finite")

    def profile(self, n_grid: int) -> np.ndarray:
        """Dimensionless shape f(x) on the grid, 0 <= f <= 1 (delta: f = N on one cell)."""
        if self.kind == "delta":
            f = np.zeros(n_grid)
            f[int(round(self.center * n_grid)) % n_grid] = float(n_grid)
            return f
        x = np.arange(n_grid) / n_grid
        d = np.abs((x - self.center + 0.5) % 1.0 - 0.5)
        # a numpy sigma^2 overflows to inf (a flat plateau) where Python's raises, or
        # underflows to 0 (a hard wall); the centre, d = width/2 included, is 1
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            tail = np.exp(-((d - self.width / 2.0) ** 2) / (2.0 * np.float64(self.sigma) ** 2))
        return np.where(d <= self.width / 2.0, 1.0, tail)

    def weight(self, n_grid: int) -> np.ndarray:
        """Decay rate profile W(x) = strength * profile."""
        # a delta depth past the float range saturates to inf: exp(-inf) is the right limit 0
        with np.errstate(over="ignore"):
            return self.strength * self.profile(n_grid)


def _step_factors(state: RingState, absorber: Absorber, dt: float):
    """The half-step decay and the kinetic phase exp(-i k^2 dt / 2m) / N.

    The kinetic factor carries the inverse transform's 1/N, so ``_strang``
    runs that transform unnormalised.  N is a power of two, so 1/N is
    exact and scaling by it commutes with every rounding short of
    subnormal values: the step gives the same bits as the textbook
    ``ifft(kinetic * fft(...))``.
    """
    w = absorber.weight(state.n_grid)
    # complex up front: the real x complex product casts to exactly these values
    decay_half = np.exp(-w * dt / 2.0).astype(complex)
    k = 2.0 * np.pi * np.fft.fftfreq(state.n_grid, d=1.0 / state.n_grid)
    kinetic = np.exp(-1j * k * k * dt / (2.0 * state.mass)) * (1.0 / state.n_grid)
    return decay_half, kinetic


def _strang(psi: np.ndarray, work: np.ndarray, decay_half: np.ndarray, kinetic: np.ndarray):
    """One Strang split step in place on ``psi``: half decay, exact kinetic
    step, half decay.  ``work`` (same shape and dtype) is overwritten.
    The inverse FFT is unnormalised: ``kinetic`` carries its exact 1/N
    (see ``_step_factors``), which saves a pass over ``psi``, same bits."""
    np.multiply(decay_half, psi, out=work)
    np.fft.fft(work, out=psi)
    np.multiply(kinetic, psi, out=psi)
    np.fft.ifft(psi, out=work, norm="forward")
    np.multiply(decay_half, work, out=psi)


def _check_run(state: RingState, dt: float, steps: int = 1, record_every: int = 1):
    """The one check of a run's inputs; config resolution calls it too."""
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    bound = dt_bound(state.n_grid, state.mass)
    if dt > bound:
        raise ValueError(
            f"dt = {dt:g} exceeds the accuracy bound {bound:g} "
            f"for N = {state.n_grid}, m = {state.mass:g}"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")


def step(state: RingState, absorber: Absorber, dt: float) -> RingState:
    """Advance by one Strang split step; the norm never increases."""
    _check_run(state, dt)
    psi = state.psi.copy()
    _strang(psi, np.empty_like(psi), *_step_factors(state, absorber, dt))
    return RingState(psi=psi, mass=state.mass, time=state.time + dt)


@dataclass(frozen=True)
class SurvivalCurve:
    """Sampled survival time series."""

    t: np.ndarray
    survival: np.ndarray


def _stride_is_cheaper(n_grid: int, record_every: int, strides: int) -> bool:
    """The cost model of ``survival_curve``: stride propagator or stepping."""
    if record_every < 2 or n_grid > 1024:
        return False
    step_us = 12.0 + 0.03 * n_grid
    build_us = record_every * 0.02 * n_grid**2
    # A of at most 1 MiB stays in cache from one record to the next
    matvec_us = 2.0 + (0.00035 if n_grid <= 256 else 0.00075) * n_grid**2
    return build_us + strides * matvec_us < strides * record_every * step_us


def survival_curve(
    initial: RingState,
    absorber: Absorber,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> SurvivalCurve:
    """Norm history N(t) over ``steps`` split steps (non-increasing).

    The norm is recorded at t = 0, after every ``record_every`` = r steps
    and after the last step.  The Strang map M is linear and the same at
    every step, so the r steps between two records are one N x N matrix
    A = M^r.  It is built by stepping the identity's rows r times with the
    stepper itself (row i is M^r e_i), ``STRIDE_BLOCK_ROWS`` rows at a
    time in place, so a stride run holds A and one row block; the
    N <= 1024 cap bounds A at 16 MiB.  Records fall after steps 0, r, 2r,
    ..., steps; each gap between two records is one matvec ``psi @ A``
    where A exists and the gap is a whole stride, else a run of split
    steps.  Which path runs follows a cost model of the call's N, r and
    s = steps // r, in microseconds, measured with BLAS pinned to one
    thread (numpy 2.4, OpenBLAS 0.3, 2 vCPUs):

        one step        12 + 0.03 N         measured 16, 19, 22, 21-31, 42-47
                                            at N = 64, 128, 256, 512, 1024
        building A      r * 0.02 N^2        r stacked steps of N rows; measured
                                            0.017-0.022 N^2 per stacked step
        one matvec      2 + 0.00035 N^2     N <= 256 (A <= 1 MiB stays in
                                            cache); measured 3, 7-9, 15-31
                                            at N = 64, 128, 256
                        2 + 0.00075 N^2     N >= 512; measured 167-216 at
                                            512, 800-863 at 1024

    The stride path runs when r >= 2, N <= 1024 and building A plus
    s matvecs is predicted cheaper than s * r steps.  So N = 256, r = 5
    over many strides uses A, while N = 512, r = 5 steps: a matvec costs
    more than five steps there.  With r = 1 every step is recorded and
    the curve equals repeated ``step`` calls bit for bit.  The two paths
    agree to roundoff; M is a contraction, so on either path the norm
    never increases beyond roundoff.
    """
    _check_run(initial, dt, steps, record_every)
    decay_half, kinetic = _step_factors(initial, absorber, dt)
    psi = initial.psi.copy()
    work = np.empty_like(psi)
    marks = [*range(0, steps, record_every), steps]
    stride = None
    if _stride_is_cheaper(psi.size, record_every, steps // record_every):
        stride = np.eye(psi.size, dtype=complex)
        block_work = np.empty((STRIDE_BLOCK_ROWS, psi.size), dtype=complex)
        # rows step independently, so each block is stepped in place
        for block in np.split(stride, psi.size // STRIDE_BLOCK_ROWS):
            for _ in range(record_every):
                _strang(block, block_work, decay_half, kinetic)
    norms = [_norm(psi)]
    for start, end in zip(marks, marks[1:]):
        if stride is not None and end - start == record_every:
            psi = psi @ stride
        else:
            for _ in range(start, end):
                _strang(psi, work, decay_half, kinetic)
        norms.append(_norm(psi))
    times = [initial.time, *(initial.time + mark * dt for mark in marks[1:])]
    return SurvivalCurve(t=np.asarray(times), survival=np.asarray(norms))


def loss_rate(state: RingState, absorber: Absorber) -> float:
    """Instantaneous norm-loss rate 2 * (1/N) sum W_j |psi_j|^2.

    For the delta absorber this equals 2 b |psi(x0)|^2.
    """
    w = absorber.weight(state.n_grid)
    return float(2.0 * np.mean(w * np.abs(state.psi) ** 2))


@dataclass
class ClassicalEnsemble:
    """Stationary angular ensemble: members never move in angle."""

    angles: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles must be a non-empty 1-d array")
        if np.any(angles < 0) or np.any(angles >= 1):
            raise ValueError("angles must lie in [0, 1)")
        self.angles = angles

    @property
    def members(self) -> int:
        return self.angles.size


def uniform_ensemble(members: int, seed: int) -> ClassicalEnsemble:
    """Uniformly distributed stationary members, seeded."""
    if members < 1:
        raise ValueError(f"members must be >= 1, got {members}")
    rng = np.random.default_rng(seed)
    return ClassicalEnsemble(angles=rng.uniform(0.0, 1.0, size=members))


def _check_region(region_width: float):
    """The one check of an opened section's width; config resolution calls it too."""
    if not (0.0 <= region_width <= 1.0):
        raise ValueError(f"region_width is a fraction of the circle in [0, 1], got {region_width}")


def classical_survival(
    ensemble: ClassicalEnsemble,
    region_center: float,
    region_width: float,
    times,
) -> SurvivalCurve:
    """Survival of the stationary ensemble with an opened angular section.

    Members inside the section die at t = 0; everyone else persists, so
    the curve is exactly constant at the surviving fraction.  The
    ensemble is not changed, so repeated calls give the same curve.
    ``region_center`` is taken mod 1, exactly.
    """
    _check_region(region_width)
    center = float(region_center) % 1.0
    if not np.isfinite(center):
        raise ValueError(f"region_center must be finite, got {region_center}")
    d = np.abs((ensemble.angles - center + 0.5) % 1.0 - 0.5)
    inside = d < region_width / 2.0
    fraction = float(ensemble.members - np.count_nonzero(inside)) / ensemble.members
    times = np.asarray(times, dtype=float)
    return SurvivalCurve(t=times, survival=np.full(times.size, fraction))


def spread_estimate(t_seconds: float, x_meters: float, mass_kg: float) -> float:
    """Free spreading t * (hbar / x) / m of a packet of mass m squeezed through width x.

    SI units, as the names say; the result is in meters.  All inputs
    must be strictly positive.
    """
    for name, value in (("t_seconds", t_seconds), ("x_meters", x_meters), ("mass_kg", mass_kg)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return t_seconds * (HBAR_SI / x_meters) / mass_kg
