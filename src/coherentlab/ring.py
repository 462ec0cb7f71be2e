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

from dataclasses import dataclass, field

import numpy as np

#: Default multiplier on the conservative phase-resolution bound
#: 0.1 * m / (pi N)^2.  The conservative bound (safety = 1) resolves the
#: phase of the fastest representable grid mode and is far stricter than
#: needed for smooth states; the default targets sub-percent accuracy of
#: the loss law at desk scale (validated by the refinement test-suite).
DT_SAFETY_DEFAULT = 4000.0

#: CODATA value of the reduced Planck constant, J s.
HBAR_SI = 1.054571817e-34


def dt_bound(n_grid: int, mass: float, safety: float = DT_SAFETY_DEFAULT) -> float:
    """Largest accepted time step for a given grid and mass."""
    return 0.1 * mass / (np.pi * n_grid) ** 2 * safety


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

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_grid) / self.n_grid

    def norm(self) -> float:
        """Squared norm (1/N) sum |psi_j|^2."""
        return float(np.mean(np.abs(self.psi) ** 2))


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
    normalized to unit squared norm.  ``boost`` must be an integer to keep
    the state periodic.
    """
    x = np.arange(n_grid) / n_grid
    # kappa (cos - 1) may overflow to -inf, whose exp is the right limit 0
    with np.errstate(over="ignore"):
        env = np.exp(concentration * (np.cos(2 * np.pi * (x - center)) - 1.0))
    # check the grid before normalising: an empty grid has no mean
    state = RingState(psi=env * np.exp(2j * np.pi * int(boost) * x), mass=mass)
    norm = state.norm()
    if norm == 0.0:
        raise ValueError("the von Mises packet underflows to zero on this grid")
    return RingState(psi=state.psi / np.sqrt(norm), mass=mass)


def fourier_mode_state(n_grid: int = 256, mode: int = 1, mass: float = 1.0) -> RingState:
    """Single momentum eigenmode exp(2 pi i mode x)."""
    x = np.arange(n_grid) / n_grid
    return RingState(psi=np.exp(2j * np.pi * int(mode) * x), mass=mass)


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
        out = np.where(
            d < self.width / 2.0,
            1.0,
            np.exp(-((d - self.width / 2.0) ** 2) / (2.0 * self.sigma**2)),
        )
        return out

    def weight(self, n_grid: int) -> np.ndarray:
        """Decay rate profile W(x) = strength * profile."""
        return self.strength * self.profile(n_grid)


def _step_factors(state: RingState, absorber: Absorber, dt: float):
    w = absorber.weight(state.n_grid)
    # complex up front: the real x complex product casts to exactly these values
    decay_half = np.exp(-w * dt / 2.0).astype(complex)
    k = 2.0 * np.pi * np.fft.fftfreq(state.n_grid, d=1.0 / state.n_grid)
    kinetic = np.exp(-1j * k * k * dt / (2.0 * state.mass))
    return decay_half, kinetic


def _strang(psi: np.ndarray, work: np.ndarray, decay_half: np.ndarray, kinetic: np.ndarray):
    """One Strang split step in place on ``psi``: half decay, exact kinetic
    step, half decay.  ``work`` (same shape and dtype) is overwritten."""
    np.multiply(decay_half, psi, out=work)
    np.fft.fft(work, out=psi)
    np.multiply(kinetic, psi, out=psi)
    np.fft.ifft(psi, out=work)
    np.multiply(decay_half, work, out=psi)


def _check_dt(state: RingState, dt: float):
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    bound = dt_bound(state.n_grid, state.mass)
    if dt > bound:
        raise ValueError(
            f"dt = {dt:g} exceeds the accuracy bound {bound:g} "
            f"for N = {state.n_grid}, m = {state.mass:g}"
        )


def step(state: RingState, absorber: Absorber, dt: float) -> RingState:
    """Advance by one Strang split step; the norm never increases."""
    _check_dt(state, dt)
    psi = state.psi.copy()
    _strang(psi, np.empty_like(psi), *_step_factors(state, absorber, dt))
    return RingState(psi=psi, mass=state.mass, time=state.time + dt)


@dataclass(frozen=True)
class SurvivalCurve:
    """Sampled survival time series."""

    t: np.ndarray
    survival: np.ndarray


def survival_curve(
    initial: RingState,
    absorber: Absorber,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> SurvivalCurve:
    """Norm history N(t) over ``steps`` split steps (non-increasing)."""
    _check_dt(initial, dt)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    decay_half, kinetic = _step_factors(initial, absorber, dt)
    psi = initial.psi.copy()
    work = np.empty_like(psi)
    times = [initial.time]
    norms = [float(np.mean(np.abs(psi) ** 2))]
    for i in range(1, steps + 1):
        _strang(psi, work, decay_half, kinetic)
        if i % record_every == 0 or i == steps:
            times.append(initial.time + i * dt)
            norms.append(float(np.mean(np.abs(psi) ** 2)))
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
    alive: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles must be a non-empty 1-d array")
        if np.any(angles < 0) or np.any(angles >= 1):
            raise ValueError("angles must lie in [0, 1)")
        self.angles = angles
        if self.alive is None:
            self.alive = np.ones(angles.size, dtype=bool)

    @property
    def members(self) -> int:
        return self.angles.size


def uniform_ensemble(members: int, seed: int) -> ClassicalEnsemble:
    """Uniformly distributed stationary members, seeded."""
    rng = np.random.default_rng(seed)
    return ClassicalEnsemble(angles=rng.uniform(0.0, 1.0, size=members))


def classical_survival(
    ensemble: ClassicalEnsemble,
    region_center: float,
    region_width: float,
    times,
) -> SurvivalCurve:
    """Survival of the stationary ensemble with an opened angular section.

    Members inside the section die at t = 0; everyone else persists, so
    the curve is exactly constant at the surviving fraction.
    """
    if not (0.0 <= region_width <= 1.0):
        raise ValueError("region width is a fraction of the circle, in [0, 1]")
    d = np.abs((ensemble.angles - region_center + 0.5) % 1.0 - 0.5)
    inside = d < region_width / 2.0
    ensemble.alive = ensemble.alive & ~inside
    fraction = float(np.count_nonzero(ensemble.alive)) / ensemble.members
    times = np.asarray(times, dtype=float)
    return SurvivalCurve(t=times, survival=np.full(times.size, fraction))


def spread_estimate(t: float, x: float, m: float) -> float:
    """Free spreading t * (hbar / x) / m of a packet squeezed through width x.

    SI units: t in seconds, x in meters, m in kilograms; the result is in
    meters.  All inputs must be strictly positive.
    """
    for name, value in (("t", t), ("x", x), ("m", m)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return t * (HBAR_SI / x) / m
