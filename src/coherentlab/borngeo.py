"""Sphere geometry of transition blocking.

A candidate transition Psi -> P Psi defines an angle theta through
cos^2(theta) = |P Psi|^2 / |Psi|^2.  Representatives of the projected
state trace a 2-sphere of radius 1/2 as the path parameter runs from 0
to pi/2; a blocking vector Phi on that sphere, drawn from the uniform
surface measure, vetoes the transition exactly when its polar angle
alpha satisfies alpha/2 <= theta.  Averaging the veto over the uniform
measure reproduces acceptance probability cos^2(theta).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

#: Number of independent substreams a Monte Carlo estimate is split into.
#: Fixed (not tied to worker count) so results never depend on parallelism.
DEFAULT_SHARDS = 16


@dataclass(frozen=True)
class TransitionGeometry:
    """Transition angle theta in [0, pi/2]."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi / 2 + 1e-15):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")

    @property
    def cos2(self) -> float:
        """Acceptance probability cos^2(theta)."""
        return float(np.cos(self.theta) ** 2)


@dataclass(frozen=True)
class BlockingVector:
    """Point on the half-radius sphere: polar angle alpha, azimuth chi."""

    alpha: float
    chi: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= np.pi):
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not (0.0 <= self.chi < 2 * np.pi):
            raise ValueError(f"chi must lie in [0, 2 pi), got {self.chi}")


def theta_from_norms(norm_sq_psi: float, norm_sq_p_psi: float) -> TransitionGeometry:
    """Transition geometry from |Psi|^2 and |P Psi|^2.

    theta = arccos(sqrt(ratio)) with the ratio clamped to [0, 1]; ratios
    above 1 beyond a 1e-12 relative tolerance are rejected.
    """
    norm_sq_psi = float(norm_sq_psi)
    norm_sq_p_psi = float(norm_sq_p_psi)
    if not (norm_sq_psi > 0 and np.isfinite(norm_sq_psi)):
        raise ValueError(f"|Psi|^2 must be positive, got {norm_sq_psi}")
    if norm_sq_p_psi < 0 or not np.isfinite(norm_sq_p_psi):
        raise ValueError(f"|P Psi|^2 must be non-negative, got {norm_sq_p_psi}")
    ratio = norm_sq_p_psi / norm_sq_psi
    if ratio > 1.0 + 1e-12:
        raise ValueError(f"|P Psi|^2 exceeds |Psi|^2 (ratio {ratio})")
    ratio = min(max(ratio, 0.0), 1.0)
    return TransitionGeometry(theta=float(np.arccos(np.sqrt(ratio))))


def sample_phi(rng: np.random.Generator) -> BlockingVector:
    """Draw one blocking vector from the uniform sphere-surface measure.

    cos(alpha) is uniform on [-1, 1] and chi uniform on [0, 2 pi); equal
    seeds produce identical sequences.
    """
    cos_alpha = rng.uniform(-1.0, 1.0)
    chi = rng.uniform(0.0, 2.0 * np.pi)
    return BlockingVector(alpha=float(np.arccos(cos_alpha)), chi=float(chi))


def is_blocked(geom: TransitionGeometry, phi: BlockingVector) -> bool:
    """Whether phi vetoes the transition: alpha/2 <= theta.

    theta = 0 never blocks (the identity transition is no change at all),
    which also keeps the boundary sample alpha = 0 consistent with the
    acceptance law cos^2(0) = 1.
    """
    if geom.theta <= 0.0:
        return False
    return bool(phi.alpha / 2.0 <= geom.theta)


def _shard_sizes(n: int, shards: int) -> list[int]:
    base, extra = divmod(n, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _accepted_count(theta: float, n: int, seed_key: tuple) -> int:
    if n == 0:
        return 0
    rng = np.random.default_rng(list(seed_key))
    cos_alpha = rng.uniform(-1.0, 1.0, size=n)
    if theta <= 0.0:
        return n
    # blocked iff alpha <= 2 theta iff cos(alpha) >= cos(2 theta)
    return int(np.count_nonzero(cos_alpha < np.cos(2.0 * theta)))


def _accepted_counts(cells: list[tuple[float, tuple]], n: int, shards: int, workers: int) -> list[int]:
    """Accepted counts of n samples for each (theta, seed prefix) cell.

    Each cell is split into ``shards`` substreams keyed by (*prefix,
    shard); all shards of all cells share one thread pool, and the counts
    never depend on ``workers``.
    """
    sizes = _shard_sizes(n, shards)
    jobs = [(theta, m, (*prefix, i)) for theta, prefix in cells for i, m in enumerate(sizes)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda job: _accepted_count(*job), jobs))
    else:
        counts = [_accepted_count(*job) for job in jobs]
    return [sum(counts[c * shards:(c + 1) * shards]) for c in range(len(cells))]


def sweep_transition_prob(
    thetas,
    n: int,
    seed: int,
    shards: int = DEFAULT_SHARDS,
    workers: int = 1,
) -> list[dict]:
    """Acceptance sweep over transition angles; one result row per theta.

    Each cell draws n blocking vectors from its own substream family
    keyed by (seed, cell, shard), so the sweep is reproducible cell by
    cell.  The shard structure is independent of ``workers``, so the
    counts are identical for any worker count.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    geoms = [TransitionGeometry(theta=float(theta)) for theta in thetas]
    cells = [(geom.theta, (seed, cell)) for cell, geom in enumerate(geoms)]
    rows = []
    for geom, accepted in zip(geoms, _accepted_counts(cells, n, shards, workers)):
        p_hat = accepted / n
        stderr = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n))
        z = (p_hat - geom.cos2) / stderr if stderr > 0 else 0.0
        rows.append(
            {
                "theta": geom.theta,
                "n": n,
                "p_hat": p_hat,
                "stderr": stderr,
                "cos2theta": geom.cos2,
                "z_score": float(z),
            }
        )
    return rows
