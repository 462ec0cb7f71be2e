"""Discretized field-mode basis and its quadrature bracket."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModeBasis:
    """A finite, ordered set of field modes.

    Each mode carries an angular frequency ``omega`` (natural units,
    hbar = 1) and a strictly positive quadrature weight.  The weights
    define the bilinear bracket used throughout: for per-mode values
    x_k and y_k,

        bracket(x, y) = sum_k weight_k * x_k * y_k

    (no conjugation; the bracket is symmetric in its arguments).
    """

    omegas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if omegas.ndim != 1 or weights.ndim != 1:
            raise ValueError("omegas and weights must be 1-d sequences")
        if omegas.shape != weights.shape:
            raise ValueError(
                f"omegas and weights differ in length ({omegas.size} vs {weights.size})"
            )
        if omegas.size == 0:
            raise ValueError("a mode basis needs at least one mode")
        if not np.all(np.isfinite(omegas)) or np.any(omegas < 0):
            raise ValueError("mode frequencies must be finite and non-negative")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("quadrature weights must be finite and strictly positive")
        omegas.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "weights", weights)

    @property
    def n_modes(self) -> int:
        return self.omegas.size

    def bracket(self, x, y):
        """Weighted bilinear bracket sum_k w_k x_k y_k (symmetric, no conjugation)."""
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[-1] != self.n_modes or y.shape[-1] != self.n_modes:
            raise ValueError("bracket arguments must supply one value per mode")
        return np.sum(self.weights * x * y, axis=-1)


def single_mode(omega: float = 1.0, weight: float = 1.0) -> ModeBasis:
    """Convenience one-mode basis."""
    return ModeBasis(omegas=np.array([omega]), weights=np.array([weight]))
