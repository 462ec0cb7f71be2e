"""Water versus marbles: survival on a drained ring.

A wavepacket on a circle behaves like a filled trough of water: open a
small drain anywhere and the whole norm eventually flows out through it,
because amplitude keeps rushing in to replace what was absorbed.  A
stationary classical ensemble on the same circle behaves like marbles
sitting in the trough: the ones over the drain fall out at t = 0 and
everyone else survives forever.

This script runs both and prints when the quantum norm falls below 1%;
`coherentlab ring --config configs/ring.json` writes both survival curves.
"""

import numpy as np

from coherentlab import (
    Absorber,
    classical_survival,
    loss_rate,
    survival_curve,
    uniform_ensemble,
    uniform_state,
)

# The drain: a single-cell well of integrated strength b at x = 0.
absorber = Absorber(kind="delta", center=0.0, strength=0.5)
state = uniform_state(n_grid=256)

print(f"initial loss rate 2b|psi(0)|^2 = {loss_rate(state, absorber):.4f} "
      f"(b = {absorber.strength})")

curve = survival_curve(state, absorber, dt=2.5e-4, steps=32000, record_every=40)
crossing = curve.t[np.argmax(curve.survival < 0.01)]
print(f"quantum norm falls below 0.01 at t = {crossing:.2f}")

# Classical contrast: the drain covers 5% of the circle.
ensemble = uniform_ensemble(members=100000, seed=1)
classical = classical_survival(ensemble, region_center=0.0, region_width=0.05,
                               times=curve.t)
print(f"classical ensemble settles at {classical.survival[0]:.4f} and stays there")
