"""From a charged trajectory to a vetoed collapse, end to end.

A kinked charge trajectory sources a closed-form current J(k) at each
field mode; its transverse content displaces every mode into a coherent
state (q_k, p_k) and sets the vacuum persistence probability.  We then
superpose the sourced state with an undisplaced alternative, let the
selection engine pick the argmax bump, and check that the geometric
veto accepts it at the frequency the landscape value predicts.
"""

import numpy as np

from coherentlab import (
    FieldMode,
    SuperposedState,
    Trajectory,
    blocked_select,
    current_divergence,
    current_j,
    displacement_from_current,
    mode_basis_for,
    radiated_quanta,
    sample_phi,
    vacuum_persistence,
)
from coherentlab.states import CoherentPoint

# one unit charge making two sharp turns; three modes, both polarizations
trajectory = Trajectory.from_breakpoints(
    charge=1.0,
    breakpoints=[(0.0, 0.0, 0.0, 0.0), (1.0, 0.7, 0.0, 0.0),
                 (2.0, 0.7, 0.7, 0.0), (3.0, 0.0, 0.7, 0.5)],
)
modes = [
    FieldMode(k_vec=np.array([1.2, 0.0, 0.0]), weight=0.8, polarization=0),
    FieldMode(k_vec=np.array([0.0, 1.0, 0.5]), weight=1.0, polarization=1),
    FieldMode(k_vec=np.array([0.4, 0.4, 1.4]), weight=0.6, polarization=0),
]

# one stacked call evaluates every mode: row i of j is J(k_i)
k = np.array([mode.k4 for mode in modes])
j = current_j([trajectory], k)
div = current_divergence([trajectory], k)
for i in range(len(modes)):
    print(f"mode {i}: |k| = {k[i, 0]:.3f}  J0 = {j[i, 0]:+.3f}  "
          f"k.J = {div[i]:+.3f} (endpoint charge, reported not asserted)")

point = displacement_from_current([trajectory], modes)
print(f"\ndisplacement  q = {np.round(point.q, 3)}  p = {np.round(point.p, 3)}")
print(f"expected radiated quanta = {radiated_quanta([trajectory], modes):.4f}")
print(f"vacuum persistence       = {vacuum_persistence([trajectory], modes):.4f}")

# superpose the sourced state with a far-displaced alternative and select
basis = mode_basis_for(modes)
alternative = CoherentPoint(q=point.q + 14.0, p=point.p)
state = SuperposedState([np.sqrt(0.7), np.sqrt(0.3)], [point, alternative], basis)

rng = np.random.default_rng(5)
n = 20000
accepted = sum(blocked_select(state, 0.0, sample_phi(rng)).accepted for _ in range(n))
out = blocked_select(state, 0.0, sample_phi(rng))
print(f"\nargmax bump has v = {out.record.v_at_choice:.3f}; "
      f"veto accepted {accepted / n:.3f} of {n} trials (expect v)")
