"""coherentlab: a numerical laboratory for coherent-state field dynamics.

The package covers four connected model systems:

* a wavepacket on a ring drained by a localized non-Hermitian absorber,
  with a stationary classical ensemble as the contrast case (``ring``);
* coherent-state algebra over discretized field modes: overlaps,
  amplitudes, the phase-space landscape, free rotation, and the
  resolution-of-identity quadrature (``modes``, ``states``);
* a causal selection engine that schedules events from an urgency
  energy, locates landscape maxima by multi-start ascent, and
  actualizes the argmax by projection, optionally vetoed by a
  sphere-geometry blocking rule that reproduces cos^2(theta)
  transition statistics (``selection``, ``borngeo``);
* classical-current sources: closed-form currents of piecewise-linear
  charged trajectories, vacuum persistence, and the coherent
  displacement they induce (``currents``).

Everything is deterministic for a fixed seed, including sharded Monte
Carlo runs at any worker count.
"""

__version__ = "0.1.0"

from .borngeo import (
    BlockingVector,
    TransitionGeometry,
    is_blocked,
    sample_phi,
    sweep_transition_prob,
    theta_from_norms,
)
from .currents import (
    FieldMode,
    FourVector,
    Trajectory,
    current_divergence,
    current_j,
    displacement_from_current,
    lorentz_dot,
    mode_basis_for,
    polarization_vectors,
    radiated_quanta,
    trajectories_from_csv,
    vacuum_persistence,
)
from .modes import ModeBasis, single_mode
from .ring import (
    Absorber,
    ClassicalEnsemble,
    RingState,
    classical_survival,
    dt_bound,
    fourier_mode_state,
    loss_rate,
    spread_estimate,
    step,
    survival_curve,
    uniform_ensemble,
    uniform_state,
    von_mises_state,
)
from .selection import (
    UrgencySchedule,
    blocked_select,
    find_local_maxima,
    offset_spawn,
    run_sequence,
    seeded_spawn,
    select_and_collapse,
)
from .states import (
    CoherentPoint,
    QuadratureGrid,
    SuperposedState,
    SupportTruncationError,
    amplitude,
    evolve_free,
    identity_check,
    overlap,
    v_value,
)

__all__ = [
    "__version__",
    "Absorber",
    "BlockingVector",
    "ClassicalEnsemble",
    "CoherentPoint",
    "FieldMode",
    "FourVector",
    "ModeBasis",
    "QuadratureGrid",
    "RingState",
    "SuperposedState",
    "SupportTruncationError",
    "Trajectory",
    "TransitionGeometry",
    "UrgencySchedule",
    "amplitude",
    "blocked_select",
    "classical_survival",
    "current_divergence",
    "current_j",
    "displacement_from_current",
    "dt_bound",
    "evolve_free",
    "find_local_maxima",
    "fourier_mode_state",
    "identity_check",
    "is_blocked",
    "lorentz_dot",
    "loss_rate",
    "mode_basis_for",
    "offset_spawn",
    "overlap",
    "polarization_vectors",
    "radiated_quanta",
    "run_sequence",
    "sample_phi",
    "seeded_spawn",
    "select_and_collapse",
    "single_mode",
    "spread_estimate",
    "step",
    "survival_curve",
    "sweep_transition_prob",
    "theta_from_norms",
    "trajectories_from_csv",
    "uniform_ensemble",
    "uniform_state",
    "v_value",
    "vacuum_persistence",
    "von_mises_state",
]
