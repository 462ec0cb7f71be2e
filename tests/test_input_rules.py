"""One case per input rule of the domain objects that no config or CLI test reaches in process.

Without a case, such a rule could be deleted and no test would notice.
Each case builds one bad input and expects the rule's own message, in a
ValueError unless the case names another exception type.
"""

import numpy as np
import pytest

from coherentlab import (
    ClassicalEnsemble,
    CoherentPoint,
    FourVector,
    ModeBasis,
    QuadratureGrid,
    RingState,
    SuperposedState,
    Trajectory,
    UrgencySchedule,
    current_j,
    evolve_free,
    run_sequence,
    single_mode,
)
from coherentlab.reporting import svg_line_plot

_ORIGIN = CoherentPoint(q=[0.0], p=[0.0])
_STILL = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

RULES = {
    "point_coordinate_not_finite": (
        lambda tmp: CoherentPoint(q=[np.nan], p=[0.0]),
        "coherent-point coordinates must be finite"),
    "state_counts_differ": (
        lambda tmp: SuperposedState([1.0, 1.0], [_ORIGIN], single_mode()),
        "coefficient and point counts differ"),
    "state_coefficient_not_finite": (
        lambda tmp: SuperposedState([np.inf], [_ORIGIN], single_mode()),
        "coefficients must be finite"),
    "evolution_dt_not_finite": (
        lambda tmp: evolve_free(SuperposedState.single(_ORIGIN, single_mode()), np.nan),
        "dt must be finite"),
    "grid_spacing_zero": (
        lambda tmp: QuadratureGrid(spacing=0.0),
        "grid spacing must be positive and finite"),
    "grid_margin_infinite": (
        lambda tmp: QuadratureGrid(margin=np.inf),
        "grid margin must be positive and finite"),
    "ring_psi_not_finite": (
        lambda tmp: RingState(psi=np.full(64, np.nan, complex)),
        "psi must be finite"),
    "classical_ensemble_empty": (
        lambda tmp: ClassicalEnsemble(angles=[]),
        "angles must be a non-empty 1-d array"),
    "basis_not_one_dimensional": (
        lambda tmp: ModeBasis(omegas=[[1.0]], weights=[[1.0]]),
        "omegas and weights must be 1-d sequences"),
    "four_vector_of_three_components": (
        lambda tmp: FourVector(np.ones(3)),
        "a four-vector has exactly 4 components"),
    "four_vector_not_finite": (
        lambda tmp: FourVector([1.0, 0.0, 0.0, np.inf]),
        "four-vector components must be finite"),
    "trajectory_positions_of_two_coordinates": (
        lambda tmp: Trajectory(1.0, [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]]),
        r"positions must have shape \(n_breakpoints, 3\)"),
    "trajectory_breakpoint_not_finite": (
        lambda tmp: Trajectory(1.0, [0.0, 1.0], [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
        "breakpoints must be finite"),
    "trajectory_charge_not_finite": (
        lambda tmp: Trajectory(np.inf, [0.0, 1.0], _STILL),
        "charge must be finite"),
    "current_of_no_trajectory": (
        lambda tmp: current_j([], [1.0, 1.0, 0.0, 0.0]),
        "need at least one trajectory"),
    "drift_hook_returns_no_state": (
        lambda tmp: run_sequence(SuperposedState.single(_ORIGIN, single_mode()),
                                 UrgencySchedule(1.0), lambda state, i: None, n_events=1),
        "drift hook must return a SuperposedState", TypeError),
    "plot_of_empty_series": (
        lambda tmp: svg_line_plot(tmp / "empty.svg", [([], [], "s")], "T", "x", "y"),
        "cannot plot empty series"),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_bad_input_raises_its_rule(tmp_path, name):
    build, message, *error = RULES[name]
    with pytest.raises(error[0] if error else ValueError, match=message):
        build(tmp_path)
