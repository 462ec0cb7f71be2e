import numpy as np
import pytest

from coherentlab import ModeBasis, single_mode


def test_basic_construction():
    basis = ModeBasis(omegas=[1.0, 2.0], weights=[1.0, 0.5])
    assert basis.n_modes == 2


def test_single_mode_helper():
    basis = single_mode(omega=3.0, weight=0.25)
    assert basis.n_modes == 1
    assert basis.omegas[0] == 3.0


@pytest.mark.parametrize(
    "omegas,weights",
    [
        ([1.0], [0.0]),          # weight not strictly positive
        ([1.0], [-1.0]),
        ([-1.0], [1.0]),         # negative frequency
        ([np.inf], [1.0]),
        ([1.0, 2.0], [1.0]),     # length mismatch
        ([], []),                # empty
    ],
)
def test_invalid_inputs_rejected(omegas, weights):
    with pytest.raises(ValueError):
        ModeBasis(omegas=omegas, weights=weights)

