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


def test_bracket_bilinear_and_symmetric():
    rng = np.random.default_rng(5)
    basis = ModeBasis(omegas=[1.0, 2.0, 0.5], weights=[1.0, 0.3, 2.0])
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a, b = rng.normal(size=2)
        assert basis.bracket(x, y) == pytest.approx(basis.bracket(y, x))
        lhs = basis.bracket(a * x + b * z, y)
        rhs = a * basis.bracket(x, y) + b * basis.bracket(z, y)
        assert lhs == pytest.approx(rhs)


def test_bracket_weighted_sum():
    basis = ModeBasis(omegas=[0.0, 0.0], weights=[2.0, 3.0])
    assert basis.bracket([1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)


def test_bracket_rejects_wrong_length():
    basis = single_mode()
    with pytest.raises(ValueError):
        basis.bracket([1.0, 2.0], [1.0, 2.0])
