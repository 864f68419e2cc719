"""Catalog potentials: degree, exact derivatives of every order against
closed forms, the force, the negative-order error and harmonic's overflow."""

import re

import numpy as np
import pytest

from wignerlab import (PotentialError, double_well, free_particle, harmonic,
                       polynomial, quartic)

LAM, A, B, OMEGA, MASS = 0.1, -1.0, 0.25, 1.5, 2.0
C0, C1, C2, C3 = 1.0, -2.0, 0.5, 0.25
K = MASS * OMEGA ** 2

# name -> (potential, degree, [V, V', V'', ...] up to the degree)
CATALOG = {
    "free": (free_particle(), 0, [lambda x: 0.0 * x]),
    "harmonic": (harmonic(OMEGA, MASS), 2, [
        lambda x: 0.5 * K * x ** 2, lambda x: K * x,
        lambda x: K + 0.0 * x]),
    "quartic": (quartic(LAM), 4, [
        lambda x: LAM * x ** 4, lambda x: 4 * LAM * x ** 3,
        lambda x: 12 * LAM * x ** 2, lambda x: 24 * LAM * x,
        lambda x: 24 * LAM + 0.0 * x]),
    "double_well": (double_well(A, B), 4, [
        lambda x: A * x ** 2 + B * x ** 4,
        lambda x: 2 * A * x + 4 * B * x ** 3,
        lambda x: 2 * A + 12 * B * x ** 2, lambda x: 24 * B * x,
        lambda x: 24 * B + 0.0 * x]),
    "cubic": (polynomial([C0, C1, C2, C3]), 3, [
        lambda x: C0 + C1 * x + C2 * x ** 2 + C3 * x ** 3,
        lambda x: C1 + 2 * C2 * x + 3 * C3 * x ** 2,
        lambda x: 2 * C2 + 6 * C3 * x, lambda x: 6 * C3 + 0.0 * x]),
    # trailing zero coefficients: the degree is 1, not 3
    "padded_line": (polynomial([C0, C1, 0.0, 0.0]), 1, [
        lambda x: C0 + C1 * x, lambda x: C1 + 0.0 * x]),
}

POINTS = {"scalar": 1.3, "array": np.array([[-2.0, -0.5, 0.0],
                                            [0.3, 1.0, 2.5]])}


@pytest.mark.parametrize("name", CATALOG)
def test_degree(name):
    potential, degree, _ = CATALOG[name]
    assert potential.degree == degree


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name", CATALOG)
def test_derivatives_match_closed_forms(name, point):
    """Orders 0 .. degree + 2: values and shapes, zeros above the degree."""
    potential, degree, forms = CATALOG[name]
    x = POINTS[point]
    for order in range(degree + 3):
        got = potential.derivative(x, order)
        assert np.shape(got) == np.shape(x), (name, order)
        if order > degree:
            assert np.all(got == 0.0), (name, order)
        else:
            np.testing.assert_allclose(got, forms[order](x), rtol=1e-13,
                                       atol=1e-13, err_msg=f"order {order}")
    np.testing.assert_array_equal(potential.derivative(x, 0),
                                  potential.value(x))
    np.testing.assert_array_equal(potential.derivative(x),
                                  potential.derivative(x, 1))


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name", CATALOG)
def test_force_is_minus_the_first_derivative(name, point):
    potential, _, _ = CATALOG[name]
    x = POINTS[point]
    np.testing.assert_array_equal(potential.force(x),
                                  -potential.derivative(x, 1))


@pytest.mark.parametrize("name", CATALOG)
def test_negative_order_is_rejected(name):
    with pytest.raises(ValueError, match="order must be >= 0"):
        CATALOG[name][0].derivative(1.0, -1)


@pytest.mark.parametrize("omega, mass", [
    (1e200, 1.0), (10 ** 400, 1.0), (1e10, 1e300)],
    ids=["float-square", "int-square", "product"])
def test_harmonic_overflow_names_omega(omega, mass):
    """omega ** 2 on a Python float raised OverflowError; a product
    beyond the float range raised the coefficient check's message."""
    with pytest.raises(PotentialError,
                       match=re.escape(f"omega={omega}, mass={mass}")):
        harmonic(omega, mass)
