"""Analytic potential descriptors with exact derivatives of any order.

All catalog potentials are polynomials in x, so closed-form derivatives
exist for every order and vanish beyond the polynomial degree. Only
time-independent potentials are supported.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PotentialError

__all__ = ["Potential", "polynomial", "harmonic", "quartic", "double_well",
           "free_particle"]


@dataclass(frozen=True)
class Potential:
    """Polynomial potential V(x) = sum_k coefficients[k] * x**k."""

    coefficients: tuple
    tag: str = "polynomial"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coefficients", coeffs)
        if not np.all(np.isfinite(coeffs)):
            raise PotentialError("potential coefficients must be finite")

    @property
    def degree(self) -> int:
        nz = [k for k, c in enumerate(self.coefficients) if c != 0.0]
        return max(nz) if nz else 0

    def value(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)

    def derivative(self, x, order: int = 1):
        """Exact derivative of the requested order, evaluated at x."""
        if not (isinstance(order, (int, np.integer)) and order >= 0):
            raise PotentialError(
                f"derivative order must be >= 0 and an integer, got {order}")
        der = np.polynomial.polynomial.polyder(self.coefficients, m=order)
        return np.polynomial.polynomial.polyval(x, der)

    def force(self, x):
        """F(x) = -dV/dx."""
        return -self.derivative(x, 1)


def polynomial(coefficients) -> Potential:
    return Potential(tuple(coefficients), tag="polynomial")


def free_particle() -> Potential:
    return Potential((0.0,), tag="free")


def harmonic(omega: float, mass: float = 1.0) -> Potential:
    """V(x) = m omega^2 x^2 / 2."""
    if not (omega > 0 and mass > 0):   # NaN too
        raise PotentialError("harmonic potential needs omega > 0 and "
                             f"mass > 0, got omega={omega}, mass={mass}")
    try:
        return Potential((0.0, 0.0, 0.5 * mass * omega ** 2), tag="harmonic")
    except (OverflowError, PotentialError):
        raise PotentialError(
            "harmonic potential m omega^2 / 2 is out of range, got "
            f"omega={omega}, mass={mass}") from None


def quartic(lam: float) -> Potential:
    """V(x) = lam * x^4."""
    return Potential((0.0, 0.0, 0.0, 0.0, float(lam)), tag="quartic")


def double_well(a: float, b: float) -> Potential:
    """V(x) = a x^2 + b x^4 with a < 0 < b."""
    if not (a < 0 < b):
        raise PotentialError(f"double well needs a < 0 < b, got a={a}, b={b}")
    return Potential((0.0, 0.0, float(a), 0.0, float(b)), tag="double_well")
