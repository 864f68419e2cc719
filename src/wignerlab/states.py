"""Reference quantum states on a PhaseGrid.

Gaussian wavepackets, harmonic-oscillator eigenstates (stable Hermite
recurrence), and normalized superpositions used to build two-slit and
cat states.
"""

from dataclasses import dataclass
import math
from typing import Sequence

import numpy as np

from .errors import NormalizationError, StateError, is_integer
from .grid import PhaseGrid

__all__ = [
    "Wavefunction", "norm", "normalized", "momentum_samples",
    "gaussian_packet", "harmonic_eigenstate", "superpose",
    "cat_state", "two_slit_state",
]

NORM_TOL = 1e-9    # allowed |1 - integral |psi|^2 dx| of a normalized state
CANCEL_TOL = 1e-7  # norm below which a state cannot be normalized


@dataclass(frozen=True)
class Wavefunction:
    """Complex position-space samples on a grid, with a time stamp."""

    grid: PhaseGrid
    samples: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.samples.shape != (self.grid.n,):
            raise StateError(
                f"samples length {self.samples.shape} != grid n {self.grid.n}")


def norm(psi: Wavefunction) -> float:
    """sqrt(integral |psi|^2 dx)."""
    return float(np.sqrt(np.sum(np.abs(psi.samples) ** 2) * psi.grid.dx))


def normalized(psi: Wavefunction) -> Wavefunction:
    nrm = norm(psi)
    if not CANCEL_TOL <= nrm < math.inf:   # NaN too
        raise NormalizationError(f"state norm {nrm:.3e} cannot be normalized")
    return Wavefunction(psi.grid, psi.samples / nrm, psi.t)


def check_normalized(psi: Wavefunction) -> None:
    nrm2 = np.sum(np.abs(psi.samples) ** 2) * psi.grid.dx
    if not abs(nrm2 - 1.0) <= NORM_TOL:   # NaN too
        raise NormalizationError(f"state not normalized: |psi|^2 = {nrm2!r}")


def momentum_samples(psi: Wavefunction) -> np.ndarray:
    """Momentum-space wavefunction Phi(p) on the grid's monotonic p axis.

    Phi(p) = (2*pi*hbar)^(-1/2) * integral psi(x) exp(-i p x / hbar) dx,
    discretized so that sum |Phi|^2 dp == sum |psi|^2 dx exactly.
    """
    g = psi.grid
    spec = np.fft.fftshift(np.fft.fft(psi.samples))
    phase = np.exp(-1j * g.p * g.x_min / g.hbar)
    return g.dx / np.sqrt(2.0 * np.pi * g.hbar) * phase * spec


def gaussian_packet(grid: PhaseGrid, x0: float, p0: float,
                    sigma: float) -> Wavefunction:
    """Minimum-uncertainty Gaussian: <x>=x0, <p>=p0, dx=sigma, dp=hbar/(2 sigma).

    psi(x) proportional to exp(-(x-x0)^2/(4 sigma^2) + i p0 x / hbar).
    Raises StateError when the +/-5 sigma support leaves the domain, or
    when the momentum band |p0| + hbar/(2 sigma) exceeds the grid's
    Nyquist momentum pi hbar/dx.
    """
    if not (0 < sigma < math.inf and sigma * sigma > 0):   # NaN too
        raise StateError(f"sigma must be positive and finite, with a "
                         f"square above zero, got {sigma}")
    for name, value in (("x0", x0), ("p0", p0)):
        if not math.isfinite(value):
            raise StateError(f"{name} must be finite, got {value}")
    band = abs(p0) + grid.hbar / (2.0 * sigma)
    nyquist = np.pi * grid.hbar / grid.dx
    if band > nyquist:
        raise StateError(
            f"{'p0' if abs(p0) > nyquist else 'sigma'}: momentum band "
            f"|p0| + hbar/(2 sigma) = {band:.3g} exceeds the grid's "
            f"Nyquist momentum pi hbar/dx = {nyquist:.3g}")
    if x0 - 5 * sigma < grid.x_min or x0 + 5 * sigma > grid.x_max:
        raise StateError(
            f"packet support [{x0 - 5 * sigma:.3g}, {x0 + 5 * sigma:.3g}] "
            f"leaves the domain [{grid.x_min:.3g}, {grid.x_max:.3g}]")
    x = grid.x
    psi = np.exp(-(x - x0) ** 2 / (4.0 * sigma ** 2)
                 + 1j * p0 * x / grid.hbar)
    return normalized(Wavefunction(grid, psi.astype(complex)))


def harmonic_eigenstate(grid: PhaseGrid, level: int,
                        omega: float) -> Wavefunction:
    """Eigenstate of H = p^2/2m + m omega^2 x^2 / 2 at the given level.

    Uses the three-term recurrence on normalized Hermite functions,
    which is stable up to level 20 without overflow.
    """
    if not (is_integer(level) and 0 <= level <= 20):
        raise StateError(f"level must be an integer in [0, 20], got {level}")
    if not 0 < omega < math.inf:   # NaN too
        raise StateError(f"omega must be positive and finite, got {omega}")
    ell = np.sqrt(grid.hbar / (grid.mass * omega))  # characteristic length
    if ell < 4.0 * grid.dx:
        raise StateError(
            f"characteristic length {ell:.3g} unresolved (dx = {grid.dx:.3g})")
    # classical turning point plus a few widths must fit in the domain
    extent = np.sqrt(2 * level + 1) * ell + 5.0 * ell
    if -extent < grid.x_min or extent > grid.x_max:
        raise StateError(
            f"level {level} extends to +/-{extent:.3g}, outside the domain")
    xi = grid.x / ell
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * xi ** 2) / np.sqrt(ell)
    if level == 0:
        psi = h_prev
    else:
        h = np.sqrt(2.0) * xi * h_prev
        for k in range(1, level):
            h, h_prev = (np.sqrt(2.0 / (k + 1)) * xi * h
                         - np.sqrt(k / (k + 1.0)) * h_prev), h
        psi = h
    return normalized(Wavefunction(grid, psi.astype(complex)))


def superpose(states: Sequence[Wavefunction],
              coefficients: Sequence[complex]) -> tuple[Wavefunction, float]:
    """Normalized linear combination; returns (state, pre-normalization norm).

    The pre-normalization norm is reported so callers can detect
    near-cancellation; a combination that `normalized` cannot scale to
    unit norm (it cancels, or it is not finite) raises NormalizationError.
    """
    if len(states) != len(coefficients) or not states:
        raise StateError("states and coefficients must be non-empty and match")
    g = states[0].grid
    t = states[0].t
    for s in states[1:]:
        if s.grid != g:
            raise StateError("superpose requires all states on one grid")
        if s.t != t:
            raise StateError("superpose requires matching time stamps")
    coeffs = np.asarray(coefficients, dtype=complex)
    if not np.any(coeffs):
        raise StateError("all coefficients are zero")
    total = np.zeros(g.n, dtype=complex)
    for c, s in zip(coeffs, states):
        total += c * s.samples
    combined = Wavefunction(g, total, t)
    return normalized(combined), norm(combined)


def cat_state(grid: PhaseGrid, x0: float, sigma: float,
              p0: float = 0.0) -> Wavefunction:
    """Even superposition of Gaussians displaced to +/- x0."""
    plus = gaussian_packet(grid, +x0, p0, sigma)
    minus = gaussian_packet(grid, -x0, -p0, sigma)
    state, _ = superpose([plus, minus], [1.0, 1.0])
    return state


def two_slit_state(grid: PhaseGrid, separation: float,
                   slit_width: float) -> Wavefunction:
    """Two Gaussian slit transmissions a distance `separation` apart.

    Slits are modeled as Gaussian apertures of the given width; the
    emerging state is the even superposition of the two projections.
    """
    half = 0.5 * separation
    return cat_state(grid, half, slit_width)
