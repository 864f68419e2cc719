"""Shared fixtures: reference grids, the standard state battery, and
independent quadrature oracles used to pin expected values."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (cat_state, gaussian_packet, harmonic_eigenstate,
                       make_grid, square_grid, two_slit_state)

SQRT_HALF = 1.0 / np.sqrt(2.0)

# the artifact differ, tools/compare_artifacts.py, loaded as a module
_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", _TOOL)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


@pytest.fixture(scope="session")
def grid256():
    """Wide 1-D grid with comfortable containment for every battery state."""
    return make_grid(256, -16.0, 16.0)


@pytest.fixture(scope="session")
def sq128():
    """Square-extent grid (dx == dp) required by tomography."""
    return square_grid(128)


def build_battery(grid):
    """(name, state) pairs: five Gaussians, HO levels 0-5, cat, two-slit."""
    battery = [
        ("gauss-min", gaussian_packet(grid, 0.0, 0.0, SQRT_HALF)),
        ("gauss-displaced", gaussian_packet(grid, 2.0, -1.0, 1.0)),
        ("gauss-moving", gaussian_packet(grid, 0.0, 2.0, 0.8)),
        ("gauss-narrow", gaussian_packet(grid, -3.0, 1.0, 0.6)),
        ("gauss-broad", gaussian_packet(grid, 1.5, 0.0, 1.2)),
    ]
    battery += [(f"ho-{k}", harmonic_eigenstate(grid, k, 1.0))
                for k in range(6)]
    battery.append(("cat", cat_state(grid, 3.0, SQRT_HALF)))
    battery.append(("two-slit", two_slit_state(grid, 6.0, 0.7)))
    return battery


@pytest.fixture(scope="session")
def battery256(grid256):
    return build_battery(grid256)


@pytest.fixture(scope="session")
def battery_sq128(sq128):
    return build_battery(sq128)


# ---------------------------------------------------------------------------
# Independent oracles: continuum formulas and brute-force quadrature, kept
# deliberately free of the package's spectral machinery.

def gaussian_psi(x, x0, p0, sigma, hbar=1.0):
    """Continuum normalized Gaussian wavepacket."""
    return ((2.0 * np.pi * sigma ** 2) ** -0.25
            * np.exp(-(x - x0) ** 2 / (4.0 * sigma ** 2)
                     + 1j * p0 * x / hbar))


def gaussian_wigner(x, p, x0, p0, sigma, hbar=1.0):
    """Closed-form Wigner function of a Gaussian wavepacket."""
    return (1.0 / (np.pi * hbar)
            * np.exp(-(x - x0) ** 2 / (2.0 * sigma ** 2)
                     - 2.0 * sigma ** 2 * (p - p0) ** 2 / hbar ** 2))


def wigner_quadrature(psi_of_x, x, p, hbar=1.0, half_span=20.0,
                      n_quad=40001):
    """Brute-force trapezoid evaluation of the defining transform,

        W(x, p) = (2 pi hbar)^-1 * integral dx'
                  conj(psi(x - x'/2)) psi(x + x'/2) exp(-i p x'/hbar),

    from a continuum wavefunction callable; used to pin expected values
    independently of the package's FFT pipeline.
    """
    xp = np.linspace(-half_span, half_span, n_quad)
    integrand = (np.conj(psi_of_x(x - 0.5 * xp)) * psi_of_x(x + 0.5 * xp)
                 * np.exp(-1j * p * xp / hbar))
    return float(np.real(np.trapezoid(integrand, xp))
                 / (2.0 * np.pi * hbar))


def fidelity(psi_a, psi_b):
    """|<a|b>| on the shared grid."""
    return float(abs(np.sum(np.conj(psi_a.samples) * psi_b.samples)
                     * psi_a.grid.dx))
