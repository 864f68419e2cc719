import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import (NormalizationError, StateError, cat_state,
                       gaussian_packet, harmonic_eigenstate, harmonic,
                       make_grid, momentum_samples, norm,
                       propagate_schrodinger, superpose, two_slit_state)
from wignerlab.observables import expectation_operator, moments

from conftest import SQRT_HALF


def test_every_constructor_is_normalized(battery256):
    for name, psi in battery256:
        assert abs(norm(psi) - 1.0) < 1e-12, name


def test_minimum_uncertainty_gaussian(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, SQRT_HALF)
    report = moments(psi)
    assert report.uncertainty_product == pytest.approx(0.5, abs=1e-8)


def test_gaussian_moments_match_request(grid256):
    psi = gaussian_packet(grid256, 2.0, -1.0, 1.0)
    assert expectation_operator(psi, "x") == pytest.approx(2.0, abs=1e-10)
    assert expectation_operator(psi, "p") == pytest.approx(-1.0, abs=1e-10)


def test_gaussian_support_overflow():
    g = make_grid(256, -10.0, 10.0)
    with pytest.raises(StateError):
        gaussian_packet(g, 9.9, 0.0, 1.0)


def test_gaussian_rejects_nonpositive_sigma(grid256):
    with pytest.raises(StateError):
        gaussian_packet(grid256, 0.0, 0.0, -1.0)


@settings(max_examples=30, deadline=None)
@given(
    x0=st.floats(min_value=-3.0, max_value=3.0),
    p0=st.floats(min_value=-3.0, max_value=3.0),
    sigma=st.floats(min_value=0.3, max_value=1.5),
)
def test_gaussian_moments_property(x0, p0, sigma):
    g = make_grid(256, -16.0, 16.0)
    psi = gaussian_packet(g, x0, p0, sigma)
    report = moments(psi)
    assert report.mean_x == pytest.approx(x0, abs=1e-10)
    assert report.mean_p == pytest.approx(p0, abs=1e-10)
    assert np.sqrt(report.var_x) == pytest.approx(sigma, abs=1e-9)
    assert report.uncertainty_product == pytest.approx(0.5, abs=1e-8)


def test_harmonic_ground_peak_value(grid256):
    psi = harmonic_eigenstate(grid256, 0, 1.0)
    center = np.argmin(np.abs(grid256.x))
    assert grid256.x[center] == 0.0
    assert abs(psi.samples[center]) == pytest.approx(np.pi ** -0.25,
                                                     abs=1e-12)


def test_harmonic_level1_odd_parity(grid256):
    psi = harmonic_eigenstate(grid256, 1, 1.0)
    center = np.argmin(np.abs(grid256.x))
    assert abs(psi.samples[center]) < 1e-14


def test_harmonic_eigenstates_orthonormal(grid256):
    states = [harmonic_eigenstate(grid256, k, 1.0) for k in range(6)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            overlap = np.sum(np.conj(a.samples) * b.samples) * grid256.dx
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-12


def test_harmonic_ground_is_stationary(grid256):
    psi = harmonic_eigenstate(grid256, 0, 1.0)
    period = 2.0 * np.pi
    out = propagate_schrodinger(psi, harmonic(1.0), period / 4000, 4000)
    # equal to the initial samples up to one unit-modulus constant
    phase = out.samples[128] / psi.samples[128]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(out.samples - phase * psi.samples)) < 1e-6


def test_harmonic_level_cap(grid256):
    with pytest.raises(StateError):
        harmonic_eigenstate(grid256, 21, 1.0)


def test_harmonic_resolution_gate():
    g = make_grid(16, -16.0, 16.0)  # dx = 2: characteristic length unresolved
    with pytest.raises(StateError):
        harmonic_eigenstate(g, 0, 1.0)


def test_superpose_cancellation(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, 1.0)
    with pytest.raises(NormalizationError):
        superpose([psi, psi], [1.0, -1.0])


def test_superpose_all_zero_coefficients(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, 1.0)
    with pytest.raises(StateError):
        superpose([psi, psi], [0.0, 0.0])


@pytest.mark.parametrize("coefficient", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_superpose_rejects_a_non_finite_coefficient(grid256, coefficient):
    """A NaN or infinite coefficient used to give an all-NaN state."""
    left = gaussian_packet(grid256, -3.0, 0.0, 1.0)
    right = gaussian_packet(grid256, 3.0, 0.0, 1.0)
    with np.errstate(invalid="ignore"), pytest.raises(NormalizationError):
        superpose([left, right], [1.0, coefficient])


def test_superpose_grid_mismatch(grid256):
    other = make_grid(128, -16.0, 16.0)
    with pytest.raises(StateError):
        superpose([gaussian_packet(grid256, 0.0, 0.0, 1.0),
                   gaussian_packet(other, 0.0, 0.0, 1.0)], [1.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(min_value=-2.0, max_value=2.0),
    im=st.floats(min_value=-2.0, max_value=2.0),
)
def test_superpose_output_normalized(re, im):
    g = make_grid(256, -16.0, 16.0)
    coeff = complex(re, im)
    if abs(coeff) < 0.1:
        coeff += 0.5
    states = [harmonic_eigenstate(g, 0, 1.0), harmonic_eigenstate(g, 1, 1.0)]
    state, pre_norm = superpose(states, [1.0, coeff])
    assert abs(norm(state) - 1.0) < 1e-12
    # orthonormal components: pre-normalization norm is sqrt(1 + |c|^2)
    assert pre_norm == pytest.approx(np.sqrt(1.0 + abs(coeff) ** 2),
                                     abs=1e-10)


def test_cat_position_density_symmetric(grid256):
    psi = cat_state(grid256, 3.0, SQRT_HALF)
    # x_k for k >= 1 is symmetric about x = 0 (k = 0 is the unpaired edge)
    density = np.abs(psi.samples[1:]) ** 2
    assert np.max(np.abs(density - density[::-1])) < 1e-12


def test_cat_momentum_fringe_spacing(grid256):
    """Interference of lobes at +/-3 modulates the momentum density with
    period 2 pi hbar / 6 = pi / 3."""
    psi = cat_state(grid256, 3.0, SQRT_HALF)
    density = np.abs(momentum_samples(psi)) ** 2
    peaks = [j for j in range(1, grid256.n - 1)
             if density[j] > density[j - 1] and density[j] > density[j + 1]
             and density[j] > 1e-4]
    spacings = np.diff(grid256.p[peaks])
    assert np.all(np.abs(spacings - np.pi / 3.0) <= grid256.dp)


def test_momentum_samples_parseval(battery256):
    for name, psi in battery256:
        phi = momentum_samples(psi)
        total = np.sum(np.abs(phi) ** 2) * psi.grid.dp
        assert total == pytest.approx(1.0, abs=1e-12), name


def test_momentum_samples_gaussian_analytic(grid256):
    """Momentum density of a Gaussian: variance (hbar/2sigma)^2, mean p0."""
    psi = gaussian_packet(grid256, 0.0, 2.0, 0.8)
    phi = np.abs(momentum_samples(psi)) ** 2
    p = grid256.p
    sigma_p = 1.0 / (2.0 * 0.8)
    analytic = np.exp(-(p - 2.0) ** 2 / (2.0 * sigma_p ** 2)) \
        / np.sqrt(2.0 * np.pi * sigma_p ** 2)
    assert np.max(np.abs(phi - analytic)) < 1e-10


def test_two_slit_is_displaced_pair(grid256):
    a = two_slit_state(grid256, 6.0, 0.7)
    b = cat_state(grid256, 3.0, 0.7)
    assert np.max(np.abs(a.samples - b.samples)) == 0.0
