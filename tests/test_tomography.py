import numpy as np
import pytest

from wignerlab import (TomographyError, Tomogram, cat_state, forward_tomogram,
                       gaussian_packet, harmonic_eigenstate, inverse_tomogram,
                       make_grid, marginal_momentum, marginal_position,
                       square_grid, wigner_transform)
from wignerlab.observables import expectation_operator
from wignerlab.tomography import _ramp_filter

from conftest import SQRT_HALF

N_ANGLES = 180


def full_fan(n=N_ANGLES):
    return np.linspace(0.0, np.pi, n, endpoint=False)


def rel_l2(a, b, g):
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b ** 2)))


def dense_inverse(tomo, target_grid, pad_factor=4):
    """Filtered back-projection by direct Fourier synthesis: every
    filtered projection summed exactly at X = x mu + p nu on the lattice
    (two n x n_pad exponential tables and a matrix product a frame)."""
    x_axis = tomo.x_axis
    d_x = tomo.dx
    n_pad = pad_factor * len(x_axis)
    dk = 2.0 * np.pi / (n_pad * d_x)
    k = dk * (np.arange(n_pad) - n_pad // 2)
    filt = _ramp_filter(k, dk, np.pi / d_x)
    dtheta = np.pi / len(tomo.frames)
    signs = np.where(np.arange(n_pad) % 2 == 0, 1.0, -1.0)
    gx, gp = target_grid.x, target_grid.p
    out = np.zeros((target_grid.n, target_grid.n))
    for (mu, nu), density in zip(tomo.frames, tomo.values):
        padded = np.zeros(n_pad)
        padded[:len(x_axis)] = density
        spec = d_x * np.exp(1j * k * x_axis[0]) \
            * n_pad * np.fft.ifft(padded * signs)
        coeff = filt * spec * (dk * dtheta / (4.0 * np.pi ** 2))
        ex = np.exp(-1j * np.outer(gx * mu, k))
        ep = np.exp(-1j * np.outer(k, gp * nu))
        out += np.real((ex * coeff[None, :]) @ ep)
    ring = np.concatenate([out[0, :], out[-1, :], out[1:-1, 0],
                           out[1:-1, -1]])
    out -= float(ring.mean())
    return out / float(np.sum(out) * target_grid.dx * target_grid.dp)


@pytest.fixture(scope="module")
def oracle_tomograms(sq128):
    """Tomograms of the cat and ground states over 90 angles."""
    states = {"cat": cat_state(sq128, 3.0, SQRT_HALF),
              "ground": harmonic_eigenstate(sq128, 0, 1.0)}
    return {name: forward_tomogram(wigner_transform(psi), full_fan(90))
            for name, psi in states.items()}


@pytest.mark.parametrize("name", ["cat", "ground"])
@pytest.mark.parametrize("pad_factor", [2, 8])
def test_gridding_matches_dense_synthesis(oracle_tomograms, sq128, name,
                                          pad_factor):
    tomo = oracle_tomograms[name]
    rec = inverse_tomogram(tomo, sq128, pad_factor)
    expected = dense_inverse(tomo, sq128, pad_factor)
    assert np.max(np.abs(rec.values - expected)) <= 1e-10


@pytest.mark.parametrize("n", [96, 97])
def test_gridding_matches_dense_synthesis_on_other_grid(oracle_tomograms, n):
    """A coarser target puts samples past the fine grid's Nyquist band,
    which the periodic spreading must still sum exactly; an odd n puts
    the lattice half a step off the origin."""
    target = square_grid(n)
    tomo = oracle_tomograms["cat"]
    rec = inverse_tomogram(tomo, target)
    assert np.max(np.abs(rec.values - dense_inverse(tomo, target))) <= 1e-10


def test_projections_match_closed_form_gaussian_marginals(sq128):
    """X = mu x + nu p of a Gaussian packet is normal with mean
    mu x0 + nu p0 and variance mu^2 sigma^2 + nu^2 (hbar / 2 sigma)^2."""
    angles = full_fan(16)
    for x0, p0, sigma in ((1.0, -0.5, 1.0), (-2.0, 1.5, 0.8)):
        w = wigner_transform(gaussian_packet(sq128, x0, p0, sigma))
        tomo = forward_tomogram(w, angles)
        X = tomo.x_axis
        for (mu, nu), density in zip(tomo.frames, tomo.values):
            var = (mu * sigma) ** 2 + (nu * sq128.hbar / (2.0 * sigma)) ** 2
            expected = (np.exp(-(X - mu * x0 - nu * p0) ** 2 / (2.0 * var))
                        / np.sqrt(2.0 * np.pi * var))
            assert np.max(np.abs(density - expected)) <= 1e-10, (x0, mu)


def test_zero_angle_frame_is_position_marginal(battery_sq128):
    for name, psi in battery_sq128:
        w = wigner_transform(psi)
        tomo = forward_tomogram(w, [0.0])
        assert np.max(np.abs(tomo.values[0] - marginal_position(w))) \
            < 1e-7, name


def test_quarter_turn_frame_is_momentum_marginal(battery_sq128):
    for name, psi in battery_sq128:
        w = wigner_transform(psi)
        tomo = forward_tomogram(w, [np.pi / 2])
        assert np.max(np.abs(tomo.values[0] - marginal_momentum(w))) \
            < 1e-7, name


def test_ground_state_projections_rotationally_invariant(sq128):
    w = wigner_transform(harmonic_eigenstate(sq128, 0, 1.0))
    tomo = forward_tomogram(w, [0.0, np.pi / 6, np.pi / 3])
    for row in tomo.values[1:]:
        assert np.max(np.abs(row - tomo.values[0])) < 1e-6


def test_frame_densities_normalized(battery_sq128):
    angles = [0.0, 0.4, np.pi / 2, 2.0]
    for name, psi in battery_sq128:
        tomo = forward_tomogram(wigner_transform(psi), angles)
        sums = tomo.values.sum(axis=1) * tomo.dx
        assert np.max(np.abs(sums - 1.0)) < 1e-6, name


def test_frame_means_combine_the_moments(battery_sq128):
    """The mean of each quadrature density is cos(t) <x> + sin(t) <p>."""
    angles = full_fan(8)
    for name, psi in battery_sq128:
        mean_x = expectation_operator(psi, "x")
        mean_p = expectation_operator(psi, "p")
        tomo = forward_tomogram(wigner_transform(psi), angles)
        for (mu, nu), density in zip(tomo.frames, tomo.values):
            mean = float(np.sum(tomo.x_axis * density) * tomo.dx)
            assert mean == pytest.approx(mu * mean_x + nu * mean_p,
                                         abs=1e-7), (name, mu, nu)


def test_projections_stay_nonnegative_for_pure_states(battery_sq128):
    for name, psi in battery_sq128:
        tomo = forward_tomogram(wigner_transform(psi), full_fan(16))
        assert tomo.min_before_clip >= -1e-7, name
        assert tomo.values.min() >= 0.0, name


def test_inverse_recovers_ground_state(sq128):
    w = wigner_transform(harmonic_eigenstate(sq128, 0, 1.0))
    rec = inverse_tomogram(forward_tomogram(w, full_fan()), sq128)
    assert rel_l2(rec.values, w.values, sq128) < 1e-3


def test_inverse_recovers_cat_negativity(sq128):
    w = wigner_transform(cat_state(sq128, 3.0, SQRT_HALF))
    rec = inverse_tomogram(forward_tomogram(w, full_fan()), sq128)
    assert rel_l2(rec.values, w.values, sq128) < 1e-3
    assert rec.values.min() < -0.04  # interference fringes survive


def test_roundtrip_is_idempotent_on_projections(sq128):
    """forward -> inverse -> forward reproduces every frame density."""
    w = wigner_transform(gaussian_packet(sq128, 1.0, -0.5, 1.0))
    angles = full_fan()
    first = forward_tomogram(w, angles)
    second = forward_tomogram(inverse_tomogram(first, sq128), angles)
    assert np.max(np.abs(second.values - first.values)) <= 1e-3


def test_inverse_requires_two_frames(sq128):
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    with pytest.raises(TomographyError):
        inverse_tomogram(forward_tomogram(w, [0.3]), sq128)


def test_sparse_fan_warns(sq128):
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    tomo = forward_tomogram(w, full_fan(8))
    with pytest.warns(UserWarning, match="qualitative"):
        inverse_tomogram(tomo, sq128)


def test_rectangular_grid_rejected(grid256):
    w = wigner_transform(gaussian_packet(grid256, 0.0, 0.0, 1.0))
    with pytest.raises(TomographyError):
        forward_tomogram(w, [0.0])


def test_offcenter_grid_rejected():
    g = make_grid(128, -6.0, 10.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, 1.0))
    with pytest.raises(TomographyError):
        forward_tomogram(w, [0.0])


def test_angle_range_enforced(sq128):
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    for bad in (-0.1, np.pi, 4.0):
        with pytest.raises(TomographyError):
            forward_tomogram(w, [bad])


def test_empty_angle_list_rejected(sq128):
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    with pytest.raises(TomographyError):
        forward_tomogram(w, [])


def test_duplicate_frames_rejected(sq128):
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    with pytest.raises(TomographyError):
        forward_tomogram(w, [0.1, 0.1])


def test_tomogram_shape_validated(sq128):
    with pytest.raises(TomographyError):
        Tomogram(((1.0, 0.0),), sq128.x, np.zeros((2, sq128.n)))
