import warnings

import numpy as np
import pytest

from wignerlab import (TomographyError, Tomogram, cat_state, forward_tomogram,
                       gaussian_packet, harmonic_eigenstate, inverse_tomogram,
                       make_grid, marginal_momentum, marginal_position,
                       square_grid, wigner_transform)
from wignerlab.io import read_field
from wignerlab.observables import expectation_operator
from wignerlab.scenarios import load_config, run_scenario
from wignerlab.tomography import PAD_FACTOR, _ramp_filter
from wignerlab.wigner import WignerFunction

from conftest import SQRT_HALF

N_ANGLES = 180


def full_fan(n=N_ANGLES):
    return np.linspace(0.0, np.pi, n, endpoint=False)


def rel_l2(a, b, g):
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b ** 2)))


def dense_inverse(tomo, target_grid):
    """Filtered back-projection by direct Fourier synthesis: every
    projection's spectrum dX sum_m w_m exp(i k X_m) summed exactly at
    the n_pad frequencies, filtered, and summed exactly at
    X = x mu + p nu on the lattice (exponential tables and matrix
    products throughout)."""
    x_axis = tomo.x_axis
    d_x = tomo.dx
    n_pad = PAD_FACTOR * len(x_axis)
    dk = 2.0 * np.pi / (n_pad * d_x)
    k = dk * (np.arange(n_pad) - n_pad // 2)
    filt = _ramp_filter(k, dk, np.pi / d_x)
    dtheta = np.pi / len(tomo.frames)
    spectrum = d_x * np.exp(1j * np.outer(k, x_axis))
    weight = filt * (dk * dtheta / (4.0 * np.pi ** 2))
    gx, gp = target_grid.x, target_grid.p
    out = np.zeros((target_grid.n, target_grid.n))
    for (mu, nu), density in zip(tomo.frames, tomo.values):
        coeff = weight * (spectrum @ density)
        ex = np.exp(-1j * np.outer(gx * mu, k))
        ep = np.exp(-1j * np.outer(k, gp * nu))
        out += np.real((ex * coeff[None, :]) @ ep)
    ring = np.concatenate([out[0, :], out[-1, :], out[1:-1, 0],
                           out[1:-1, -1]])
    out -= float(ring.mean())
    return out / float(np.sum(out) * target_grid.dx * target_grid.dp)


def shear_forward(w, angles):
    """Projections by spectral rotation: the field rotated by -t as
    shear_x, shear_p, shear_x (angles past pi/2 rotate the point-reflected
    field by pi - t, keeping |tan(t/2)| <= 1) and summed over p.  Exact
    for band-limited fields on an even grid."""
    g = w.grid
    n, x, p = g.n, g.x, g.p
    kx = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.dx)
    kp = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.dp)
    flip = (-np.arange(n)) % n
    rows = []
    for t in angles:
        fold = t > np.pi / 2
        field = w.values[np.ix_(flip, flip)] if fold else w.values
        theta = np.pi - t if fold else -t
        shear = np.exp(1j * np.outer(kx, np.tan(0.5 * theta) * p))
        field = np.fft.irfft(shear * np.fft.rfft(field, axis=0), n, axis=0)
        field = np.fft.irfft(np.exp(-1j * np.outer(x, np.sin(theta) * kp))
                             * np.fft.rfft(field, axis=1), n, axis=1)
        spec = np.sum(shear * np.fft.rfft(field, axis=0), axis=1)
        rows.append(np.clip(np.fft.irfft(spec, n) * g.dp, 0.0, None))
    return np.array(rows)


@pytest.mark.parametrize("n,name", [(256, "ground"), (256, "fock3"),
                                    (256, "cat"), (128, "ground")])
def test_forward_matches_shear_rotation(n, name):
    g = square_grid(n)
    psi = {"ground": lambda: harmonic_eigenstate(g, 0, 1.0),
           "fock3": lambda: harmonic_eigenstate(g, 3, 1.0),
           "cat": lambda: cat_state(g, 3.0, SQRT_HALF)}[name]()
    w = wigner_transform(psi)
    angles = full_fan()
    tomo = forward_tomogram(w, angles)
    assert np.max(np.abs(tomo.values - shear_forward(w, angles))) <= 1e-12


def gaussian_wigner(g, x0, p0, sigma):
    """Closed-form Wigner function of a Gaussian packet on the lattice."""
    x, p = np.meshgrid(g.x, g.p, indexing="ij")
    return WignerFunction(g, np.exp(
        -(x - x0) ** 2 / (2.0 * sigma ** 2)
        - 2.0 * (sigma * (p - p0) / g.hbar) ** 2) / (np.pi * g.hbar))


def assert_gaussian_marginals(tomo, x0, p0, sigma, hbar, bound):
    """X = mu x + nu p of a Gaussian packet is normal with mean
    mu x0 + nu p0 and variance mu^2 sigma^2 + nu^2 (hbar / 2 sigma)^2."""
    X = tomo.x_axis
    for (mu, nu), density in zip(tomo.frames, tomo.values):
        var = (mu * sigma) ** 2 + (nu * hbar / (2.0 * sigma)) ** 2
        expected = (np.exp(-(X - mu * x0 - nu * p0) ** 2 / (2.0 * var))
                    / np.sqrt(2.0 * np.pi * var))
        assert np.max(np.abs(density - expected)) <= bound, (x0, mu)


@pytest.mark.parametrize("n", [97, 127])
def test_odd_grid_projections_match_closed_form(n):
    """On an odd grid the lattice sits half a step off the origin and
    -p_j is p_(n-1-j), so neither a point reflection by index nor an
    unshifted Fourier slice is exact there."""
    g = square_grid(n)
    tomo = forward_tomogram(gaussian_wigner(g, 1.0, -0.5, 1.0), full_fan(90))
    assert_gaussian_marginals(tomo, 1.0, -0.5, 1.0, g.hbar, 1e-8)


def test_cat_projections_match_closed_form():
    """The cat's quadrature marginal at angle t is |psi_a + psi_-a|^2 over
    2 (1 + exp(-x0^2)), with psi_b the X wavefunction of the coherent
    state b = +/-x0 / sqrt(2) exp(-i t) (hbar = 1, sigma = sqrt(1/2))."""
    g = square_grid(256)
    x0 = 3.0
    tomo = forward_tomogram(wigner_transform(cat_state(g, x0, SQRT_HALF)),
                            full_fan())
    X = tomo.x_axis
    for (mu, nu), density in zip(tomo.frames, tomo.values):
        amp = sum(np.exp(-(X - np.sqrt(2.0) * b.real) ** 2 / 2.0
                         + 1j * (np.sqrt(2.0) * b.imag * X - b.real * b.imag))
                  for b in (s * x0 / np.sqrt(2.0) * (mu - 1j * nu)
                            for s in (1.0, -1.0)))
        expected = np.abs(amp) ** 2 / (np.sqrt(np.pi)
                                       * 2.0 * (1.0 + np.exp(-x0 ** 2)))
        assert np.max(np.abs(density - expected)) <= 1e-12, (mu, nu)


def test_negative_marginal_rejected(sq128):
    """A unit-mass field with a negative lobe has marginals that dip far
    below the ringing floor: it is no Wigner function of a state."""
    lobes = [gaussian_wigner(sq128, x0, 0.0, 1.0).values for x0 in (-2, 2)]
    w = WignerFunction(sq128, 2.0 * lobes[0] - lobes[1])
    with pytest.raises(TomographyError, match="dips to"):
        forward_tomogram(w, [0.3, 1.0])


@pytest.fixture(scope="module")
def oracle_tomograms(sq128):
    """Tomograms of the cat and ground states over 90 angles."""
    states = {"cat": cat_state(sq128, 3.0, SQRT_HALF),
              "ground": harmonic_eigenstate(sq128, 0, 1.0)}
    return {name: forward_tomogram(wigner_transform(psi), full_fan(90))
            for name, psi in states.items()}


@pytest.mark.parametrize("name", ["cat", "ground"])
def test_gridding_matches_dense_synthesis(oracle_tomograms, sq128, name):
    tomo = oracle_tomograms[name]
    rec = inverse_tomogram(tomo, sq128)
    expected = dense_inverse(tomo, sq128)
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


def test_gridding_matches_dense_synthesis_at_odd_padding():
    """An odd tomogram length, 97, padded to PAD_FACTOR * 97 = 388
    frequencies on its own odd grid."""
    g = square_grid(97)
    tomo = forward_tomogram(gaussian_wigner(g, 1.0, -0.5, 1.0), full_fan(90))
    rec = inverse_tomogram(tomo, g)
    assert np.max(np.abs(rec.values - dense_inverse(tomo, g))) <= 1e-10


def test_projections_match_closed_form_gaussian_marginals(sq128):
    for x0, p0, sigma in ((1.0, -0.5, 1.0), (-2.0, 1.5, 0.8)):
        w = wigner_transform(gaussian_packet(sq128, x0, p0, sigma))
        tomo = forward_tomogram(w, full_fan(16))
        assert_gaussian_marginals(tomo, x0, p0, sigma, sq128.hbar, 1e-10)


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


@pytest.mark.parametrize("angle", [np.nan, -0.1, np.pi])
def test_angle_outside_the_half_turn_is_named(sq128, angle):
    """A NaN angle passed the old gate, spread NaN taps (numpy warned of
    an invalid cast) and failed only on the frames' unit check."""
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TomographyError,
                           match=rf"angle {angle} outside \[0, pi\)"):
            forward_tomogram(w, [0.0, angle])


def test_inverse_requires_two_frames(sq128):
    w = wigner_transform(gaussian_packet(sq128, 0.0, 0.0, 1.0))
    with pytest.raises(TomographyError):
        inverse_tomogram(forward_tomogram(w, [0.3]), sq128)


@pytest.mark.parametrize("angles", [
    np.linspace(0.0, np.pi / 2, N_ANGLES, endpoint=False),
    np.sort(np.random.default_rng(0).uniform(0.0, np.pi, N_ANGLES)),
], ids=["quarter-turn", "random"])
def test_inverse_rejects_fans_that_are_not_equispaced(sq128, angles):
    """Every frame is weighted by pi/n_frames, so any other fan would
    give a wrong reconstruction."""
    w = wigner_transform(cat_state(sq128, 3.0, SQRT_HALF))
    with pytest.raises(TomographyError, match="equispaced fan"):
        inverse_tomogram(forward_tomogram(w, angles), sq128)


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


def test_scaled_frames_rejected(sq128):
    """Back-projection treats every frame as a rotation; a fan scaled by
    2 used to reconstruct the ground state with relative L2 error 1.33."""
    tomo = forward_tomogram(
        wigner_transform(harmonic_eigenstate(sq128, 0, 1.0)), full_fan())
    scaled = tuple((2 * mu, 2 * nu) for mu, nu in tomo.frames)
    with pytest.raises(TomographyError, match="unit rotations"):
        Tomogram(scaled, tomo.x_axis, tomo.values)


@pytest.mark.parametrize("frame", [(np.nan, 0.0), (1.0, np.inf)])
def test_non_finite_frame_rejected(sq128, frame):
    with pytest.raises(TomographyError, match="unit rotations"):
        Tomogram((frame,), sq128.x, np.zeros((1, sq128.n)))


def test_tomo_scenario_csv_is_the_wig1_tomogram(tmp_path):
    """tomogram.csv is theta-major over the requested angles and the
    tomogram's X axis, and its w column is the tomogram.wig1 payload
    bit for bit."""
    n, n_angles = 64, 36
    path = tmp_path / "tomo.yaml"
    path.write_text(f"grid: {{n: {n}, square: true}}\n"
                    "state: {kind: cat, x0: 1.5, sigma: 0.7}\n"
                    f"experiment: {{kind: tomo, n_angles: {n_angles}}}\n")
    out = tmp_path / "o"
    run_scenario(load_config(path), out)
    lines = (out / "tomogram.csv").read_text().splitlines()
    assert lines[0] == "theta,X,w"
    table = np.array([[float(cell) for cell in line.split(",")]
                      for line in lines[1:]])
    payload, _ = read_field(out / "tomogram.wig1")
    angles = [i * np.pi / n_angles for i in range(n_angles)]
    assert np.array_equal(table[:, 0], np.repeat(angles, n))
    assert np.array_equal(table[:, 1], np.tile(square_grid(n).x, n_angles))
    assert payload.shape == (n_angles, n)
    assert table[:, 2].tobytes() == payload.tobytes()
