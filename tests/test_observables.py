import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import (PropagationError, StateError, Wavefunction,
                       cat_state, classical_trajectory,
                       ehrenfest_track, expectation_operator,
                       expectation_phase_space, free_particle,
                       gaussian_packet, harmonic, harmonic_eigenstate,
                       make_grid, moments, negativity, quartic, superpose,
                       wigner_transform)

from conftest import SQRT_HALF


def test_gaussian_means(grid256):
    psi = gaussian_packet(grid256, 1.5, -0.5, 1.0)
    assert expectation_operator(psi, "x") == pytest.approx(1.5, abs=1e-10)
    assert expectation_operator(psi, "p") == pytest.approx(-0.5, abs=1e-10)


def test_harmonic_energies(grid256):
    V = harmonic(1.0)
    for level in range(6):
        psi = harmonic_eigenstate(grid256, level, 1.0)
        assert expectation_operator(psi, "H", V) == pytest.approx(
            level + 0.5, abs=1e-8)


def test_momentum_moments_of_the_top_bin_on_an_odd_grid():
    """On odd n the bin k[n // 2] is a paired frequency, not the unpaired
    Nyquist bin; zeroing it made <p> of this plane wave read -1.8e-29."""
    g = make_grid(63, -8.0, 8.0)
    k = g.wavenumbers_x()[g.n // 2]
    psi = Wavefunction(g, np.exp(1j * k * g.x) / np.sqrt(g.x_max - g.x_min))
    assert expectation_operator(psi, "p") == pytest.approx(k, rel=1e-12)
    assert expectation_operator(psi, "p2") == pytest.approx(k ** 2, rel=1e-12)
    assert expectation_operator(psi, "H", free_particle()) == pytest.approx(
        k ** 2 / 2, rel=1e-12)


def test_symmetrized_xp_vanishes_for_ground_state(grid256):
    psi = harmonic_eigenstate(grid256, 0, 1.0)
    assert expectation_operator(psi, "sym_xp") == pytest.approx(0.0,
                                                               abs=1e-10)


def test_unknown_observable_rejected(grid256):
    with pytest.raises(StateError):
        expectation_operator(gaussian_packet(grid256, 0, 0, 1.0), "x3")


def test_hamiltonian_requires_potential(grid256):
    with pytest.raises(StateError):
        expectation_operator(gaussian_packet(grid256, 0, 0, 1.0), "H")


def test_phase_space_first_moments(grid256):
    w = wigner_transform(gaussian_packet(grid256, 1.5, -0.5, 1.0))
    assert expectation_phase_space(w, {(1, 0): 1.0}) == pytest.approx(
        1.5, abs=1e-9)
    assert expectation_phase_space(w, {(0, 1): 1.0}) == pytest.approx(
        -0.5, abs=1e-9)


def test_phase_space_xp_matches_weyl_ordering(grid256):
    psi = harmonic_eigenstate(grid256, 0, 1.0)
    w = wigner_transform(psi)
    phase_route = expectation_phase_space(w, {(1, 1): 1.0})
    assert phase_route == pytest.approx(0.0, abs=1e-9)
    assert phase_route == pytest.approx(
        expectation_operator(psi, "sym_xp"), abs=1e-9)


def test_phase_space_degree_cap(grid256):
    w = wigner_transform(gaussian_packet(grid256, 0, 0, 1.0))
    with pytest.raises(StateError):
        expectation_phase_space(w, {(3, 2): 1.0})


@pytest.mark.parametrize("powers", [(0.5, 0), (1, 1.5), (np.nan, 0)])
def test_phase_space_exponents_must_be_integers(grid256, powers):
    """x^0.5 used to give nan instead of an error."""
    w = wigner_transform(gaussian_packet(grid256, 0, 0, 1.0))
    with pytest.raises(StateError, match="integer exponents"):
        expectation_phase_space(w, {powers: 1.0})


@pytest.mark.parametrize("poly, monomial", [
    ({(0, 0): np.nan}, r"x\^0 p\^0"), ({(1, 0): np.inf}, r"x\^1 p\^0"),
    ({(0, 1): 1.0, (0, 2): -np.inf}, r"x\^0 p\^2")],
    ids=["nan", "inf", "minus-inf"])
def test_phase_space_coefficients_must_be_finite(grid256, poly, monomial):
    """A NaN coefficient gave NaN, and inf on <x> = 0 gave -inf."""
    w = wigner_transform(gaussian_packet(grid256, 0, 0, 1.0))
    with pytest.raises(StateError, match=f"coefficient of {monomial}"):
        expectation_phase_space(w, poly)


def test_dual_route_moments_agree(battery256):
    for name, psi in battery256:
        op = moments(psi).as_dict()
        ps = moments(wigner_transform(psi)).as_dict()
        for key in op:
            assert op[key] == pytest.approx(ps[key], abs=1e-8), (name, key)


def test_minimum_uncertainty_report(grid256):
    report = moments(gaussian_packet(grid256, 0.0, 0.0, SQRT_HALF))
    assert report.uncertainty_product == pytest.approx(0.5, abs=1e-8)
    assert report.blob_area == pytest.approx(0.5, abs=1e-8)


def test_level1_uncertainty(grid256):
    report = moments(harmonic_eigenstate(grid256, 1, 1.0))
    assert report.uncertainty_product == pytest.approx(1.5, abs=1e-7)


def test_uncertainty_floor_battery(battery256):
    for name, psi in battery256:
        report = moments(psi)
        assert report.uncertainty_product >= 0.5 - 1e-9, name
        assert report.blob_area >= 0.5 - 1e-9, name


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(
    st.tuples(st.floats(min_value=-1.0, max_value=1.0),
              st.floats(min_value=-1.0, max_value=1.0)),
    min_size=2, max_size=6))
def test_uncertainty_floor_random_superpositions(coeffs):
    g = make_grid(256, -16.0, 16.0)
    if sum(abs(complex(re, im)) for re, im in coeffs) < 0.2:
        coeffs = [(1.0, 0.0)] + coeffs
    states = [harmonic_eigenstate(g, k, 1.0) for k in range(len(coeffs))]
    psi, _ = superpose(states, [complex(re, im) for re, im in coeffs])
    assert moments(psi).uncertainty_product >= 0.5 - 1e-9


def test_single_gaussians_nonnegative(battery256):
    for name, psi in battery256:
        if not name.startswith("gauss"):
            continue
        min_value, volume = negativity(wigner_transform(psi))
        assert min_value >= -1e-9, name
        assert volume <= 1e-9, name


def test_cat_negativity_metrics(grid256):
    min_value, volume = negativity(
        wigner_transform(cat_state(grid256, 3.0, SQRT_HALF)))
    assert min_value < -0.05
    assert volume > 0.1


def test_level1_origin_value(grid256):
    w = wigner_transform(harmonic_eigenstate(grid256, 1, 1.0))
    center = (np.argmin(np.abs(grid256.x)), np.argmin(np.abs(grid256.p)))
    assert w.values[center] == pytest.approx(-1.0 / np.pi, abs=1e-6)


def test_classical_trajectory_harmonic_half_period():
    table = classical_trajectory(1.0, 0.0, harmonic(1.0), [np.pi],
                                 np.pi / 3200)
    assert table[0, 1] == pytest.approx(-1.0, abs=1e-8)
    assert table[0, 2] == pytest.approx(0.0, abs=1e-8)


def test_classical_trajectory_free_motion():
    table = classical_trajectory(0.0, 1.0, free_particle(), [3.0], 1e-3)
    assert table[0, 1] == pytest.approx(3.0, abs=1e-12)
    assert table[0, 2] == pytest.approx(1.0, abs=1e-12)


def test_classical_trajectory_energy_drift():
    V = harmonic(1.0)
    periods = 10
    dt = 2.0 * np.pi / 6400  # ~1e-3, commensurate with the period
    table = classical_trajectory(1.0, 0.0, V,
                                 [2.0 * np.pi * periods], dt)
    energy0 = 0.5
    energy = 0.5 * table[0, 2] ** 2 + V.value(table[0, 1])
    assert abs(energy - energy0) / energy0 < 1e-9


def test_classical_trajectory_is_fourth_order():
    """At the harmonic half period from (1, 0) the p error falls 16x per
    halving of dt; by symmetry x reaches -1 to rounding."""
    errors = []
    for dt in (np.pi / 100, np.pi / 200, np.pi / 400):
        _, x, p = classical_trajectory(1.0, 0.0, harmonic(1.0), [np.pi],
                                       dt)[0]
        assert x == pytest.approx(-1.0, abs=1e-13)
        errors.append(abs(p))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.2)


def test_classical_trajectory_energy_error_does_not_grow():
    """A symplectic orbit's energy error stays bounded: over the 1000th
    harmonic period at dt = 2 pi / 64 it is at most twice that over the
    first (an RK4 orbit's grew 1000x, from 4.0e-7 to 4.0e-4)."""
    V = harmonic(1.0)
    dt = 2.0 * np.pi / 64
    steps = [*range(1, 65), *range(64 * 999 + 1, 64 * 1000 + 1)]
    table = classical_trajectory(1.0, 0.0, V, [i * dt for i in steps], dt)
    error = np.abs(0.5 * table[:, 2] ** 2 + V.value(table[:, 1]) - 0.5)
    assert error[64:].max() <= 2.0 * error[:64].max()


def test_classical_trajectory_rejects_bad_dt():
    with pytest.raises(PropagationError, match="nonpositive step"):
        classical_trajectory(0.0, 0.0, harmonic(1.0), [1.0], 0.0)


@pytest.mark.parametrize("x0, p0, mass, name", [
    (np.nan, 0.0, 1.0, "x0"), (np.inf, 0.0, 1.0, "x0"),
    (0.0, -np.inf, 1.0, "p0"), (0.0, np.nan, 1.0, "p0"),
    (0.0, 0.0, np.nan, "mass"), (0.0, 0.0, 0.0, "mass"),
    (0.0, 0.0, -1.0, "mass"), (0.0, 0.0, np.inf, "mass")])
def test_classical_trajectory_rejects_bad_scalars(x0, p0, mass, name):
    """These returned rows of NaN, or (mass 0) raised ZeroDivisionError."""
    with pytest.raises(StateError, match=f"{name}="):
        classical_trajectory(x0, p0, harmonic(1.0), [1.0], 0.01, mass)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("x0, potential, mass", [
    (0.5, harmonic(1.0), 5e-324), (1e300, quartic(0.1), 1.0)],
    ids=["subnormal-mass", "far-quartic-start"])
def test_classical_trajectory_refuses_an_orbit_that_is_not_finite(
        x0, potential, mass):
    """Both returned [[0.02, nan, nan]]: p/m overflows, or V'(1e300)."""
    with pytest.raises(PropagationError, match=r"not finite at t = 0\.01"):
        classical_trajectory(x0, 0.3, potential, [0.02], 0.01, mass)


def test_classical_trajectory_rejects_unreachable_time():
    with pytest.raises(PropagationError, match="not a multiple of dt"):
        classical_trajectory(0.0, 0.0, harmonic(1.0), [0.15], 0.1)


def test_ehrenfest_orbit_starts_at_the_state_time(grid256):
    """Quantum state and classical orbit run on one schedule from psi0.t;
    an orbit launched at t = 0 instead was 1.61 off the packet here."""
    packet = gaussian_packet(grid256, 2.0, 0.0, SQRT_HALF)
    psi = Wavefunction(grid256, packet.samples, 1.0)
    table = ehrenfest_track(psi, harmonic(1.0), [1.0, 1.5], 5e-4)
    assert np.array_equal(table[:, 0], [1.0, 1.5])
    assert np.max(np.abs(table[:, 1] - table[:, 5])) < 1e-6
    assert np.max(np.abs(table[:, 2] - table[:, 6])) < 1e-6


def test_ehrenfest_reports_the_time_reached(grid256):
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    table = ehrenfest_track(psi, harmonic(1.0), [0.3], 0.1)
    assert table[0, 0] == 0.0 + 3 * 0.1 != 0.3


def test_ehrenfest_harmonic_follows_classical(grid256):
    psi = gaussian_packet(grid256, 2.0, 0.0, SQRT_HALF)
    table = ehrenfest_track(psi, harmonic(1.0),
                            [0.5, 1.0, 1.5, 2.0], 5e-4)
    assert np.max(np.abs(table[:, 1] - table[:, 5])) < 1e-6
    assert np.max(np.abs(table[:, 2] - table[:, 6])) < 1e-6
    # for a linear force the mean force IS the force at the mean
    assert np.max(np.abs(table[:, 3] - table[:, 4])) < 1e-9


def test_ehrenfest_quartic_broad_packet_gap():
    g = make_grid(1024, -16.0, 16.0)
    psi = gaussian_packet(g, 1.0, 0.0, 2.0)
    table = ehrenfest_track(psi, quartic(0.1), [0.0, 0.5, 1.0], 2e-3)
    gap = np.abs(table[:, 3] - table[:, 4])
    assert gap.max() > 1e-4  # far beyond any numerical tolerance here


def test_ehrenfest_identity_convergence(grid256):
    """|d<x>/dt - <p>/m| from centered differences shrinks at second
    order in the step size."""
    psi = gaussian_packet(grid256, 1.0, 0.0, 1.0)
    V = quartic(0.1)

    def identity_error(dt):
        t = 16 * dt
        table = ehrenfest_track(psi, V, [t - dt, t, t + dt], dt)
        dxdt = (table[2, 1] - table[0, 1]) / (2 * dt)
        return abs(dxdt - table[1, 2])

    errors = [identity_error(dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    scale = errors[0] / 1e-2 ** 2
    assert errors[1] <= 1.5 * scale * 5e-3 ** 2
    assert errors[2] <= 1.5 * scale * 2.5e-3 ** 2
