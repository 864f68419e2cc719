import math

import numpy as np
import pytest

from wignerlab import (CharacteristicZ, MonitorError, PropagationError,
                       Wavefunction, WignerFunction, cat_state,
                       cross_validate, double_well, ehrenfest_track,
                       free_particle, gaussian_packet, harmonic, make_grid,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       quartic, to_characteristic, wigner_transform)
from wignerlab.dynamics import _phase_space_split, boundary_mass, sample_steps
from wignerlab.observables import expectation_operator

from conftest import SQRT_HALF, gaussian_wigner

PERIOD = 2.0 * np.pi
DT = PERIOD / 3200  # commensurate with the harmonic period


def l2(a, b, g):
    return float(np.sqrt(np.sum((a - b) ** 2) * g.dx * g.dp))


def test_schrodinger_period_return(grid256):
    psi = gaussian_packet(grid256, 2.0, 0.0, SQRT_HALF)
    out = propagate_schrodinger(psi, harmonic(1.0), PERIOD / 6400, 6400)
    # full-period global phase exp(-i omega T / 2) = -1
    err = np.sqrt(np.sum(np.abs(out.samples + psi.samples) ** 2)
                  * grid256.dx)
    assert err < 1e-6
    assert out.t == pytest.approx(PERIOD, abs=1e-12)


def test_schrodinger_free_motion_mean(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0, 1.0)
    out = propagate_schrodinger(psi, free_particle(), 1e-3, 2000)
    assert expectation_operator(out, "x") == pytest.approx(2.0, abs=1e-8)


def test_schrodinger_rejects_nonpositive_dt(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, 1.0)
    with pytest.raises(PropagationError):
        propagate_schrodinger(psi, free_particle(), 0.0, 10)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_non_finite_step_fails_at_set_up(grid256, dt):
    """NaN and inf fail the step gate before any step, not a monitor
    at step 1 (MonitorError is a PropagationError too)."""
    psi = gaussian_packet(grid256, 0.0, 0.0, 1.0)
    with pytest.raises(PropagationError, match="not finite") as caught:
        propagate_schrodinger(psi, harmonic(1.0), dt, 3)
    assert type(caught.value) is PropagationError


def test_schrodinger_zero_steps_is_identity(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, 1.0)
    assert propagate_schrodinger(psi, free_particle(), 1e-3, 0) is psi


def test_schrodinger_order_of_accuracy(grid256):
    """Self-convergence of the splitting: halving dt cuts the error by
    at least 3.5x (second order)."""
    psi = gaussian_packet(grid256, 2.0, 0.0, SQRT_HALF)
    V = harmonic(1.0)
    reference = propagate_schrodinger(psi, V, 0.5 / 512, 512)

    def error(n_steps):
        out = propagate_schrodinger(psi, V, 0.5 / n_steps, n_steps)
        return np.sqrt(np.sum(np.abs(out.samples - reference.samples) ** 2)
                       * grid256.dx)

    coarse, fine = error(16), error(32)
    assert coarse / fine >= 3.5


def test_bandwidth_monitor_trips():
    g = make_grid(64, -16.0, 16.0)  # momentum Nyquist ~ 6.3
    psi = gaussian_packet(g, 0.0, 5.5, 1.0)
    with pytest.raises(MonitorError):
        propagate_schrodinger(psi, free_particle(), 1e-2, 10)


def test_boundary_monitor_trips():
    g = make_grid(128, -8.0, 8.0)
    psi = gaussian_packet(g, 0.0, 2.0, 1.0)
    with pytest.raises(MonitorError):
        propagate_schrodinger(psi, free_particle(), 1e-2, 400)


def test_moyal_harmonic_is_rigid_rotation(grid256):
    """For a quadratic potential the quantum series vanishes and the
    field rotates rigidly: a coherent Gaussian stays Gaussian with its
    center on the classical circle."""
    x0 = 2.0
    w = wigner_transform(gaussian_packet(grid256, x0, 0.0, SQRT_HALF))
    xx, pp = np.meshgrid(grid256.x, grid256.p, indexing="ij")
    for steps, t in ((800, PERIOD / 4), (1600, PERIOD / 2)):
        out = propagate_moyal_exact(w, harmonic(1.0), DT, steps)
        analytic = gaussian_wigner(xx, pp, x0 * np.cos(t), -x0 * np.sin(t),
                                   SQRT_HALF)
        assert l2(out.values, analytic, grid256) < 1e-6, t


def test_moyal_matches_schrodinger_for_quartic(grid256):
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    V = quartic(0.1)
    w = propagate_moyal_exact(wigner_transform(psi), V, 1e-3, 1000)
    w_ref = wigner_transform(propagate_schrodinger(psi, V, 1e-3, 1000))
    assert l2(w.values, w_ref.values, grid256) < 1e-6


def test_moyal_zero_steps_bit_exact(grid256):
    w = wigner_transform(gaussian_packet(grid256, 0.0, 0.0, 1.0))
    assert propagate_moyal_exact(w, harmonic(1.0), 1e-3, 0) is w


def test_truncated_nmax_independent_for_quadratic(grid256):
    w = wigner_transform(gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF))
    V = harmonic(1.0)
    a = propagate_moyal_truncated(w, V, 1e-3, 200, 0)
    b = propagate_moyal_truncated(w, V, 1e-3, 200, 3)
    assert np.array_equal(a.values, b.values)  # series terms identically 0


def test_truncated_terminates_exactly_for_quartic():
    """A quartic potential has no derivatives beyond order 5, so the
    first correction term already makes the series exact."""
    g = make_grid(128, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    V = quartic(0.1)
    t1 = propagate_moyal_truncated(w, V, 5e-4, 1000, 1)
    t2 = propagate_moyal_truncated(w, V, 5e-4, 1000, 2)
    exact = propagate_moyal_exact(w, V, 5e-4, 1000)
    assert np.array_equal(t1.values, t2.values)
    assert l2(t1.values, exact.values, g) < 1e-5


def test_truncated_classical_limit_gap():
    g = make_grid(128, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    V = quartic(0.1)
    liouville = propagate_moyal_truncated(w, V, 5e-4, 2000, 0)
    exact = propagate_moyal_exact(w, V, 5e-4, 2000)
    assert l2(liouville.values, exact.values, g) > 1e-2


def test_truncated_large_step_converges():
    """The truncated kick is unitary, so a step 10x larger than the
    reference's costs only splitting error, not stability."""
    g = make_grid(128, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    V = quartic(0.1)
    coarse = propagate_moyal_truncated(w, V, 0.05, 200, 1)
    fine = propagate_moyal_truncated(w, V, 0.005, 2000, 1)
    rel = np.sqrt(np.sum((coarse.values - fine.values) ** 2)
                  / np.sum(fine.values ** 2))
    assert rel < 1e-2


def test_truncated_boundary_monitor_trips():
    g = make_grid(128, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 0.0, 2.0, 1.0))
    with pytest.raises(MonitorError, match="boundary mass") as info:
        propagate_moyal_truncated(w, free_particle(), 1e-2, 400, 0)
    assert info.value.route == "truncated"
    assert info.value.threshold == 1e-4 < info.value.value


def test_moyal_rejects_odd_sample_count():
    g = make_grid(9, -4.0, 4.0)
    w = WignerFunction(g, np.zeros((9, 9)))
    for propagate in (propagate_moyal_exact,
                      lambda *args: propagate_moyal_truncated(*args, 1)):
        with pytest.raises(PropagationError, match="even sample count"):
            propagate(w, harmonic(1.0), 1e-3, 1)


def complex_kick_split(w, kernel, dt, steps):
    """Shear-kick-shear with merged half shears and the kick as a complex
    ifft/fft pair along p, of which the real part is kept: it assumes no
    symmetry of the kick multiplier."""
    g = w.grid
    half_sep = 0.5 * (np.arange(g.n) - g.n // 2)[None, :] * g.dx
    kick = np.exp(-1j * dt / g.hbar * kernel(g.x[:, None], half_sep))
    kick[:, 0] = 1.0
    kick = np.fft.ifftshift(kick, axes=1)
    kx = g.wavenumbers_x()[:g.n // 2 + 1]

    def shear(values, tau):
        phase = np.exp(-1j * np.outer(kx, g.p) * tau / g.mass)
        phase[-1] = phase[-1].real  # the unpaired Nyquist row
        return np.fft.irfft(np.fft.rfft(values, axis=0) * phase, g.n, axis=0)

    values = shear(w.values, 0.5 * dt)
    for step in range(1, steps + 1):
        values = np.fft.fft(np.fft.ifft(values, axis=1) * kick, axis=1).real
        values = shear(values, dt if step < steps else 0.5 * dt)
    return values


def series_kernel(potential, n_max):
    return lambda x, s: sum(
        2.0 / math.factorial(2 * k + 1) * potential.derivative(x, 2 * k + 1)
        * s ** (2 * k + 1) for k in range(n_max + 1))


@pytest.mark.parametrize("n_max", [0, 1, None])
def test_real_kick_matches_the_complex_kick(n_max):
    """The half-spectrum kick agrees with a complex kick pair after 400
    quartic steps, on the truncated series and on the exact route."""
    g = make_grid(128, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    V = quartic(0.1)
    if n_max is None:
        out = propagate_moyal_exact(w, V, 1e-3, 400)
        oracle = complex_kick_split(
            w, lambda x, s: V.value(x + s) - V.value(x - s), 1e-3, 400)
    else:
        out = propagate_moyal_truncated(w, V, 1e-3, 400, n_max)
        oracle = complex_kick_split(w, series_kernel(V, n_max), 1e-3, 400)
    assert np.max(np.abs(out.values - oracle)) < 1e-12


@pytest.mark.parametrize("route", ["moyal", "truncated"])
def test_kick_with_an_even_part_fails_at_set_up(route):
    """A real-FFT kick would drop an even part of the kernel silently;
    the exact set-up check refuses it instead, at step 0."""
    g = make_grid(64, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    with pytest.raises(MonitorError, match="asymmetry") as info:
        _phase_space_split(route, w, lambda x, s: x * s ** 2, 1e-3, 10, None)
    error = info.value
    assert (error.route, error.step, error.t) == (route, 0, w.t)
    assert error.threshold == 0.0 < error.value
    assert f"{route} route, step 0" in str(error)


def test_phase_space_total_conserved():
    """The x' = 0 column of the kick multiplier is exactly 1, so the
    field's integral survives 1000 steps to 1e-12."""
    g = make_grid(128, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    V = quartic(0.1)
    for out in (propagate_moyal_exact(w, V, 1e-3, 1000),
                propagate_moyal_truncated(w, V, 1e-3, 1000, 0)):
        assert abs(out.total() - w.total()) < 1e-12


def test_characteristic_matches_schrodinger_chain(grid256):
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    for V in (free_particle(), harmonic(1.0), quartic(0.1),
              double_well(-1.0, 0.1)):
        z = propagate_characteristic(
            to_characteristic(wigner_transform(psi)), V, 1e-3, 500)
        ref = to_characteristic(wigner_transform(
            propagate_schrodinger(psi, V, 1e-3, 500)))
        assert np.max(np.abs(z.values - ref.values)) < 1e-7, V.tag


def test_characteristic_diagonal_stays_nonnegative(grid256):
    z = to_characteristic(wigner_transform(
        cat_state(grid256, 3.0, SQRT_HALF)))
    out = propagate_characteristic(z, harmonic(1.0), 1e-3, 500)
    assert float(out.values.diagonal().real.min()) >= -1e-10
    assert out.hermiticity_defect() < 1e-10


def test_characteristic_rejects_non_hermitian(grid256):
    values = np.zeros((256, 256), dtype=complex)
    values[3, 5] = 1.0  # no conjugate partner
    z = CharacteristicZ(grid256, values)
    with pytest.raises(PropagationError):
        propagate_characteristic(z, free_particle(), 1e-3, 1)


def test_characteristic_rejects_a_nan_kernel_at_set_up():
    g = make_grid(64, -8.0, 8.0)
    z = to_characteristic(wigner_transform(gaussian_packet(g, 0.0, 0.0, 1.0)))
    z.values[3, 3] = np.nan
    with pytest.raises(PropagationError,
                       match="kernel is not Hermitian") as caught:
        propagate_characteristic(z, harmonic(1.0), 1e-3, 3)
    assert type(caught.value) is PropagationError


def test_characteristic_zero_steps_bit_exact(grid256):
    z = to_characteristic(wigner_transform(
        gaussian_packet(grid256, 0.0, 0.0, 1.0)))
    assert propagate_characteristic(z, harmonic(1.0), 1e-3, 0) is z


def test_norm_conservation_long_run(grid256):
    """All three routes conserve their normalization over 1e4 steps."""
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    V = harmonic(1.0)
    out = propagate_schrodinger(psi, V, 1e-3, 10000)
    assert abs(np.sum(np.abs(out.samples) ** 2) * grid256.dx - 1.0) < 1e-9
    w = propagate_moyal_exact(wigner_transform(psi), V, 1e-3, 10000)
    assert abs(w.total() - 1.0) < 1e-9
    z = propagate_characteristic(to_characteristic(wigner_transform(psi)),
                                 V, 1e-3, 10000)
    assert abs(z.diagonal_total() - 1.0) < 1e-9


def test_cross_validate_harmonic_full_period(grid256):
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    report = cross_validate(psi, harmonic(1.0), PERIOD, DT,
                            [PERIOD / 2, PERIOD])
    assert report.max_pairwise() < 1e-6
    assert max(report.factorization_residual) < 1e-9
    assert max(abs(v) for v in report.energy_drift) < 1e-7
    assert not report.boundary_flagged


def test_cross_validate_flags_boundary_mass():
    """The Wigner field's boundary mass reaches 2.1e-6 here: above the
    1e-8 flag, below the 1e-4 trip."""
    g = make_grid(128, -10.0, 10.0)
    psi = gaussian_packet(g, 2.0, 0.0, 1.0)
    report = cross_validate(psi, harmonic(1.0), 0.5, 0.01, [0.5])
    assert report.boundary_flagged
    assert 1e-8 < report.boundary[-1] < 1e-4


def test_cross_validate_empty_sample_times(grid256):
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    report = cross_validate(psi, harmonic(1.0), 1.0, 1e-3, [])
    assert report.times == []
    assert report.max_pairwise() == 0.0


def test_cross_validate_rejects_incommensurate_samples(grid256):
    psi = gaussian_packet(grid256, 1.0, 0.0, SQRT_HALF)
    with pytest.raises(PropagationError):
        cross_validate(psi, harmonic(1.0), 1.0, 1e-3, [0.00055])


def test_cross_validate_schedules_from_the_start_time():
    """A packet at t = 1.0 cannot be sampled at t = 0.5, and its report
    carries the times the routes reached."""
    g = make_grid(64, -8.0, 8.0)
    psi = gaussian_packet(g, 1.0, 0.0, SQRT_HALF)
    late = Wavefunction(g, psi.samples, 1.0)
    with pytest.raises(PropagationError, match=r"inside \[1, t_final\]"):
        cross_validate(late, harmonic(1.0), 1.5, 0.25, [0.5])
    report = cross_validate(late, harmonic(1.0), 1.5, 0.25, [1.5])
    assert report.times == [1.5]


def test_sample_steps_from_a_start_time():
    assert sample_steps([1.5, 2.0], 0.25, 1.0) == [2, 2]
    assert sample_steps([0.5, 0.5, 1.0], 0.25) == [2, 0, 2]
    for times, dt, t0 in (([0.5], 0.25, 1.0),     # before the start
                          ([0.4], 0.25, 0.0),
                          ([1.0], 1e-320, 0.0)):  # the ratio overflows
        with pytest.raises(PropagationError, match="not a multiple of dt"):
            sample_steps(times, dt, t0)


def test_sample_steps_sorts_and_bounds_by_t_final():
    assert sample_steps([1.0, 0.5, 0.75], 0.25) == [2, 1, 1]
    assert sample_steps([2.0, 1.5], 0.25, 1.0, 2.0) == [2, 2]
    for times, t0, t_final in (([0.5], 0.0, 0.25),    # past t_final
                               ([0.5], 1.0, 2.0),     # before the start
                               ([0.25, math.nan], 0.0, 1.0)):
        with pytest.raises(PropagationError,
                           match=rf"inside \[{t0:g}, t_final\]"):
            sample_steps(times, 0.25, t0, t_final)


def test_ehrenfest_track_sorts_its_times():
    g = make_grid(128, -12.0, 12.0)
    psi = gaussian_packet(g, 1.0, 0.0, 1.0)
    table = ehrenfest_track(psi, harmonic(1.0), [0.1, 0.05, 0.02], 0.01)
    assert np.array_equal(
        table, ehrenfest_track(psi, harmonic(1.0), [0.02, 0.05, 0.1], 0.01))
    assert list(table[:, 0]) == sorted(table[:, 0])


def test_boundary_mass_metric():
    values = np.zeros((100, 100))
    values[50, 50] = 1.0
    assert boundary_mass(values, (0, 1)) == 0.0
    values[0, 50] = 1.0
    assert boundary_mass(values, (0, 1)) == pytest.approx(0.5)
