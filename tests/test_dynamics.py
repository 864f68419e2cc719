import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from wignerlab import (CharacteristicZ, MonitorError, PropagationError,
                       Wavefunction, WignerFunction, WignerlabError,
                       cat_state, cross_validate, double_well, dynamics,
                       ehrenfest_track, free_particle, gaussian_packet,
                       harmonic, harmonic_eigenstate, make_grid,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       quartic, superpose, to_characteristic,
                       wigner_transform)
from wignerlab.dynamics import (BOUNDARY_FLAG, _phase_space_split,
                                boundary_mass, sample_steps)
from wignerlab.observables import expectation_operator
from wignerlab.potentials import polynomial
from wignerlab.wigner import _hermiticity_defect

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


@pytest.mark.parametrize("potential", [
    polynomial((0.0, 0.0, 0.5, 0.0, 0.1, 0.0, 0.01)), quartic(0.1)],
    ids=["degree-6", "quartic"])
@pytest.mark.parametrize("n_max", [1.5, math.nan, 2.0, math.inf, -1])
def test_truncated_route_rejects_a_non_integer_n_max(potential, n_max):
    """A float n_max used to end in a bare TypeError from range() on a
    degree-6 polynomial, and to run as int(n_max) on a quartic."""
    w = wigner_transform(gaussian_packet(make_grid(64, -8.0, 8.0), 0, 0, 1))
    with pytest.raises(PropagationError, match="n_max must be an integer"):
        propagate_moyal_truncated(w, potential, 1e-3, 2, n_max)


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
    the exact set-up check refuses it instead, at step 0: here an even
    part everywhere, and one only at x' = 0."""
    g = make_grid(64, -8.0, 8.0)
    w = wigner_transform(gaussian_packet(g, 1.0, 0.0, SQRT_HALF))
    for kernel in (lambda x, s: x * s ** 2, lambda x, s: x * s + (s == 0)):
        with pytest.raises(MonitorError, match="asymmetry") as info:
            _phase_space_split(route, w, kernel, 1e-3, 10, None)
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


def allocating_characteristic(z, potential, dt, steps):
    """The characteristic route as numpy's own 2-D pair with merged half
    steps: ifft2(fft2(values * pot_full) * a) a step."""
    g = z.grid
    k = g.wavenumbers_x()
    v = potential.value(g.x)
    pot_full = np.exp(-1j * dt / g.hbar * (v[:, None] - v[None, :]))

    def kinetic(tau):
        kin = np.exp(-1j * g.hbar * k ** 2 * tau / (2.0 * g.mass))
        return kin[:, None] * np.conj(kin)[None, :]

    a_full, a_half = kinetic(dt), kinetic(0.5 * dt)
    values = np.fft.ifft2(np.fft.fft2(z.values) * a_half)
    for step in range(1, steps + 1):
        a = a_full if step < steps else a_half
        values = np.fft.ifft2(np.fft.fft2(values * pot_full) * a)
    return values


def localized_kernel(n):
    """psi psi^dagger of a centred Gaussian plus a 1e-3 Hermitian
    perturbation under a Gaussian envelope, so the boundary stays quiet."""
    g = make_grid(n, -8.0, 8.0)
    psi = gaussian_packet(g, 0.0, 0.0, 1.0).samples
    rng = np.random.default_rng(n)
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    envelope = np.exp(-g.x ** 2)
    bump = (noise + noise.conj().T) * np.outer(envelope, envelope)
    return CharacteristicZ(g, np.outer(psi, psi.conj()) + 1e-3 * bump)


@pytest.mark.parametrize("n", [63, 64, 130, 256])
def test_characteristic_matches_the_allocating_pair_bit_for_bit(n):
    """The per-axis passes in reused buffers keep every bit of numpy's
    fft2/ifft2 step, leave the input alone and hand out fresh arrays."""
    z = localized_kernel(n)
    before = z.values.copy()
    V = quartic(0.1)
    out = propagate_characteristic(z, V, 1e-3, 5)
    assert np.array_equal(out.values, allocating_characteristic(z, V, 1e-3, 5))
    assert np.array_equal(z.values, before)
    again = propagate_characteristic(z, V, 1e-3, 5)
    assert not np.shares_memory(out.values, again.values)
    assert not np.shares_memory(out.values, z.values)


def test_hermiticity_defect_matches_the_whole_matrix_maximum():
    z = localized_kernel(64)
    values = z.values + 1e-9 * np.triu(z.values)
    expected = np.max(np.abs(values - values.conj().T))
    assert expected > 0.0
    defect = _hermiticity_defect(values, np.empty_like(values),
                                 np.empty(values.shape))
    assert defect == expected
    assert CharacteristicZ(z.grid, values).hermiticity_defect() == expected
    values[3, 5] = np.nan
    assert math.isnan(np.max(np.abs(values - values.conj().T)))
    assert math.isnan(CharacteristicZ(z.grid, values).hermiticity_defect())


@pytest.mark.parametrize("steps", [2.5, 2.0, math.nan, np.float64(3)])
@pytest.mark.parametrize("route", ["schrodinger", "moyal", "truncated",
                                   "characteristic"])
def test_non_integer_steps_fail_at_set_up(route, steps):
    g = make_grid(64, -8.0, 8.0)
    psi = gaussian_packet(g, 0.0, 0.0, 1.0)
    w = wigner_transform(psi)
    run = {"schrodinger": lambda: propagate_schrodinger(
               psi, harmonic(1.0), 1e-3, steps),
           "moyal": lambda: propagate_moyal_exact(
               w, harmonic(1.0), 1e-3, steps),
           "truncated": lambda: propagate_moyal_truncated(
               w, harmonic(1.0), 1e-3, steps, 1),
           "characteristic": lambda: propagate_characteristic(
               to_characteristic(w), harmonic(1.0), 1e-3, steps)}[route]
    with pytest.raises(PropagationError,
                       match="steps must be an integer") as caught:
        run()
    assert type(caught.value) is PropagationError


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


def test_cross_validate_flags_a_pair_wrapped_to_the_edge():
    """A free cat whose halves fly apart: pairs of psi more than L/2 apart
    wrap to the x edge of the Wigner fields made from psi and from Z, and
    the routes part by 1.2e-3.  The Moyal field, report.boundary and each
    route's own monitor stay below the flag, so the run went unflagged."""
    g = make_grid(96, -6.5, 6.5)
    report = cross_validate(cat_state(g, 1.5, 0.3, 2.0), free_particle(),
                            0.2, 0.01, [0.2])
    assert report.max_pairwise() > 1e-4
    assert report.boundary[-1] < BOUNDARY_FLAG
    assert report.boundary_flagged


COORD = st.floats(-2.0, 2.0)
ONE_STATE = st.one_of(
    st.tuples(st.just(gaussian_packet), COORD, COORD, st.floats(0.3, 1.0)),
    st.tuples(st.just(cat_state), st.floats(0.5, 2.0), st.floats(0.3, 0.8),
              COORD),
    st.tuples(st.just(harmonic_eigenstate), st.integers(0, 3),
              st.floats(0.5, 2.0)))
AMPLITUDE = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@pytest.mark.filterwarnings("error")
@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(n=st.sampled_from([64, 96]), half_width=st.floats(5.0, 12.0),
       state=ONE_STATE | st.lists(st.tuples(ONE_STATE, AMPLITUDE),
                                  min_size=2, max_size=3),
       coefficients=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       dt=st.sampled_from([0.001, 0.005, 0.01]))
def test_three_routes_agree_on_drawn_inputs(n, half_width, state,
                                            coefficients, dt):
    """The three-route guarantee on inputs a user might pick: Gaussian,
    cat, eigenstate (level 0-3) or a superposition of two or three of
    them, a polynomial potential of degree 0-4, n = 64 or 96, 20 steps.
    Each input is refused (StateError, NormalizationError), trips a
    monitor, or completes; only a WignerlabError escapes, and no numpy
    warning.

    A completed run that is not boundary_flagged keeps max_pairwise
    within 1e-5, criterion 2's bound: its routes run one Strang
    splitting in three representations, so what parts them is rounding
    and the transforms, not the time step.  Of these 200 draws 88 are
    refused (46 StateError, 39 MonitorError, 3 NormalizationError); of
    the 112 that complete, 44 run unflagged with a worst gap of 1.5e-8,
    and the 68 flagged ones reach 1.2e-4.  Over 9,000 draws of six
    other seeds the worst unflagged gap was 8.9e-8; without the flag on
    the fields made from psi and Z (see
    test_cross_validate_flags_a_pair_wrapped_to_the_edge), one of them
    would run unflagged at 1.9e-5.
    """
    grid = make_grid(n, -half_width, half_width)
    try:
        if isinstance(state, list):
            psi, _ = superpose([build(grid, *args)
                                for (build, *args), _ in state],
                               [amplitude for _, amplitude in state])
        else:
            build, *args = state
            psi = build(grid, *args)
        report = cross_validate(psi, polynomial(coefficients), 20 * dt, dt,
                                [20 * dt])
    except WignerlabError:
        return
    if not report.boundary_flagged:
        assert report.max_pairwise() <= 1e-5


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


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_sample_steps_names_a_non_finite_start(t0):
    """A non-finite t0 used to be blamed on the sample time ("sample time
    0.5 is not a multiple of dt=0.1")."""
    with pytest.raises(PropagationError, match="t0 must be finite"):
        sample_steps([0.5], 0.1, t0=t0)


@pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
def test_sample_steps_names_a_non_finite_t_final(t_final):
    """NaN and -inf were blamed on the sample times, and inf was taken
    as no bound; None still is."""
    with pytest.raises(PropagationError, match="t_final must be finite"):
        sample_steps([0.5], 0.1, 0.0, t_final)
    assert sample_steps([0.5], 0.1, 0.0, None) == [5]


@pytest.mark.parametrize("times, dt, count", [
    ([1e-290], 1e-300, "10000000000"), ([1.0], 1e-300, "9999999999")],
    ids=["1e10-steps", "1e300-steps"])
def test_sample_steps_refuses_a_count_above_the_bound(times, dt, count):
    """These returned [10000000000] and a 300-digit count, which an
    evolve run then stepped through without end."""
    with pytest.raises(PropagationError,
                       match=f"{count}.* steps exceed the bound MAX_STEPS"):
        sample_steps(times, dt)


def test_the_step_bound_holds_per_schedule_and_per_call(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    assert sample_steps([0.05, 0.1], 0.01) == [5, 5]
    with pytest.raises(PropagationError, match="11 steps exceed the bound"):
        sample_steps([0.05, 0.11], 0.01)
    psi = gaussian_packet(make_grid(32, -6.0, 6.0), 0.0, 0.0, 1.0)
    with pytest.raises(PropagationError, match="11 steps exceed the bound"):
        propagate_schrodinger(psi, harmonic(1.0), 0.01, 11)


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
    assert boundary_mass(values) == 0.0
    values[0, 50] = 1.0
    assert boundary_mass(values) == pytest.approx(0.5)
