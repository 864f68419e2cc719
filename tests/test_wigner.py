import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import (CharacteristicZ, ConvergenceError, NormalizationError,
                       PurityError, StateError, WignerFunction, Wavefunction,
                       cat_state, expectation_phase_space,
                       factorize_characteristic, forward_tomogram,
                       gaussian_packet, harmonic_eigenstate, make_grid,
                       marginal_momentum, marginal_position, momentum_samples,
                       reconstruct_wavefunction, square_grid,
                       to_characteristic, wigner_transform)
from wignerlab.observables import purity
from wignerlab.states import normalized
from wignerlab.wigner import upsample2

from conftest import (SQRT_HALF, fidelity, gaussian_psi, gaussian_wigner,
                      wigner_quadrature)


def test_ground_gaussian_matches_closed_form(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, SQRT_HALF)
    w = wigner_transform(psi)
    xx, pp = np.meshgrid(grid256.x, grid256.p, indexing="ij")
    analytic = np.exp(-xx ** 2 - pp ** 2) / np.pi
    assert np.max(np.abs(w.values - analytic)) < 1e-8
    center = (np.argmin(np.abs(grid256.x)), np.argmin(np.abs(grid256.p)))
    assert w.values[center] == pytest.approx(1.0 / np.pi, abs=1e-10)


def test_displaced_gaussian_against_quadrature_oracle(grid256):
    """Spot-check the transform against brute-force trapezoid quadrature
    of the defining integral at 16 scattered lattice points."""
    x0, p0, sigma = 1.0, -0.5, 0.9
    psi = gaussian_packet(grid256, x0, p0, sigma)
    w = wigner_transform(psi)
    rng = np.random.default_rng(7)
    rows = rng.integers(64, 192, size=16)
    cols = rng.integers(64, 192, size=16)
    for i, j in zip(rows, cols):
        oracle = wigner_quadrature(
            lambda x: gaussian_psi(x, x0, p0, sigma),
            grid256.x[i], grid256.p[j])
        assert w.values[i, j] == pytest.approx(oracle, abs=1e-8)
        assert w.values[i, j] == pytest.approx(
            gaussian_wigner(grid256.x[i], grid256.p[j], x0, p0, sigma),
            abs=1e-10)


def test_total_is_one_for_battery(battery256):
    for name, psi in battery256:
        assert wigner_transform(psi).total() == pytest.approx(
            1.0, abs=1e-9), name


def test_magnitude_bound_attained_and_never_exceeded(battery256, grid256):
    bound = 1.0 / np.pi
    peak = 0.0
    for name, psi in battery256:
        w = wigner_transform(psi)
        assert np.max(np.abs(w.values)) <= bound + 1e-9, name
        if name == "gauss-min":
            peak = np.max(w.values)
    assert peak == pytest.approx(bound, abs=1e-6)


def test_cat_state_negativity(grid256):
    w = wigner_transform(cat_state(grid256, 3.0, SQRT_HALF))
    assert w.values.min() < -0.05


def test_unnormalized_input_rejected(grid256):
    psi = gaussian_packet(grid256, 0.0, 0.0, 1.0)
    bad = Wavefunction(grid256, 2.0 * psi.samples)
    with pytest.raises(NormalizationError):
        wigner_transform(bad)


def test_marginals_match_densities_pointwise(battery256):
    for name, psi in battery256:
        w = wigner_transform(psi)
        assert np.max(np.abs(marginal_position(w)
                             - np.abs(psi.samples) ** 2)) < 1e-8, name
        assert np.max(np.abs(marginal_momentum(w)
                             - np.abs(momentum_samples(psi)) ** 2)) \
            < 1e-8, name


def test_marginal_values_ground_gaussian(grid256):
    w = wigner_transform(gaussian_packet(grid256, 0.0, 0.0, SQRT_HALF))
    center = np.argmin(np.abs(grid256.x))
    assert marginal_position(w)[center] == pytest.approx(
        1.0 / np.sqrt(np.pi), abs=1e-8)
    assert marginal_momentum(w)[np.argmin(np.abs(grid256.p))] \
        == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-8)
    assert np.sum(marginal_position(w)) * grid256.dx \
        == pytest.approx(1.0, abs=1e-9)
    assert np.sum(marginal_momentum(w)) * grid256.dp \
        == pytest.approx(1.0, abs=1e-9)


def test_momentum_marginal_peak_translates(grid256):
    w = wigner_transform(gaussian_packet(grid256, 0.0, 2.0, 0.8))
    density = marginal_momentum(w)
    assert abs(grid256.p[np.argmax(density)] - 2.0) <= grid256.dp


def test_cat_marginal_center_matches_density_oracle(grid256):
    psi = cat_state(grid256, 3.0, SQRT_HALF)
    w = wigner_transform(psi)
    center = np.argmin(np.abs(grid256.x))
    assert marginal_position(w)[center] == pytest.approx(
        float(np.abs(psi.samples[center]) ** 2), abs=1e-8)


def test_roundtrip_fidelity_battery(battery256):
    for name, psi in battery256:
        rec = reconstruct_wavefunction(wigner_transform(psi))
        assert fidelity(rec, psi) >= 1.0 - 1e-8, name


def test_reconstruction_handles_odd_parity(grid256):
    """The level-1 eigenstate vanishes at x = 0, so a phase anchored
    there would fail; the amplitude-maximum anchor must still recover
    it."""
    psi = harmonic_eigenstate(grid256, 1, 1.0)
    rec = reconstruct_wavefunction(wigner_transform(psi))
    assert fidelity(rec, psi) >= 1.0 - 1e-8


def test_reconstruction_phase_convention(grid256):
    psi = gaussian_packet(grid256, 1.0, 1.0, 1.0)
    w = wigner_transform(psi)
    rec = reconstruct_wavefunction(w)
    anchor = int(np.argmax(np.abs(rec.samples)))
    assert anchor == int(np.argmax(marginal_position(w)))
    assert rec.samples[anchor].imag == pytest.approx(0.0, abs=1e-12)
    assert rec.samples[anchor].real > 0


def _mixture(grid, weight=0.5):
    a = wigner_transform(harmonic_eigenstate(grid, 0, 1.0))
    b = wigner_transform(harmonic_eigenstate(grid, 1, 1.0))
    return WignerFunction(grid, weight * a.values + (1.0 - weight) * b.values)


def test_mixture_fails_purity_gate(grid256):
    with pytest.raises(PurityError):
        reconstruct_wavefunction(_mixture(grid256))


def test_purity_values(grid256, battery256):
    for name, psi in battery256:
        assert purity(wigner_transform(psi)) == pytest.approx(
            1.0, abs=1e-6), name
    assert purity(_mixture(grid256)) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("measure", [
    purity,
    lambda w: expectation_phase_space(w, {(1, 0): 1.0}),
    lambda w: forward_tomogram(w, [0.0]),
], ids=["purity", "expectation_phase_space", "forward_tomogram"])
def test_nan_field_fails_the_unit_mass_check(measure):
    g = square_grid(32)
    with pytest.raises(StateError, match="not normalized"):
        measure(WignerFunction(g, np.full((32, 32), np.nan)))


def test_characteristic_is_rank_one_kernel(grid256):
    psi = gaussian_packet(grid256, 1.0, -0.5, 0.9)
    z = to_characteristic(wigner_transform(psi))
    outer = psi.samples[:, None] * np.conj(psi.samples[None, :])
    assert np.max(np.abs(z.values - outer)) < 1e-8


def test_characteristic_diagonal_is_position_marginal(battery256):
    for name, psi in battery256:
        w = wigner_transform(psi)
        z = to_characteristic(w)
        diag = z.values.diagonal()
        assert np.max(np.abs(diag.imag)) < 1e-10, name
        assert np.max(np.abs(diag.real - marginal_position(w))) < 1e-10, name
        assert z.diagonal_total() == pytest.approx(1.0, abs=1e-9), name


def test_characteristic_hermitian(battery256):
    for name, psi in battery256:
        z = to_characteristic(wigner_transform(psi))
        assert z.hermiticity_defect() < 1e-10, name


def test_factorize_pure_state(grid256):
    psi = cat_state(grid256, 3.0, SQRT_HALF)
    z = to_characteristic(wigner_transform(psi))
    rec, residual = factorize_characteristic(z)
    assert residual < 1e-9
    assert fidelity(rec, psi) >= 1.0 - 1e-8


def test_factorize_equal_mixture_residual(grid256):
    z = to_characteristic(_mixture(grid256))
    _, residual = factorize_characteristic(z)
    assert residual == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("weight, tol", [(0.5001, 1e-12), (0.51, 1e-13)])
def test_factorize_near_equal_mixture_residual(grid256, weight, tol):
    """The power iteration raised ConvergenceError after 10,000 iterations
    on the 0.5001/0.4999 mixture, and read 0.4900000000059 on 0.51/0.49:
    its top two eigenvalues were too close for it to separate."""
    z = to_characteristic(_mixture(grid256, weight))
    _, residual = factorize_characteristic(z)
    assert residual == pytest.approx(1.0 - weight, abs=tol)


def test_factorize_refuses_a_nan_in_the_upper_triangle(grid256, monkeypatch):
    """eigh reads the lower triangle only: a NaN at [3, 70] still gave
    finite eigenvalues, so the whole kernel is checked first."""
    z = to_characteristic(wigner_transform(gaussian_packet(grid256, 0.0,
                                                           0.0, 1.0)))
    z.values[3, 70] = np.nan

    def solver(*args, **kwargs):
        raise AssertionError("eigh called on a kernel with a NaN entry")

    monkeypatch.setattr(np.linalg, "eigh", solver)
    with pytest.raises(StateError, match="not finite and Hermitian"):
        factorize_characteristic(z)


def test_factorize_zero_kernel(grid256):
    z = CharacteristicZ(grid256, np.zeros((256, 256), dtype=complex))
    with pytest.raises(ConvergenceError):
        factorize_characteristic(z)


@settings(max_examples=20, deadline=None)
@given(
    x0=st.floats(min_value=-3.0, max_value=3.0),
    p0=st.floats(min_value=-3.0, max_value=3.0),
    sigma=st.floats(min_value=0.4, max_value=1.2),
)
def test_transform_invariants_property(x0, p0, sigma):
    g = make_grid(256, -16.0, 16.0)
    w = wigner_transform(gaussian_packet(g, x0, p0, sigma))
    assert not np.iscomplexobj(w.values)
    assert w.total() == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-9
    # Gaussian Wigner functions are nonnegative
    assert w.values.min() >= -1e-9


def _centered(transform, a):
    """np.fft.fft or ifft along axis 1, from and to arrays indexed by
    j - n/2."""
    return np.fft.fftshift(
        transform(np.fft.ifftshift(a, axes=1), axis=1), axes=1)


def _full_width_transform(psi):
    """The complex Wigner transform over all n columns x' = (j - n/2) dx,
    which the Hermitian half-axis transform replaced, with its imaginary
    residue kept: the x' = -L/2 column, which has no +L/2 partner, keeps
    only its real part."""
    g, n = psi.grid, psi.grid.n
    fine = upsample2(psi.samples)
    k = np.arange(n)[:, None]
    off = (np.arange(n) - n // 2)[None, :]
    corr = np.conj(fine[(2 * k - off) % (2 * n)]) * fine[(2 * k + off) % (2 * n)]
    corr[:, 0] = corr[:, 0].real
    return _centered(np.fft.fft, corr) * (g.dx / (2.0 * np.pi * g.hbar))


def _full_width_characteristic(w):
    """The kernel that the complex inverse over all n columns of x' took
    from w, which the Hermitian half-axis inverse replaced."""
    g, n = w.grid, w.grid.n
    corr = _centered(np.fft.ifft, w.values.astype(complex)) \
        * (2.0 * np.pi * g.hbar / g.dx)
    fine = upsample2(corr)
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    raw = (a - b) + n // 2
    wrap = (raw // n) % 2
    return fine[(a + b + wrap * n) % (2 * n), raw % n]


def _assert_matches_full_width(psi):
    w = wigner_transform(psi)
    spec = _full_width_transform(psi)
    assert np.max(np.abs(spec.imag)) < 1e-12
    assert np.max(np.abs(w.values - spec.real)) <= 1e-15
    z = to_characteristic(w)
    assert np.max(np.abs(z.values - _full_width_characteristic(w))) <= 1e-15


@pytest.mark.parametrize("n", [8, 10, 64, 130, 256, 512])
def test_hermitian_pair_matches_full_width_pair_on_random_states(n):
    """Random samples are not band-limited, so the unpaired x' = -L/2
    column carries mass, which the Hermitian transform reads from its
    +L/2 mirror."""
    g = make_grid(n, -8.0, 8.0)
    rng = np.random.default_rng(n)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    _assert_matches_full_width(normalized(Wavefunction(g, samples)))


def test_hermitian_pair_matches_full_width_pair_on_battery(battery256):
    for _, psi in battery256:
        _assert_matches_full_width(psi)


def test_odd_sample_count_names_the_grid():
    """The refusal names the public input, not the private helper
    upsample2 that makes it."""
    psi = gaussian_packet(make_grid(63, -8.0, 8.0), 0.0, 0.0, 1.0)
    with pytest.raises(StateError, match=r"grid\.n = 63") as refusal:
        wigner_transform(psi)
    assert "upsample2" not in str(refusal.value)


def test_odd_sample_count_rejected():
    g = make_grid(65, -8.0, 8.0)
    with pytest.raises(StateError, match="even sample count"):
        wigner_transform(gaussian_packet(g, 0.0, 0.0, 1.0))
    with pytest.raises(StateError, match="even sample count"):
        to_characteristic(WignerFunction(g, np.zeros((65, 65))))
