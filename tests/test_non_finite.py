"""NaN, +/-inf and the tiniest floats at the Python API: every public
constructor and propagator either raises a WignerlabError at set-up or
returns finite numbers, never a silently NaN-filled result.  So does a
bool where a count is due."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import (CharacteristicZ, GridError, PotentialError,
                       PropagationError, StateError, Tomogram, Wavefunction,
                       WignerlabError, classical_trajectory, cross_validate,
                       double_well, ehrenfest_track,
                       expectation_phase_space, factorize_characteristic,
                       forward_tomogram, gaussian_packet, harmonic,
                       harmonic_eigenstate, make_grid, polynomial,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       quartic, sample_steps, square_grid, superpose,
                       to_characteristic, wigner_transform)

N = 32
GRID = make_grid(N, -6.0, 6.0)
PSI = gaussian_packet(GRID, 0.0, 0.0, 1.0)
W = wigner_transform(PSI)
Z = to_characteristic(W)
LEFT = gaussian_packet(GRID, -0.5, 0.0, 1.0)
RIGHT = gaussian_packet(GRID, 0.5, 0.0, 1.0)
WIDE = make_grid(64, -8.0, 8.0)   # resolves the omega = 1 eigenstates
SQUARE = wigner_transform(gaussian_packet(square_grid(N), 0.0, 0.0, 1.0))
NON_FINITE = (math.nan, math.inf, -math.inf)
TINY = (1e-300, 5e-324)   # the last one subnormal


def maybe(valid, *extreme):
    """A valid value, an extreme finite one, a tiny one or a non-finite
    one."""
    return st.sampled_from((valid, *extreme, *TINY, *NON_FINITE))


def numbers(state) -> np.ndarray:
    return state.samples if isinstance(state, Wavefunction) else state.values


@settings(max_examples=25, deadline=None)
@given(x_min=maybe(-6.0, -1e308), x_max=maybe(6.0, 1e308),
       re=maybe(0.5), im=maybe(0.0),
       mu=maybe(0.6), nu=maybe(0.8), dt=maybe(0.01),
       entry=st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
       value=st.sampled_from((None, *NON_FINITE, complex(0.0, math.inf))),
       omega=maybe(1.0), lam=maybe(0.1), a=maybe(-1.0), b=maybe(0.5),
       c=maybe(0.2), x0=maybe(0.5), p0=maybe(0.3), sigma=maybe(1.0),
       level=maybe(2), n=maybe(N), mass=maybe(1.0), angle=maybe(0.5),
       t_final=maybe(0.02), coeff=maybe(1.0))
def test_non_finite_input_raises_or_stays_finite(
        x_min, x_max, re, im, mu, nu, dt, entry, value, omega, lam, a, b, c,
        x0, p0, sigma, level, n, mass, angle, t_final, coeff):
    """Bounds (+/-1e308 among them, whose dx overflows) and n of a grid,
    a coefficient, a frame, each route's dt, one kernel entry (value
    None leaves the kernel as it is), every scalar of the potential and
    state constructors and of a classical trajectory, a tomogram angle,
    the dt and t_final of a schedule, of cross_validate and (dt) of
    ehrenfest_track, and a moment's coefficient."""
    def grid():
        g = make_grid(n, x_min, x_max)
        return g.x, g.p

    def superposition():
        state, pre_norm = superpose([LEFT, RIGHT], [1.0, complex(re, im)])
        return state.samples, pre_norm

    def route(propagate, state, **kwargs):
        return lambda: (numbers(propagate(state, harmonic(1.0), dt, 2,
                                          **kwargs)),)

    def kernel():
        values = Z.values.copy()
        if value is not None:
            values[entry] = value
        z = CharacteristicZ(GRID, values)
        return (propagate_characteristic(z, harmonic(1.0), 0.01, 2).values,)

    cases = (grid, superposition,
             lambda: (harmonic(omega).coefficients,),
             lambda: (quartic(lam).coefficients,),
             lambda: (double_well(a, b).coefficients,),
             lambda: (polynomial([1.0, c]).coefficients,),
             lambda: (gaussian_packet(GRID, x0, p0, sigma).samples,),
             lambda: (harmonic_eigenstate(WIDE, level, omega).samples,),
             lambda: (classical_trajectory(x0, p0, harmonic(1.0), [0.02],
                                           0.01, mass),),
             lambda: (forward_tomogram(SQUARE, [0.0, angle]).values,),
             lambda: (Tomogram(((mu, nu),), GRID.x, np.ones((1, N))).frames,),
             route(propagate_schrodinger, PSI), route(propagate_moyal_exact, W),
             route(propagate_moyal_truncated, W, n_max=1),
             route(propagate_characteristic, Z), kernel,
             lambda: (np.array(sample_steps([0.02], dt, 0.0, t_final),
                               dtype=float),),
             lambda: (cross_validate(PSI, harmonic(1.0), t_final, dt,
                                     [0.02]).max_pairwise(),),
             lambda: (ehrenfest_track(PSI, harmonic(1.0), [0.02], dt),),
             lambda: (expectation_phase_space(W, {(1, 0): coeff}),))
    for case in cases:
        try:
            with np.errstate(all="ignore"):
                result = case()
        except WignerlabError:
            continue
        for array in result:
            assert np.all(np.isfinite(array)), case


@pytest.mark.parametrize("build", [
    lambda: harmonic(math.nan), lambda: quartic(math.inf),
    lambda: polynomial([0.0, math.nan]), lambda: double_well(math.nan, 1.0),
    lambda: harmonic(1.0).derivative(0.0, -1),
    lambda: harmonic(1.0).derivative(0.0, 1.5)],
    ids=["harmonic", "quartic", "polynomial", "double_well", "derivative",
         "fractional-order"])
def test_potential_errors_are_wignerlab_errors(build):
    """These raised a bare ValueError (TypeError for order 1.5), which a
    caller catching WignerlabError missed; scenarios still turn it into
    ConfigError."""
    with pytest.raises(PotentialError) as caught:
        build()
    assert isinstance(caught.value, WignerlabError)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("entry", [(3, 20), (20, 3)], ids=["upper", "lower"])
def test_factorize_refuses_a_nan_entry_in_either_triangle(monkeypatch, entry):
    """numpy's eigh reads one triangle only, so the input checks must see
    the whole kernel: a NaN in either one is refused before it solves."""
    values = Z.values.copy()
    values[entry] = math.nan

    def solver(*args, **kwargs):
        raise AssertionError("eigh reached with a NaN entry")

    monkeypatch.setattr(np.linalg, "eigh", solver)
    with pytest.raises(WignerlabError):
        factorize_characteristic(CharacteristicZ(GRID, values))


@pytest.mark.parametrize("build, error, message", [
    (lambda: propagate_schrodinger(PSI, harmonic(1.0), 0.01, True),
     PropagationError, "steps must be an integer"),
    (lambda: propagate_moyal_truncated(W, harmonic(1.0), 0.01, 1,
                                       n_max=True),
     PropagationError, "n_max must be an integer"),
    (lambda: harmonic_eigenstate(WIDE, True, 1.0),
     StateError, "level must be an integer"),
    (lambda: harmonic(1.0).derivative(0.0, True),
     PotentialError, "derivative order must be >= 0 and an integer"),
    (lambda: make_grid(True, -6.0, 6.0), GridError, "must be an integer"),
    (lambda: expectation_phase_space(W, {(True, 0): 1.0}),
     StateError, "integer exponents")],
    ids=["steps", "n_max", "level", "derivative-order", "grid-n",
         "monomial-exponent"])
def test_a_bool_is_no_count(build, error, message):
    """bool is an int to isinstance: propagate_schrodinger(psi, V, 0.01,
    True) ran one step and harmonic_eigenstate(g, True, 1.0) built
    level 1, while a config's `true` was already refused."""
    with pytest.raises(error, match=message):
        build()
