"""NaN and +/-inf at the Python API: every public constructor and
propagator either raises a WignerlabError at set-up or returns finite
numbers, never a silently NaN-filled result."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import (CharacteristicZ, PotentialError, Tomogram,
                       Wavefunction, WignerlabError, classical_trajectory,
                       double_well, forward_tomogram, gaussian_packet,
                       harmonic, harmonic_eigenstate, make_grid, polynomial,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       quartic, square_grid, superpose, to_characteristic,
                       wigner_transform)

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


def maybe(valid):
    """A valid value or a non-finite one."""
    return st.sampled_from((valid, *NON_FINITE))


def numbers(state) -> np.ndarray:
    return state.samples if isinstance(state, Wavefunction) else state.values


@settings(max_examples=25, deadline=None)
@given(x_min=maybe(-6.0), x_max=maybe(6.0), re=maybe(0.5), im=maybe(0.0),
       mu=maybe(0.6), nu=maybe(0.8), dt=maybe(0.01),
       entry=st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
       value=st.sampled_from((None, *NON_FINITE, complex(0.0, math.inf))),
       omega=maybe(1.0), lam=maybe(0.1), a=maybe(-1.0), b=maybe(0.5),
       c=maybe(0.2), x0=maybe(0.5), p0=maybe(0.3), sigma=maybe(1.0),
       level=maybe(2), n=maybe(N), mass=maybe(1.0), angle=maybe(0.5))
def test_non_finite_input_raises_or_stays_finite(
        x_min, x_max, re, im, mu, nu, dt, entry, value, omega, lam, a, b, c,
        x0, p0, sigma, level, n, mass, angle):
    """Bounds and n of a grid, a coefficient, a frame, each route's dt,
    one kernel entry (value None leaves the kernel as it is), every
    scalar of the potential and state constructors and of a classical
    trajectory, and a tomogram angle."""
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
             route(propagate_characteristic, Z), kernel)
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
