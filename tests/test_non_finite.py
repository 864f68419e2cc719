"""NaN and +/-inf at the Python API: every public constructor and
propagator either raises a WignerlabError at set-up or returns finite
numbers, never a silently NaN-filled result."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from wignerlab import (CharacteristicZ, Tomogram, Wavefunction,
                       WignerlabError, gaussian_packet, harmonic, make_grid,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       superpose, to_characteristic, wigner_transform)

N = 32
GRID = make_grid(N, -6.0, 6.0)
PSI = gaussian_packet(GRID, 0.0, 0.0, 1.0)
W = wigner_transform(PSI)
Z = to_characteristic(W)
LEFT = gaussian_packet(GRID, -0.5, 0.0, 1.0)
RIGHT = gaussian_packet(GRID, 0.5, 0.0, 1.0)
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
       value=st.sampled_from((None, *NON_FINITE, complex(0.0, math.inf))))
def test_non_finite_input_raises_or_stays_finite(x_min, x_max, re, im, mu,
                                                 nu, dt, entry, value):
    """Bounds, a coefficient, a frame, each route's dt and one kernel
    entry (value None leaves the kernel as it is)."""
    def grid():
        g = make_grid(N, x_min, x_max)
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
