import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import GridError, PhaseGrid, make_grid, square_grid
from wignerlab.grid import MAX_N


def test_conjugacy_example_n8():
    g = make_grid(8, -4.0, 4.0)
    assert g.dx == 1.0
    assert g.dp == pytest.approx(2.0 * np.pi / 8.0, abs=1e-15)


def test_conjugacy_example_n256():
    g = make_grid(256, -10.0, 10.0)
    assert g.dx == 0.078125
    assert g.dp == pytest.approx(2.0 * np.pi / (256 * 0.078125), abs=1e-15)


def test_axis_conventions():
    g = make_grid(64, -8.0, 8.0)
    assert g.x[0] == g.x_min
    assert np.allclose(np.diff(g.x), g.dx)
    # momentum axis is monotonic, centered: sample j sits at (j - n/2) dp
    assert np.allclose(g.p, (np.arange(64) - 32) * g.dp)
    assert g.p[32] == 0.0


def test_degenerate_bounds_rejected():
    with pytest.raises(GridError):
        make_grid(8, 4.0, -4.0)


def test_small_n_rejected():
    with pytest.raises(GridError):
        make_grid(7, -4.0, 4.0)


@pytest.mark.parametrize("kwargs", [
    {"hbar": 0.0}, {"hbar": -1.0}, {"mass": 0.0}, {"mass": -2.0},
])
def test_nonpositive_physical_constants_rejected(kwargs):
    with pytest.raises(GridError):
        make_grid(16, -4.0, 4.0, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"x_max": np.inf}, {"x_min": -np.inf}, {"x_min": np.nan},
    {"x_min": np.inf, "x_max": np.inf}, {"hbar": np.inf}, {"hbar": np.nan},
    {"mass": np.inf}, {"mass": np.nan},
])
def test_non_finite_grid_parameters_rejected(kwargs):
    """make_grid(64, -8, inf) used to return a grid with dx = inf."""
    with pytest.raises(GridError):
        make_grid(**{"n": 64, "x_min": -8.0, "x_max": 8.0, **kwargs})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x_min, x_max, hbar", [
    (-1e308, 1e308, 1.0),   # dx overflows
    (0.0, 1e-320, 1.0),     # dp overflows
    (0.0, 5e-324, 1.0),     # dx underflows to zero
    (-8.0, 8.0, 1e308),     # dp overflows
])
def test_grid_spacings_must_be_finite_and_positive(x_min, x_max, hbar):
    """make_grid(8, -1e308, 1e308) used to return dx = inf with NaN in x,
    and make_grid(8, 0.0, 1e-320) dp = inf, with only a RuntimeWarning."""
    named = f"x_min={x_min}, x_max={x_max}, n=8, hbar={hbar} give dx="
    with pytest.raises(GridError, match=re.escape(named)):
        make_grid(8, x_min, x_max, hbar=hbar)


@pytest.mark.parametrize("n", [100.9, 64.0, np.nan, np.inf, "64"])
def test_non_integer_n_rejected(n):
    """make_grid(100.9, ...) used to truncate to n = 100, and NaN raised
    a bare ValueError."""
    with pytest.raises(GridError, match="must be an integer"):
        make_grid(n, -8.0, 8.0)


@pytest.mark.parametrize("n", [64.5, 64.0, True, np.nan])
def test_phase_grid_refuses_a_non_integer_n(n):
    """Only make_grid checked the type: PhaseGrid(64.5, -8.0, 8.0) built
    a grid with n = 64.5 and 65 samples on each axis."""
    with pytest.raises(GridError, match="must be an integer"):
        PhaseGrid(n, -8.0, 8.0)


@pytest.mark.parametrize("n", [10 ** 30, MAX_N + 1])
def test_grid_size_is_bounded(n):
    """make_grid(10**30, -8, 8) used to return a grid whose first axis
    failed with a numpy error; the refusal comes before any array."""
    for build in (lambda: make_grid(n, -8.0, 8.0),
                  lambda: PhaseGrid(n, -8.0, 8.0), lambda: square_grid(n)):
        with pytest.raises(GridError, match=f"grid.n must be an integer "
                                            f"in 8..{MAX_N}"):
            build()
    assert make_grid(MAX_N, -8.0, 8.0).n == MAX_N


def test_numpy_integer_n_accepted():
    assert make_grid(np.int64(64), -8.0, 8.0) == make_grid(64, -8.0, 8.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, hbar, name", [
    (0, 1.0, "grid.n"), (8, -1.0, "grid.hbar"), (8, np.nan, "grid.hbar")])
def test_square_grid_names_a_bad_n_or_hbar(n, hbar, name):
    """square_grid took sqrt(2 pi hbar / n) before checking either: n = 0
    raised ZeroDivisionError, and hbar = -1 warned in sqrt and then named
    x_min."""
    with pytest.raises(GridError, match=name):
        square_grid(n, hbar=hbar)


def test_square_grid_has_equal_spacings():
    g = square_grid(128, hbar=0.5)
    assert g.dx == pytest.approx(g.dp, rel=1e-15)
    assert g.is_centered()


@settings(max_examples=50, deadline=None)
@given(
    exponent=st.integers(min_value=3, max_value=10),
    x_min=st.floats(min_value=-50.0, max_value=-0.5),
    width=st.floats(min_value=1.0, max_value=100.0),
    hbar=st.floats(min_value=0.01, max_value=10.0),
)
def test_conjugacy_invariant(exponent, x_min, width, hbar):
    g = make_grid(2 ** exponent, x_min, x_min + width, hbar=hbar)
    target = 2.0 * np.pi * hbar
    assert abs(g.dx * g.dp * g.n - target) <= 4 * np.finfo(float).eps * target
    assert np.all(np.diff(g.x) > 0)
    assert np.all(np.diff(g.p) > 0)


def test_axes_deterministic():
    a = make_grid(128, -7.0, 9.0, hbar=0.3)
    b = make_grid(128, -7.0, 9.0, hbar=0.3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.p, b.p)
