import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import GridError, make_grid, square_grid


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


@pytest.mark.parametrize("n", [100.9, 64.0, np.nan, np.inf, "64"])
def test_non_integer_n_rejected(n):
    """make_grid(100.9, ...) used to truncate to n = 100, and NaN raised
    a bare ValueError."""
    with pytest.raises(GridError, match="must be an integer"):
        make_grid(n, -8.0, 8.0)


def test_numpy_integer_n_accepted():
    assert make_grid(np.int64(64), -8.0, 8.0) == make_grid(64, -8.0, 8.0)


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
