"""Input checks that no other test reaches: each refusal below raises
the error it names, and the two degenerate inputs that are no error
have their defined result."""

import numpy as np
import pytest

from wignerlab import (CharacteristicZ, ConfigError, StateError, Tomogram,
                       TomographyError, Wavefunction, WignerFunction,
                       boundary_mass, gaussian_packet, harmonic_eigenstate,
                       inverse_tomogram, make_grid, moments, polynomial,
                       square_grid, superpose)
from wignerlab.scenarios import builtin_config, load_config

N = 32
GRID = make_grid(N, -6.0, 6.0)
PSI = gaussian_packet(GRID, 0.0, 0.0, 1.0)
SQUARE = square_grid(N)


def _blank_tomogram() -> Tomogram:
    """An equispaced fan of 32 frames whose densities are all zero."""
    angles = np.arange(32) * np.pi / 32
    return Tomogram(tuple(zip(np.cos(angles), np.sin(angles))), SQUARE.x,
                    np.zeros((32, N)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Wavefunction(GRID, np.zeros(N + 1, complex)),
     StateError, "samples length"),
    (lambda: harmonic_eigenstate(make_grid(64, -3.0, 3.0), 20, 1.0),
     StateError, "level 20 extends to"),
    (lambda: superpose([PSI], [1.0, 1.0]), StateError, "must be non-empty"),
    (lambda: superpose([], []), StateError, "must be non-empty"),
    (lambda: superpose([PSI, Wavefunction(GRID, PSI.samples, 1.0)],
                       [1.0, 1.0]),
     StateError, "matching time stamps"),
    (lambda: WignerFunction(GRID, np.zeros((N, N + 1))),
     StateError, "Wigner field must be 32x32"),
    (lambda: WignerFunction(GRID, np.zeros((N, N), complex)),
     StateError, "must be real-valued"),
    (lambda: CharacteristicZ(GRID, np.zeros((N + 1, N), complex)),
     StateError, "characteristic kernel must be 32x32"),
    (lambda: Tomogram((), GRID.x, np.zeros((0, N))),
     TomographyError, "at least one frame"),
    (lambda: inverse_tomogram(_blank_tomogram(), SQUARE),
     TomographyError, "nonpositive total mass"),
    (lambda: moments(PSI.samples), StateError, "moments expects a state"),
    (lambda: builtin_config("no-such-scenario"),
     ConfigError, "unknown built-in scenario"),
    (lambda: load_config("no/such/dir/config.yaml"),
     ConfigError, "cannot read config")],
    ids=["wavefunction-shape", "eigenstate-domain", "superpose-lengths",
         "superpose-empty", "superpose-times", "wigner-shape",
         "wigner-complex", "kernel-shape", "tomogram-no-frames",
         "inverse-zero-mass", "moments-not-a-state", "unknown-builtin",
         "unreadable-config"])
def test_refused_input_names_its_fault(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("value, expected", [
    (lambda: boundary_mass(np.zeros((N, N))), 0.0),
    (lambda: polynomial([]).coefficients, (0.0,)),
    (lambda: polynomial([]).value(GRID.x).tolist(), [0.0] * N)],
    ids=["boundary-mass-of-zeros", "empty-polynomial",
         "empty-polynomial-value"])
def test_degenerate_input_has_its_defined_result(value, expected):
    assert value() == expected
