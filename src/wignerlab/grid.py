"""Position/momentum lattice with exact FFT conjugacy.

The momentum spacing is derived from the position spacing so that
dx * dp * n == 2*pi*hbar holds exactly; every spectral kernel in the
package relies on this identity. Both axes are stored in monotonic
order; fft-shifted layouts are produced internally where needed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = ["PhaseGrid", "make_grid", "square_grid"]


@dataclass(frozen=True)
class PhaseGrid:
    """Immutable discretization of one (x, p) phase plane.

    x samples: x_min + k*dx, k = 0..n-1 (right endpoint excluded,
    domain periodic).  p samples: (j - n/2)*dp, monotonic and centered
    on zero.  hbar and mass live here so that every downstream
    operation has a single source of truth for units.
    """

    n: int
    x_min: float
    x_max: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.n < 8:
            raise GridError(f"grid.n must be >= 8, got {self.n}")
        if not -np.inf < self.x_min < self.x_max < np.inf:   # NaN too
            raise GridError(f"bounds must be finite with x_min < x_max, "
                            f"got x_min={self.x_min}, x_max={self.x_max}")
        if not 0 < self.hbar < np.inf:
            raise GridError(f"grid.hbar must be finite and positive, "
                            f"got {self.hbar}")
        if not 0 < self.mass < np.inf:
            raise GridError(f"grid.mass must be finite and positive, "
                            f"got {self.mass}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def dp(self) -> float:
        # Conjugacy: dx * dp * n == 2*pi*hbar
        return 2.0 * np.pi * self.hbar / (self.n * self.dx)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + np.arange(self.n) * self.dx

    @property
    def p(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dp

    def wavenumbers_x(self) -> np.ndarray:
        """Angular frequencies conjugate to x, in fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def is_centered(self) -> bool:
        """True when the position axis is symmetric about x = 0, to
        1e-9 of a cell."""
        return abs(self.x_min + self.x_max) <= 1e-9 * self.dx


def make_grid(n: int, x_min: float, x_max: float,
              hbar: float = 1.0, mass: float = 1.0) -> PhaseGrid:
    """Construct a validated PhaseGrid (see PhaseGrid for conventions)."""
    return PhaseGrid(n=int(n), x_min=float(x_min), x_max=float(x_max),
                     hbar=float(hbar), mass=float(mass))


def square_grid(n: int, hbar: float = 1.0, mass: float = 1.0) -> PhaseGrid:
    """Grid with equal position and momentum extents (dx == dp).

    Tomographic rotations mix the two axes, so equal extents keep the
    rotated content inside the periodic domain for every angle.
    """
    dx = np.sqrt(2.0 * np.pi * hbar / n)
    half = 0.5 * n * dx
    return make_grid(n, -half, half, hbar=hbar, mass=mass)
