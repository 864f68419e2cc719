"""Transforms between wavefunction, Wigner, and characteristic-function
representations.

The Wigner transform used here is

    W(x, p) = (2*pi*hbar)^-1 * integral dx'
              conj(psi(x - x'/2)) * psi(x + x'/2) * exp(-i p x' / hbar)

with the prefactor chosen so the discrete double integral of W is
exactly the squared norm of psi.  The x' integral is evaluated on a
doubled-resolution auxiliary axis (trigonometric interpolation), so
psi(x +/- x'/2) lands on sample points and no polynomial interpolation
is ever used.  On that periodic lattice of 2n points, y_a = x_a is fine
index 2a, and a pair with fine midpoint j and separation s has its ends
at fine indices j +/- s; both gathers below follow this rule.

The correlation C(x, x') = conj(psi(x - x'/2)) psi(x + x'/2) is
Hermitian in x', so only its columns x' = c*dx, c = 0 .. n/2, are
built, and the pair over p is numpy's Hermitian FFT pair (hfft,
ihfft): W is real by type.  The x' = -L/2 column, which has no +L/2
partner on the periodic axis, enters as the real part of column n/2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PurityError, StateError
from .grid import PhaseGrid
from .states import Wavefunction, check_normalized

__all__ = [
    "WignerFunction", "CharacteristicZ",
    "wigner_transform", "marginal_position", "marginal_momentum",
    "reconstruct_wavefunction", "to_characteristic", "factorize_characteristic",
    "purity",
]

W_NORM_TOL = 1e-6     # allowed |1 - integral W dx dp| of a normalized field
PURITY_GATE = 0.999
HERMITICITY_TOL = 1e-10   # allowed max |Z - conj(Z^T)| of a kernel


def upsample2(a: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation along axis 0 at doubled resolution.

    Zero-pads the spectrum; the Nyquist bin is split evenly between
    +/- Nyquist so real inputs stay real. Exact for band-limited data.
    """
    n = a.shape[0]
    if n % 2:
        raise StateError(f"upsample2 needs an even sample count, got n = {n}")
    spec = np.fft.fft(a, axis=0)
    padded = np.zeros((2 * n,) + a.shape[1:], dtype=complex)
    half = n // 2
    padded[:half] = spec[:half]
    padded[2 * n - half + 1:] = spec[half + 1:]
    # split the Nyquist bin
    padded[half] = padded[2 * n - half] = 0.5 * spec[half]
    return 2.0 * np.fft.ifft(padded, axis=0)


@dataclass(frozen=True)
class WignerFunction:
    """Real field on the (x, p) lattice; axis 0 is x, axis 1 is p."""

    grid: PhaseGrid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape != (n, n):
            raise StateError(f"Wigner field must be {n}x{n}, "
                             f"got {self.values.shape}")
        if np.iscomplexobj(self.values):
            raise StateError("Wigner field must be real-valued")

    def total(self) -> float:
        """Discrete double integral of W."""
        return float(np.sum(self.values) * self.grid.dx * self.grid.dp)

    def check_normalized(self) -> None:
        """StateError unless the field integrates to 1 within W_NORM_TOL."""
        total = self.total()
        if not abs(total - 1.0) <= W_NORM_TOL:   # NaN too
            raise StateError(
                f"Wigner field not normalized: integral = {total!r}")


@dataclass(frozen=True)
class CharacteristicZ:
    """Complex kernel Z(y, y') = psi(y) conj(psi(y')) for pure states.

    Both axes run over the grid's position samples; axis 0 is y,
    axis 1 is y'.  Hermitian by construction from a real Wigner field.
    """

    grid: PhaseGrid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        n = self.grid.n
        if self.values.shape != (n, n):
            raise StateError(f"characteristic kernel must be {n}x{n}, "
                             f"got {self.values.shape}")

    def hermiticity_defect(self) -> float:
        shape = self.values.shape
        return _hermiticity_defect(self.values, np.empty(shape, complex),
                                   np.empty(shape))

    def diagonal_total(self) -> float:
        return float(self.values.diagonal().real.sum() * self.grid.dx)


def _hermiticity_defect(values: np.ndarray, work: np.ndarray,
                        magnitude: np.ndarray) -> float:
    """max |Z - conj(Z^T)| (NaN if any entry is NaN), written through the
    caller's complex work buffer and real magnitude buffer."""
    np.conjugate(values.T, out=work)
    np.subtract(values, work, out=work)
    np.abs(work, out=magnitude)
    return float(magnitude.max())


def _correlation_half_axis(psi_samples: np.ndarray) -> np.ndarray:
    """C[k, c] = conj(psi(x_k - x'_c/2)) * psi(x_k + x'_c/2).

    x'_c = c*dx for c = 0 .. n/2; the columns x' < 0 are their mirrors'
    conjugates bit for bit, since both use the same four real products.
    psi is first upsampled to the half-step lattice so both factors are
    on sample points (periodic wrap at the edges).
    """
    n = len(psi_samples)
    fine = upsample2(psi_samples)
    k = np.arange(n)[:, None]
    off = np.arange(n // 2 + 1)[None, :]
    plus = (2 * k + off) % (2 * n)
    minus = (2 * k - off) % (2 * n)
    return np.conj(fine[minus]) * fine[plus]


def wigner_transform(psi: Wavefunction) -> WignerFunction:
    """Wigner distribution of a normalized pure state.

    The Hermitian FFT (hfft) of the correlation's columns x' >= 0 sums
    over every x', so the field is real by type.
    """
    check_normalized(psi)
    g = psi.grid
    n = g.n
    corr = _correlation_half_axis(psi.samples)
    values = np.fft.fftshift(np.fft.hfft(corr, n, axis=1), axes=1) \
        * (g.dx / (2.0 * np.pi * g.hbar))
    return WignerFunction(g, values, psi.t)


def marginal_position(w: WignerFunction) -> np.ndarray:
    """integral W(x, p) dp == |psi(x)|^2 on the position axis."""
    return w.values.sum(axis=1) * w.grid.dp


def marginal_momentum(w: WignerFunction) -> np.ndarray:
    """integral W(x, p) dx == |Phi(p)|^2 on the momentum axis."""
    return w.values.sum(axis=0) * w.grid.dx


def to_characteristic(w: WignerFunction) -> CharacteristicZ:
    """Fourier transform of W over p, re-indexed to (y, y') coordinates.

    Z(y, y') = integral W((y + y')/2, p) exp(i p (y - y') / hbar) dp.
    The midpoint lands on the doubled-resolution x lattice, so no
    interpolation is required.  The inverse Hermitian FFT (ihfft) of W
    over p gives the correlation's columns x' >= 0; a negative
    separation takes its mirror's conjugate.
    """
    g = w.grid
    n = g.n
    # inverse of the transform used in wigner_transform: recovers
    # C[k, c] = conj(psi(x_k - x'_c/2)) psi(x_k + x'_c/2), c = 0 .. n/2
    corr = np.fft.ihfft(np.fft.ifftshift(w.values, axes=1), axis=1) \
        * (2.0 * np.pi * g.hbar / g.dx)
    fine = upsample2(corr)  # midpoint axis at spacing dx/2
    a = np.arange(n)[:, None]
    sep = (a - np.arange(n)[None, :] + n // 2) % n - n // 2
    # y_a (fine index 2a) is the end j + sep of the midpoint j = 2a - sep
    mid = (2 * a - sep) % (2 * n)
    values = fine[mid, np.abs(sep)]
    np.conjugate(values, out=values, where=sep < 0)
    return CharacteristicZ(g, values, w.t)


def purity(w: WignerFunction) -> float:
    """2 pi hbar * integral W^2; 1 for pure states, < 1 for mixtures."""
    w.check_normalized()
    g = w.grid
    return float(2.0 * np.pi * g.hbar * np.sum(w.values ** 2) * g.dx * g.dp)


def reconstruct_wavefunction(w: WignerFunction) -> Wavefunction:
    """Recover the pure state underlying a Wigner field.

    psi is the dominant eigenfunction of the rank-1 characteristic kernel
    psi(y) conj(psi(y')) (factorize_characteristic): normalized, and real
    and positive at its amplitude maximum.  PurityError below the gate.
    """
    pur = purity(w)
    if pur < PURITY_GATE:
        raise PurityError(f"purity {pur:.6f} below gate {PURITY_GATE}; "
                          "field is not a pure state")
    return factorize_characteristic(to_characteristic(w))[0]


def factorize_characteristic(z: CharacteristicZ):
    """Top eigenpair of the Hermitian kernel Z, plus residual.

    numpy's Hermitian eigensolver (eigh) on the quadrature-weighted
    kernel Z*dx; residual is 1 - lambda_max / trace, which vanishes for
    exactly rank-1 kernels.  eigh reads one triangle only, so the whole
    kernel must first be finite and Hermitian within HERMITICITY_TOL.
    Returns (Wavefunction, residual).
    """
    defect = z.hermiticity_defect()
    if not defect <= HERMITICITY_TOL:   # NaN or inf for a non-finite entry
        raise StateError(f"characteristic kernel is not finite and "
                         f"Hermitian: Hermiticity defect {defect:.3e}")
    g = z.grid
    dx = g.dx
    trace = float(np.trace(z.values).real) * dx
    if trace == 0.0:
        raise ConvergenceError("kernel is numerically zero")
    eigenvalues, eigenvectors = np.linalg.eigh(z.values * dx)
    lam, v = eigenvalues[-1], eigenvectors[:, -1]
    residual = 1.0 - lam / trace
    # normalize and anchor the phase at the amplitude maximum
    v = v / np.sqrt(np.sum(np.abs(v) ** 2) * dx)
    peak = int(np.argmax(np.abs(v)))
    phase = v[peak] / abs(v[peak])
    v = v * np.conj(phase)
    return Wavefunction(g, v, z.t), float(residual)
