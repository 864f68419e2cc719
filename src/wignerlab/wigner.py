"""Transforms between wavefunction, Wigner, and characteristic-function
representations.

The Wigner transform used here is

    W(x, p) = (2*pi*hbar)^-1 * integral dx'
              conj(psi(x - x'/2)) * psi(x + x'/2) * exp(-i p x' / hbar)

with the prefactor chosen so the discrete double integral of W is
exactly the squared norm of psi.  The x' integral is evaluated on a
doubled-resolution auxiliary axis (trigonometric interpolation), so
psi(x +/- x'/2) lands on sample points and no polynomial interpolation
is ever used.

The "centered" transform pair maps an array indexed by j' = j - n/2 to
one indexed by l' = l - n/2:

    F[l] = sum_j  a[j] exp(-2i*pi*(l - n/2)*(j - n/2)/n)

so that physically centered axes (x' = (j - n/2)*dx, p = (l - n/2)*dp)
transform into each other without explicit phase ramps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NormalizationError, PurityError, StateError
from .grid import PhaseGrid
from .states import Wavefunction, check_normalized

__all__ = [
    "WignerFunction", "CharacteristicZ",
    "wigner_transform", "marginal_position", "marginal_momentum",
    "reconstruct_wavefunction", "to_characteristic", "factorize_characteristic",
    "purity",
]

IMAG_RESIDUE_TOL = 1e-12
W_NORM_TOL = 1e-6     # allowed |1 - integral W dx dp| of a normalized field
PURITY_GATE = 0.999
FACTORIZE_MAX_ITER = 10000   # power-iteration cap
FACTORIZE_RTOL = 1e-12       # relative eigenvalue change that ends it


def centered(transform, a: np.ndarray, axis: int = -1) -> np.ndarray:
    """np.fft.fft or np.fft.ifft in the centered convention above."""
    return np.fft.fftshift(
        transform(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis)


def upsample2(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Trigonometric interpolation onto a lattice of doubled resolution.

    Zero-pads the spectrum; the Nyquist bin is split evenly between
    +/- Nyquist so real inputs stay real. Exact for band-limited data.
    """
    a = np.asarray(a)
    n = a.shape[axis]
    if n % 2:
        raise ValueError("upsample2 requires an even sample count")
    spec = np.moveaxis(np.fft.fft(a, axis=axis), axis, -1)
    padded = np.zeros(spec.shape[:-1] + (2 * n,), dtype=complex)
    half = n // 2
    padded[..., :half] = spec[..., :half]
    padded[..., 2 * n - half + 1:] = spec[..., half + 1:]
    # split the Nyquist bin
    padded[..., half] = padded[..., 2 * n - half] = 0.5 * spec[..., half]
    return np.moveaxis(2.0 * np.fft.ifft(padded), -1, axis)


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
        return float(np.max(np.abs(self.values - self.values.conj().T)))

    def diagonal_total(self) -> float:
        return float(np.sum(self.values.diagonal().real) * self.grid.dx)


def _correlation_half_axis(psi_samples: np.ndarray, n: int) -> np.ndarray:
    """C[k, j] = conj(psi(x_k - x'_j/2)) * psi(x_k + x'_j/2).

    x'_j = (j - n/2)*dx; psi is first upsampled to the half-step lattice
    so both factors are on sample points (periodic wrap at the edges).
    """
    fine = upsample2(psi_samples)
    k = np.arange(n)[:, None]
    off = (np.arange(n) - n // 2)[None, :]
    plus = (2 * k + off) % (2 * n)
    minus = (2 * k - off) % (2 * n)
    corr = np.conj(fine[minus]) * fine[plus]
    # x' = -L/2 has no +L/2 partner on the periodic axis; the symmetric
    # discretization keeps only the Hermitian (real) part of that bin,
    # which makes the transform exactly real-valued.
    corr[:, 0] = corr[:, 0].real
    return corr


def wigner_transform(psi: Wavefunction) -> WignerFunction:
    """Wigner distribution of a normalized pure state.

    The imaginary residue of the computed field is asserted below
    1e-12 and then discarded, turning a floating-point nuisance into a
    correctness check.
    """
    check_normalized(psi)
    g = psi.grid
    n = g.n
    corr = _correlation_half_axis(psi.samples, n)
    spec = centered(np.fft.fft, corr, axis=1) \
        * (g.dx / (2.0 * np.pi * g.hbar))
    residue = float(np.max(np.abs(spec.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise NormalizationError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL}")
    return WignerFunction(g, np.ascontiguousarray(spec.real), psi.t)


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
    interpolation is required.
    """
    g = w.grid
    n = g.n
    # inverse of the transform used in wigner_transform: recovers
    # C[k, j] = conj(psi(x_k - x'_j/2)) psi(x_k + x'_j/2) exactly
    corr = centered(np.fft.ifft, w.values.astype(complex), axis=1) \
        * (2.0 * np.pi * g.hbar / g.dx)
    fine = upsample2(corr, axis=0)  # midpoint axis at spacing dx/2
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    raw = (a - b) + n // 2
    sep = raw % n
    # separations beyond +/- L/2 wrap through the periodic boundary,
    # which displaces the consistent midpoint by half the domain
    wrap = (raw // n) % 2
    mid = (a + b + wrap * n) % (2 * n)
    return CharacteristicZ(g, fine[mid, sep], w.t)


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
    """Dominant eigenfunction of the Hermitian kernel Z, plus residual.

    Power iteration on the quadrature-weighted kernel Z*dx; residual is
    1 - lambda_max / trace, which vanishes for exactly rank-1 kernels.
    Returns (Wavefunction, residual).
    """
    g = z.grid
    dx = g.dx
    mat = z.values * dx
    trace = float(np.trace(z.values).real) * dx
    # start from the column through the largest diagonal entry
    v = z.values[:, np.argmax(np.abs(z.values.diagonal()))].astype(complex)
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0 or trace == 0.0:
        raise ConvergenceError("kernel is numerically zero")
    v /= vnorm
    lam_prev = None
    for _ in range(FACTORIZE_MAX_ITER):
        w = mat @ v
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            raise ConvergenceError("power iteration collapsed to zero")
        lam = float(np.real(np.vdot(v, w)))
        v = w / wnorm
        if (lam_prev is not None
                and abs(lam - lam_prev) <= FACTORIZE_RTOL * abs(lam)):
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {FACTORIZE_MAX_ITER} "
            "iterations")
    residual = 1.0 - lam / trace
    # normalize and anchor the phase at the amplitude maximum
    v = v / np.sqrt(np.sum(np.abs(v) ** 2) * dx)
    peak = int(np.argmax(np.abs(v)))
    phase = v[peak] / abs(v[peak])
    v = v * np.conj(phase)
    return Wavefunction(g, v, z.t), float(residual)
