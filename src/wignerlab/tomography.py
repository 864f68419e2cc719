"""Quadrature marginals of the Wigner function over rotated phase-space
frames, and filtered back-projection reconstruction.

Frames are pure rotations (mu, nu) = (cos t, sin t) with mu^2 + nu^2 = 1.

By the Fourier-slice theorem the spectrum of the projection at angle t
is the radial line k (mu, nu) of the 2-D spectrum of W.  The lattice
sums between the (x, p) grid and these polar frequencies are the type-2
(forward: gather) and type-1 (inverse: spread) non-uniform FFTs
(Greengard & Lee, SIAM Rev. 46:443 (2004)) on one kernel, the
"exponential of semicircle" exp(beta (sqrt(1 - z^2) - 1)) (Barnett,
Magland & af Klinteberg, SIAM J. Sci. Comput. 41:C479 (2019)), over a
periodic grid oversampled twice per axis.  With a 14-point kernel both
agree with the exact lattice sums to about 1e-13 max-abs, so round-trip
accuracy is limited only by the angular and radial discretization.

Both directions require a grid with equal position and momentum extents
(see grid.square_grid): rotations mix the axes, and equal extents keep
rotated content inside the periodic domain at every angle.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TomographyError
from .grid import PhaseGrid
from .wigner import WignerFunction

__all__ = ["Tomogram", "forward_tomogram", "inverse_tomogram"]

CLIP_FLOOR = -1e-5
FAN_TOL = 1e-9       # allowed departure of a frame angle from i pi/n_frames
ROLLOFF_START = 0.8  # raised-cosine roll-off begins at this Nyquist fraction
PAD_FACTOR = 4       # zero padding of each projection before filtering

# Gridding in both directions: fine-grid points covered by the kernel
# per axis, its shape parameter, and the oversampling of the fine grid.
SPREAD_WIDTH = 14
SPREAD_BETA = 2.30 * SPREAD_WIDTH
OVERSAMPLING = 2


@dataclass(frozen=True)
class Tomogram:
    """Quadrature densities w(X; mu, nu) for a set of rotation frames."""

    frames: tuple          # (mu, nu) pairs, mu = cos(theta), nu = sin(theta)
    x_axis: np.ndarray     # quadrature sample points (shared by all frames)
    values: np.ndarray     # shape (n_frames, len(x_axis)), nonnegative
    min_before_clip: float = 0.0

    def __post_init__(self):
        if len(self.frames) < 1:
            raise TomographyError("tomogram needs at least one frame")
        if self.values.shape != (len(self.frames), len(self.x_axis)):
            raise TomographyError("tomogram value shape mismatch")
        if len({(round(m, 12), round(n, 12)) for m, n in self.frames}) \
                != len(self.frames):
            raise TomographyError("tomogram frames must be pairwise distinct")
        if not all(abs(m * m + n * n - 1.0) <= 1e-12 for m, n in self.frames):
            raise TomographyError("tomogram frames must be unit rotations, "
                                  "mu^2 + nu^2 = 1")

    @property
    def dx(self) -> float:
        return float(self.x_axis[1] - self.x_axis[0])


def _require_square(grid: PhaseGrid) -> None:
    if not grid.is_centered():
        raise TomographyError(
            "tomography requires a position axis centered on zero")
    if abs(grid.dx - grid.dp) > 1e-9 * grid.dx:
        raise TomographyError(
            "tomography requires equal position/momentum extents "
            "(dx == dp); build the state on grid.square_grid(...)")


def _kernel(z: np.ndarray) -> np.ndarray:
    """Exponential of semicircle on z in [-1, 1]."""
    return np.exp(SPREAD_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0))
                                 - 1.0))


def _spread_axis(u: np.ndarray, m: int):
    """Fine-grid indices (mod m) and kernel weights of samples at u.

    u is in fine-grid units; each sample covers SPREAD_WIDTH points.
    """
    half = 0.5 * SPREAD_WIDTH
    nodes = np.ceil(u - half)[:, None] + np.arange(SPREAD_WIDTH)
    return nodes.astype(np.int64) % m, _kernel((nodes - u[:, None]) / half)


def _kernel_transform(modes: np.ndarray, m: int) -> np.ndarray:
    """Fourier transform, in fine-grid units, of the kernel at integer
    modes of an m-point periodic grid (Gauss-Legendre quadrature)."""
    half = 0.5 * SPREAD_WIDTH
    z, weights = np.polynomial.legendre.leggauss(4 * SPREAD_WIDTH + 20)
    phase = np.outer(modes, z) * (2.0 * np.pi / m * half)
    return half * (np.cos(phase) @ (weights * _kernel(z)))


def _fine_grid(g: PhaseGrid):
    """Size m of the oversampled periodic grid, its spacing in radians a
    lattice step, the fine-grid indices of the lattice and the kernel's
    transform there, and the offset: x = a dx + offset, p = b dp with
    integer a, b centred on zero."""
    m = OVERSAMPLING * g.n
    modes = np.arange(g.n) - g.n // 2
    return (m, 2.0 * np.pi / m, modes % m, _kernel_transform(modes, m),
            g.x_min + (g.n // 2) * g.dx)


def forward_tomogram(w: WignerFunction, angles) -> Tomogram:
    """Marginal density of X = x cos(t) + p sin(t) for each angle.

    The spectrum  dx dp sum W exp(-i k (x mu + p nu))  at the real-FFT
    frequencies k is a type-2 non-uniform FFT: W, divided by the
    kernel's transform on the centred indices of the 2n x 2n grid, is
    transformed along x and then along p once, and each angle gathers
    its n//2 + 1 frequencies with the kernel weights (O(n w^2) work).
    Tiny negative excursions (ringing) are clipped to zero and the
    worst pre-clip value recorded.
    """
    angles = [float(t) for t in angles]
    if not angles:
        raise TomographyError("empty angle list")
    for t in angles:
        if not 0.0 <= t < np.pi:   # NaN too
            raise TomographyError(f"angle {t} outside [0, pi)")
    g = w.grid
    _require_square(g)
    w.check_normalized()

    n, dx, dp = g.n, g.dx, g.dp
    m, step, keep, kernel_hat, offset = _fine_grid(g)
    fine = np.zeros((m, n), dtype=complex)
    fine[keep] = w.values / np.outer(kernel_hat, kernel_hat)
    spectrum = np.zeros((m, m), dtype=complex)
    spectrum[:, keep] = np.fft.fft(fine, axis=0)
    flat = np.fft.fft(spectrum, axis=1, out=spectrum).reshape(-1)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)

    spectra = np.empty((len(angles), len(k)), dtype=complex)
    for spec, t in zip(spectra, angles):
        mu, nu = np.cos(t), np.sin(t)
        ix, wx = _spread_axis(k * (mu * dx / step), m)
        ip, wp = _spread_axis(k * (nu * dp / step), m)
        taps = flat[ix[:, :, None] * m + ip[:, None, :]]
        # the lattice offset along X and the X axis origin in one phase
        spec[:] = (np.sum((taps @ wp[:, :, None])[:, :, 0] * wx, axis=1)
                   * np.exp(1j * k * (g.x_min - mu * offset)))
    density = np.fft.irfft(spectra, n, axis=1) * dp
    low = density.min(axis=1)
    worst = int(np.argmin(low))
    if low[worst] < CLIP_FLOOR:
        raise TomographyError(
            f"projection at angle {angles[worst]:.6f} dips to "
            f"{low[worst]:.3e}, below the admissible ringing floor "
            f"{CLIP_FLOOR}")
    frames = tuple((float(np.cos(t)), float(np.sin(t))) for t in angles)
    return Tomogram(frames, g.x, np.clip(density, 0.0, None),
                    min_before_clip=min(0.0, float(low[worst])))


def _ramp_filter(k: np.ndarray, dk: float, k_nyquist: float) -> np.ndarray:
    """|k| ramp with a raised-cosine roll-off starting at 80% Nyquist.

    The k = 0 bin carries its exact bin-integrated weight dk/4; leaving
    it at zero produces the classic cupping artifact (a constant mass
    deficit spread over the whole plane).
    """
    mag = np.abs(k)
    window = np.ones_like(mag)
    start = ROLLOFF_START * k_nyquist
    rolled = mag > start
    window[rolled] = 0.5 * (1.0 + np.cos(
        np.pi * (mag[rolled] - start) / ((1.0 - ROLLOFF_START) * k_nyquist)))
    window[mag > k_nyquist] = 0.0
    filt = mag * window
    filt[mag < 0.5 * dk] = dk / 4.0
    return filt


def inverse_tomogram(tomo: Tomogram, target_grid: PhaseGrid) -> WignerFunction:
    """Filtered back-projection of a tomogram onto a phase-space grid.

    Each frame is weighted by pi/n_frames, so the frame angles must be
    i pi/n_frames.  Each projection is zero-padded to PAD_FACTOR times
    its length and ramp-filtered in its quadrature frequency; the
    back-projection  sum_k c_k exp(-i k (x mu + p nu))  is evaluated on
    the lattice by gridding (a type-1 non-uniform FFT).  The profile is
    real and the filter even, so c_-k = conj(c_k): only k >= 0 is
    spread, from a real FFT, with 2 c_k for k > 0; the grid offset of
    the target is folded into the coefficients.  Each frame is spread
    onto a 2n x 2n periodic grid with a 14-point exponential of
    semicircle kernel, the grid is transformed along x and then along p,
    keeping the n modes needed each time, and the kernel's Fourier
    transform is divided out.  The result agrees with the exact
    synthesis on the lattice to about 1e-13 max-abs, at O(n_pad w^2)
    work a frame plus one O(n^2 log n) transform.

    The ramp filter's slowly decaying spatial tail (~ -1/X^2) aliases on
    the periodic synthesis window into a flat sheet proportional to
    1/PAD_FACTOR^2; since admissible states vanish at the grid boundary,
    that sheet is estimated from the boundary ring and subtracted before
    the output is normalized to unit integral.
    """
    n_frames = len(tomo.frames)
    if n_frames < 2:
        raise TomographyError(f"need at least 2 frames, got {n_frames}")
    angles = np.sort([np.arctan2(nu, mu) for mu, nu in tomo.frames])
    if not np.all(np.abs(angles - np.arange(n_frames) * np.pi / n_frames)
                  <= FAN_TOL):
        raise TomographyError(f"frame angles must be the equispaced fan "
                              f"i*pi/{n_frames}, i = 0..{n_frames - 1}")
    if n_frames < 32:
        warnings.warn(
            f"only {n_frames} frames: reconstruction will be qualitative "
            "(>= 32 equispaced angles recommended)", stacklevel=2)
    _require_square(target_grid)

    x_axis = tomo.x_axis
    d_x = tomo.dx
    n_pad = PAD_FACTOR * len(x_axis)
    dk = 2.0 * np.pi / (n_pad * d_x)
    k = dk * np.arange(n_pad // 2)  # Nyquist has zero filter weight
    dtheta = np.pi / n_frames
    # hat_w(k) = dX sum_m w_m exp(+i k X_m) = dX exp(i k X_0) conj(rfft)
    gain = (_ramp_filter(k, dk, np.pi / d_x) * np.where(k > 0, 2.0, 1.0)
            * d_x * np.exp(1j * k * x_axis[0])
            * (dk * dtheta / (4.0 * np.pi ** 2)))

    n, dx, dp = target_grid.n, target_grid.dx, target_grid.dp
    m, step, keep, kernel_hat, offset = _fine_grid(target_grid)
    acc = np.zeros((m, m), dtype=complex)
    flat = acc.reshape(-1)
    for (mu, nu), density in zip(tomo.frames, tomo.values):
        c = gain * np.conj(np.fft.rfft(density, n_pad)[:len(k)]) \
            * np.exp(-1j * k * mu * offset)
        ix, wx = _spread_axis(k * (mu * dx / step), m)
        ip, wp = _spread_axis(k * (nu * dp / step), m)
        np.add.at(flat, (ix[:, :, None] * m + ip[:, None, :]).ravel(),
                  ((c[:, None] * wx)[:, :, None] * wp[:, None, :]).ravel())

    rows = np.fft.fft(acc, axis=0, out=acc)[keep]
    out = np.fft.fft(rows, axis=1, out=rows)[:, keep].real
    out /= np.outer(kernel_hat, kernel_hat)

    ring = np.concatenate([out[0, :], out[-1, :], out[1:-1, 0],
                           out[1:-1, -1]])
    out -= float(ring.mean())
    total = float(np.sum(out) * target_grid.dx * target_grid.dp)
    if total <= 0:
        raise TomographyError("reconstruction has nonpositive total mass")
    return WignerFunction(target_grid, out / total)
