"""Internal spectral primitives: centered DFTs and band-limited
upsampling.

Conventions.  The "centered" transform pair used throughout maps an
array indexed by j' = j - n/2 to one indexed by l' = l - n/2:

    F[l] = sum_j  a[j] exp(-2i*pi*(l - n/2)*(j - n/2)/n)

so that physically centered axes (x' = (j - n/2)*dx, p = (l - n/2)*dp)
transform into each other without explicit phase ramps.
"""

import numpy as np

__all__ = ["centered_fft", "centered_ifft", "upsample2"]


def centered_fft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis)


def centered_ifft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.fftshift(
        np.fft.ifft(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis)


def upsample2(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Trigonometric interpolation onto a lattice of doubled resolution.

    Zero-pads the spectrum; the Nyquist bin is split evenly between
    +/- Nyquist so real inputs stay real. Exact for band-limited data.
    """
    a = np.asarray(a)
    n = a.shape[axis]
    if n % 2:
        raise ValueError("upsample2 requires an even sample count")
    spec = np.fft.fft(a, axis=axis)
    shape = list(a.shape)
    shape[axis] = 2 * n
    padded = np.zeros(shape, dtype=complex)

    def sl(start, stop):
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)

    half = n // 2
    padded[sl(0, half)] = spec[sl(0, half)]
    padded[sl(2 * n - half + 1, 2 * n)] = spec[sl(half + 1, n)]
    # split the Nyquist bin
    padded[sl(half, half + 1)] = 0.5 * spec[sl(half, half + 1)]
    padded[sl(2 * n - half, 2 * n - half + 1)] = 0.5 * spec[sl(half, half + 1)]
    return 2.0 * np.fft.ifft(padded, axis=axis)

