"""Expectation values by the operator route and the phase-space route,
uncertainty/blob reports, purity and negativity: functions of one state.

Mixed x*p monomials use the Weyl (symmetric) correspondence on the
operator side, which is the unique ordering that makes the two routes
agree.
"""

from dataclasses import dataclass, asdict

import numpy as np

from .errors import StateError
from .potentials import Potential
from .states import Wavefunction, check_normalized
from .wigner import WignerFunction, purity  # purity: kept importable here

__all__ = [
    "MomentReport", "expectation_operator", "expectation_phase_space",
    "moments", "negativity",
]

MAX_POLY_DEGREE = 4
# moment operator -> exponents (i, j) of its Weyl symbol x^i p^j
WEYL_SYMBOLS = {"x": (1, 0), "p": (0, 1), "x2": (2, 0), "p2": (0, 2),
                "sym_xp": (1, 1)}


@dataclass(frozen=True)
class MomentReport:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float
    uncertainty_product: float
    blob_area: float

    def as_dict(self) -> dict:
        return asdict(self)


def _derivative_samples(psi: Wavefunction) -> np.ndarray:
    g = psi.grid
    k = g.wavenumbers_x()
    k[g.n // 2] = 0.0  # unpaired Nyquist bin carries no odd derivative
    return np.fft.ifft(1j * k * np.fft.fft(psi.samples))


def expectation_operator(psi: Wavefunction, which: str,
                         potential: Potential | None = None) -> float:
    """<A> for A in {'x', 'p', 'x2', 'p2', 'H', 'sym_xp'}.

    Position moments by quadrature of |psi|^2; momentum moments
    spectrally via -i hbar d/dx; 'sym_xp' is <(xp + px)/2>, real by
    construction; 'H' needs the potential argument.
    """
    check_normalized(psi)
    g = psi.grid
    dx = g.dx
    density = np.abs(psi.samples) ** 2
    if which == "x":
        return float(np.sum(g.x * density) * dx)
    if which == "x2":
        return float(np.sum(g.x ** 2 * density) * dx)
    dpsi = _derivative_samples(psi)
    if which == "p":
        return float(np.real(np.sum(np.conj(psi.samples)
                                    * (-1j * g.hbar) * dpsi) * dx))
    if which == "p2":
        return float(g.hbar ** 2 * np.sum(np.abs(dpsi) ** 2) * dx)
    if which == "sym_xp":
        return float(np.real(np.sum(np.conj(psi.samples) * g.x
                                    * (-1j * g.hbar) * dpsi) * dx))
    if which == "H":
        if potential is None:
            raise StateError("expectation of H requires a potential")
        kinetic = g.hbar ** 2 * np.sum(np.abs(dpsi) ** 2) * dx / (2 * g.mass)
        return float(kinetic + np.sum(potential.value(g.x) * density) * dx)
    raise StateError(f"unknown observable {which!r}")


def expectation_phase_space(w: WignerFunction, poly: dict) -> float:
    """integral f(x, p) W(x, p) dx dp for f a polynomial in (x, p).

    poly maps exponent pairs (i, j) to coefficients; total degree is
    capped at 4 (higher moments amplify grid-edge noise).
    """
    w.check_normalized()
    g = w.grid
    acc = 0.0
    for (i, j), coeff in poly.items():
        if i < 0 or j < 0 or i + j > MAX_POLY_DEGREE:
            raise StateError(
                f"monomial x^{i} p^{j} outside supported degree "
                f"(total degree <= {MAX_POLY_DEGREE})")
        acc += coeff * float((g.x ** i) @ w.values @ (g.p ** j))
    return acc * g.dx * g.dp


def moments(state) -> MomentReport:
    """First and second moments with the uncertainty product and the
    covariance-ellipse (blob) area sqrt(det Sigma).

    Accepts a Wavefunction (operator route) or a WignerFunction
    (phase-space route); the two agree on transform pairs.
    """
    if isinstance(state, Wavefunction):
        mx, mp, x2, p2, xp = (expectation_operator(state, operator)
                              for operator in WEYL_SYMBOLS)
    elif isinstance(state, WignerFunction):
        mx, mp, x2, p2, xp = (expectation_phase_space(state, {powers: 1.0})
                              for powers in WEYL_SYMBOLS.values())
    else:
        raise StateError(f"moments expects a state, got {type(state)!r}")
    var_x = x2 - mx ** 2
    var_p = p2 - mp ** 2
    cov = xp - mx * mp
    det = var_x * var_p - cov ** 2
    return MomentReport(
        mean_x=mx, mean_p=mp, var_x=var_x, var_p=var_p, cov_xp=cov,
        uncertainty_product=float(np.sqrt(max(var_x, 0.0) * max(var_p, 0.0))),
        blob_area=float(np.sqrt(max(det, 0.0))),
    )


def negativity(w: WignerFunction) -> tuple[float, float]:
    """(min over the grid, integral |W| - 1); both zero-ish for
    nonnegative W."""
    g = w.grid
    min_value = float(w.values.min())
    neg_volume = float(np.sum(np.abs(w.values)) * g.dx * g.dp - w.total())
    return min_value, neg_volume
